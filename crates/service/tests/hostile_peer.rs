//! A peer daemon is another machine's word: [`Client`] must hold every
//! part of a response — status line, header lines, body — to the
//! wire's caps, and the peer tier must treat an answer outside them as
//! one more failed fill: counted, then solved locally.

use std::io::{Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::time::Duration;

use cgra_arch::Cgra;
use cgra_baseline::standard_service;
use cgra_dfg::examples::accumulator;
use cgra_dfg::DfgDigest;
use monomap_core::api::{EngineId, MapRequest};
use monomap_service::{
    CacheDisposition, CacheKey, CacheStore, CachedMappingService, Client, ClientError, MapCache,
    PeerStore, TieredCache,
};

/// What a fake peer does with a connection once the request is in.
type Answer = fn(&mut TcpStream);

/// A fake sibling: reads each request's head, then lets `answer` write
/// whatever it likes on the socket.
fn start_fake_peer(answer: Answer) -> SocketAddr {
    let listener = TcpListener::bind("127.0.0.1:0").unwrap();
    let addr = listener.local_addr().unwrap();
    std::thread::spawn(move || {
        for stream in listener.incoming() {
            let Ok(mut stream) = stream else { continue };
            std::thread::spawn(move || {
                let mut buf = [0u8; 4096];
                let mut seen = Vec::new();
                while !seen.windows(4).any(|w| w == b"\r\n\r\n") {
                    match stream.read(&mut buf) {
                        Ok(0) | Err(_) => return,
                        Ok(n) => seen.extend_from_slice(&buf[..n]),
                    }
                }
                answer(&mut stream);
            });
        }
    });
    addr
}

/// Declares the largest body a 64-bit length can name and sends none
/// of it: a client that allocates on the peer's word dies here.
fn huge_content_length(stream: &mut TcpStream) {
    let _ = stream.write_all(
        b"HTTP/1.1 200 OK\r\nContent-Type: application/json\r\n\
          Content-Length: 18446744073709551615\r\nConnection: close\r\n\r\n{",
    );
}

/// A header line that never ends: 4 MiB without a newline, far past
/// the line cap, then EOF.
fn endless_header_line(stream: &mut TcpStream) {
    let _ = stream.write_all(b"HTTP/1.1 200 OK\r\nX-Filler: ");
    let chunk = [b'a'; 64 * 1024];
    for _ in 0..64 {
        if stream.write_all(&chunk).is_err() {
            return; // the client hung up, as it should
        }
    }
}

/// No `Content-Length` and a body that outruns the cap (the client
/// stops reading one byte past it).
fn endless_body(stream: &mut TcpStream) {
    let _ = stream.write_all(b"HTTP/1.1 200 OK\r\nConnection: close\r\n\r\n");
    let chunk = [b'a'; 64 * 1024];
    while stream.write_all(&chunk).is_ok() {}
}

const HOSTILE: [(&str, Answer); 3] = [
    ("huge Content-Length", huge_content_length),
    ("endless header line", endless_header_line),
    ("endless body", endless_body),
];

fn client(addr: SocketAddr) -> Client {
    Client::new(addr)
        .unwrap()
        .with_timeout(Some(Duration::from_secs(10)))
        .with_connect_timeout(Some(Duration::from_secs(5)))
}

fn key() -> CacheKey {
    CacheKey {
        digest: DfgDigest(7),
        engine: EngineId::Decoupled,
        cgra: 1,
        config: 2,
    }
}

#[test]
fn responses_outside_the_caps_are_protocol_errors() {
    for (what, answer) in HOSTILE {
        let client = client(start_fake_peer(answer));
        match client.fetch_cache(&key()) {
            Err(ClientError::Protocol(msg)) => {
                assert!(
                    msg.contains("cap") || msg.contains("too long"),
                    "{what}: {msg}"
                )
            }
            other => panic!("{what}: expected a protocol error, got {other:?}"),
        }
        // The same reader serves every endpoint.
        assert!(
            matches!(client.healthz(), Err(ClientError::Protocol(_))),
            "{what}"
        );
    }
}

#[test]
fn a_hostile_peer_is_a_counted_fill_error_and_the_kernel_is_solved_locally() {
    for (what, answer) in HOSTILE {
        let addr = start_fake_peer(answer);
        let store = PeerStore::new(vec![client(addr)], 1);
        assert!(store.get(&key(), b"canonical bytes").is_none(), "{what}");
        assert_eq!(store.stats().fill_errors, 1, "{what}");
        assert_eq!(store.stats().hits, 0, "{what}");

        let cgra = Cgra::new(2, 2).unwrap();
        let mut tiers = TieredCache::new(MapCache::with_shards(64, 1));
        tiers.push_store(Box::new(PeerStore::new(vec![client(addr)], 1)));
        let svc = CachedMappingService::with_tiers(standard_service(&cgra), tiers);
        let (report, disposition) = svc.map(&MapRequest::new(EngineId::Decoupled, accumulator()));
        assert_eq!(disposition, CacheDisposition::Miss, "{what}");
        assert!(report.outcome.is_mapped(), "{what}: solved locally");
        let stats = svc.persistence_stats();
        assert_eq!((stats.peer_hits, stats.peer_fill_errors), (0, 1), "{what}");
    }
}
