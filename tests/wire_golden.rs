//! Golden wire bytes of `monomapd`: the answers a client sees, byte for
//! byte. The constants below were captured from the daemon *before*
//! the request path was folded into one pipeline (`/map` as a batch of
//! one) and `http.rs` was cut into `wire` / `eventloop` / `routes`;
//! they pin that refactors of the service layer leave the wire alone.

use std::io::{Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::time::Duration;

use monomap::prelude::*;
use monomap_service::{CachedMappingService, Server, ServerConfig, ServerHandle};

fn start_server() -> ServerHandle {
    let cgra = Cgra::new(2, 2).unwrap();
    let service = standard_service(&cgra).with_parallelism(2);
    let cached = CachedMappingService::new(service, 256);
    let config = ServerConfig {
        workers: 1,
        max_body_bytes: 4096,
        ..ServerConfig::default()
    };
    Server::bind("127.0.0.1:0", cached, config)
        .expect("bind ephemeral port")
        .spawn()
        .expect("spawn server")
}

/// Sends `request` on a fresh connection and returns exactly one
/// response (head + `Content-Length` body), split at the blank line.
fn exchange(addr: SocketAddr, request: &[u8]) -> (String, String) {
    let mut stream = TcpStream::connect(addr).unwrap();
    stream
        .set_read_timeout(Some(Duration::from_secs(30)))
        .unwrap();
    stream.write_all(request).unwrap();
    let mut bytes = Vec::new();
    let mut buf = [0u8; 4096];
    let head_end = loop {
        let n = stream.read(&mut buf).expect("response bytes");
        assert!(n > 0, "connection closed before a full response");
        bytes.extend_from_slice(&buf[..n]);
        if let Some(pos) = bytes.windows(4).position(|w| w == b"\r\n\r\n") {
            break pos + 4;
        }
    };
    let head = String::from_utf8(bytes[..head_end].to_vec()).unwrap();
    let content_length: usize = head
        .lines()
        .find_map(|l| l.strip_prefix("Content-Length: "))
        .and_then(|v| v.parse().ok())
        .expect("Content-Length header");
    while bytes.len() < head_end + content_length {
        let n = stream.read(&mut buf).expect("body bytes");
        assert!(n > 0, "connection closed mid-body");
        bytes.extend_from_slice(&buf[..n]);
    }
    assert_eq!(bytes.len(), head_end + content_length, "nothing trails");
    let body = String::from_utf8(bytes[head_end..].to_vec()).unwrap();
    (head, body)
}

fn post(path: &str, body: &str) -> Vec<u8> {
    format!(
        "POST {path} HTTP/1.1\r\nHost: x\r\nContent-Length: {}\r\n\r\n{body}",
        body.len()
    )
    .into_bytes()
}

const HEALTHZ_BODY: &str = "{\"status\":\"ok\",\"engines\":[\"decoupled\",\"coupled\",\"annealing\"],\"cgra\":\"2x2 torus\",\"cache_capacity\":256}";

/// `(request, full response)` pairs, `{V}` standing for the HTTP
/// version of the request. A malformed head is answered before its
/// version is known, hence the fixed `HTTP/1.1` on the 400.
const GOLDEN: &[(&str, &str, &str)] = &[
    (
        "GET /nope {V}\r\nHost: x\r\n\r\n",
        "{V} 404 Not Found\r\nContent-Type: application/json\r\nContent-Length: 35\r\nConnection: {C}\r\n\r\n",
        "{\"error\":\"no such endpoint: /nope\"}",
    ),
    (
        "PUT /map {V}\r\nHost: x\r\n\r\n",
        "{V} 405 Method Not Allowed\r\nContent-Type: application/json\r\nContent-Length: 34\r\nConnection: {C}\r\n\r\n",
        "{\"error\":\"method PUT not allowed\"}",
    ),
    (
        "POST /map {V}\r\nHost: x\r\nContent-Length: 5000\r\n\r\n",
        "{V} 413 Payload Too Large\r\nContent-Type: application/json\r\nContent-Length: 34\r\nConnection: close\r\n\r\n",
        "{\"error\":\"request body too large\"}",
    ),
    (
        "POST /map {V}\r\nHost: x\r\nContent-Length: 4\r\nContent-Length: 5\r\n\r\nabcde",
        "HTTP/1.1 400 Bad Request\r\nContent-Type: application/json\r\nContent-Length: 46\r\nConnection: close\r\n\r\n",
        "{\"error\":\"conflicting Content-Length headers\"}",
    ),
    (
        "GET /healthz {V}\r\nHost: x\r\n\r\n",
        "{V} 200 OK\r\nContent-Type: application/json\r\nContent-Length: 101\r\nConnection: {C}\r\n\r\n",
        HEALTHZ_BODY,
    ),
];

#[test]
fn error_and_health_answers_are_byte_identical_to_the_parent() {
    let server = start_server();
    for (version, connection) in [("HTTP/1.0", "close"), ("HTTP/1.1", "keep-alive")] {
        for (request, head, body) in GOLDEN {
            let request = request.replace("{V}", version);
            let want_head = head.replace("{V}", version).replace("{C}", connection);
            let (got_head, got_body) = exchange(server.addr(), request.as_bytes());
            assert_eq!(got_head, want_head, "head of the answer to {request:?}");
            assert_eq!(got_body, *body, "body of the answer to {request:?}");
        }
    }
    server.shutdown().unwrap();
}

#[test]
fn map_hit_and_all_hit_batch_carry_exactly_the_captured_headers() {
    let server = start_server();
    let request =
        serde_json::to_string(&MapRequest::new(EngineId::Decoupled, accumulator())).unwrap();
    let (cold_head, _) = exchange(server.addr(), &post("/map", &request));
    assert!(
        cold_head.ends_with("X-Monomap-Cache: miss\r\n\r\n"),
        "{cold_head}"
    );

    let (head, body) = exchange(server.addr(), &post("/map", &request));
    assert_eq!(
        head,
        format!(
            "HTTP/1.1 200 OK\r\nContent-Type: application/json\r\nContent-Length: {}\r\n\
             Connection: keep-alive\r\nX-Monomap-Cache: hit\r\n\r\n",
            body.len()
        )
    );
    let (batch_head, batch_body) = exchange(
        server.addr(),
        &post("/map_batch", &format!("[{request},{request}]")),
    );
    assert_eq!(
        batch_head,
        format!(
            "HTTP/1.1 200 OK\r\nContent-Type: application/json\r\nContent-Length: {}\r\n\
             Connection: keep-alive\r\n\r\n",
            batch_body.len()
        )
    );
    assert_eq!(
        batch_body,
        format!("{{\"reports\":[{body},{body}],\"cache\":[\"hit\",\"hit\"]}}")
    );
    server.shutdown().unwrap();
}

#[test]
fn map_and_a_one_element_batch_agree_on_report_bytes_and_disposition() {
    let server = start_server();
    // Cold through the batch endpoint, warm through `/map`: a hit
    // replays the stored report, so the two bodies hold the same bytes.
    let request =
        serde_json::to_string(&MapRequest::new(EngineId::Decoupled, running_example())).unwrap();
    let (_, batch_cold) = exchange(server.addr(), &post("/map_batch", &format!("[{request}]")));
    let (map_head, map_warm) = exchange(server.addr(), &post("/map", &request));
    assert!(map_head.contains("X-Monomap-Cache: hit\r\n"), "{map_head}");
    assert_eq!(
        batch_cold,
        format!("{{\"reports\":[{map_warm}],\"cache\":[\"miss\"]}}")
    );
    // And the other way round: cold through `/map`, warm through a
    // batch of one.
    let request =
        serde_json::to_string(&MapRequest::new(EngineId::Decoupled, accumulator())).unwrap();
    let (map_head, map_cold) = exchange(server.addr(), &post("/map", &request));
    assert!(map_head.contains("X-Monomap-Cache: miss\r\n"), "{map_head}");
    let (_, batch_warm) = exchange(server.addr(), &post("/map_batch", &format!("[{request}]")));
    assert_eq!(
        batch_warm,
        format!("{{\"reports\":[{map_cold}],\"cache\":[\"hit\"]}}")
    );
    // Invalid input takes the same road on both endpoints.
    let (_, map_bad) = exchange(server.addr(), &post("/map", "{\"engine\":\"decoupled\"}"));
    let (_, batch_bad) = exchange(
        server.addr(),
        &post("/map_batch", "[{\"engine\":\"decoupled\"}]"),
    );
    assert!(
        map_bad.starts_with("{\"error\":\"invalid MapRequest: "),
        "{map_bad}"
    );
    assert!(
        batch_bad.starts_with("{\"error\":\"invalid MapRequest array: "),
        "{batch_bad}"
    );
    server.shutdown().unwrap();
}
