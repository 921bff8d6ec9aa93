//! Integration tests of the persistence and peer tiers: the ISSUE-9
//! acceptance battery — restart survival through the disk log, crash
//! recovery with real solved kernels, capacity-respecting replay, and
//! peer fill (verified, translated, fail-soft) against real and
//! byzantine siblings.

use std::io::{Read, Write};
use std::net::TcpListener;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Duration;

use cgra_arch::Cgra;
use cgra_baseline::standard_service;
use cgra_dfg::{Dfg, DfgBuilder, NodeId, Operation};
use monomap_core::api::{EngineId, MapRequest};
use monomap_frontend::suite;
use monomap_service::{
    CacheDisposition, CachedMappingService, Client, DiskLog, MapCache, PeerStore, Server,
    ServerConfig, TieredCache,
};

/// A throwaway directory under the OS temp dir, removed on drop.
struct TempDir(PathBuf);

impl TempDir {
    fn new(tag: &str) -> TempDir {
        static SEQ: AtomicU64 = AtomicU64::new(0);
        let path = std::env::temp_dir().join(format!(
            "monomap-persistence-{tag}-{}-{}",
            std::process::id(),
            SEQ.fetch_add(1, Ordering::Relaxed),
        ));
        std::fs::create_dir_all(&path).unwrap();
        TempDir(path)
    }

    fn path(&self) -> &Path {
        &self.0
    }
}

impl Drop for TempDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

/// A cached service whose tier stack is memory + a disk log in `dir`.
fn disk_backed(dir: &Path, mem_capacity: usize, disk_capacity: usize) -> CachedMappingService {
    let cgra = Cgra::new(2, 2).unwrap();
    let mut tiers = TieredCache::new(MapCache::with_shards(mem_capacity, 1));
    tiers.push_store(Box::new(DiskLog::open(dir, disk_capacity).unwrap()));
    CachedMappingService::with_tiers(standard_service(&cgra), tiers)
}

fn request(dfg: Dfg) -> MapRequest {
    MapRequest::new(EngineId::Decoupled, dfg)
}

/// A chain kernel of `len` negations — structurally distinct per `len`.
fn chain(len: usize) -> Dfg {
    let mut b = DfgBuilder::new();
    let x = b.input("x");
    let mut cur = x;
    for i in 0..len {
        cur = b.unary(format!("n{i}"), Operation::Neg, cur);
    }
    b.output("out", cur);
    b.build().unwrap()
}

/// Renumbers `dfg` by `perm` (`perm[old] = new`), fresh names.
fn renumber(dfg: &Dfg, perm: &[usize]) -> Dfg {
    let mut g = Dfg::new(dfg.name().to_string());
    let mut old_at = vec![0usize; dfg.num_nodes()];
    for (old, &new) in perm.iter().enumerate() {
        old_at[new] = old;
    }
    for &old in &old_at {
        let v = NodeId::from_index(old);
        g.add_node(dfg.op(v), dfg.node_name(v).to_string());
    }
    for e in dfg.edges() {
        g.add_edge(
            NodeId::from_index(perm[e.src.index()]),
            NodeId::from_index(perm[e.dst.index()]),
            e.operand,
            e.kind,
        );
    }
    g
}

fn reversal(n: usize) -> Vec<usize> {
    (0..n).map(|i| n - 1 - i).collect()
}

#[test]
fn solved_kernels_survive_a_restart_without_resolving() {
    let dir = TempDir::new("restart");
    let first = {
        let svc = disk_backed(dir.path(), 64, 1024);
        let (report, d) = svc.map(&request(suite::generate("susan")));
        assert_eq!(d, CacheDisposition::Miss);
        assert!(report.outcome.is_mapped());
        svc.map(&request(chain(3)));
        report
    };

    // "Restart": a fresh service over the same directory.
    let svc = disk_backed(dir.path(), 64, 1024);
    assert_eq!(svc.warm_start(), 2, "both solves were persisted");
    let (again, d) = svc.map(&request(suite::generate("susan")));
    assert_eq!(d, CacheDisposition::Hit, "replayed entry answers the hit");
    assert_eq!(again, first, "replay serves the original report");
    let stats = svc.stats();
    assert_eq!(stats.hits, 1, "hot tier answered (no disk round trip)");
    assert_eq!(stats.misses, 0, "nothing was re-solved");
    assert_eq!(svc.persistence_stats().disk_replayed, 2);
}

#[test]
fn disk_hit_without_warm_start_backfills_memory() {
    let dir = TempDir::new("lazyfill");
    {
        let svc = disk_backed(dir.path(), 64, 1024);
        svc.map(&request(chain(4)));
    }
    // No warm_start: the first lookup falls through to disk.
    let svc = disk_backed(dir.path(), 64, 1024);
    let (_, d) = svc.map(&request(chain(4)));
    assert_eq!(d, CacheDisposition::Hit);
    assert_eq!(svc.persistence_stats().disk_hits, 1);
    // Backfilled: the second lookup never leaves memory.
    let (_, d2) = svc.map(&request(chain(4)));
    assert_eq!(d2, CacheDisposition::Hit);
    assert_eq!(svc.persistence_stats().disk_hits, 1, "no second disk read");
    assert_eq!(svc.stats().hits, 1, "second lookup is the hot tier's hit");
}

#[test]
fn torn_final_record_recovers_the_valid_prefix_of_real_solves() {
    let dir = TempDir::new("torn");
    {
        let svc = disk_backed(dir.path(), 64, 1024);
        svc.map(&request(chain(2)));
        svc.map(&request(chain(5)));
    }
    // Crash mid-append: drop the last few bytes of the final record.
    let log_path = dir.path().join(monomap_service::disklog::LOG_FILE);
    let len = std::fs::metadata(&log_path).unwrap().len();
    let file = std::fs::OpenOptions::new()
        .write(true)
        .open(&log_path)
        .unwrap();
    file.set_len(len - 5).unwrap();
    drop(file);

    let log = DiskLog::open(dir.path(), 1024).unwrap();
    assert_eq!(log.len(), 1, "longest valid prefix: the first solve");
    assert!(
        !log.warnings().is_empty(),
        "truncation is reported, not silent"
    );
    let mut tiers = TieredCache::new(MapCache::with_shards(64, 1));
    tiers.push_store(Box::new(log));
    let svc = CachedMappingService::with_tiers(standard_service(&Cgra::new(2, 2).unwrap()), tiers);
    assert_eq!(svc.warm_start(), 1);
    let (_, d_ok) = svc.map(&request(chain(2)));
    assert_eq!(d_ok, CacheDisposition::Hit, "intact record still serves");
    let (report, d_torn) = svc.map(&request(chain(5)));
    assert_eq!(d_torn, CacheDisposition::Miss, "torn record is re-solved");
    assert!(report.outcome.is_mapped(), "re-solve succeeds");
}

#[test]
fn replay_respects_a_smaller_memory_capacity_exactly() {
    let dir = TempDir::new("capacity");
    {
        let svc = disk_backed(dir.path(), 64, 1024);
        for len in 1..=6 {
            svc.map(&request(chain(len)));
        }
    }
    // Restart with a smaller --cache-capacity: all 6 records replay,
    // but the hot tier holds exactly its bound, keeping the newest.
    let svc = disk_backed(dir.path(), 4, 1024);
    assert_eq!(svc.warm_start(), 6, "the whole log is replayed");
    assert_eq!(svc.cache().len(), 4, "hot tier capacity is exact");
    assert_eq!(svc.stats().evictions, 2, "oldest replays were displaced");
    // The newest kernel is memory-resident...
    let (_, d_new) = svc.map(&request(chain(6)));
    assert_eq!(d_new, CacheDisposition::Hit);
    assert_eq!(svc.persistence_stats().disk_hits, 0, "served from memory");
    // ...and a displaced one still hits, via the disk tier.
    let (_, d_old) = svc.map(&request(chain(1)));
    assert_eq!(d_old, CacheDisposition::Hit, "disk backstops the eviction");
    assert_eq!(svc.persistence_stats().disk_hits, 1);
}

/// Spawns a real daemon and returns its handle plus a client.
fn start_peer_daemon() -> (monomap_service::ServerHandle, Client) {
    let cgra = Cgra::new(2, 2).unwrap();
    let cached = CachedMappingService::new(standard_service(&cgra).with_parallelism(2), 256);
    let server = Server::bind("127.0.0.1:0", cached, ServerConfig::default()).expect("bind");
    let handle = server.spawn().expect("spawn");
    let client = Client::new(handle.addr()).expect("client");
    (handle, client)
}

/// A cached service whose tier stack is memory + a peer pointing at
/// `addr`.
fn peer_backed(addr: std::net::SocketAddr) -> CachedMappingService {
    let cgra = Cgra::new(2, 2).unwrap();
    let peer = Client::new(addr)
        .unwrap()
        .with_timeout(Some(Duration::from_secs(5)))
        .with_connect_timeout(Some(Duration::from_secs(5)));
    let mut tiers = TieredCache::new(MapCache::with_shards(64, 1));
    tiers.push_store(Box::new(PeerStore::new(vec![peer], 1)));
    CachedMappingService::with_tiers(standard_service(&cgra), tiers)
}

#[test]
fn renumbered_isomorphic_kernel_hits_through_a_peer_and_translates() {
    let (daemon, daemon_client) = start_peer_daemon();
    // The sibling solves the original numbering.
    let original = suite::generate("susan");
    let solved = daemon_client.map(&request(original.clone())).expect("map");
    assert!(solved.report.outcome.is_mapped());
    let original_mapping = solved.report.mapping.clone().expect("mapping");

    // A second daemon's service, cold, peers at the first: a
    // *renumbered* copy of the kernel must hit through the peer tier —
    // same digest, verified canonical bytes — and come back translated
    // into the renumbered node ids.
    let svc = peer_backed(daemon.addr());
    let perm = reversal(original.num_nodes());
    let renumbered = renumber(&original, &perm);
    let (report, d) = svc.map(&request(renumbered.clone()));
    assert_eq!(d, CacheDisposition::Hit, "peer fill is a hit, not a solve");
    assert_eq!(report.outcome.ii(), solved.report.outcome.ii());
    let stats = svc.persistence_stats();
    assert_eq!(stats.peer_hits, 1);
    assert_eq!(stats.peer_fill_errors, 0);
    assert_eq!(svc.stats().misses, 1, "the hot tier itself missed");

    // Placement-exact translation: node-for-node the sibling's mapping,
    // permuted into the requester's numbering, and valid for it.
    let mapping = report.mapping.expect("hit carries the mapping");
    mapping
        .validate(&renumbered, svc.inner().cgra())
        .expect("translated placements are valid for the new numbering");
    for v in original.nodes() {
        let w = NodeId::from_index(perm[v.index()]);
        assert_eq!(
            original_mapping.placement(v),
            mapping.placement(w),
            "node {v} placement survives renumbering across the wire"
        );
    }

    // The fill landed in local memory: no second peer round trip.
    let (_, d2) = svc.map(&request(renumbered));
    assert_eq!(d2, CacheDisposition::Hit);
    assert_eq!(svc.persistence_stats().peer_hits, 1);
    daemon.shutdown().unwrap();
}

#[test]
fn peer_down_degrades_to_a_plain_local_miss() {
    // Port 1 refuses connections; the peer tier must degrade into an
    // ordinary local miss-and-solve, never a request error.
    let svc = peer_backed("127.0.0.1:1".parse().unwrap());
    let (report, d) = svc.map(&request(chain(3)));
    assert_eq!(d, CacheDisposition::Miss);
    assert!(report.outcome.is_mapped(), "solved locally");
    let stats = svc.persistence_stats();
    assert_eq!(stats.peer_hits, 0);
    assert_eq!(stats.peer_fill_errors, 1, "the failed fill is counted");
}

/// A byzantine sibling: answers every `GET /cache/...` with a
/// plausible entry whose canonical bytes do NOT match any real kernel.
fn start_byzantine_peer() -> std::net::SocketAddr {
    // A genuine report gives the lie a well-formed shape.
    let cgra = Cgra::new(2, 2).unwrap();
    let svc = CachedMappingService::new(standard_service(&cgra), 16);
    let (report, _) = svc.map(&request(chain(1)));
    let report_json = serde_json::to_string(&report).unwrap();
    let body = format!("{{\"bytes\":\"deadbeef\",\"report\":{report_json}}}");

    let listener = TcpListener::bind("127.0.0.1:0").unwrap();
    let addr = listener.local_addr().unwrap();
    std::thread::spawn(move || {
        for stream in listener.incoming() {
            let Ok(mut stream) = stream else { continue };
            let body = body.clone();
            std::thread::spawn(move || {
                // Drain the request head, then lie.
                let mut buf = [0u8; 4096];
                let mut seen = Vec::new();
                while !seen.windows(4).any(|w| w == b"\r\n\r\n") {
                    match stream.read(&mut buf) {
                        Ok(0) | Err(_) => return,
                        Ok(n) => seen.extend_from_slice(&buf[..n]),
                    }
                }
                let _ = write!(
                    stream,
                    "HTTP/1.1 200 OK\r\nContent-Type: application/json\r\nContent-Length: {}\r\nConnection: close\r\n\r\n{}",
                    body.len(),
                    body
                );
            });
        }
    });
    addr
}

#[test]
fn mismatched_peer_bytes_are_rejected_and_counted() {
    let svc = peer_backed(start_byzantine_peer());
    let (report, d) = svc.map(&request(chain(2)));
    assert_eq!(
        d,
        CacheDisposition::Miss,
        "a lying peer is a miss, not a wrong-kernel hit"
    );
    assert!(report.outcome.is_mapped(), "solved locally instead");
    let stats = svc.persistence_stats();
    assert_eq!(stats.peer_hits, 0);
    assert_eq!(stats.peer_fill_errors, 1, "the refused fill is counted");
    // The local solve's correctness is unaffected by the bad peer.
    report
        .mapping
        .expect("mapping")
        .validate(&chain(2), svc.inner().cgra())
        .unwrap();
}

#[test]
fn peer_fill_persists_to_the_local_disk_log() {
    let dir = TempDir::new("peerdisk");
    let (daemon, daemon_client) = start_peer_daemon();
    daemon_client
        .map(&request(chain(7)))
        .expect("sibling solve");

    // Tier stack: memory → disk → peer. The peer fill must write
    // through to the disk log, so it survives a local restart even
    // after the sibling is gone.
    {
        let cgra = Cgra::new(2, 2).unwrap();
        let peer = Client::new(daemon.addr())
            .unwrap()
            .with_timeout(Some(Duration::from_secs(5)));
        let mut tiers = TieredCache::new(MapCache::with_shards(64, 1));
        tiers.push_store(Box::new(DiskLog::open(dir.path(), 1024).unwrap()));
        tiers.push_store(Box::new(PeerStore::new(vec![peer], 1)));
        let svc = CachedMappingService::with_tiers(standard_service(&cgra), tiers);
        let (_, d) = svc.map(&request(chain(7)));
        assert_eq!(d, CacheDisposition::Hit);
        assert_eq!(svc.persistence_stats().peer_hits, 1);
    }
    daemon.shutdown().unwrap();

    // Sibling gone, fresh local process: the entry replays from disk.
    let svc = disk_backed(dir.path(), 64, 1024);
    assert_eq!(svc.warm_start(), 1, "the peer fill was persisted");
    let (_, d) = svc.map(&request(chain(7)));
    assert_eq!(d, CacheDisposition::Hit);
    assert_eq!(svc.stats().misses, 0, "never re-solved");
}
