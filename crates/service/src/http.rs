//! The `monomapd` HTTP front end: a dependency-free HTTP/1.1 server
//! over [`std::net::TcpListener`], serving the
//! [`MapRequest`]/[`MapReport`] JSON envelope.
//!
//! Endpoints (see `docs/SERVICE.md` for the full wire spec):
//!
//! | method | path | body | response |
//! |--------|------|------|----------|
//! | `POST` | `/map` | one [`MapRequest`] | one [`MapReport`] |
//! | `POST` | `/map_batch` | array of requests | `{"reports": [...], "cache": [...]}` |
//! | `POST` | `/compile` | raw `.mk` source | compiled DFG + canonical digest |
//! | `GET` | `/cache/<digest>?engine=..&fp=..` | — | one cache entry (peer fill) |
//! | `GET` | `/stats` | — | cache + persistence + server counters |
//! | `GET` | `/healthz` | — | liveness + registry summary |
//!
//! Map responses carry an `X-Monomap-Cache: hit|miss|bypass` header.
//!
//! # Architecture: one reactor, two pools
//!
//! Cold solves are heavy-tailed (microseconds to minutes), so the
//! server never lets a solve occupy a connection-serving thread.
//! Instead:
//!
//! * A **reactor** (`crate::eventloop` over the epoll shim in
//!   `crate::reactor`) owns every socket: non-blocking accept,
//!   per-connection read/write state machines, keep-alive, and
//!   client-disconnect detection — a connection that goes readable and
//!   reads EOF while its request is in flight raises that request's
//!   [`CancelFlag`] immediately; detecting a disconnect polls nothing.
//!   A request's `deadline_seconds` is another matter: the engine's
//!   `run_request` starts one watchdog thread per request that carries
//!   it, polling every 5 ms until the solve ends (`docs/SERVICE.md`,
//!   "Deadlines and cancellation").
//!   Requests are parsed off the read buffers, and responses encoded,
//!   by `crate::wire`, which knows bytes and nothing else.
//! * A small **cheap pool** runs the fast path (`crate::routes`): JSON
//!   parse → validate → canonicalize → digest → cache lookup. Cache
//!   hits, invalid DFGs and protocol errors are answered here in
//!   microseconds, regardless of what the solve pool is doing.
//! * A fixed **solve pool** runs engines, fed by a *bounded* queue
//!   with admission control (`crate::admission`): when the queue is
//!   full, new solves are shed with `429 Too Many Requests` and a
//!   `Retry-After` hint priced from queue depth x observed solve p50.
//!   Pressure counters (`queue_depth`, `queue_high_watermark`,
//!   `shed_total`, `solve_pool_busy`) are surfaced on `GET /stats`.
//!
//! `/map` is the one-element case of `/map_batch`: one pipeline serves
//! both, and this module only wires it up — [`Server::run`] builds the
//! shared state, the two pools and the event loop, and blocks in it.
//!
//! Each connection has at most one request in flight (responses are
//! ordered on the wire anyway), which doubles as a per-connection
//! fairness cap: one client cannot occupy more than one solve-pool
//! slot plus one queue slot per open connection.
//!
//! [`MapRequest`]: monomap_core::api::MapRequest
//! [`MapReport`]: monomap_core::api::MapReport
//! [`CancelFlag`]: cgra_base::CancelFlag

use std::io;
use std::net::{SocketAddr, TcpListener, TcpStream, ToSocketAddrs};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{mpsc, Arc, Mutex};
use std::time::{Duration, Instant};

use serde::{Deserialize, Serialize};

use crate::admission::{SolveLatency, SolveQueue};
use crate::cache::CacheStatsSnapshot;
use crate::cached::CachedMappingService;
use crate::eventloop::EventLoop;
use crate::routes::{cheap_worker, solve_worker, CheapJob, Pool, Shared};
use crate::store::PersistenceStatsSnapshot;
use crate::wire::{Response, MAX_BODY_BYTES};

/// Tuning knobs of [`Server`]; the defaults suit both tests and the
/// `monomapd` binary.
#[derive(Clone, Debug)]
pub struct ServerConfig {
    /// Solve-pool threads: engines run here, at most `workers` at a
    /// time.
    pub workers: usize,
    /// Cheap-path threads: request parsing, canonicalization, digest
    /// and cache lookups run here, isolated from slow solves.
    pub cheap_workers: usize,
    /// Most solve jobs admitted to wait for the pool; one `/map` or
    /// one whole `/map_batch` is one job. Overflow is shed with `429`.
    pub queue_bound: usize,
    /// Largest accepted request body, in bytes.
    pub max_body_bytes: usize,
    /// An idle keep-alive connection is closed after this long.
    pub read_timeout: Duration,
}

impl Default for ServerConfig {
    fn default() -> Self {
        ServerConfig {
            workers: 4,
            cheap_workers: 2,
            queue_bound: 64,
            max_body_bytes: MAX_BODY_BYTES,
            read_timeout: Duration::from_secs(30),
        }
    }
}

/// Serializable server-side counters, nested under `"server"` in the
/// `GET /stats` response.
#[derive(Clone, Copy, Debug, Default, PartialEq, Serialize, Deserialize)]
pub struct ServerStatsSnapshot {
    /// All HTTP requests handled (any endpoint, any status).
    pub requests: u64,
    /// `POST /map` requests handled.
    pub map_requests: u64,
    /// `POST /map_batch` requests handled.
    pub batch_requests: u64,
    /// `POST /compile` requests handled.
    pub compile_requests: u64,
    /// Requests answered with a 4xx/5xx status.
    pub errors: u64,
    /// Solves released early because the client disconnected.
    pub client_disconnects: u64,
    /// Solve jobs currently waiting in the bounded queue.
    pub queue_depth: u64,
    /// Deepest the solve queue has ever been.
    pub queue_high_watermark: u64,
    /// Solve jobs shed with `429` because the queue was full.
    pub shed_total: u64,
    /// Solve-pool threads currently running an engine.
    pub solve_pool_busy: u64,
    /// Median of recent solve wall-times, in seconds (prices
    /// `Retry-After`); `0` until the first solve completes.
    pub solve_p50_seconds: f64,
    /// Seconds since the server started.
    pub uptime_seconds: f64,
}

/// The full `GET /stats` response body.
#[derive(Clone, Copy, Debug, Default, PartialEq, Serialize, Deserialize)]
pub struct StatsSnapshot {
    /// Content-addressed (hot tier) cache counters.
    pub cache: CacheStatsSnapshot,
    /// Persistence and peer tier counters (all zero when neither a
    /// disk log nor peers are configured).
    pub persistence: PersistenceStatsSnapshot,
    /// HTTP front-end counters.
    pub server: ServerStatsSnapshot,
}

/// The `monomapd` daemon core: a bound listener plus the cached
/// service it serves. [`Server::run`] blocks; [`Server::spawn`] runs
/// on a background thread and returns a [`ServerHandle`] (used by the
/// end-to-end tests).
pub struct Server {
    listener: TcpListener,
    service: CachedMappingService,
    config: ServerConfig,
    shutdown: Arc<AtomicBool>,
}

impl Server {
    /// Binds `addr` (use port 0 for an ephemeral port) over `service`.
    pub fn bind(
        addr: impl ToSocketAddrs,
        service: CachedMappingService,
        config: ServerConfig,
    ) -> io::Result<Server> {
        assert!(config.workers > 0, "server needs at least one solve worker");
        assert!(
            config.cheap_workers > 0,
            "server needs at least one cheap-path worker"
        );
        assert!(config.queue_bound > 0, "solve queue bound must be positive");
        Ok(Server {
            listener: TcpListener::bind(addr)?,
            service,
            config,
            shutdown: Arc::new(AtomicBool::new(false)),
        })
    }

    /// The bound address (the actual port when an ephemeral one was
    /// requested).
    pub fn local_addr(&self) -> io::Result<SocketAddr> {
        self.listener.local_addr()
    }

    /// Serves until shut down (blocking). The calling thread becomes
    /// the reactor; the cheap and solve pools run on scoped threads.
    /// The loop exits once the shutdown flag is raised (see
    /// [`ServerHandle::shutdown`]) and every in-flight request has been
    /// answered.
    pub fn run(self) -> io::Result<()> {
        let (workers, cheap_workers) = (self.config.workers, self.config.cheap_workers);
        let shared = Arc::new(Shared {
            service: self.service,
            counters: Default::default(),
            queue: SolveQueue::new(self.config.queue_bound),
            latency: SolveLatency::default(),
            solve_workers: workers,
            started: Instant::now(),
        });
        let (done_tx, done_rx) = mpsc::channel::<Response>();
        let (cheap_tx, cheap_rx) = mpsc::channel::<CheapJob>();
        let cheap_rx = Mutex::new(cheap_rx);
        let (mut event_loop, waker) = EventLoop::new(
            self.listener,
            self.shutdown,
            self.config,
            Arc::clone(&shared),
            cheap_tx,
            done_rx,
        )?;
        let pool = Pool {
            shared,
            done_tx,
            waker,
        };
        std::thread::scope(|scope| {
            for _ in 0..cheap_workers {
                scope.spawn(|| cheap_worker(&pool, &cheap_rx));
            }
            for _ in 0..workers {
                scope.spawn(|| solve_worker(&pool));
            }
            let result = event_loop.run();
            // Release the pools: queued solves drain, then both pools
            // observe their closed queues/channels and exit.
            pool.shared.queue.close();
            drop(event_loop); // drops cheap_tx and done_rx
            result
        })
    }

    /// Runs the server on a background thread, returning a handle with
    /// the bound address and a shutdown switch.
    pub fn spawn(self) -> io::Result<ServerHandle> {
        let addr = self.local_addr()?;
        let shutdown = Arc::clone(&self.shutdown);
        let thread = std::thread::spawn(move || self.run());
        Ok(ServerHandle {
            addr,
            shutdown,
            thread,
        })
    }
}

/// Handle to a [`Server`] running on a background thread.
pub struct ServerHandle {
    addr: SocketAddr,
    shutdown: Arc<AtomicBool>,
    thread: std::thread::JoinHandle<io::Result<()>>,
}

impl ServerHandle {
    /// The server's bound address.
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// Raises the shutdown flag, wakes the reactor and joins the
    /// server thread. In-flight requests finish first; idle keep-alive
    /// connections are closed immediately.
    pub fn shutdown(self) -> io::Result<()> {
        self.shutdown.store(true, Ordering::SeqCst);
        // The reactor observes the flag on its next wake-up; poke it.
        let _ = TcpStream::connect(self.addr);
        match self.thread.join() {
            Ok(result) => result,
            Err(_) => Err(io::Error::other("server thread panicked")),
        }
    }
}

#[cfg(test)]
mod tests {
    use crate::wire::*;

    fn parse_bytes(bytes: &[u8]) -> Parse {
        let mut buf = bytes.to_vec();
        try_parse(&mut buf, 16 << 20)
    }

    #[test]
    fn parses_a_complete_request_and_consumes_it() {
        let mut buf = b"POST /map HTTP/1.1\r\nContent-Length: 4\r\n\r\nbodyGET /stats".to_vec();
        match try_parse(&mut buf, 1024) {
            Parse::Request(req) => {
                assert_eq!(req.method, "POST");
                assert_eq!(req.path, "/map");
                assert_eq!(req.version, HttpVersion::V11);
                assert!(req.keep_alive);
                assert_eq!(req.body, b"body");
            }
            _ => panic!("expected a complete request"),
        }
        assert_eq!(buf, b"GET /stats", "pipelined bytes stay buffered");
    }

    #[test]
    fn incomplete_head_and_incomplete_body_need_more() {
        assert!(matches!(
            parse_bytes(b"POST /map HTTP/1.1\r\nContent-Len"),
            Parse::NeedMore
        ));
        assert!(matches!(
            parse_bytes(b"POST /map HTTP/1.1\r\nContent-Length: 10\r\n\r\nhalf"),
            Parse::NeedMore
        ));
    }

    #[test]
    fn conflicting_content_length_is_rejected_identical_tolerated() {
        // Satellite fix: last-one-wins duplicate Content-Length is a
        // request-smuggling vector; conflicting values are a hard 400.
        match parse_bytes(b"POST /map HTTP/1.1\r\nContent-Length: 4\r\nContent-Length: 5\r\n\r\n") {
            Parse::Bad(msg) => assert!(msg.contains("conflicting"), "{msg}"),
            _ => panic!("conflicting Content-Length must be rejected"),
        }
        match parse_bytes(
            b"POST /map HTTP/1.1\r\nContent-Length: 4\r\nContent-Length: 4\r\n\r\nbody",
        ) {
            Parse::Request(req) => assert_eq!(req.body, b"body"),
            _ => panic!("identical duplicates are tolerated"),
        }
    }

    #[test]
    fn http10_version_and_keep_alive_semantics() {
        match parse_bytes(b"GET /healthz HTTP/1.0\r\n\r\n") {
            Parse::Request(req) => {
                assert_eq!(req.version, HttpVersion::V10);
                assert!(!req.keep_alive, "1.0 defaults to close");
            }
            _ => panic!("valid 1.0 request"),
        }
        match parse_bytes(b"GET /healthz HTTP/1.0\r\nConnection: keep-alive\r\n\r\n") {
            Parse::Request(req) => {
                assert_eq!(req.version, HttpVersion::V10);
                assert!(req.keep_alive, "1.0 opts in explicitly");
            }
            _ => panic!("valid 1.0 keep-alive request"),
        }
    }

    #[test]
    fn status_line_echoes_request_version() {
        // Satellite fix: a 1.0 peer must not be answered "HTTP/1.1".
        let v10 = encode_response(200, "{}", &[], false, HttpVersion::V10);
        assert!(v10.starts_with(b"HTTP/1.0 200 OK\r\n"));
        assert!(String::from_utf8_lossy(&v10).contains("Connection: close"));
        let v11 = encode_response(200, "{}", &[], true, HttpVersion::V11);
        assert!(v11.starts_with(b"HTTP/1.1 200 OK\r\n"));
        assert!(String::from_utf8_lossy(&v11).contains("Connection: keep-alive"));
    }

    #[test]
    fn oversized_body_consumes_head_and_reports_version() {
        let mut buf = b"POST /map HTTP/1.0\r\nContent-Length: 100\r\n\r\n".to_vec();
        match try_parse(&mut buf, 10) {
            Parse::TooLarge { version } => assert_eq!(version, HttpVersion::V10),
            _ => panic!("expected TooLarge"),
        }
        assert!(buf.is_empty(), "head consumed so the drain starts clean");
    }

    #[test]
    fn line_and_head_caps_apply_while_accumulating() {
        let mut long_line = b"GET /x HTTP/1.1\r\nX-Big: ".to_vec();
        long_line.extend(vec![b'a'; MAX_LINE_BYTES + 16]);
        assert!(matches!(parse_bytes(&long_line), Parse::Bad(_)));
        // Transfer-encoding is still refused.
        assert!(matches!(
            parse_bytes(b"POST /map HTTP/1.1\r\nTransfer-Encoding: chunked\r\n\r\n"),
            Parse::Bad(_)
        ));
    }

    #[test]
    fn bare_lf_line_endings_are_accepted() {
        match parse_bytes(b"GET /stats HTTP/1.1\nConnection: close\n\n") {
            Parse::Request(req) => {
                assert_eq!(req.path, "/stats");
                assert!(!req.keep_alive);
            }
            _ => panic!("bare-LF head must parse"),
        }
    }
}
