//! What `monomapd` answers and where: the method × path table, the
//! handlers behind it, and the two pools the handlers run on.
//!
//! `POST /map` is the one-element case of `POST /map_batch`. Both go
//! down one road — decode → probe the cache → answer, or admit to the
//! solve queue (or shed) → solve → encode — and differ only at its two
//! ends, in their [`Envelope`].

use std::borrow::Cow;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{mpsc, Arc, Mutex};
use std::time::Instant;

use cgra_base::CancelFlag;
use cgra_dfg::DfgDigest;
use monomap_core::api::{EngineId, MapReport, MapRequest};

use crate::admission::{retry_after_seconds, SolveLatency, SolveQueue};
use crate::cache::CacheKey;
use crate::cached::{CacheDisposition, CachedMappingService, ProbedBatch};
use crate::http::{ServerStatsSnapshot, StatsSnapshot};
use crate::reactor::Waker;
use crate::store::hex_encode;
use crate::wire::{ParsedRequest, Reply, Response};

#[derive(Default)]
pub(crate) struct ServerCounters {
    pub requests: AtomicU64,
    map_requests: AtomicU64,
    batch_requests: AtomicU64,
    compile_requests: AtomicU64,
    pub errors: AtomicU64,
    pub client_disconnects: AtomicU64,
}

/// What the reactor and both pools share for the lifetime of one
/// [`Server::run`](crate::Server::run).
pub(crate) struct Shared {
    pub service: CachedMappingService,
    pub counters: ServerCounters,
    pub queue: SolveQueue<SolveJob>,
    pub latency: SolveLatency,
    pub solve_workers: usize,
    pub started: Instant,
}

/// Who answers a request.
#[derive(Clone, Copy)]
pub(crate) enum Route {
    /// The reactor thread itself, from counters alone.
    Inline(fn(&Shared) -> Result<String, String>),
    /// The cheap pool (which may pass it on to the solve pool).
    Cheap(Endpoint),
}

#[derive(Clone, Copy)]
pub(crate) enum Endpoint {
    /// `POST /map` / `POST /map_batch`: parse, probe the cache, solve
    /// or shed.
    Map(Envelope),
    /// `POST /compile`: raw `.mk` source in, DFG JSON + canonical
    /// digest out. Never reaches the solve queue.
    Compile,
    /// `GET /cache/<target>`: export one entry to a fleet sibling.
    CacheGet,
}

const CACHE_PREFIX: &str = "/cache/";

/// The daemon's whole surface, method × path; anything else is the
/// status and message to refuse it with.
pub(crate) fn route(method: &str, path: &str) -> Result<Route, (u16, String)> {
    Ok(match (method, path) {
        ("POST", "/map") => Route::Cheap(Endpoint::Map(Envelope::Single)),
        ("POST", "/map_batch") => Route::Cheap(Endpoint::Map(Envelope::Batch)),
        ("POST", "/compile") => Route::Cheap(Endpoint::Compile),
        ("GET", _) if path.starts_with(CACHE_PREFIX) => Route::Cheap(Endpoint::CacheGet),
        ("GET", "/stats") => Route::Inline(stats_json),
        ("GET", "/healthz") => Route::Inline(healthz_json),
        ("GET" | "POST", _) => return Err((404, format!("no such endpoint: {path}"))),
        _ => return Err((405, format!("method {method} not allowed"))),
    })
}

impl Shared {
    /// Counts one request towards its endpoint's `/stats` field.
    pub fn count(&self, endpoint: Endpoint) {
        let counter = match endpoint {
            Endpoint::Map(Envelope::Single) => &self.counters.map_requests,
            Endpoint::Map(Envelope::Batch) => &self.counters.batch_requests,
            Endpoint::Compile => &self.counters.compile_requests,
            Endpoint::CacheGet => return,
        };
        counter.fetch_add(1, Ordering::Relaxed);
    }
}

fn stats_json(shared: &Shared) -> Result<String, String> {
    let counters = &shared.counters;
    let snapshot = StatsSnapshot {
        cache: shared.service.stats(),
        persistence: shared.service.persistence_stats(),
        server: ServerStatsSnapshot {
            requests: counters.requests.load(Ordering::Relaxed),
            map_requests: counters.map_requests.load(Ordering::Relaxed),
            batch_requests: counters.batch_requests.load(Ordering::Relaxed),
            compile_requests: counters.compile_requests.load(Ordering::Relaxed),
            errors: counters.errors.load(Ordering::Relaxed),
            client_disconnects: counters.client_disconnects.load(Ordering::Relaxed),
            queue_depth: shared.queue.depth(),
            queue_high_watermark: shared.queue.high_watermark(),
            shed_total: shared.queue.shed_total(),
            solve_pool_busy: shared.queue.busy(),
            solve_p50_seconds: shared.latency.p50(),
            uptime_seconds: shared.started.elapsed().as_secs_f64(),
        },
    };
    serde_json::to_string(&snapshot).map_err(|e| format!("serializing stats: {e}"))
}

fn healthz_json(shared: &Shared) -> Result<String, String> {
    let inner = shared.service.inner();
    let engines: Vec<&str> = inner.engine_ids().iter().map(|e| e.name()).collect();
    let failed = |e| format!("serializing health: {e}");
    Ok(format!(
        "{{\"status\":\"ok\",\"engines\":{},\"cgra\":{},\"cache_capacity\":{}}}",
        serde_json::to_string(&engines).map_err(failed)?,
        serde_json::to_string(&inner.cgra().describe()).map_err(failed)?,
        shared.service.cache().capacity(),
    ))
}

// ---------------------------------------------------------------------
// Pool workers
// ---------------------------------------------------------------------

/// One parsed-but-unhandled request travelling from the reactor to
/// the cheap pool.
pub(crate) struct CheapJob {
    pub reply: Reply,
    pub endpoint: Endpoint,
    pub request: ParsedRequest,
    /// Created by the reactor, raised on client EOF; installed on the
    /// `MapRequest`s so abandoned solves unwind. Cache reads and
    /// compiles finish in microseconds and never poll it.
    pub cancel: CancelFlag,
}

/// One admitted engine job — one `/map` or one whole `/map_batch` —
/// travelling from the cheap pool to the solve pool.
pub(crate) struct SolveJob {
    reply: Reply,
    envelope: Envelope,
    batch: ProbedBatch,
}

/// Everything a pool thread needs, borrowed by all of them.
pub(crate) struct Pool {
    pub shared: Arc<Shared>,
    pub done_tx: mpsc::Sender<Response>,
    pub waker: Waker,
}

impl Pool {
    fn send(&self, response: Response) {
        let _ = self.done_tx.send(response);
        self.waker.wake();
    }

    fn fail(&self, reply: Reply, status: u16, message: &str) {
        self.shared.counters.errors.fetch_add(1, Ordering::Relaxed);
        self.send(reply.error(status, message));
    }

    /// Sheds a solve: `429` plus a `Retry-After` priced from the
    /// current queue depth and the observed solve p50.
    fn shed(&self, reply: Reply) {
        let shared = &self.shared;
        let retry = retry_after_seconds(
            shared.queue.depth(),
            shared.latency.p50(),
            shared.solve_workers,
        );
        shared.counters.errors.fetch_add(1, Ordering::Relaxed);
        self.send(reply.shed(retry));
    }

    /// Sends the answers of a finished map job in its envelope.
    fn answer(&self, reply: Reply, envelope: Envelope, answers: &[(MapReport, CacheDisposition)]) {
        match envelope.encode(answers) {
            Ok(body) => self.send(reply.json(200, &body, &envelope.headers(answers))),
            Err(msg) => self.fail(reply, 500, &msg),
        }
    }
}

/// How the two map endpoints differ: the shape of the request body
/// and of the answer around the reports.
#[derive(Clone, Copy)]
pub(crate) enum Envelope {
    /// `/map`: one `MapRequest` in; its report out, the disposition in
    /// the `X-Monomap-Cache` header.
    Single,
    /// `/map_batch`: an array in; `{"reports": [...], "cache": [...]}`
    /// out, both in input order.
    Batch,
}

impl Envelope {
    fn decode(self, body: &str) -> Result<Vec<MapRequest>, String> {
        match self {
            Envelope::Single => serde_json::from_str(body)
                .map(|request| vec![request])
                .map_err(|e| format!("invalid MapRequest: {e}")),
            Envelope::Batch => {
                serde_json::from_str(body).map_err(|e| format!("invalid MapRequest array: {e}"))
            }
        }
    }

    /// The response body around the reports.
    fn encode(self, answers: &[(MapReport, CacheDisposition)]) -> Result<String, String> {
        let reports = answers
            .iter()
            .map(|(report, _)| serde_json::to_string(report))
            .collect::<Result<Vec<_>, _>>()
            .map_err(|e| format!("serializing report: {e}"))?
            .join(",");
        Ok(match self {
            Envelope::Single => reports,
            Envelope::Batch => {
                let cache: Vec<String> = answers
                    .iter()
                    .map(|(_, disposition)| format!("\"{disposition}\""))
                    .collect();
                format!(
                    "{{\"reports\":[{reports}],\"cache\":[{}]}}",
                    cache.join(",")
                )
            }
        })
    }

    /// The response headers that carry what the body does not.
    fn headers(self, answers: &[(MapReport, CacheDisposition)]) -> Vec<(&'static str, String)> {
        match self {
            Envelope::Single => vec![("X-Monomap-Cache", answers[0].1.name().to_string())],
            Envelope::Batch => Vec::new(),
        }
    }
}

pub(crate) fn cheap_worker(pool: &Pool, jobs: &Mutex<mpsc::Receiver<CheapJob>>) {
    loop {
        let job = match jobs.lock().expect("cheap queue lock").recv() {
            Ok(j) => j,
            Err(_) => return, // reactor gone: shut down
        };
        let reply = job.reply;
        if catch_unwind(AssertUnwindSafe(|| handle_cheap(pool, job))).is_err() {
            pool.fail(reply.closing(), 500, "internal: request handler panicked");
        }
    }
}

fn handle_cheap(pool: &Pool, job: CheapJob) {
    let (reply, request) = (job.reply, &job.request);
    match job.endpoint {
        Endpoint::Map(envelope) => handle_map(pool, reply, envelope, &request.body, &job.cancel),
        Endpoint::Compile => handle_compile(pool, reply, &request.body),
        Endpoint::CacheGet => handle_cache_get(pool, reply, &request.path[CACHE_PREFIX.len()..]),
    }
}

/// The cheap path of a map job: parse, probe the cache, answer what
/// needs no engine here, admit the rest to the bounded solve queue as
/// one job (or shed it).
fn handle_map(pool: &Pool, reply: Reply, envelope: Envelope, body: &[u8], cancel: &CancelFlag) {
    let Ok(body) = std::str::from_utf8(body) else {
        return pool.fail(reply, 400, "request body is not UTF-8");
    };
    let mut requests = match envelope.decode(body) {
        Ok(requests) => requests,
        Err(msg) => return pool.fail(reply, 400, &msg),
    };
    for request in &mut requests {
        request.cancel = Some(cancel.clone());
    }
    let service = &pool.shared.service;
    let batch = service.probe_batch(requests.into_iter().map(Cow::Owned));
    if !batch.needs_engine() {
        // Hits and invalid DFGs only: answered without touching the
        // solve pool.
        return pool.answer(reply, envelope, &service.solve_batch(batch));
    }
    let job = SolveJob {
        reply,
        envelope,
        batch,
    };
    if pool.shared.queue.try_push(job).is_err() {
        pool.shed(reply);
    }
}

pub(crate) fn solve_worker(pool: &Pool) {
    let shared = &pool.shared;
    while let Some(job) = shared.queue.pop() {
        let _busy = shared.queue.busy_guard();
        let started = Instant::now();
        let reply = job.reply;
        let outcome = catch_unwind(AssertUnwindSafe(|| {
            pool.answer(reply, job.envelope, &shared.service.solve_batch(job.batch))
        }));
        shared.latency.record(started.elapsed().as_secs_f64());
        if outcome.is_err() {
            pool.fail(reply.closing(), 500, "internal: engine panicked");
        }
    }
}

/// Serves `GET /cache/<digest>?engine=..&fp=..`: the export path of
/// the peer-fill tier. Answers from memory and the local disk log
/// only (never from *this* daemon's peers — no fill chains), with the
/// canonical bytes attached so the requester can verify the fill.
/// A present entry is `200 {"bytes":"<hex>","report":{...}}`; an
/// absent one is a plain `404` (an ordinary miss, not counted as a
/// server error).
fn handle_cache_get(pool: &Pool, reply: Reply, target: &str) {
    let key = match parse_cache_target(target) {
        Ok(key) => key,
        Err(msg) => return pool.fail(reply, 400, msg),
    };
    let Some((bytes, report)) = pool.shared.service.export(&key) else {
        return pool.send(reply.error(404, "entry not cached"));
    };
    match serde_json::to_string(&report) {
        Ok(report_json) => {
            let body = format!(
                "{{\"bytes\":\"{}\",\"report\":{report_json}}}",
                hex_encode(&bytes)
            );
            pool.send(reply.json(200, &body, &[]));
        }
        Err(e) => pool.fail(reply, 500, &format!("serializing cache entry: {e}")),
    }
}

/// Parses the `<digest>?engine=<name>&fp=<cgra:016x><config:016x>`
/// tail of a `GET /cache/` request into a full [`CacheKey`].
fn parse_cache_target(target: &str) -> Result<CacheKey, &'static str> {
    let (digest_hex, query) = target
        .split_once('?')
        .ok_or("missing engine/fp query parameters")?;
    let digest =
        DfgDigest::from_hex(digest_hex).ok_or("malformed digest (want 32 hex characters)")?;
    let mut engine: Option<EngineId> = None;
    let mut fp: Option<(u64, u64)> = None;
    for pair in query.split('&') {
        let Some((name, value)) = pair.split_once('=') else {
            return Err("malformed query parameter");
        };
        match name {
            "engine" => {
                engine = Some(EngineId::from_name(value).ok_or("unknown engine")?);
            }
            "fp" => {
                if value.len() != 32 {
                    return Err("malformed fp (want 32 hex characters)");
                }
                let cgra = u64::from_str_radix(&value[..16], 16).map_err(|_| "malformed fp")?;
                let config = u64::from_str_radix(&value[16..], 16).map_err(|_| "malformed fp")?;
                fp = Some((cgra, config));
            }
            _ => {} // ignore unknown parameters (forward compatibility)
        }
    }
    let engine = engine.ok_or("missing engine parameter")?;
    let (cgra, config) = fp.ok_or("missing fp parameter")?;
    Ok(CacheKey {
        digest,
        engine,
        cgra,
        config,
    })
}

/// Serves `POST /compile`: the body is raw `.mk` source holding
/// exactly one kernel (no JSON envelope — `curl --data-binary
/// @kernel.mk` works as-is). Success is `200` with the kernel name,
/// canonical digest, node count, per-class demand and the full DFG
/// JSON (ready to embed in a `/map` request); a compile failure is
/// `400` whose body carries the structured diagnostic —
/// `{"error": ..., "line": L, "col": C}` — so clients can point back
/// into the source.
fn handle_compile(pool: &Pool, reply: Reply, body: &[u8]) {
    let Ok(source) = std::str::from_utf8(body) else {
        return pool.fail(reply, 400, "request body is not UTF-8");
    };
    let dfg = match monomap_frontend::compile_one(source) {
        Ok(dfg) => dfg,
        Err(e) => {
            pool.shared.counters.errors.fetch_add(1, Ordering::Relaxed);
            let message =
                serde_json::to_string(&e.message).unwrap_or_else(|_| "\"compile error\"".into());
            let body = format!(
                "{{\"error\":{message},\"line\":{},\"col\":{}}}",
                e.line, e.col
            );
            return pool.send(reply.json(400, &body, &[]));
        }
    };
    let counts = monomap_frontend::class_counts(&dfg);
    let (name, dfg_json) = match (
        serde_json::to_string(&dfg.name().to_string()),
        serde_json::to_string(&dfg),
    ) {
        (Ok(n), Ok(d)) => (n, d),
        (Err(e), _) | (_, Err(e)) => {
            return pool.fail(reply, 500, &format!("serializing compiled DFG: {e}"));
        }
    };
    let body = format!(
        "{{\"name\":{name},\"digest\":\"{}\",\"nodes\":{},\
         \"classes\":{{\"alu\":{},\"mul\":{},\"mem\":{}}},\"dfg\":{dfg_json}}}",
        dfg.digest().to_hex(),
        dfg.num_nodes(),
        counts.alu,
        counts.mul,
        counts.mem,
    );
    pool.send(reply.json(200, &body, &[]));
}
