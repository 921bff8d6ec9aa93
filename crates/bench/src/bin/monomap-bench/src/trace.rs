//! The traced run: the same inputs replayed in-process, one thread, each
//! call into a layer's public functions wrapped in a span.
//!
//! Spans are recorded from here, outside the layers, so nothing in the
//! program under test changes. `core.map`'s children are synthesised
//! from the `MapStats` the mapper already returns.

use std::collections::BTreeMap;
use std::io::Write;
use std::path::Path;
use std::time::{Duration, Instant};

use cgra_arch::Cgra;
use cgra_sched::{min_ii, IncrementalTimeSolver, TimeSolverConfig};
use monomap_core::api::{EngineId, MapReport, MapRequest};
use monomap_core::{build_target, MapStats};
use monomap_service::{
    CacheDisposition, CacheProbe, CachedMappingService, DiskLog, MapCache, TieredCache,
};
use serde::Value;

use crate::gen::{self, Item, Kernel};
use crate::stats::median;
use crate::wire::{self, Ctx, Kind, Metric, Workload};

pub struct Span {
    pub id: u32,
    pub parent: Option<u32>,
    /// Spans of one request share this.
    pub req: u32,
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
}

/// Spans kept in memory until the run ends. Switched off, every call
/// returns at once: the same replay then measures what recording costs.
pub struct Recorder {
    on: bool,
    origin: Instant,
    pub spans: Vec<Span>,
    open: Vec<u32>,
    req: u32,
}

impl Recorder {
    pub fn new(on: bool) -> Recorder {
        Recorder {
            on,
            origin: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
            req: 0,
        }
    }

    fn now(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    fn push(&mut self, name: &'static str, parent: Option<u32>, start_ns: u64, end_ns: u64) -> u32 {
        let id = self.spans.len() as u32;
        self.spans.push(Span {
            id,
            parent,
            req: self.req,
            name,
            start_ns,
            end_ns,
        });
        id
    }

    /// Opens a span under the innermost open one.
    fn enter(&mut self, name: &'static str) {
        if self.on {
            let now = self.now();
            let id = self.push(name, self.open.last().copied(), now, now);
            self.open.push(id);
        }
    }

    /// Closes the innermost open span and returns its id.
    fn exit(&mut self) -> Option<u32> {
        if !self.on {
            return None;
        }
        let id = self.open.pop().expect("exit without enter");
        self.spans[id as usize].end_ns = self.now();
        Some(id)
    }

    fn span<T>(&mut self, name: &'static str, f: impl FnOnce() -> T) -> T {
        self.enter(name);
        let out = f();
        self.exit();
        out
    }

    /// Adds a child of `parent` that was not timed here but reported by
    /// the layer itself, `offset` into the parent, clipped to it.
    fn synthesise(
        &mut self,
        parent: Option<u32>,
        name: &'static str,
        offset_s: f64,
        seconds: f64,
    ) -> Option<u32> {
        let p = &self.spans[parent? as usize];
        let (p_start, p_end) = (p.start_ns, p.end_ns);
        let start = p_start.saturating_add((offset_s * 1e9) as u64).min(p_end);
        let end = start.saturating_add((seconds * 1e9) as u64).min(p_end);
        Some(self.push(name, parent, start, end))
    }

    /// Per span name: `(spans, total seconds, self seconds)`, self being
    /// a span's time minus its children's.
    pub fn by_name(&self) -> BTreeMap<&'static str, (u64, f64, f64)> {
        let mut child_ns = vec![0u64; self.spans.len()];
        for s in &self.spans {
            if let Some(p) = s.parent {
                child_ns[p as usize] += s.end_ns - s.start_ns;
            }
        }
        let mut out: BTreeMap<&'static str, (u64, f64, f64)> = BTreeMap::new();
        for s in &self.spans {
            let total = s.end_ns - s.start_ns;
            let own = total.saturating_sub(child_ns[s.id as usize]);
            let e = out.entry(s.name).or_default();
            e.0 += 1;
            e.1 += total as f64 / 1e9;
            e.2 += own as f64 / 1e9;
        }
        out
    }

    /// One JSON object per span, in an array.
    pub fn write(&self, path: &Path) -> std::io::Result<()> {
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        writeln!(out, "[")?;
        for (i, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            let comma = if i + 1 == self.spans.len() { "" } else { "," };
            writeln!(
                out,
                "{{\"id\":{},\"parent\":{parent},\"req\":{},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{}}}{comma}",
                s.id, s.req, s.name, s.start_ns, s.end_ns
            )?;
        }
        writeln!(out, "]")?;
        out.flush()
    }
}

/// The mapper's own counts, summed over the misses of a replay. They
/// are work, not time: two replays of the same inputs must agree.
#[derive(Clone, Copy, Default, PartialEq, Debug)]
pub struct CoreCounts {
    pub mapped: u64,
    pub ii_sum: u64,
    pub time_solutions: u64,
    pub space_attempts: u64,
    pub mono_steps: u64,
    pub iis_tried: u64,
    pub solver_reuses: u64,
}

#[derive(Default)]
struct CoreTimes {
    map_s: f64,
    time_encode_s: f64,
    time_solve_s: f64,
    space_s: f64,
}

struct Replay {
    wall_s: f64,
    counts: CoreCounts,
    times: CoreTimes,
    /// Every achieved II, for `core.target_build_s`.
    iis: Vec<usize>,
    /// Misses: lookup + solve + store, beyond the mapper's own time.
    miss_overhead_s: f64,
    failures: Vec<String>,
    /// Decoded requests, for the hit pass.
    requests: Vec<MapRequest>,
}

fn service(cgra: &Cgra, capacity: usize, dir: &Path) -> Result<CachedMappingService, String> {
    let mut tiers = TieredCache::new(MapCache::new(capacity));
    let log = DiskLog::open(dir, 65536).map_err(|e| format!("{}: {e}", dir.display()))?;
    tiers.push_store(Box::new(log));
    Ok(CachedMappingService::with_tiers(
        cgra_baseline::standard_service(cgra),
        tiers,
    ))
}

/// Decodes a wire body the way the daemon must, but in two visible
/// steps for a `source` request: the JSON envelope, then the compiler.
fn decode(item: &Item, rec: &mut Recorder) -> Result<MapRequest, String> {
    if !item.from_source {
        return rec
            .span("service.json_decode", || {
                serde_json::from_str::<MapRequest>(&item.body)
            })
            .map_err(|e| format!("request does not decode: {e}"));
    }
    let envelope = rec
        .span("service.json_decode", || {
            serde_json::from_str::<Value>(&item.body)
        })
        .map_err(|e| format!("request does not decode: {e}"))?;
    let source = envelope
        .get("source")
        .and_then(Value::as_str)
        .ok_or("source request without `source`")?;
    let dfg = rec
        .span("frontend.compile", || monomap_frontend::compile_one(source))
        .map_err(|e| format!("source does not compile: {}", e.message))?;
    let mut request = MapRequest::new(EngineId::Decoupled, dfg);
    request.deadline_seconds = Some(gen::DEADLINE_SECONDS);
    Ok(request)
}

/// Plays `items` through a fresh in-process service, one span per layer
/// call. `expect_hit[i]` says what the cache must do with `items[i]`.
fn replay(
    items: &[(&Item, bool)],
    cgra: &Cgra,
    capacity: usize,
    dir: &Path,
    rec: &mut Recorder,
) -> Result<(Replay, CachedMappingService), String> {
    let svc = service(cgra, capacity, dir)?;
    let mut out = Replay {
        wall_s: 0.0,
        counts: CoreCounts::default(),
        times: CoreTimes::default(),
        iis: Vec::new(),
        miss_overhead_s: 0.0,
        failures: Vec::new(),
        requests: Vec::with_capacity(items.len()),
    };
    let start = Instant::now();
    for (index, (item, expect_hit)) in items.iter().enumerate() {
        rec.req = index as u32;
        rec.enter("request");
        let request = decode(item, rec)?;
        let digest = rec.span("dfg.canonicalize", || request.dfg.canonical_form().digest());
        if digest != item.digest {
            out.failures.push(format!(
                "{}: digest drifted under renumbering",
                item.dfg.name()
            ));
        }
        let lookup = Instant::now();
        let probe = rec.span("service.lookup", || svc.probe(&request));
        let report: MapReport = match probe {
            CacheProbe::Hit(report) => {
                if !expect_hit {
                    out.failures
                        .push(format!("{}: unexpected hit", item.dfg.name()));
                }
                report
            }
            CacheProbe::Miss(prepared) => {
                if *expect_hit {
                    out.failures
                        .push(format!("{}: unexpected miss", item.dfg.name()));
                }
                rec.enter("service.solve");
                let report = svc.solve_prepared(&request, &prepared);
                let solve = rec.exit();
                let spent = lookup.elapsed().as_secs_f64();
                let stats: &MapStats = &report.stats;
                // The mapper reports its own wall time and phases; what
                // is left of the call is the cache's store and append.
                let map = rec.synthesise(solve, "core.map", 0.0, stats.total_seconds);
                rec.synthesise(map, "sched.time_phase", 0.0, stats.time_phase_seconds);
                rec.synthesise(
                    map,
                    "iso.space_phase",
                    stats.time_phase_seconds,
                    stats.space_phase_seconds,
                );
                rec.synthesise(solve, "service.insert", stats.total_seconds, f64::MAX);
                out.miss_overhead_s += spent - stats.total_seconds;
                out.times.map_s += stats.total_seconds;
                out.times.time_encode_s += stats.time_encode_seconds;
                out.times.time_solve_s += stats.time_solve_seconds;
                out.times.space_s += stats.space_phase_seconds;
                out.counts.time_solutions += stats.time_solutions as u64;
                out.counts.space_attempts += stats.space_attempts as u64;
                out.counts.mono_steps += stats.mono_steps;
                out.counts.iis_tried += stats.iis_tried as u64;
                out.counts.solver_reuses += stats.solver_reuses as u64;
                report
            }
            CacheProbe::Invalid(_) | CacheProbe::Bypass(_) => {
                return Err(format!("{}: the service refused the DFG", item.dfg.name()));
            }
        };
        match rec.span("sim.validate", || {
            cgra_sim::validate_report(&item.dfg, cgra, &report)
        }) {
            Ok(()) if report.outcome.is_mapped() => {
                out.counts.mapped += 1;
                out.counts.ii_sum += report.stats.achieved_ii as u64;
                out.iis.push(report.stats.achieved_ii);
            }
            Ok(()) => out
                .failures
                .push(format!("{}: {:?}", item.dfg.name(), report.outcome)),
            Err(e) => out.failures.push(format!("{}: {e}", item.dfg.name())),
        }
        let encoded = rec.span("service.json_encode", || serde_json::to_string(&report));
        std::hint::black_box(encoded.map_err(|e| e.to_string())?);
        rec.exit();
        out.requests.push(request);
    }
    out.wall_s = start.elapsed().as_secs_f64();
    Ok((out, svc))
}

/// The time phase on its own, per suite kernel as compiled, at
/// `(mII, slack 0)`: encode, first solve, enumerate 16, widen twice.
struct Sched {
    encode_s: f64,
    solve_first_s: f64,
    enumerate_s: f64,
    widen_s: f64,
    sat_vars: u64,
    clauses: u64,
}

fn timed<T>(slot: &mut f64, f: impl FnOnce() -> T) -> T {
    let start = Instant::now();
    let out = f();
    *slot += start.elapsed().as_secs_f64();
    out
}

fn sched(kernels: &[Kernel], cgra: &Cgra) -> Result<Sched, String> {
    let mut out = Sched {
        encode_s: 0.0,
        solve_first_s: 0.0,
        enumerate_s: 0.0,
        widen_s: 0.0,
        sat_vars: 0,
        clauses: 0,
    };
    for kernel in kernels {
        let ii = min_ii(&kernel.dfg, cgra);
        let config = TimeSolverConfig::for_cgra(cgra);
        let mut solver = timed(&mut out.encode_s, || {
            IncrementalTimeSolver::new(&kernel.dfg, ii, config)
        })
        .map_err(|e| format!("{}: {e}", kernel.name))?;
        let stats = solver.stats();
        out.sat_vars += stats.sat_vars as u64;
        out.clauses += stats.clauses as u64;
        timed(&mut out.solve_first_s, || {
            std::hint::black_box(solver.solve_outcome());
        });
        timed(&mut out.enumerate_s, || {
            std::hint::black_box(solver.enumerate_solutions(16));
        });
        timed(&mut out.widen_s, || {
            for slack in 1..=2 {
                solver.widen_to(slack);
                std::hint::black_box(solver.solve_outcome());
            }
        });
    }
    Ok(out)
}

/// The coupled SAT baseline on 2×2: it shares `cgra-sat` with the time
/// phase under a different encoding, so a SAT-core change that helps
/// `cold_2x2` must not slow this. The gap counts kernels where the
/// coupled engine finds a lower II than the decoupled one.
fn baseline(kernels: &[Kernel]) -> Result<(f64, u64), String> {
    let cgra = Cgra::new(2, 2).map_err(|e| e.to_string())?;
    let svc = cgra_baseline::standard_service(&cgra);
    let (mut seconds, mut gap) = (0.0, 0);
    for kernel in kernels {
        let request = |engine| {
            MapRequest::new(engine, kernel.dfg.clone()).with_deadline(Duration::from_secs(2))
        };
        let start = Instant::now();
        let coupled = svc.map(&request(EngineId::Coupled));
        seconds += start.elapsed().as_secs_f64();
        let decoupled = svc.map(&request(EngineId::Decoupled));
        match (coupled.outcome.ii(), decoupled.outcome.ii()) {
            (Some(c), Some(d)) => gap += u64::from(c < d),
            (None, _) => return Err(format!("{}: coupled baseline did not map", kernel.name)),
            (_, None) => return Err(format!("{}: decoupled engine did not map", kernel.name)),
        }
    }
    Ok((seconds, gap))
}

pub struct Traced {
    pub metrics: Vec<Metric>,
    pub attempted: u64,
    pub failed: u64,
    pub first_failure: Option<String>,
    /// Both replays counted the same work and the wire pass repeated.
    pub repeats: bool,
    pub recorder: Recorder,
}

/// The traced run of one workload: two in-process replays (spans on,
/// spans off), the layer micro-measurements, and one untimed-for-metrics
/// wire pass for the counters only the daemon has.
pub fn run(ctx: &Ctx, workload: &Workload) -> Result<Traced, String> {
    let cgra = wire::cgra(workload);
    let kernels = gen::load_kernels(&ctx.kernels_dir)?;

    // The workload's inputs, with what the cache must do with each.
    let cold;
    let hits;
    let writes;
    let mut items: Vec<(&Item, bool)> = Vec::new();
    let mut capacity = 4096;
    match workload.kind {
        Kind::Cold { perms } => {
            cold = wire::cold_inputs(ctx, perms)?;
            items.extend(cold.iter().map(|i| (i, false)));
        }
        Kind::Warm | Kind::Mixed => {
            hits = wire::hit_inputs(ctx)?;
            items.extend(hits.prime.iter().map(|i| (i, false)));
            items.extend(hits.mixes[0].iter().map(|i| (i, true)));
            if matches!(workload.kind, Kind::Mixed) {
                capacity = 256;
                let variants = if ctx.budget.smoke {
                    2
                } else {
                    wire::MIXED_VARIANTS
                };
                writes = gen::never_seen_items(&kernels, ctx.seed, 0, variants);
                items.extend(writes.iter().map(|i| (i, false)));
            } else {
                items.extend(hits.mixes[1].iter().map(|i| (i, true)));
            }
        }
    }

    // Spans off first, then on: the second replay is the one whose
    // service and log are kept for the measurements below.
    let plain_dir = wire::TempDir::create(&ctx.scratch, "trace-plain")?;
    let (plain, _) = replay(
        &items,
        &cgra,
        capacity,
        plain_dir.path(),
        &mut Recorder::new(false),
    )?;
    drop(plain_dir);
    let dir = wire::TempDir::create(&ctx.scratch, "trace-log")?;
    let mut recorder = Recorder::new(true);
    let (traced, svc) = replay(&items, &cgra, capacity, dir.path(), &mut recorder)?;

    // Every input again on the now-primed service: the in-process hit.
    let mut hit_s = Vec::with_capacity(traced.requests.len());
    let mut failures = traced.failures.clone();
    for request in &traced.requests {
        let start = Instant::now();
        let (report, disposition) = svc.map(request);
        hit_s.push(start.elapsed().as_secs_f64());
        if disposition != CacheDisposition::Hit || !report.outcome.is_mapped() {
            failures.push(format!(
                "{}: not a hit on a primed cache",
                request.dfg.name()
            ));
        }
    }

    // A restart over the log those misses appended.
    let log_bytes = svc.persistence_stats().log_bytes;
    drop(svc);
    let start = Instant::now();
    let restarted = service(&cgra, capacity, dir.path())?;
    let replayed = restarted.warm_start();
    let disklog_replay_s = start.elapsed().as_secs_f64();
    let misses = items.iter().filter(|(_, hit)| !hit).count() as u64;
    if replayed != misses {
        failures.push(format!("log replayed {replayed} entries of {misses}"));
    }
    drop(restarted);
    drop(dir);

    let compile_s = median(
        &(0..5)
            .map(|_| {
                let start = Instant::now();
                for kernel in &kernels {
                    std::hint::black_box(monomap_frontend::compile_one(&kernel.source).is_ok());
                }
                start.elapsed().as_secs_f64()
            })
            .collect::<Vec<_>>(),
    );
    let sched = sched(&kernels, &cgra)?;
    let mut iis = traced.iis.clone();
    iis.sort_unstable();
    iis.dedup();
    let start = Instant::now();
    for &ii in &iis {
        std::hint::black_box(build_target(&cgra, ii, 1));
    }
    let target_build_s = start.elapsed().as_secs_f64();
    let (coupled_s, coupled_ii_gap) = baseline(&kernels)?;

    let wire = wire::run(ctx, workload)?;
    let wire_hit_p50 = wire::hit_percentile(&wire, 50.0)?;

    let spans = recorder.by_name();
    let total = |name: &str| spans.get(name).map_or(0.0, |s| s.1);
    let request = spans.get("request").copied().unwrap_or_default();
    let c = traced.counts;
    let t = &traced.times;
    let n = wire.counters;
    let metrics = vec![
        Metric::new("frontend.compile_s", compile_s, "s"),
        Metric::new("dfg.canon_s", total("dfg.canonicalize"), "s"),
        Metric::new("sched.encode_s", sched.encode_s, "s"),
        Metric::new("sched.solve_first_s", sched.solve_first_s, "s"),
        Metric::new("sched.enumerate_s", sched.enumerate_s, "s"),
        Metric::new("sched.widen_s", sched.widen_s, "s"),
        Metric::new("sched.sat_vars", sched.sat_vars as f64, "count"),
        Metric::new("sched.clauses", sched.clauses as f64, "count"),
        Metric::new("core.map_s", t.map_s, "s"),
        Metric::new("core.time_encode_s", t.time_encode_s, "s"),
        Metric::new("core.time_solve_s", t.time_solve_s, "s"),
        Metric::new("core.space_s", t.space_s, "s"),
        Metric::new("core.time_solutions", c.time_solutions as f64, "count"),
        Metric::new("core.space_attempts", c.space_attempts as f64, "count"),
        Metric::new("core.mono_steps", c.mono_steps as f64, "count"),
        Metric::new("core.iis_tried", c.iis_tried as f64, "count"),
        Metric::new("core.solver_reuses", c.solver_reuses as f64, "count"),
        Metric::new(
            "core.space_success_ratio",
            misses as f64 / c.space_attempts.max(1) as f64,
            "ratio",
        ),
        Metric::new("iso.steps_per_s", c.mono_steps as f64 / t.space_s, "1/s"),
        Metric::new("core.target_build_s", target_build_s, "s"),
        Metric::new("sim.validate_s", total("sim.validate"), "s"),
        Metric::new("baseline.coupled_s", coupled_s, "s"),
        Metric::new("baseline.coupled_ii_gap", coupled_ii_gap as f64, "count"),
        Metric::new("service.json_decode_s", total("service.json_decode"), "s"),
        Metric::new("service.json_encode_s", total("service.json_encode"), "s"),
        Metric::new("service.hit_s", hit_s.iter().sum(), "s"),
        Metric::new("service.miss_overhead_s", traced.miss_overhead_s, "s"),
        Metric::new("service.disklog_replay_s", disklog_replay_s, "s"),
        Metric::new("service.disklog_bytes", log_bytes as f64, "B"),
        Metric::new("service.healthz_rtt_s", wire.healthz_rtt_s, "s"),
        // The hit tail: on one CPU it is the scheduler's time slice, too
        // unsteady on `mixed_4x4` for a regression bound, so it is
        // reported here and not among the end-to-end metrics.
        Metric::new("service.hit_p95_s", wire::hit_percentile(&wire, 95.0)?, "s"),
        Metric::new(
            "service.wire_overhead_s",
            wire_hit_p50 - median(&hit_s),
            "s",
        ),
        Metric::new("service.cache_hits", n.cache_hits, "count"),
        Metric::new("service.cache_misses", n.cache_misses, "count"),
        Metric::new("service.evictions", n.evictions, "count"),
        Metric::new("service.shed_total", n.shed_total, "count"),
        Metric::new("service.errors", n.errors, "count"),
        Metric::new(
            "service.queue_high_watermark",
            n.queue_high_watermark,
            "count",
        ),
        Metric::new(
            "service.hot_hit_ratio",
            wire.tally.hot_hit as f64 / wire.tally.hot_sent.max(1) as f64,
            "ratio",
        ),
        Metric::new(
            "trace.overhead_share",
            (traced.wall_s - plain.wall_s) / plain.wall_s,
            "ratio",
        ),
        // What of a request's span no layer's span covers: the layers'
        // self times sum to the request within this share.
        Metric::new("trace.unattributed_share", request.2 / request.1, "ratio"),
    ];
    failures.extend(plain.failures.iter().cloned());
    let failed = failures.len() as u64 + wire.tally.failed;
    failures.extend(wire.tally.first_failure.clone());
    Ok(Traced {
        metrics,
        attempted: 2 * items.len() as u64 + hit_s.len() as u64 + wire.tally.attempted,
        failed,
        first_failure: failures.into_iter().next(),
        repeats: plain.counts == traced.counts && wire.ii_repeats(),
        recorder,
    })
}
