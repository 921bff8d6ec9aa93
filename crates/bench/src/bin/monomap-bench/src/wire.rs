//! The five workloads, played against the real daemon over loopback.
//!
//! Closed loop throughout: a connection sends its next request when the
//! previous answer has been read and checked. At most two connections,
//! one thread each; load generator and daemon share the one CPU the
//! benchmark pins itself to (see `affinity.rs`).

use std::collections::HashMap;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::Barrier;
use std::time::Instant;

use cgra_arch::Cgra;
use monomap_core::api::MapReport;
use serde::Value;

use crate::daemon::Daemon;
use crate::gen::{self, Item, Kernel};
use crate::http::Conn;
use crate::stats::{median, percentile, sorted};

pub enum Kind {
    /// Every request a never-seen kernel on a fresh daemon, `perms`
    /// renumberings of each suite kernel.
    Cold { perms: usize },
    /// Hits only, two connections.
    Warm,
    /// One connection of hits beside one of never-seen kernels.
    Mixed,
}

pub struct Workload {
    pub name: &'static str,
    pub side: usize,
    pub kind: Kind,
}

pub const WORKLOADS: [Workload; 5] = [
    Workload {
        name: "cold_2x2",
        side: 2,
        kind: Kind::Cold { perms: 16 },
    },
    Workload {
        name: "cold_4x4",
        side: 4,
        kind: Kind::Cold { perms: 8 },
    },
    Workload {
        name: "cold_20x20",
        side: 20,
        kind: Kind::Cold { perms: 4 },
    },
    Workload {
        name: "warm_4x4",
        side: 4,
        kind: Kind::Warm,
    },
    Workload {
        name: "mixed_4x4",
        side: 4,
        kind: Kind::Mixed,
    },
];

/// Plays of the 51-request hit mix in one pass of a `warm_4x4`
/// connection (5 100 requests, about half a second).
const WARM_CYCLES: usize = 100;
/// Literal variants of each kernel in one pass of `mixed_4x4`'s write
/// connection (425 never-seen kernels, about a second).
pub const MIXED_VARIANTS: usize = 25;
/// Fewest hit samples a cold pass collects by replaying its list.
const ECHO_HITS: usize = 2000;
/// Requests of a cold workload's warm-up (one suite's worth).
const WARM_UP_REQUESTS: usize = 17;
/// Boots behind the `setup_s` median where a workload needs one daemon.
const SETUPS: usize = 21;

/// How much a run measures.
#[derive(Clone, Copy)]
pub struct Budget {
    /// Keep adding measured passes until this much time has been
    /// measured…
    pub seconds: f64,
    /// …and at least this many passes.
    pub min_passes: usize,
    /// Play a discarded pass first.
    pub warm_up: bool,
    /// `--smoke`: one renumbering, short passes.
    pub smoke: bool,
}

#[derive(Clone)]
pub struct Ctx {
    pub kernels_dir: PathBuf,
    pub daemon_bin: PathBuf,
    /// A directory of the benchmark's own, inside the checkout.
    pub scratch: PathBuf,
    pub seed: u64,
    pub budget: Budget,
}

/// What the cache is expected to do with a request.
#[derive(Clone, Copy, PartialEq)]
enum Expect {
    Hit,
    Miss,
    /// `mixed_4x4`'s hot set: a hit unless the clock evicted it.
    Hot,
}

/// Requests sent and answers refused, over a whole run (warm-up too).
#[derive(Default)]
pub struct Tally {
    pub attempted: u64,
    pub failed: u64,
    pub first_failure: Option<String>,
    /// Requests that should have been hits, and those that were.
    pub hot_sent: u64,
    pub hot_hit: u64,
}

impl Tally {
    fn absorb(&mut self, other: Tally) {
        self.attempted += other.attempted;
        self.failed += other.failed;
        if self.first_failure.is_none() {
            self.first_failure = other.first_failure;
        }
        self.hot_sent += other.hot_sent;
        self.hot_hit += other.hot_hit;
    }

    fn fail(&mut self, why: String) {
        self.failed += 1;
        self.first_failure.get_or_insert(why);
    }
}

/// An answer that passed the gate: `200`, `Mapped`, simulator-valid and
/// with the cache disposition the workload expects.
#[derive(Clone, Copy)]
struct Answer {
    hit: bool,
    latency_s: f64,
    ii: u64,
    mii: u64,
}

/// One connection plus the correctness gate behind it.
struct Player<'a> {
    conn: Conn,
    cgra: &'a Cgra,
    /// Per request key, the last `hit` body that passed validation and
    /// its `(II, mII)`. A hit replays stored bytes, so an identical body
    /// is already proven and is not parsed again — at 10 k answers a
    /// second the check would otherwise be what the run measures.
    proven: HashMap<u32, (String, u64, u64)>,
}

impl<'a> Player<'a> {
    fn connect(daemon: &Daemon, cgra: &'a Cgra) -> Result<Self, String> {
        Ok(Player {
            conn: Conn::connect(daemon.addr).map_err(|e| format!("connect: {e}"))?,
            cgra,
            proven: HashMap::new(),
        })
    }

    /// Sends `item`, times it and checks the answer. A transport error
    /// ends the run; an answer that fails the gate is counted in `tally`
    /// and yields `None`.
    fn play(
        &mut self,
        item: &Item,
        expect: Expect,
        tally: &mut Tally,
    ) -> Result<Option<Answer>, String> {
        let start = Instant::now();
        let response = self
            .conn
            .request("POST", "/map", &item.body)
            .map_err(|e| format!("POST /map ({}): {e}", item.dfg.name()))?;
        let latency_s = start.elapsed().as_secs_f64();
        tally.attempted += 1;
        let name = item.dfg.name();
        if response.status != 200 {
            let retry = response.header("Retry-After").unwrap_or("-");
            tally.fail(format!(
                "{name}: status {} (Retry-After {retry}): {:.120}",
                response.status, response.body
            ));
            return Ok(None);
        }
        let hit = match response.header("X-Monomap-Cache") {
            Some("hit") => true,
            Some("miss") => false,
            other => {
                tally.fail(format!("{name}: X-Monomap-Cache {other:?}"));
                return Ok(None);
            }
        };
        if expect != Expect::Hot && hit != (expect == Expect::Hit) {
            let got = if hit { "hit" } else { "miss" };
            tally.fail(format!("{name}: unexpected cache {got}"));
            return Ok(None);
        }
        let (ii, mii) = match self.proven.get(&item.key) {
            Some((body, ii, mii)) if hit && *body == response.body => (*ii, *mii),
            _ => match self.validate(item, &response.body) {
                Ok(pair) => {
                    if hit {
                        self.proven
                            .insert(item.key, (response.body, pair.0, pair.1));
                    }
                    pair
                }
                Err(why) => {
                    tally.fail(format!("{name}: {why}"));
                    return Ok(None);
                }
            },
        };
        if expect != Expect::Miss {
            tally.hot_sent += 1;
            tally.hot_hit += u64::from(hit);
        }
        Ok(Some(Answer {
            hit,
            latency_s,
            ii,
            mii,
        }))
    }

    /// `Mapped` and simulator-valid in the submitter's own numbering.
    fn validate(&self, item: &Item, body: &str) -> Result<(u64, u64), String> {
        let report: MapReport =
            serde_json::from_str(body).map_err(|e| format!("unparseable report: {e}"))?;
        if !report.outcome.is_mapped() {
            return Err(format!("not mapped: {:?}", report.outcome));
        }
        cgra_sim::validate_report(&item.dfg, self.cgra, &report).map_err(|e| e.to_string())?;
        Ok((report.stats.achieved_ii as u64, report.stats.mii as u64))
    }
}

/// What one measured pass saw. Percentiles and rates are taken per pass
/// and the run reports their medians over passes: a pass a neighbour
/// disturbed then moves nothing, where its tail would own a pooled p95.
#[derive(Default)]
pub struct Pass {
    /// Wall time of the pass's request list.
    pub wall_s: f64,
    /// Valid answers within that wall time, all connections.
    pub ok: u64,
    pub hit_s: Vec<f64>,
    /// ΣII and ΣmII of every valid answer of the pass.
    pub ii_sum: u64,
    pub mii_sum: u64,
}

impl Pass {
    /// Files one valid answer. A hit's latency stays with the pass; a
    /// miss's is handed back for the caller to file under its request.
    fn file(&mut self, answer: Answer) -> Option<f64> {
        self.ii_sum += answer.ii;
        self.mii_sum += answer.mii;
        if answer.hit {
            self.hit_s.push(answer.latency_s);
            None
        } else {
            Some(answer.latency_s)
        }
    }

    fn merge(&mut self, other: Pass) {
        self.wall_s = self.wall_s.max(other.wall_s);
        self.ok += other.ok;
        self.hit_s.extend(other.hit_s);
        self.ii_sum += other.ii_sum;
        self.mii_sum += other.mii_sum;
    }
}

/// The `/stats` counters the per-layer table reports.
#[derive(Clone, Copy, Default)]
pub struct Counters {
    pub cache_hits: f64,
    pub cache_misses: f64,
    pub evictions: f64,
    pub shed_total: f64,
    pub errors: f64,
    pub queue_high_watermark: f64,
    pub disk_replayed: f64,
}

impl Counters {
    fn read(conn: &mut Conn) -> Result<Counters, String> {
        let response = conn.get("/stats").map_err(|e| format!("GET /stats: {e}"))?;
        let stats: Value =
            serde_json::from_str(&response.body).map_err(|e| format!("/stats is not JSON: {e}"))?;
        let field = |group: &str, name: &str| match stats.get(group).and_then(|g| g.get(name)) {
            Some(Value::Int(i)) => Ok(*i as f64),
            Some(Value::UInt(u)) => Ok(*u as f64),
            other => Err(format!("/stats {group}.{name} is {other:?}")),
        };
        Ok(Counters {
            cache_hits: field("cache", "hits")?,
            cache_misses: field("cache", "misses")?,
            evictions: field("cache", "evictions")?,
            shed_total: field("server", "shed_total")?,
            errors: field("server", "errors")?,
            queue_high_watermark: field("server", "queue_high_watermark")?,
            disk_replayed: field("persistence", "disk_replayed")?,
        })
    }

    /// What happened since `earlier`; the watermark is a level, not a
    /// count, and stays as read.
    fn since(self, earlier: Counters) -> Counters {
        Counters {
            cache_hits: self.cache_hits - earlier.cache_hits,
            cache_misses: self.cache_misses - earlier.cache_misses,
            evictions: self.evictions - earlier.evictions,
            shed_total: self.shed_total - earlier.shed_total,
            errors: self.errors - earlier.errors,
            ..self
        }
    }
}

/// Median round trip of `GET /healthz` on a keep-alive connection: the
/// reactor's floor under every other latency.
fn healthz_rtt(conn: &mut Conn) -> Result<f64, String> {
    let mut samples = Vec::with_capacity(200);
    for _ in 0..200 {
        let start = Instant::now();
        conn.get("/healthz")
            .map_err(|e| format!("GET /healthz: {e}"))?;
        samples.push(start.elapsed().as_secs_f64());
    }
    Ok(median(&samples))
}

/// What one wire run of a workload measured.
pub struct Wire {
    pub tally: Tally,
    /// Input generation, median of three.
    pub gen_s: f64,
    /// Boot until `/healthz` answers, plus priming, once per boot.
    pub setup_s: Vec<f64>,
    pub passes: Vec<Pass>,
    /// `(request key, latency)` of every measured `miss` answer.
    pub miss_s: Vec<(u32, f64)>,
    pub rss_mb: f64,
    /// `/stats` movement over the measured part of the last daemon.
    pub counters: Counters,
    pub healthz_rtt_s: f64,
}

impl Wire {
    fn new(gen_s: f64) -> Wire {
        Wire {
            tally: Tally::default(),
            gen_s,
            setup_s: Vec::new(),
            passes: Vec::new(),
            miss_s: Vec::new(),
            rss_mb: 0.0,
            counters: Counters::default(),
            healthz_rtt_s: 0.0,
        }
    }

    /// Every measured pass of the run returned the same ΣII.
    pub fn ii_repeats(&self) -> bool {
        self.passes.windows(2).all(|w| w[0].ii_sum == w[1].ii_sum)
    }

    fn measuring(&self, budget: Budget, since: Instant) -> bool {
        self.passes.len() < budget.min_passes || since.elapsed().as_secs_f64() < budget.seconds
    }
}

/// Runs `f` three times; the last result and the median time.
fn generate<T>(mut f: impl FnMut() -> Result<T, String>) -> Result<(T, f64), String> {
    let mut times = Vec::new();
    let mut last = None;
    for _ in 0..3 {
        let start = Instant::now();
        last = Some(f()?);
        times.push(start.elapsed().as_secs_f64());
    }
    Ok((last.expect("ran three times"), median(&times)))
}

pub fn cgra(workload: &Workload) -> Cgra {
    Cgra::new(workload.side, workload.side).expect("square grids are valid")
}

pub fn run(ctx: &Ctx, workload: &Workload) -> Result<Wire, String> {
    match workload.kind {
        Kind::Cold { perms } => cold(ctx, workload, perms),
        Kind::Warm => warm(ctx, workload),
        Kind::Mixed => mixed(ctx, workload),
    }
}

/// The request list of a cold workload (shared with the traced replay).
pub fn cold_inputs(ctx: &Ctx, perms: usize) -> Result<Vec<Item>, String> {
    let kernels = gen::load_kernels(&ctx.kernels_dir)?;
    let perms = if ctx.budget.smoke { 1 } else { perms };
    Ok(gen::cold_items(&kernels, ctx.seed, perms))
}

fn cold(ctx: &Ctx, workload: &Workload, perms: usize) -> Result<Wire, String> {
    let budget = ctx.budget;
    let (items, gen_s) = generate(|| cold_inputs(ctx, perms))?;
    let cgra = cgra(workload);
    let side = workload.side.to_string();
    let daemon_flags = [
        "--rows",
        side.as_str(),
        "--cols",
        side.as_str(),
        "--workers",
        "1",
        "--cheap-workers",
        "1",
    ];
    let mut wire = Wire::new(gen_s);
    if budget.warm_up {
        // A fresh daemon per pass is the point of a cold workload, so
        // what warms here is the page cache and the clock governor: the
        // first slice of the list on a throw-away daemon is enough.
        let (daemon, _) = Daemon::boot(&ctx.daemon_bin, &daemon_flags)?;
        let mut player = Player::connect(&daemon, &cgra)?;
        for item in items.iter().take(WARM_UP_REQUESTS) {
            player.play(item, Expect::Miss, &mut wire.tally)?;
        }
    }
    let echoes = ECHO_HITS.div_ceil(items.len());
    let since = Instant::now();
    while wire.measuring(budget, since) {
        let (daemon, boot) = Daemon::boot(&ctx.daemon_bin, &daemon_flags)?;
        wire.setup_s.push(boot.as_secs_f64());
        let mut player = Player::connect(&daemon, &cgra)?;
        let mut pass = Pass::default();
        let start = Instant::now();
        for item in &items {
            if let Some(answer) = player.play(item, Expect::Miss, &mut wire.tally)? {
                pass.ok += 1;
                wire.miss_s
                    .extend(pass.file(answer).map(|latency| (item.key, latency)));
            }
        }
        pass.wall_s = start.elapsed().as_secs_f64();
        // The same list again, now resident: the hit path on this grid,
        // and the check that a stored mapping survives the round trip.
        for _ in 0..echoes {
            for item in &items {
                if let Some(answer) = player.play(item, Expect::Hit, &mut wire.tally)? {
                    pass.file(answer);
                }
            }
        }
        wire.passes.push(pass);
        wire.healthz_rtt_s = healthz_rtt(&mut player.conn)?;
        wire.counters = Counters::read(&mut player.conn)?;
        wire.rss_mb = daemon.peak_rss_mb()?;
    }
    Ok(wire)
}

/// What a hit connection plays: the primed kernels and, per connection,
/// its shuffled hit mix.
pub struct HitInputs {
    pub kernels: Vec<Kernel>,
    pub prime: Vec<Item>,
    pub mixes: [Vec<Item>; 2],
}

pub fn hit_inputs(ctx: &Ctx) -> Result<HitInputs, String> {
    let kernels = gen::load_kernels(&ctx.kernels_dir)?;
    Ok(HitInputs {
        prime: gen::prime_items(&kernels),
        mixes: [
            gen::hit_items(&kernels, ctx.seed, 0),
            gen::hit_items(&kernels, ctx.seed, 1),
        ],
        kernels,
    })
}

fn warm(ctx: &Ctx, workload: &Workload) -> Result<Wire, String> {
    let budget = ctx.budget;
    let (inputs, gen_s) = generate(|| hit_inputs(ctx))?;
    let cgra = cgra(workload);
    let daemon_flags = ["--workers", "1"];
    let mut wire = Wire::new(gen_s);
    // Boot and prime several times for the set-up median (and for the
    // miss latencies, which this workload has nowhere else); the last
    // daemon is the one measured.
    let mut last = None;
    for _ in 0..SETUPS {
        drop(last.take());
        let start = Instant::now();
        let (daemon, _) = Daemon::boot(&ctx.daemon_bin, &daemon_flags)?;
        let mut player = Player::connect(&daemon, &cgra)?;
        for item in &inputs.prime {
            if let Some(answer) = player.play(item, Expect::Miss, &mut wire.tally)? {
                wire.miss_s.push((item.key, answer.latency_s));
            }
        }
        wire.setup_s.push(start.elapsed().as_secs_f64());
        last = Some((daemon, player));
    }
    let (daemon, mut control) = last.expect("SETUPS is positive");
    let cycles = if budget.smoke { 10 } else { WARM_CYCLES };
    let before = Counters::read(&mut control.conn)?;

    // One pass on both connections at once; a connection's pass time is
    // its own, the pass takes as long as the slower one.
    let play_pass = || -> Result<(Pass, Tally), String> {
        let barrier = Barrier::new(2);
        let results = std::thread::scope(|scope| {
            let handles: Vec<_> = inputs
                .mixes
                .iter()
                .map(|mix| {
                    let (barrier, daemon, cgra) = (&barrier, &daemon, &cgra);
                    scope.spawn(move || -> Result<(Pass, Tally), String> {
                        let mut player = Player::connect(daemon, cgra)?;
                        let (mut pass, mut tally) = (Pass::default(), Tally::default());
                        barrier.wait();
                        let start = Instant::now();
                        for item in std::iter::repeat_n(mix, cycles).flatten() {
                            if let Some(answer) = player.play(item, Expect::Hit, &mut tally)? {
                                pass.ok += 1;
                                pass.file(answer);
                            }
                        }
                        pass.wall_s = start.elapsed().as_secs_f64();
                        Ok((pass, tally))
                    })
                })
                .collect();
            handles
                .into_iter()
                .map(|h| h.join().expect("a load-generator thread panicked"))
                .collect::<Result<Vec<_>, String>>()
        })?;
        let (mut pass, mut tally) = (Pass::default(), Tally::default());
        for (p, t) in results {
            pass.merge(p);
            tally.absorb(t);
        }
        Ok((pass, tally))
    };

    if budget.warm_up {
        wire.tally.absorb(play_pass()?.1);
    }
    let since = Instant::now();
    while wire.measuring(budget, since) {
        let (pass, tally) = play_pass()?;
        wire.passes.push(pass);
        wire.tally.absorb(tally);
    }
    wire.rss_mb = daemon.peak_rss_mb()?;
    wire.counters = Counters::read(&mut control.conn)?.since(before);
    wire.healthz_rtt_s = healthz_rtt(&mut control.conn)?;
    Ok(wire)
}

/// A directory removed when dropped, however the workload ends.
pub struct TempDir(PathBuf);

impl TempDir {
    pub fn create(root: &Path, tag: &str) -> Result<TempDir, String> {
        let path = root.join(format!("{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&path);
        std::fs::create_dir_all(&path).map_err(|e| format!("{}: {e}", path.display()))?;
        Ok(TempDir(path))
    }

    pub fn path(&self) -> &Path {
        &self.0
    }
}

impl Drop for TempDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

fn mixed(ctx: &Ctx, workload: &Workload) -> Result<Wire, String> {
    let budget = ctx.budget;
    let (inputs, gen_s) = generate(|| hit_inputs(ctx))?;
    let cgra = cgra(workload);
    let dir = TempDir::create(&ctx.scratch, "mixed-cache")?;
    let daemon_flags = [
        "--workers",
        "1",
        "--cheap-workers",
        "1",
        "--cache-capacity",
        "256",
        "--cache-dir",
        dir.path().to_str().ok_or("scratch path is not UTF-8")?,
    ];
    let mut wire = Wire::new(gen_s);
    // Solve the hot set once, into the disk log; every later boot is
    // primed by replaying that log, which is how a restarted daemon
    // comes up and what puts log replay inside `setup_s`.
    {
        let (daemon, _) = Daemon::boot(&ctx.daemon_bin, &daemon_flags)?;
        let mut player = Player::connect(&daemon, &cgra)?;
        for item in &inputs.prime {
            player.play(item, Expect::Miss, &mut wire.tally)?;
        }
    }
    let mut last = None;
    for _ in 0..SETUPS {
        drop(last.take());
        let (daemon, boot) = Daemon::boot(&ctx.daemon_bin, &daemon_flags)?;
        wire.setup_s.push(boot.as_secs_f64());
        last = Some(daemon);
    }
    let daemon = last.expect("SETUPS is positive");
    let mut control = Conn::connect(daemon.addr).map_err(|e| format!("connect: {e}"))?;
    let before = Counters::read(&mut control)?;
    if before.disk_replayed != inputs.prime.len() as f64 {
        return Err(format!(
            "the daemon replayed {} log entries at boot, expected {}",
            before.disk_replayed,
            inputs.prime.len()
        ));
    }
    let variants = if budget.smoke { 2 } else { MIXED_VARIANTS };

    // B numbers its passes here; A files each answer under the pass it
    // fell in. Pass 0 is B's warm-up when there is one.
    let current = AtomicUsize::new(0);
    let finished = AtomicBool::new(false);
    let first_measured = usize::from(budget.warm_up);
    type Side = (Vec<Pass>, Vec<(u32, f64)>, Tally);
    let (reads, writes) = std::thread::scope(|scope| {
        let (current, finished, daemon, cgra, inputs) =
            (&current, &finished, &daemon, &cgra, &inputs);
        // Connection A: the hit mix, for as long as B is writing.
        let reader = scope.spawn(move || -> Result<Side, String> {
            let mut player = Player::connect(daemon, cgra)?;
            let (mut passes, mut misses, mut tally) = (Vec::new(), Vec::new(), Tally::default());
            for item in inputs.mixes[0].iter().cycle() {
                if finished.load(Ordering::Relaxed) {
                    break;
                }
                let answer = player.play(item, Expect::Hot, &mut tally)?;
                let pass = current.load(Ordering::Relaxed);
                if let Some(answer) = answer {
                    passes.resize_with(passes.len().max(pass + 1), Pass::default);
                    passes[pass].ok += 1;
                    // A misses only after an eviction; its keys must not
                    // collide with B's, and warm-up is not recorded.
                    if let (Some(latency), true) =
                        (passes[pass].file(answer), pass >= first_measured)
                    {
                        misses.push((item.key | 1 << 31, latency));
                    }
                }
            }
            Ok((passes, misses, tally))
        });
        // Connection B: passes of never-seen kernels; its first pass
        // fills the cache to capacity, so measured passes all evict.
        let writer = scope.spawn(move || -> Result<Side, String> {
            let result = (|| {
                let mut player = Player::connect(daemon, cgra)?;
                let (mut passes, mut misses, mut tally) =
                    (Vec::<Pass>::new(), Vec::new(), Tally::default());
                let mut since = Instant::now();
                loop {
                    let number = passes.len();
                    if number == first_measured {
                        since = Instant::now();
                    }
                    let measured = number.saturating_sub(first_measured);
                    if measured >= budget.min_passes
                        && since.elapsed().as_secs_f64() >= budget.seconds
                    {
                        break;
                    }
                    let items = gen::never_seen_items(&inputs.kernels, ctx.seed, number, variants);
                    current.store(number, Ordering::Relaxed);
                    let mut pass = Pass::default();
                    let start = Instant::now();
                    for item in &items {
                        if let Some(answer) = player.play(item, Expect::Miss, &mut tally)? {
                            pass.ok += 1;
                            misses.extend(pass.file(answer).map(|latency| (item.key, latency)));
                        }
                    }
                    pass.wall_s = start.elapsed().as_secs_f64();
                    passes.push(pass);
                }
                Ok((passes, misses, tally))
            })();
            // Set on every path, or the reader would never stop.
            finished.store(true, Ordering::Relaxed);
            result
        });
        (
            reader.join().expect("the hit connection panicked"),
            writer.join().expect("the write connection panicked"),
        )
    });
    let (mut read_passes, read_misses, read_tally) = reads?;
    let (write_passes, write_misses, write_tally) = writes?;
    wire.tally.absorb(read_tally);
    wire.tally.absorb(write_tally);
    // A pass is B's list; what A was answered meanwhile joins it. ΣII is
    // B's alone (A's share depends on how far it got), and warm-up
    // misses are dropped with the warm-up pass.
    read_passes.resize_with(write_passes.len(), Pass::default);
    let per_pass = variants * inputs.kernels.len();
    wire.miss_s = write_misses;
    wire.miss_s
        .retain(|&(key, _)| key as usize >= first_measured * per_pass);
    wire.miss_s.extend(read_misses);
    wire.passes = write_passes
        .into_iter()
        .zip(read_passes)
        .skip(first_measured)
        .map(|(write, read)| Pass {
            ok: write.ok + read.ok,
            hit_s: read.hit_s,
            ..write
        })
        .collect();
    wire.rss_mb = daemon.peak_rss_mb()?;
    wire.counters = Counters::read(&mut control)?.since(before);
    wire.healthz_rtt_s = healthz_rtt(&mut control)?;
    Ok(wire)
}

/// A named value with its unit, as printed and as written to JSON.
pub struct Metric {
    pub name: &'static str,
    pub value: f64,
    pub unit: &'static str,
}

impl Metric {
    pub fn new(name: &'static str, value: f64, unit: &'static str) -> Metric {
        Metric { name, value, unit }
    }
}

/// `(p50, p95, distinct requests)` of the miss latencies: per distinct
/// request the median over its passes, then the percentile across
/// requests.
pub fn miss_percentiles(samples: &[(u32, f64)]) -> Option<(f64, f64, usize)> {
    let mut by_key: HashMap<u32, Vec<f64>> = HashMap::new();
    for &(key, latency) in samples {
        by_key.entry(key).or_default().push(latency);
    }
    let medians = sorted(by_key.values().map(|v| median(v)).collect());
    (!medians.is_empty()).then(|| {
        (
            percentile(&medians, 50.0),
            percentile(&medians, 95.0),
            medians.len(),
        )
    })
}

/// The median over passes of what `f` makes of each pass.
fn over_passes(passes: &[Pass], f: impl Fn(&Pass) -> f64) -> f64 {
    median(&passes.iter().map(f).collect::<Vec<_>>())
}

/// The `p`-th percentile of the hit latencies of each pass, median over
/// passes.
pub fn hit_percentile(wire: &Wire, p: f64) -> Result<f64, String> {
    if wire.passes.iter().any(|pass| pass.hit_s.is_empty()) {
        return Err("a pass saw no hit".into());
    }
    Ok(over_passes(&wire.passes, |pass| {
        percentile(&sorted(pass.hit_s.clone()), p)
    }))
}

/// The end-to-end metrics of a wire run, or why one cannot be formed.
pub fn end_to_end(wire: &Wire) -> Result<Vec<Metric>, String> {
    let (miss_p50, miss_p95, _) = miss_percentiles(&wire.miss_s).ok_or("no miss was answered")?;
    let (ii, mii) = wire
        .passes
        .iter()
        .fold((0, 0), |(ii, mii), p| (ii + p.ii_sum, mii + p.mii_sum));
    Ok(vec![
        Metric::new("setup_s", wire.gen_s + median(&wire.setup_s), "s"),
        Metric::new("pass_s", over_passes(&wire.passes, |p| p.wall_s), "s"),
        Metric::new(
            "rps",
            over_passes(&wire.passes, |p| p.ok as f64 / p.wall_s),
            "1/s",
        ),
        Metric::new("miss_p50_s", miss_p50, "s"),
        Metric::new("miss_p95_s", miss_p95, "s"),
        Metric::new("hit_p50_s", hit_percentile(wire, 50.0)?, "s"),
        Metric::new("ii_ratio", ii as f64 / mii as f64, "ratio"),
        Metric::new("daemon_peak_rss_mb", wire.rss_mb, "MiB"),
    ])
}
