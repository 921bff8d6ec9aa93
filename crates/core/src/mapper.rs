//! The decoupled space/time mapper (paper §IV).

use std::fmt;
use std::sync::{Arc, OnceLock};
use std::time::Instant;

use serde::{Deserialize, Serialize};

use cgra_base::CancelFlag;

use cgra_arch::{Cgra, MAX_ROUTE_HOPS};
use cgra_dfg::Dfg;
use cgra_sched::{
    ims_schedule, min_ii, unsupported_op_class, Mobility, SolveOutcome, TimeSolution, TimeSolver,
    TimeSolverConfig, TimeSolverError,
};

use crate::api::{emit, MapEvent, MapObserver, SpaceAttemptOutcome};
use crate::config::TimeStrategy;
use crate::space::{SpaceEngine, SpaceOutcome};
use crate::{MapError, MapperConfig, Mapping, Placement};

/// Distribution of chosen route lengths over the dependences of one
/// mapping: bucket `d` counts edges whose endpoints sit `d` topology
/// hops apart (bucket 0 is same-PE / held-value dependences; the last
/// bucket, [`MAX_ROUTE_HOPS`], saturates).
///
/// Under the classic one-hop model only buckets 0 and 1 are ever
/// populated; wider routing models show where the mapper actually
/// spent its extra freedom.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Default)]
pub struct RouteHopsHistogram([u64; MAX_ROUTE_HOPS + 1]);

impl RouteHopsHistogram {
    /// Counts one dependence routed over `hops` hops (saturating into
    /// the last bucket).
    pub fn record(&mut self, hops: usize) {
        self.0[hops.min(MAX_ROUTE_HOPS)] += 1;
    }

    /// Dependences routed over exactly `hops` hops (the last bucket
    /// also holds anything beyond it).
    pub fn count(&self, hops: usize) -> u64 {
        self.0[hops.min(MAX_ROUTE_HOPS)]
    }

    /// Total dependences recorded.
    pub fn total(&self) -> u64 {
        self.0.iter().sum()
    }

    /// True when nothing was recorded.
    pub fn is_empty(&self) -> bool {
        self.total() == 0
    }

    /// The raw buckets, indexed by hop count.
    pub fn buckets(&self) -> &[u64] {
        &self.0
    }
}

// Hand-written because the vendored serde has no fixed-size-array
// impls: the histogram crosses the wire as a plain sequence of bucket
// counts.
impl Serialize for RouteHopsHistogram {
    fn write_json(&self, out: &mut String) {
        self.0.as_slice().write_json(out);
    }
}

impl RouteHopsHistogram {
    fn from_counts(counts: Vec<u64>) -> Result<Self, serde::de::Error> {
        let buckets = <[u64; MAX_ROUTE_HOPS + 1]>::try_from(counts).map_err(|counts| {
            serde::de::Error::custom(format!(
                "route-hops histogram needs {} buckets, got {}",
                MAX_ROUTE_HOPS + 1,
                counts.len()
            ))
        })?;
        Ok(RouteHopsHistogram(buckets))
    }
}

impl Deserialize for RouteHopsHistogram {
    fn from_json(r: &mut serde::de::Reader<'_>) -> Result<Self, serde::de::Error> {
        Self::from_counts(Vec::from_json(r)?)
    }
}

/// A successful mapping together with search statistics.
#[derive(Clone, Debug)]
pub struct MapResult {
    /// The space-time mapping.
    pub mapping: Mapping,
    /// How the search went (phase timings, attempts, II escalations).
    pub stats: MapStats,
}

/// Search statistics — the unified superset shared by every engine.
///
/// One struct serves all three mappers, so [`crate::api::MapReport`]s
/// are comparable across engines. The paper's Table III reports the
/// time and space phases separately;
/// [`MapStats::time_phase_seconds`] and [`MapStats::space_phase_seconds`]
/// are those columns (decoupled engine only). The coupled baseline
/// contributes [`MapStats::sat_vars`] / [`MapStats::clauses`] (its
/// formulation size); fields an engine does not produce stay at their
/// defaults.
///
/// Reports are self-describing: [`MapStats::time_strategy`] echoes the
/// time-phase algorithm the search actually ran with, so consumers no
/// longer re-derive it from the request out-of-band.
#[derive(Clone, Copy, Debug, PartialEq, Serialize, Deserialize)]
pub struct MapStats {
    /// The lower bound `mII` the search started from.
    pub mii: usize,
    /// The achieved iteration interval.
    pub achieved_ii: usize,
    /// Wall-clock total.
    pub total_seconds: f64,
    /// Wall-clock spent in the time phase: the SMT search, or under
    /// [`TimeStrategy::Heuristic`] the IMS schedule (whose time is not
    /// split into [`MapStats::time_encode_seconds`] and
    /// [`MapStats::time_solve_seconds`], which stay 0).
    pub time_phase_seconds: f64,
    /// Wall-clock spent building the per-level time-phase encodings
    /// (decoupled SMT strategy only; part of
    /// [`MapStats::time_phase_seconds`]).
    pub time_encode_seconds: f64,
    /// Wall-clock spent inside time-phase SAT solve calls (decoupled
    /// SMT strategy only; part of [`MapStats::time_phase_seconds`]).
    pub time_solve_seconds: f64,
    /// Wall-clock spent in monomorphism search (including pattern
    /// construction, and the [`crate::SpaceEngine`]'s construction on
    /// the first map at its route bound).
    pub space_phase_seconds: f64,
    /// Time solutions produced by the SMT layer.
    pub time_solutions: usize,
    /// Monomorphism searches attempted.
    pub space_attempts: usize,
    /// Total monomorphism search steps.
    pub mono_steps: u64,
    /// Number of II values attempted.
    pub iis_tried: usize,
    /// Always 0: every `(II, slack)` level encodes a fresh time solver.
    /// Kept because the frozen benchmark reads it (`core.solver_reuses`);
    /// it goes with that row in a later benchmark change.
    pub solver_reuses: usize,
    /// Window slack of the successful attempt.
    pub window_slack: usize,
    /// Which algorithm produced time solutions; `None` for engines
    /// without a decoupled time phase (the coupled and annealing
    /// baselines).
    pub time_strategy: Option<TimeStrategy>,
    /// SAT variables of the successful coupled formulation (coupled
    /// baseline only; 0 otherwise).
    pub sat_vars: usize,
    /// SAT clauses of the successful coupled formulation (coupled
    /// baseline only; 0 otherwise).
    pub clauses: usize,
    /// Distribution of chosen route lengths over the mapping's
    /// dependences (bucket `d` = edges placed `d` hops apart).
    pub route_hops_histogram: RouteHopsHistogram,
}

impl Default for MapStats {
    fn default() -> Self {
        MapStats {
            mii: 0,
            achieved_ii: 0,
            total_seconds: 0.0,
            time_phase_seconds: 0.0,
            time_encode_seconds: 0.0,
            time_solve_seconds: 0.0,
            space_phase_seconds: 0.0,
            time_solutions: 0,
            space_attempts: 0,
            mono_steps: 0,
            iis_tried: 0,
            solver_reuses: 0,
            window_slack: 0,
            time_strategy: None,
            sat_vars: 0,
            clauses: 0,
            route_hops_histogram: RouteHopsHistogram::default(),
        }
    }
}

/// The mapper: SMT time solve, then monomorphism space solve, with
/// fall-back enumeration and II escalation.
///
/// Holds its CGRA behind an [`Arc`], so it satisfies the `'static`
/// bound of `Box<dyn `[`crate::api::Mapper`]`>` and can be registered
/// with a [`crate::api::MappingService`]. See the crate-level example
/// for the direct call path.
///
/// The [`SpaceEngine`] depends only on the CGRA and the route bound, so
/// the mapper keeps one per bound, built on the first map that needs
/// it, and every later map at that bound reuses it. Clones share the
/// CGRA and the engines; a [`crate::api::Mapper::map`] request without a
/// CGRA override runs on them under its own configuration.
#[derive(Clone)]
pub struct DecoupledMapper {
    cgra: Arc<Cgra>,
    config: MapperConfig,
    cancel: Option<CancelFlag>,
    /// Slot `k - 1`: the engine at `max_route_hops = k`, once built.
    engines: Arc<[OnceLock<SpaceEngine>; MAX_ROUTE_HOPS]>,
}

impl fmt::Debug for DecoupledMapper {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let built: Vec<usize> = (1..=MAX_ROUTE_HOPS)
            .filter(|&k| self.engines[k - 1].get().is_some())
            .collect();
        f.debug_struct("DecoupledMapper")
            .field("cgra", &self.cgra)
            .field("config", &self.config)
            .field("cancel", &self.cancel)
            .field("engines_built_for_hops", &built)
            .finish()
    }
}

impl DecoupledMapper {
    /// A mapper for `cgra` with the paper-faithful default
    /// configuration.
    pub fn new(cgra: &Cgra) -> Self {
        DecoupledMapper::with_config(cgra, MapperConfig::default())
    }

    /// A mapper with an explicit configuration.
    pub fn with_config(cgra: &Cgra, config: MapperConfig) -> Self {
        DecoupledMapper {
            cgra: Arc::new(cgra.clone()),
            config,
            cancel: None,
            engines: Arc::default(),
        }
    }

    /// This mapper's CGRA and engines under another configuration, with
    /// no cancellation flag: nothing is cloned or rebuilt.
    pub(crate) fn reconfigured(&self, config: MapperConfig) -> Self {
        DecoupledMapper {
            cgra: Arc::clone(&self.cgra),
            config,
            cancel: None,
            engines: Arc::clone(&self.engines),
        }
    }

    /// The mapper's configuration.
    pub fn config(&self) -> &MapperConfig {
        &self.config
    }

    /// The CGRA this mapper targets.
    pub fn cgra(&self) -> &Cgra {
        &self.cgra
    }

    /// Installs a cooperative cancellation flag checked between solver
    /// calls, inside the SAT core and inside the monomorphism DFS.
    pub fn set_cancel(&mut self, flag: CancelFlag) {
        self.cancel = Some(flag);
    }

    /// Maps `dfg` onto the CGRA.
    ///
    /// Searches II values from `mII` upward; for each II tries window
    /// slacks `0..=max_window_slack`, and for each time solution runs
    /// the monomorphism search, enumerating alternative schedules when
    /// the space phase fails (paper §IV-D guarantees this is rare). The
    /// mapper's [`SpaceEngine`] for the route bound holds the MRRG in
    /// its II-independent form; the first map at that bound builds it,
    /// and every later one, on this mapper or a clone, reuses it.
    ///
    /// Each `(II, slack)` level takes its schedules one at a time from
    /// one fresh [`TimeSolver`], the mapper's only SMT path, and searches
    /// each before solving for the next. Within one II the searches run
    /// under a rising ladder of step budgets that ends at
    /// [`MapperConfig::mono_step_limit`], so one hard schedule cannot
    /// hold up the easy ones behind it, and the II rises only after every
    /// undecided schedule has had the full limit.
    ///
    /// # Errors
    ///
    /// [`MapError::InvalidDfg`] for malformed graphs,
    /// [`MapError::UnsupportedOpClass`] when the kernel needs an
    /// operation class no PE of a heterogeneous CGRA provides (checked
    /// before any search runs),
    /// [`MapError::NoSolution`] when the II range is exhausted — or
    /// immediately when [`MapperConfig::max_ii`] is below `mII` (the cap
    /// is a contract, never silently widened), and
    /// [`MapError::Timeout`] when cancelled. A per-solve
    /// [`MapperConfig::time_budget`] running out at one `(II, slack)`
    /// level is *not* a timeout: the search escalates to the next level.
    pub fn map(&self, dfg: &Dfg) -> Result<MapResult, MapError> {
        self.map_observed(dfg, None)
    }

    /// Like [`DecoupledMapper::map`], but emitting structured
    /// [`MapEvent`]s to `observer` as the search progresses.
    ///
    /// The event sequence is deterministic: identical inputs produce
    /// the identical event stream run to run, one
    /// [`MapEvent::SpaceAttempt`] per monomorphism search.
    pub fn map_observed(
        &self,
        dfg: &Dfg,
        observer: Option<&dyn MapObserver>,
    ) -> Result<MapResult, MapError> {
        let result = self.map_inner(dfg, observer);
        if let Some(obs) = observer {
            obs.on_event(&MapEvent::Finished {
                mapped: result.is_ok(),
                ii: result.as_ref().ok().map(|r| r.mapping.ii()),
            });
        }
        result
    }

    fn map_inner(&self, dfg: &Dfg, obs: Option<&dyn MapObserver>) -> Result<MapResult, MapError> {
        dfg.validate()?;
        // A class with demand but no provider can never map, at any II:
        // fail before any search runs (and before mII, whose per-class
        // resource bound is undefined for such classes).
        if let Some(class) = unsupported_op_class(dfg, &self.cgra) {
            return Err(MapError::UnsupportedOpClass { class });
        }
        let start = Instant::now();
        let mobility = Mobility::compute(dfg)?;
        let mii = min_ii(dfg, &self.cgra);
        if let Some(cap) = self.config.max_ii {
            if cap < mii {
                return Err(MapError::NoSolution { mii, max_ii: cap });
            }
        }
        let max_ii = self.config.max_ii.unwrap_or(mii + 16);
        let mut time_config = TimeSolverConfig::for_cgra(&self.cgra)
            .with_strict_connectivity(self.config.strict_connectivity)
            .with_capacity_constraints(self.config.capacity_constraints)
            .with_connectivity_constraints(self.config.connectivity_constraints);
        time_config.budget = self.config.time_budget.clone();
        let t0 = Instant::now();
        let engine = self.engine();
        let mut session = Session {
            cgra: &self.cgra,
            config: &self.config,
            cancel: self.cancel.as_ref(),
            dfg,
            mobility,
            engine,
            obs,
            stats: MapStats {
                mii,
                time_strategy: Some(self.config.time_strategy),
                space_phase_seconds: t0.elapsed().as_secs_f64(),
                ..MapStats::default()
            },
            start,
            time_config,
        };

        for ii in mii..=max_ii {
            session.stats.iis_tried += 1;
            emit(obs, MapEvent::IiStarted { ii });
            if let Some((sol, map, slack)) = session.ladder(ii)? {
                return Ok(session.finish(&sol, map, ii, slack));
            }
        }
        Err(MapError::NoSolution { mii, max_ii })
    }

    /// The engine for the configured route bound, built on first use
    /// and shared with every clone of this mapper from then on.
    ///
    /// # Panics
    ///
    /// Panics unless `1 <= max_route_hops <= MAX_ROUTE_HOPS`, as
    /// [`SpaceEngine::with_route_hops`] does.
    fn engine(&self) -> &SpaceEngine {
        let hops = self.config.max_route_hops;
        assert!(
            (1..=MAX_ROUTE_HOPS).contains(&hops),
            "max_route_hops {hops} out of range 1..={MAX_ROUTE_HOPS}"
        );
        self.engines[hops - 1].get_or_init(|| SpaceEngine::with_route_hops(&self.cgra, hops))
    }
}

/// One map request: the mapper's CGRA, configuration and cancel flag,
/// the DFG and its space engine, the observer, and the statistics the
/// search books as it walks the II range.
struct Session<'a> {
    cgra: &'a Cgra,
    config: &'a MapperConfig,
    cancel: Option<&'a CancelFlag>,
    dfg: &'a Dfg,
    /// The DFG's ASAP/ALAP windows, which every level's dependence
    /// screen starts from.
    mobility: Mobility,
    engine: &'a SpaceEngine,
    obs: Option<&'a dyn MapObserver>,
    stats: MapStats,
    start: Instant,
    /// The time-phase configuration at slack 0, built once per map;
    /// each level takes a copy at its own slack.
    time_config: TimeSolverConfig,
}

/// Where one `(II, slack)` level's schedules come from.
// One lives on the stack per level; boxing the solver would add an
// allocation per level for nothing.
#[allow(clippy::large_enum_variant)]
enum Source<'a> {
    /// The level's SMT formula: every pull blocks the schedules before
    /// it and solves again.
    Smt(TimeSolver<'a>),
    /// The IMS heuristic, one-shot: its schedule if it found one, then
    /// `Unsat`.
    Ims(Option<TimeSolution>),
}

impl<'a> Session<'a> {
    fn cancelled(&self) -> bool {
        self.cancel.is_some_and(CancelFlag::is_cancelled)
    }

    /// One II under a geometric ladder of step budgets — a thousandth, a
    /// hundredth, a tenth of [`MapperConfig::mono_step_limit`], then the
    /// limit itself (rungs a small limit rounds to zero are skipped).
    ///
    /// The first rung walks the slack levels `0..=max_window_slack`
    /// through [`Session::level`], giving every enumerated schedule the
    /// smallest budget: an embeddable schedule typically needs tens of
    /// steps, so a schedule that would burn the whole limit no longer
    /// stands in front of the next slack level's easy one. A search that
    /// exhausts its space settles its schedule; one that stops at the
    /// budget leaves it undecided, and only those are kept. Every later
    /// rung searches the kept schedules again under the next budget,
    /// without re-encoding or re-solving anything. The II is given up
    /// only after the last rung, so every schedule has been searched
    /// under the full limit before the II rises, and the earlier rungs
    /// add at most 11.1 % to the work of the last.
    ///
    /// Returns the winning `(schedule, monomorphism, slack)`.
    fn ladder(&mut self, ii: usize) -> Result<Option<(TimeSolution, Vec<usize>, usize)>, MapError> {
        let limit = self.config.mono_step_limit;
        let mut budgets = [1000, 100, 10]
            .into_iter()
            .map(|part| limit / part)
            .filter(|&budget| budget > 0)
            .chain([limit]);
        let first = budgets.next().expect("the limit itself is a rung");
        // Undecided schedules per slack level, in enumeration order.
        let mut kept: Vec<(usize, Vec<TimeSolution>)> = Vec::new();
        for slack in 0..=self.config.max_window_slack {
            if self.cancelled() {
                return Err(MapError::Timeout { ii });
            }
            let mut undecided = Vec::new();
            if let Some((sol, map)) = self.level(ii, slack, first, &mut undecided)? {
                return Ok(Some((sol, map, slack)));
            }
            emit(self.obs, MapEvent::Escalated { ii, slack });
            kept.push((slack, undecided));
        }
        for budget in budgets {
            for (slack, sols) in &mut kept {
                let mut undecided = Vec::with_capacity(sols.len());
                for sol in sols.drain(..) {
                    match self.attempt(ii, *slack, &sol, budget) {
                        SpaceOutcome::Found(map) => return Ok(Some((sol, map, *slack))),
                        SpaceOutcome::LimitReached => undecided.push(sol),
                        SpaceOutcome::Exhausted | SpaceOutcome::Cancelled => {}
                    }
                    if self.cancelled() {
                        return Err(MapError::Timeout { ii });
                    }
                }
                *sols = undecided;
            }
        }
        Ok(None)
    }

    /// One `(II, slack)` level, the paper's §IV-D loop: pull schedules
    /// from the level's one [`Source`], search each for a monomorphism
    /// under `budget` steps, and block-and-enumerate on failure.
    ///
    /// The source is a [`TimeSolver`] encoded fresh for the level, or
    /// the single IMS schedule under [`TimeStrategy::Heuristic`]. The
    /// fresh solver is the mapper's only SMT path on purpose:
    /// [`cgra_sched::IncrementalTimeSolver`] stays in `cgra-sched` only
    /// because the benchmark's `sched.*` probe drives it; its encoding's
    /// model order embeds far worse, and screening Unsat levels on it
    /// re-encodes more than it saves (README, "The time phase", has both
    /// measurements).
    ///
    /// Schedules are pulled one at a time, never more than
    /// [`MapperConfig::max_time_solutions`] per level (but always the
    /// first, even under a cap of 0), and each is one
    /// [`Session::attempt`]: solve → search → block → solve, in
    /// enumeration order.
    ///
    /// A level whose dependences alone rule out every schedule
    /// ([`Mobility::refutes`]) ends before its source is built, as an
    /// `Unsat` first pull would end it: no encode, no solve, no event.
    ///
    /// Returns the winning `(schedule, monomorphism)`, or `None` when
    /// the level ended without one — no schedule left, the enumeration
    /// cap, or a per-solve budget running out. The schedules whose
    /// search stopped at `budget` are appended to `undecided`.
    fn level(
        &mut self,
        ii: usize,
        slack: usize,
        budget: u64,
        undecided: &mut Vec<TimeSolution>,
    ) -> Result<Option<(TimeSolution, Vec<usize>)>, MapError> {
        if self.mobility.refutes(self.dfg, ii, slack) {
            return Ok(None);
        }
        let mut source = self.source(ii, slack)?;
        let mut remaining = self.config.max_time_solutions.max(1);
        while remaining > 0 {
            let t0 = Instant::now();
            let outcome = match &mut source {
                Source::Smt(solver) => solver.next(),
                Source::Ims(first) => first
                    .take()
                    .map_or(SolveOutcome::Unsat, SolveOutcome::Solution),
            };
            let solve = t0.elapsed().as_secs_f64();
            self.stats.time_phase_seconds += solve;
            if let Source::Smt(_) = source {
                self.stats.time_solve_seconds += solve;
            }
            match outcome {
                SolveOutcome::Solution(sol) => {
                    self.stats.time_solutions += 1;
                    remaining -= 1;
                    emit(self.obs, MapEvent::TimeSolutionFound { ii, slack });
                    match self.attempt(ii, slack, &sol, budget) {
                        SpaceOutcome::Found(map) => return Ok(Some((sol, map))),
                        SpaceOutcome::LimitReached => undecided.push(sol),
                        SpaceOutcome::Exhausted | SpaceOutcome::Cancelled => {}
                    }
                    if self.cancelled() {
                        return Err(MapError::Timeout { ii });
                    }
                }
                SolveOutcome::Unsat => return Ok(None),
                // The flag may have been raised while the SMT solve was
                // blocked: user cancellation aborts the whole search, a
                // per-solve budget running out ends only this level.
                SolveOutcome::Timeout if self.cancelled() => return Err(MapError::Timeout { ii }),
                SolveOutcome::Timeout => return Ok(None),
            }
        }
        Ok(None)
    }

    /// The schedule source of one `(II, slack)` level. Building it is
    /// time-phase work; an SMT encode is also booked as encode time.
    fn source(&mut self, ii: usize, slack: usize) -> Result<Source<'a>, MapError> {
        let t0 = Instant::now();
        let config = self.time_config.clone().with_window_slack(slack);
        let source = match self.config.time_strategy {
            TimeStrategy::Heuristic => Source::Ims(ims_schedule(self.dfg, ii, &config)),
            TimeStrategy::Smt => {
                let mut solver = match TimeSolver::new(self.dfg, ii, config) {
                    Ok(s) => s,
                    Err(TimeSolverError::Dfg(e)) => return Err(MapError::InvalidDfg(e)),
                    Err(_) => unreachable!("ii and capacity are positive"),
                };
                if let Some(flag) = self.cancel {
                    solver.set_cancel_flag(flag.arc());
                }
                Source::Smt(solver)
            }
        };
        let elapsed = t0.elapsed().as_secs_f64();
        self.stats.time_phase_seconds += elapsed;
        if let Source::Smt(_) = source {
            self.stats.time_encode_seconds += elapsed;
        }
        Ok(source)
    }

    /// Searches one schedule of `(ii, slack)` for a monomorphism under
    /// `budget` steps, books the work in the statistics and reports it
    /// as one [`MapEvent::SpaceAttempt`].
    fn attempt(
        &mut self,
        ii: usize,
        slack: usize,
        sol: &TimeSolution,
        budget: u64,
    ) -> SpaceOutcome {
        let t0 = Instant::now();
        let (outcome, steps) = self.engine.search(self.dfg, sol, budget, self.cancel);
        self.stats.space_phase_seconds += t0.elapsed().as_secs_f64();
        self.stats.space_attempts += 1;
        self.stats.mono_steps += steps;
        let event = MapEvent::SpaceAttempt {
            ii,
            slack,
            outcome: SpaceAttemptOutcome::from(&outcome),
        };
        emit(self.obs, event);
        outcome
    }

    /// Converts a found monomorphism into the final [`Mapping`] and
    /// closes out the statistics.
    fn finish(mut self, sol: &TimeSolution, map: Vec<usize>, ii: usize, slack: usize) -> MapResult {
        let (dfg, cgra) = (self.dfg, self.cgra);
        let n = cgra.num_pes();
        let placements: Vec<Placement> = dfg
            .nodes()
            .map(|v| {
                let idx = map[v.index()];
                debug_assert_eq!(idx / n, sol.slot(v));
                Placement {
                    pe: cgra_arch::PeId::from_index(idx % n),
                    slot: idx / n,
                    time: sol.time(v),
                }
            })
            .collect();
        self.stats.achieved_ii = ii;
        self.stats.window_slack = slack;
        self.stats.total_seconds = self.start.elapsed().as_secs_f64();
        // Chosen route length per dependence. The histogram is recorded
        // for every model (it costs a table lookup per edge); the
        // per-edge vector rides on the mapping only under a widened
        // model, keeping one-hop mappings byte-identical on the wire.
        let route_hops: Vec<usize> = dfg
            .edges()
            .iter()
            .map(|e| {
                if e.src == e.dst {
                    return 0;
                }
                cgra.hop_distance(placements[e.src.index()].pe, placements[e.dst.index()].pe)
                    .expect("embedded dependences are within the route bound")
            })
            .collect();
        for &hops in &route_hops {
            self.stats.route_hops_histogram.record(hops);
        }
        let mut mapping = Mapping::new(dfg.name(), ii, placements);
        if self.config.max_route_hops > 1 {
            mapping = mapping.with_route_hops(route_hops);
        }
        debug_assert_eq!(
            mapping.validate_routed(dfg, cgra, self.config.max_route_hops),
            Ok(())
        );
        MapResult {
            mapping,
            stats: self.stats,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cgra_dfg::examples::{accumulator, running_example, stream_scale};
    use cgra_dfg::{DfgBuilder, Operation as Op};
    use monomap_frontend::suite;

    #[test]
    fn running_example_maps_at_paper_ii() {
        let cgra = Cgra::new(2, 2).unwrap();
        let dfg = running_example();
        let result = DecoupledMapper::new(&cgra).map(&dfg).unwrap();
        assert_eq!(result.mapping.ii(), 4, "paper Fig. 2b");
        result.mapping.validate(&dfg, &cgra).unwrap();
        assert_eq!(result.stats.mii, 4);
        assert!(result.stats.time_solutions >= 1);
    }

    #[test]
    fn accumulator_maps_at_two() {
        let cgra = Cgra::new(2, 2).unwrap();
        let dfg = accumulator();
        let result = DecoupledMapper::new(&cgra).map(&dfg).unwrap();
        assert_eq!(result.mapping.ii(), 2);
        result.mapping.validate(&dfg, &cgra).unwrap();
    }

    #[test]
    fn stream_scale_maps_on_3x3() {
        let cgra = Cgra::new(3, 3).unwrap();
        let dfg = stream_scale();
        let result = DecoupledMapper::new(&cgra).map(&dfg).unwrap();
        result.mapping.validate(&dfg, &cgra).unwrap();
        assert!(result.mapping.ii() >= result.stats.mii);
    }

    #[test]
    fn suite_kernels_map_on_5x5() {
        let cgra = Cgra::new(5, 5).unwrap();
        for name in ["susan", "gsm", "bitcount"] {
            let dfg = suite::generate(name);
            let result = DecoupledMapper::new(&cgra).map(&dfg).unwrap();
            result.mapping.validate(&dfg, &cgra).unwrap();
            assert!(
                result.mapping.ii() <= result.stats.mii + 3,
                "{name}: ii {} vs mii {}",
                result.mapping.ii(),
                result.stats.mii
            );
        }
    }

    fn star4() -> Dfg {
        let mut b = DfgBuilder::new();
        let x = b.input("x");
        let c = b.unary("c", Op::Neg, x);
        for i in 0..4 {
            b.unary(format!("k{i}"), Op::Not, c);
        }
        b.build().unwrap()
    }

    #[test]
    fn no_solution_when_connectivity_cannot_hold() {
        // Four same-slot consumers and D_M = 3: with zero slack no II
        // can fix the singleton windows, so the range exhausts.
        let cgra = Cgra::new(2, 2).unwrap();
        let cfg = MapperConfig::new().with_max_ii(6).with_max_window_slack(0);
        let err = DecoupledMapper::with_config(&cgra, cfg)
            .map(&star4())
            .unwrap_err();
        assert_eq!(err, MapError::NoSolution { mii: 2, max_ii: 6 });
    }

    #[test]
    fn slack_rescues_the_star() {
        let cgra = Cgra::new(2, 2).unwrap();
        let dfg = star4();
        let result = DecoupledMapper::new(&cgra).map(&dfg).unwrap();
        result.mapping.validate(&dfg, &cgra).unwrap();
        assert!(result.stats.window_slack > 0, "needed slack to spread");
    }

    #[test]
    fn cancel_flag_times_out() {
        let cgra = Cgra::new(2, 2).unwrap();
        let dfg = running_example();
        let mut mapper = DecoupledMapper::new(&cgra);
        let flag = CancelFlag::new();
        flag.cancel();
        mapper.set_cancel(flag);
        assert!(matches!(mapper.map(&dfg), Err(MapError::Timeout { .. })));
    }

    #[test]
    fn max_ii_below_mii_is_rejected_immediately() {
        // Regression: the cap used to be silently clamped up to mII and
        // one II was searched anyway.
        let cgra = Cgra::new(2, 2).unwrap();
        let dfg = running_example(); // mII = 4
        let cfg = MapperConfig::new().with_max_ii(2);
        let started = std::time::Instant::now();
        let err = DecoupledMapper::with_config(&cgra, cfg)
            .map(&dfg)
            .unwrap_err();
        assert_eq!(err, MapError::NoSolution { mii: 4, max_ii: 2 });
        assert!(
            started.elapsed() < std::time::Duration::from_secs(5),
            "no II may be searched"
        );
    }

    #[test]
    fn budget_exhaustion_escalates_instead_of_aborting() {
        // Regression: a per-solve budget running out used to surface as
        // MapError::Timeout from the first (II, slack) level. With a
        // budget too small for any level, every level must now be
        // tried and the final error is NoSolution over the full range.
        use cgra_base::Budget;
        let cgra = Cgra::new(2, 2).unwrap();
        let dfg = running_example();
        let cfg = MapperConfig::new().with_max_ii(6).with_time_budget(Budget {
            max_conflicts: Some(0),
            max_propagations: Some(0),
        });
        let err = DecoupledMapper::with_config(&cgra, cfg)
            .map(&dfg)
            .unwrap_err();
        assert_eq!(err, MapError::NoSolution { mii: 4, max_ii: 6 });
    }

    #[test]
    fn generous_budget_still_maps() {
        // The budget-exhaustion escalation must not break solvable
        // levels: with a roomy budget the result is unchanged.
        use cgra_base::Budget;
        let cgra = Cgra::new(2, 2).unwrap();
        let dfg = running_example();
        let cfg = MapperConfig::new().with_time_budget(Budget::conflicts(1_000_000));
        let result = DecoupledMapper::with_config(&cgra, cfg).map(&dfg).unwrap();
        assert_eq!(result.mapping.ii(), 4);
    }

    #[test]
    fn serial_mappings_are_byte_identical_across_runs() {
        // The mapper is deterministic: repeated runs produce
        // byte-for-byte identical mappings.
        let cgra = Cgra::new(5, 5).unwrap();
        for name in ["susan", "gsm", "bitcount"] {
            let dfg = suite::generate(name);
            let a = DecoupledMapper::new(&cgra).map(&dfg).unwrap();
            let b = DecoupledMapper::new(&cgra).map(&dfg).unwrap();
            let ja = serde_json::to_string(&a.mapping).unwrap();
            let jb = serde_json::to_string(&b.mapping).unwrap();
            assert_eq!(ja, jb, "{name}: the mapper must be deterministic");
        }
    }

    #[test]
    fn strict_connectivity_still_maps_running_example() {
        let cgra = Cgra::new(2, 2).unwrap();
        let dfg = running_example();
        let cfg = MapperConfig::new().with_strict_connectivity(true);
        let result = DecoupledMapper::with_config(&cgra, cfg).map(&dfg).unwrap();
        result.mapping.validate(&dfg, &cgra).unwrap();
    }

    #[test]
    fn invalid_dfg_is_reported() {
        let mut b = DfgBuilder::new();
        let _ = b.phi("open", 0);
        let dfg = b.build_unchecked();
        let cgra = Cgra::new(2, 2).unwrap();
        assert!(matches!(
            DecoupledMapper::new(&cgra).map(&dfg),
            Err(MapError::InvalidDfg(_))
        ));
    }

    #[test]
    fn heuristic_time_strategy_maps_suite_kernels() {
        use crate::TimeStrategy;
        let cgra = Cgra::new(4, 4).unwrap();
        for name in ["susan", "bitcount", "gsm"] {
            let dfg = suite::generate(name);
            let cfg = MapperConfig::new().with_time_strategy(TimeStrategy::Heuristic);
            let result = DecoupledMapper::with_config(&cgra, cfg)
                .map(&dfg)
                .unwrap_or_else(|e| panic!("{name}: {e}"));
            result.mapping.validate(&dfg, &cgra).unwrap();
            // Heuristic may need a slightly larger II than the exact
            // search, but not much on a roomy 4x4.
            assert!(
                result.mapping.ii() <= result.stats.mii + 3,
                "{name}: heuristic II {} vs mII {}",
                result.mapping.ii(),
                result.stats.mii
            );
        }
    }

    #[test]
    fn heuristic_running_example_matches_smt_ii() {
        use crate::TimeStrategy;
        let cgra = Cgra::new(2, 2).unwrap();
        let dfg = running_example();
        let cfg = MapperConfig::new().with_time_strategy(TimeStrategy::Heuristic);
        let result = DecoupledMapper::with_config(&cgra, cfg).map(&dfg).unwrap();
        result.mapping.validate(&dfg, &cgra).unwrap();
        assert_eq!(result.mapping.ii(), 4, "IMS+mono reaches the paper's II");
    }

    fn mem_mul_kernel() -> Dfg {
        let mut b = DfgBuilder::new();
        let x = b.input("x");
        let a = b.load("a", x);
        let m = b.binary("m", Op::Mul, a, x);
        let p = b.phi("p", 0);
        let s = b.binary("s", Op::Add, p, m);
        b.loop_carried(s, p, 1);
        b.store("st", x, s);
        b.output("o", s);
        b.build().unwrap()
    }

    #[test]
    fn heterogeneous_grid_maps_and_respects_capabilities() {
        use cgra_arch::CapabilityProfile;
        let cgra = Cgra::new(4, 4)
            .unwrap()
            .with_capability_profile(CapabilityProfile::MemLeftMulCheckerboard);
        let dfg = mem_mul_kernel();
        let result = DecoupledMapper::new(&cgra).map(&dfg).unwrap();
        result.mapping.validate(&dfg, &cgra).unwrap();
        for v in dfg.nodes() {
            let class = dfg.op(v).op_class();
            assert!(
                cgra.supports(result.mapping.pe(v), class),
                "{v:?} ({class}) on incapable {:?}",
                result.mapping.pe(v)
            );
        }
    }

    #[test]
    fn unsupported_class_fails_fast() {
        use cgra_arch::{OpClass, OpClassSet};
        let cgra = Cgra::new(3, 3)
            .unwrap()
            .with_pe_capabilities(vec![OpClassSet::only(OpClass::Alu); 9])
            .unwrap();
        let dfg = mem_mul_kernel();
        let started = std::time::Instant::now();
        let err = DecoupledMapper::new(&cgra).map(&dfg).unwrap_err();
        assert!(
            matches!(err, MapError::UnsupportedOpClass { .. }),
            "{err:?}"
        );
        assert!(
            started.elapsed() < std::time::Duration::from_secs(1),
            "no search may run for an unsupported class"
        );
    }

    #[test]
    fn heterogeneous_heuristic_strategy_maps() {
        use crate::TimeStrategy;
        use cgra_arch::CapabilityProfile;
        let cgra = Cgra::new(4, 4)
            .unwrap()
            .with_capability_profile(CapabilityProfile::MemLeftColumn);
        let dfg = mem_mul_kernel();
        let cfg = MapperConfig::new().with_time_strategy(TimeStrategy::Heuristic);
        let result = DecoupledMapper::with_config(&cgra, cfg).map(&dfg).unwrap();
        result.mapping.validate(&dfg, &cgra).unwrap();
    }

    #[test]
    fn stats_phases_sum_below_total() {
        let cgra = Cgra::new(2, 2).unwrap();
        let dfg = running_example();
        let result = DecoupledMapper::new(&cgra).map(&dfg).unwrap();
        let s = result.stats;
        assert!(s.time_phase_seconds + s.space_phase_seconds <= s.total_seconds + 1e-3);
        // The encode/solve split partitions the time phase.
        assert!(s.time_encode_seconds + s.time_solve_seconds <= s.time_phase_seconds + 1e-3);
        assert!(s.time_encode_seconds > 0.0, "every level pays an encode");
        assert_eq!(s.achieved_ii, 4);
    }

    /// One producer feeding `k` same-slot consumers: connectivity-bound,
    /// so low IIs burn through Unsat slack levels before one embeds.
    fn star_k(k: usize) -> Dfg {
        let mut b = DfgBuilder::new();
        let x = b.input("x");
        let c = b.unary("c", Op::Neg, x);
        for i in 0..k {
            b.unary(format!("k{i}"), Op::Not, c);
        }
        b.build().unwrap()
    }

    /// Maps `dfg` on a 2x2 with the default configuration,
    /// returning the mapping's JSON, the stats and the event stream.
    fn observed_serial_map(dfg: &Dfg) -> (String, MapStats, Vec<MapEvent>) {
        let collector = crate::api::EventCollector::new();
        let result = DecoupledMapper::new(&Cgra::new(2, 2).unwrap())
            .map_observed(dfg, Some(&collector))
            .unwrap();
        let json = serde_json::to_string(&result.mapping).unwrap();
        (json, result.stats, collector.events())
    }

    /// One rung of a pinned ladder: the schedule found at `(ii, slack)`
    /// and how its monomorphism search ended.
    fn attempt(ii: usize, slack: usize, outcome: SpaceAttemptOutcome) -> [MapEvent; 2] {
        [
            MapEvent::TimeSolutionFound { ii, slack },
            MapEvent::SpaceAttempt { ii, slack, outcome },
        ]
    }

    /// The close of a pinned ladder that mapped at `(ii, slack)`.
    fn mapped_at(ii: usize, slack: usize) -> Vec<MapEvent> {
        let mut tail = attempt(ii, slack, SpaceAttemptOutcome::Found).to_vec();
        let ii = Some(ii);
        tail.push(MapEvent::Finished { mapped: true, ii });
        tail
    }

    #[test]
    fn serial_event_ladders_are_pinned() {
        // The serial path's stream and mappings are a contract, not an
        // accident. Events, counts and the two star mappings are as
        // captured before the levels were folded into `level()`; the
        // running example's placement was re-captured when the
        // propagating search replaced the static-order DFS (same
        // schedule, same II, another of its embeddings).
        use MapEvent::{Escalated, IiStarted};
        let (mapping, _, events) = observed_serial_map(&running_example());
        assert_eq!(
            events,
            [vec![IiStarted { ii: 4 }], mapped_at(4, 0)].concat()
        );
        assert_eq!(
            mapping,
            r#"{"dfg_name":"running-example","ii":4,"placements":[{"pe":0,"slot":1,"time":1},{"pe":1,"slot":2,"time":2},{"pe":3,"slot":2,"time":2},{"pe":1,"slot":0,"time":0},{"pe":0,"slot":0,"time":0},{"pe":1,"slot":1,"time":1},{"pe":0,"slot":2,"time":2},{"pe":0,"slot":3,"time":3},{"pe":1,"slot":3,"time":3},{"pe":3,"slot":0,"time":4},{"pe":2,"slot":1,"time":5},{"pe":2,"slot":2,"time":2},{"pe":2,"slot":0,"time":4},{"pe":3,"slot":1,"time":5}]}"#
        );

        // star6 escalates: II 2 is Unsat at every slack, II 3 needs one
        // slack level.
        let (mapping, _, events) = observed_serial_map(&star_k(6));
        let mut expected = vec![IiStarted { ii: 2 }];
        expected.extend((0..=2).map(|slack| Escalated { ii: 2, slack }));
        expected.extend([IiStarted { ii: 3 }, Escalated { ii: 3, slack: 0 }]);
        expected.extend(mapped_at(3, 1));
        assert_eq!(events, expected);
        assert_eq!(
            mapping,
            r#"{"dfg_name":"unnamed","ii":3,"placements":[{"pe":0,"slot":1,"time":1},{"pe":0,"slot":2,"time":2},{"pe":1,"slot":1,"time":4},{"pe":0,"slot":0,"time":3},{"pe":2,"slot":1,"time":4},{"pe":1,"slot":0,"time":3},{"pe":2,"slot":0,"time":3},{"pe":1,"slot":2,"time":5}]}"#
        );

        // star8 burns the whole enumeration cap at (3, 1) and (3, 2) —
        // sixteen solve → search → block rounds each, never a
        // seventeenth solve — before II 4 embeds.
        let (mapping, stats, events) = observed_serial_map(&star_k(8));
        let mut expected = vec![IiStarted { ii: 3 }, Escalated { ii: 3, slack: 0 }];
        for slack in [1, 2] {
            for _ in 0..16 {
                expected.extend(attempt(3, slack, SpaceAttemptOutcome::Exhausted));
            }
            expected.push(Escalated { ii: 3, slack });
        }
        expected.extend([IiStarted { ii: 4 }, Escalated { ii: 4, slack: 0 }]);
        expected.extend(mapped_at(4, 1));
        assert_eq!(events, expected);
        assert_eq!(
            (stats.time_solutions, stats.space_attempts, stats.mono_steps),
            (33, 33, 10)
        );
        assert_eq!(
            mapping,
            r#"{"dfg_name":"unnamed","ii":4,"placements":[{"pe":0,"slot":1,"time":1},{"pe":0,"slot":3,"time":3},{"pe":0,"slot":0,"time":4},{"pe":1,"slot":1,"time":5},{"pe":2,"slot":1,"time":5},{"pe":0,"slot":2,"time":6},{"pe":1,"slot":2,"time":6},{"pe":1,"slot":0,"time":4},{"pe":2,"slot":0,"time":4},{"pe":2,"slot":2,"time":6}]}"#
        );
    }

    #[test]
    fn heuristic_event_ladders_are_pinned() {
        // The IMS source is one-shot per level: one schedule or none,
        // then the level ends. Streams and counts as captured before
        // the SMT and IMS sources shared one schedule loop.
        use MapEvent::{Escalated, IiStarted};
        let heuristic = |dfg: &Dfg| {
            let collector = crate::api::EventCollector::new();
            let cfg = MapperConfig::new().with_time_strategy(TimeStrategy::Heuristic);
            let stats = DecoupledMapper::with_config(&Cgra::new(2, 2).unwrap(), cfg)
                .map_observed(dfg, Some(&collector))
                .unwrap()
                .stats;
            let counts = (stats.time_solutions, stats.space_attempts, stats.mono_steps);
            (collector.events(), counts)
        };

        // IMS fails the razor-tight slack 0 and embeds slack 1's schedule.
        let (events, counts) = heuristic(&running_example());
        let mut expected = vec![IiStarted { ii: 4 }, Escalated { ii: 4, slack: 0 }];
        expected.extend(mapped_at(4, 1));
        assert_eq!(events, expected);
        assert_eq!(counts, (1, 1, 14));

        let (events, counts) = heuristic(&star_k(6));
        let mut expected = vec![IiStarted { ii: 2 }];
        expected.extend((0..=2).map(|slack| Escalated { ii: 2, slack }));
        expected.extend([IiStarted { ii: 3 }, Escalated { ii: 3, slack: 0 }]);
        expected.extend(mapped_at(3, 1));
        assert_eq!(events, expected);
        assert_eq!(counts, (1, 1, 8));

        // star8: each II 3 level's single schedule fails to embed.
        let (events, counts) = heuristic(&star_k(8));
        let mut expected = vec![IiStarted { ii: 3 }, Escalated { ii: 3, slack: 0 }];
        for slack in [1, 2] {
            expected.extend(attempt(3, slack, SpaceAttemptOutcome::Exhausted));
            expected.push(Escalated { ii: 3, slack });
        }
        expected.extend([IiStarted { ii: 4 }, Escalated { ii: 4, slack: 0 }]);
        expected.extend(mapped_at(4, 1));
        assert_eq!(events, expected);
        assert_eq!(counts, (3, 3, 10));
    }

    #[test]
    fn ladder_re_searches_undecided_schedules_with_exact_step_sums() {
        // A limit of 100 gives the rungs 1, 10, 100 (a thousandth rounds
        // to zero and is skipped). With one schedule per level, the
        // first rung stops each of the three slack levels' schedules
        // after 1 step, the second stops the same three after 10, and
        // the last embeds the slack-0 schedule: no schedule is solved
        // or encoded twice, and the step total is the exact rung sum.
        use MapEvent::{Escalated, IiStarted};
        let dfg = running_example();
        let (_, full, _) = observed_serial_map(&dfg);
        let cfg = MapperConfig::new()
            .with_mono_step_limit(100)
            .with_max_time_solutions(1);
        let collector = crate::api::EventCollector::new();
        let result = DecoupledMapper::with_config(&Cgra::new(2, 2).unwrap(), cfg)
            .map_observed(&dfg, Some(&collector))
            .unwrap();
        let events = collector.events();
        let mut expected = vec![IiStarted { ii: 4 }];
        for slack in 0..=2 {
            expected.extend(attempt(4, slack, SpaceAttemptOutcome::LimitReached));
            expected.push(Escalated { ii: 4, slack });
        }
        // Re-searches carry the slack of the level that found the
        // schedule and follow that II's last `Escalated`.
        expected.extend((0..=2).map(|slack| MapEvent::SpaceAttempt {
            ii: 4,
            slack,
            outcome: SpaceAttemptOutcome::LimitReached,
        }));
        expected.push(MapEvent::SpaceAttempt {
            ii: 4,
            slack: 0,
            outcome: SpaceAttemptOutcome::Found,
        });
        let ii = Some(4);
        expected.push(MapEvent::Finished { mapped: true, ii });
        assert_eq!(events, expected);
        let stats = result.stats;
        assert_eq!((stats.time_solutions, stats.space_attempts), (3, 7));
        assert_eq!(stats.mono_steps, 3 + 3 * 10 + full.mono_steps);
        assert_eq!(stats.window_slack, 0);
    }

    #[test]
    fn one_hop_mappings_record_histogram_but_not_route_hops() {
        let cgra = Cgra::new(2, 2).unwrap();
        let dfg = running_example();
        let result = DecoupledMapper::new(&cgra).map(&dfg).unwrap();
        let h = result.stats.route_hops_histogram;
        assert_eq!(h.total() as usize, dfg.edges().len());
        assert_eq!(h.count(2) + h.count(3) + h.count(4), 0, "one-hop model");
        // The mapping's wire form is untouched at k=1.
        assert!(result.mapping.route_hops().is_empty());
        let json = serde_json::to_string(&result.mapping).unwrap();
        assert!(!json.contains("route_hops"), "{json}");
    }

    #[test]
    fn widened_routing_maps_the_mesh_star_at_a_lower_ii() {
        use cgra_arch::Topology;
        // star6 on a 3x3 mesh: the corner-heavy mesh makes one-hop
        // placement of 6 same-slot consumers expensive; two-hop routes
        // relax exactly that constraint.
        let cgra = Cgra::with_topology(3, 3, Topology::Mesh).unwrap();
        let dfg = star_k(6);
        let one = DecoupledMapper::new(&cgra).map(&dfg).unwrap();
        let cfg = MapperConfig::new().with_max_route_hops(2);
        let two = DecoupledMapper::with_config(&cgra, cfg).map(&dfg).unwrap();
        two.mapping.validate_routed(&dfg, &cgra, 2).unwrap();
        assert!(
            two.mapping.ii() <= one.mapping.ii(),
            "k=2 ({}) must never need a larger II than k=1 ({})",
            two.mapping.ii(),
            one.mapping.ii()
        );
        // The routed mapping records its per-edge route lengths.
        assert_eq!(two.mapping.route_hops().len(), dfg.edges().len());
        assert_eq!(
            two.stats.route_hops_histogram.total() as usize,
            dfg.edges().len()
        );
        assert!(
            two.mapping.route_hops().iter().all(|&d| d <= 2),
            "no route may exceed the bound"
        );
    }

    #[test]
    fn routed_mapping_roundtrips_with_route_lengths() {
        use cgra_arch::Topology;
        let cgra = Cgra::with_topology(3, 3, Topology::Mesh).unwrap();
        let dfg = star_k(6);
        let cfg = MapperConfig::new().with_max_route_hops(2);
        let result = DecoupledMapper::with_config(&cgra, cfg).map(&dfg).unwrap();
        if result.mapping.route_hops().iter().any(|&d| d > 1) {
            let json = serde_json::to_string(&result.mapping).unwrap();
            assert!(json.contains("route_hops"));
        }
        let json = serde_json::to_string(&result.mapping).unwrap();
        let back: Mapping = serde_json::from_str(&json).unwrap();
        assert_eq!(back, result.mapping);
    }

    #[test]
    fn clones_share_engines_built_on_first_use() {
        use crate::api::{EngineId, MapRequest, Mapper};
        let cgra = Cgra::new(2, 2).unwrap();
        let mapper = DecoupledMapper::new(&cgra);
        let built = |m: &DecoupledMapper| -> Vec<bool> {
            m.engines.iter().map(|e| e.get().is_some()).collect()
        };
        let up_to = |k: usize| -> Vec<bool> { (1..=MAX_ROUTE_HOPS).map(|h| h <= k).collect() };
        assert_eq!(built(&mapper), up_to(0), "construction builds nothing");

        // A clone's map builds the engine both of them use from then on.
        let clone = mapper.clone();
        assert!(Arc::ptr_eq(&clone.engines, &mapper.engines));
        assert!(Arc::ptr_eq(&clone.cgra, &mapper.cgra));
        clone.map(&running_example()).unwrap();
        let engine: *const SpaceEngine = mapper.engines[0].get().expect("built by the clone");
        mapper.map(&running_example()).unwrap();
        assert!(std::ptr::eq(engine, mapper.engine()), "reused, not rebuilt");

        // The trait path runs the request's configuration on the same
        // engines; a CGRA override runs on engines of its own.
        let req = MapRequest::new(EngineId::Decoupled, running_example())
            .with_config(MapperConfig::new().with_max_route_hops(2));
        Mapper::map(&clone, &req.clone().with_cgra(Cgra::new(3, 3).unwrap()));
        assert_eq!(built(&mapper), up_to(1));
        Mapper::map(&clone, &req);
        assert_eq!(built(&mapper), up_to(2));
        assert!(std::ptr::eq(engine, mapper.engine()));
    }

    #[test]
    fn stats_are_self_describing() {
        // The report records the configuration the search ran with, so
        // consumers no longer re-derive it from the request.
        let cgra = Cgra::new(2, 2).unwrap();
        let dfg = running_example();
        let serial = DecoupledMapper::new(&cgra).map(&dfg).unwrap();
        assert_eq!(serial.stats.time_strategy, Some(TimeStrategy::Smt));
        assert_eq!(serial.stats.sat_vars, 0, "decoupled has no coupled CNF");

        let cfg = MapperConfig::new().with_time_strategy(TimeStrategy::Heuristic);
        let heuristic = DecoupledMapper::with_config(&cgra, cfg).map(&dfg).unwrap();
        assert_eq!(heuristic.stats.time_strategy, Some(TimeStrategy::Heuristic));
    }
}
