//! A persistent, incrementally-widened time formulation.
//!
//! [`TimeSolver`](crate::TimeSolver) encodes one `(DFG, II, slack)`
//! triple and is discarded when the mapper escalates to a wider window —
//! throwing away every learnt clause and all branching activity the SAT
//! core accumulated. [`IncrementalTimeSolver`] instead keeps **one live
//! CDCL instance per `(DFG, II)` pair** and turns slack escalation into
//! a monotone growth step on that instance:
//!
//! * each node's mobility window is a guarded finite-domain variable
//!   ([`FdSolver::new_int_guarded`]): the at-least-one clause of slack
//!   level `s` fires only under the level's **guard literal** `g_s`,
//!   which is passed as an assumption, never asserted;
//! * widening to level `s+1` retires `g_s` with a permanent unit clause
//!   `¬g_s`, appends the new window values ([`FdSolver::extend_int`]),
//!   adds only the *new* dependence pairs
//!   ([`FdSolver::require_binary_from`]), extends the slot-indicator
//!   and cardinality encodings over the grown memberships, and starts
//!   assuming `g_{s+1}` — clauses and variables are only ever added, so
//!   every clause the solver learnt at tighter slack remains a valid
//!   consequence and keeps pruning the widened search;
//! * blocking clauses from solution enumeration are ordinary added
//!   clauses, so they also persist: schedules rejected at one slack
//!   level stay excluded after widening (they are still schedules of
//!   the wider formulation). This is part of the API contract.
//!
//! Two encodings, one model set: the slot indicators here are *forward
//! only* (`value-lit → y`), which is satisfiability-preserving because
//! every use of a slot indicator is an upper bound (at-most-`k`), and it
//! keeps indicator extension append-only. The CNF therefore differs
//! from `TimeSolver`'s Tseitin bi-implications, so the two solvers may
//! enumerate models in different orders — but they agree exactly on
//! satisfiability and on the solution *set* at every `(II, slack)`
//! level, which is what this crate's tests check against `TimeSolver`.
//!
//! The mapper does not use this solver: its model order embeds far
//! worse than the fresh encoding's, and screening Unsat levels on a
//! live instance re-encoded more than it saved (README, "The time
//! phase"). It stays because the benchmark's `sched.*` probe measures
//! it and because learned-clause feedback from the space phase needs a
//! live instance to put clauses in.

use std::fmt;
use std::sync::atomic::AtomicBool;
use std::sync::Arc;

use cgra_dfg::{Dfg, EdgeKind, NodeId};
use cgra_smt::{FdSolver, IntVar, Lit, SatResult};

use crate::time_solver::{
    EnumerationEnd, SolveOutcome, TimeSolution, TimeSolverConfig, TimeSolverError, TimeSolverStats,
};
use crate::Mobility;

/// The per-`(DFG, II)` persistent time solver (see the module docs).
///
/// Construct at a starting slack level (`config.window_slack`), then
/// alternate [`IncrementalTimeSolver::solve_outcome`] /
/// [`IncrementalTimeSolver::enumerate_solutions`] with
/// [`IncrementalTimeSolver::widen_to`] as the mapper escalates.
pub struct IncrementalTimeSolver<'a> {
    dfg: &'a Dfg,
    ii: usize,
    config: TimeSolverConfig,
    mobility: Mobility,
    fd: FdSolver,
    vars: Vec<IntVar>,
    /// Guard literal of the current slack level (assumed, never
    /// asserted; previous levels' guards are permanently negated).
    guard: Lit,
    slack: usize,
    /// Slot indicator `y[v][slot]`, allocated lazily when a node's
    /// window first reaches a slot.
    slot_y: Vec<Vec<Option<Lit>>>,
    /// Member counts at the last cardinality encoding, used to detect
    /// which groups grew across a widening: per slot, per
    /// `class_capacities` entry × slot, and per node × slot.
    cap_len: Vec<usize>,
    class_len: Vec<Vec<usize>>,
    conn_len: Vec<Vec<usize>>,
    stats: TimeSolverStats,
    widenings: usize,
    have_model: bool,
}

impl fmt::Debug for IncrementalTimeSolver<'_> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("IncrementalTimeSolver")
            .field("dfg", &self.dfg.name())
            .field("ii", &self.ii)
            .field("slack", &self.slack)
            .field("widenings", &self.widenings)
            .field("stats", &self.stats)
            .finish()
    }
}

impl<'a> IncrementalTimeSolver<'a> {
    /// Builds the live formulation for `dfg` at iteration interval `ii`,
    /// starting from slack level `config.window_slack`.
    ///
    /// # Errors
    ///
    /// Returns [`TimeSolverError`] for invalid graphs or degenerate
    /// configurations (same contract as [`crate::TimeSolver::new`]).
    pub fn new(dfg: &'a Dfg, ii: usize, config: TimeSolverConfig) -> Result<Self, TimeSolverError> {
        if ii == 0 {
            return Err(TimeSolverError::ZeroIi);
        }
        if config.capacity == 0 {
            return Err(TimeSolverError::ZeroCapacity);
        }
        dfg.validate()?;
        let mobility = Mobility::compute(dfg)?;
        let n = dfg.num_nodes();
        let mut solver = IncrementalTimeSolver {
            dfg,
            ii,
            slack: config.window_slack,
            config,
            mobility,
            fd: FdSolver::new(),
            vars: Vec::new(),
            guard: Lit::from_code(0), // replaced by encode
            slot_y: vec![vec![None; ii]; n],
            cap_len: vec![0; ii],
            class_len: Vec::new(),
            conn_len: vec![vec![0; ii]; n],
            stats: TimeSolverStats::default(),
            widenings: 0,
            have_model: false,
        };
        solver.class_len = vec![vec![0; ii]; solver.config.class_capacities.len()];
        solver.encode();
        Ok(solver)
    }

    /// Encodes the formulation at the starting slack level into the
    /// (still empty) `FdSolver`.
    fn encode(&mut self) {
        let ii = self.ii;
        let n = self.dfg.num_nodes();

        self.guard = self.fd.new_bool();
        let guard = self.guard;
        let slack = self.slack;
        let mobility = &self.mobility;
        let fd = &mut self.fd;
        self.vars = self
            .dfg
            .nodes()
            .map(|v| {
                let window = (mobility.asap(v)..=mobility.alap(v) + slack * ii).map(|t| t as i64);
                fd.new_int_guarded(window, guard)
            })
            .collect();

        // Dependence constraints over the full current windows.
        let ii_i = ii as i64;
        for e in self.dfg.edges() {
            if e.src == e.dst {
                continue; // self loop-carried edges hold for any schedule
            }
            let (s, d) = (self.vars[e.src.index()], self.vars[e.dst.index()]);
            match e.kind {
                EdgeKind::Data => self.fd.require_binary(s, d, |ts, td| td > ts),
                EdgeKind::LoopCarried { distance } => {
                    let lag = (distance as i64) * ii_i;
                    self.fd
                        .require_binary(s, d, move |ts, td| td >= ts + 1 - lag)
                }
            }
        }

        // Slot indicators and cardinality groups.
        for vi in 0..n {
            let lits: Vec<(i64, Lit)> = self.fd.indicator_lits(self.vars[vi]).collect();
            for (t, l) in lits {
                self.cover_slot(vi, (t as usize) % ii, l);
            }
        }
        self.encode_groups();

        let fd_stats = self.fd.stats();
        self.stats.int_vars = fd_stats.int_vars;
        self.stats.sat_vars = fd_stats.sat_vars;
        self.stats.clauses = fd_stats.clauses;
    }

    /// Ensures a slot indicator exists for `(node, slot)` and adds the
    /// forward clause `lit → y`. Forward-only Tseitin is sound here
    /// because indicators only ever feed at-most-`k` upper bounds.
    fn cover_slot(&mut self, vi: usize, slot: usize, lit: Lit) {
        let y = match self.slot_y[vi][slot] {
            Some(y) => y,
            None => {
                let y = self.fd.new_bool();
                self.slot_y[vi][slot] = Some(y);
                y
            }
        };
        self.fd.add_clause([!lit, y]);
    }

    /// (Re-)encodes every cardinality group whose membership grew since
    /// the last call: slot capacity, per-class slot capacity, and
    /// per-node connectivity. Re-adding an at-most-`k` over the grown
    /// member list is sound on top of the old encoding (the old
    /// constraint over a subset is implied by the new one).
    fn encode_groups(&mut self) {
        let ii = self.ii;
        let n = self.dfg.num_nodes();
        if self.config.capacity_constraints {
            for slot in 0..ii {
                let lits: Vec<Lit> = (0..n).filter_map(|vi| self.slot_y[vi][slot]).collect();
                if lits.len() > self.cap_len[slot] {
                    if lits.len() > self.config.capacity {
                        self.fd.at_most_k(&lits, self.config.capacity);
                    }
                    self.cap_len[slot] = lits.len();
                }
            }
            let class_capacities = self.config.class_capacities.clone();
            for (ci, &(class, cap)) in class_capacities.iter().enumerate() {
                let members: Vec<usize> = self
                    .dfg
                    .nodes()
                    .filter(|&v| self.dfg.op(v).op_class() == class)
                    .map(|v| v.index())
                    .collect();
                #[allow(clippy::needless_range_loop)]
                for slot in 0..ii {
                    let lits: Vec<Lit> = members
                        .iter()
                        .filter_map(|&vi| self.slot_y[vi][slot])
                        .collect();
                    if lits.len() > self.class_len[ci][slot] {
                        if lits.len() > cap {
                            self.fd.at_most_k(&lits, cap);
                        }
                        self.class_len[ci][slot] = lits.len();
                    }
                }
            }
        }
        if self.config.connectivity_constraints {
            let adj = self.dfg.adjacency();
            for v in self.dfg.nodes() {
                let neighbors = adj.undirected_neighbors(v);
                if neighbors.len() <= self.config.degree.saturating_sub(1) {
                    continue; // can never exceed any bound
                }
                #[allow(clippy::needless_range_loop)]
                for slot in 0..ii {
                    let mut lits: Vec<Lit> = neighbors
                        .iter()
                        .filter_map(|u| self.slot_y[u.index()][slot])
                        .collect();
                    if self.config.strict_connectivity {
                        if let Some(own) = self.slot_y[v.index()][slot] {
                            lits.push(own);
                        }
                    }
                    if lits.len() > self.conn_len[v.index()][slot] {
                        if lits.len() > self.config.degree {
                            self.fd.at_most_k(&lits, self.config.degree);
                        }
                        self.conn_len[v.index()][slot] = lits.len();
                    }
                }
            }
        }
    }

    /// Widens every node's window to slack level `target` on the live
    /// instance.
    ///
    /// Learnt clauses, variable activity and blocking clauses all
    /// survive the widening; the current model (if any) is invalidated.
    ///
    /// # Panics
    ///
    /// Panics if `target` is below the current slack level (windows
    /// only ever widen).
    pub fn widen_to(&mut self, target: usize) {
        assert!(
            target >= self.slack,
            "cannot narrow slack from {} to {target}",
            self.slack
        );
        if target == self.slack {
            return;
        }
        self.widenings += 1;
        self.have_model = false;

        // Retire the old level's guard for good; its at-least-one
        // clauses become vacuous and the new level's take over.
        let old_guard = self.guard;
        self.fd.add_clause([!old_guard]);
        self.guard = self.fd.new_bool();
        let guard = self.guard;

        // Append the new window values per node, remembering the old
        // domain lengths for the dependence delta.
        let ii = self.ii;
        let old_lens: Vec<usize> = self.vars.iter().map(|&v| self.fd.domain(v).len()).collect();
        for (vi, &var) in self.vars.iter().enumerate() {
            let v = NodeId::from_index(vi);
            let lo = self.mobility.alap(v) + self.slack * ii + 1;
            let hi = self.mobility.alap(v) + target * ii;
            self.fd.extend_int(var, (lo..=hi).map(|t| t as i64), guard);
        }

        // Dependence constraints: only pairs touching a new value.
        let ii_i = ii as i64;
        for e in self.dfg.edges() {
            if e.src == e.dst {
                continue;
            }
            let (s, d) = (self.vars[e.src.index()], self.vars[e.dst.index()]);
            let (from_s, from_d) = (old_lens[e.src.index()], old_lens[e.dst.index()]);
            match e.kind {
                EdgeKind::Data => self
                    .fd
                    .require_binary_from(s, d, from_s, from_d, |ts, td| td > ts),
                EdgeKind::LoopCarried { distance } => {
                    let lag = (distance as i64) * ii_i;
                    self.fd
                        .require_binary_from(s, d, from_s, from_d, move |ts, td| td >= ts + 1 - lag)
                }
            }
        }

        // Slot indicators for the new values, then any cardinality
        // groups whose membership grew.
        for (vi, &from) in old_lens.iter().enumerate() {
            let new_lits: Vec<(i64, Lit)> =
                self.fd.indicator_lits(self.vars[vi]).skip(from).collect();
            for (t, l) in new_lits {
                self.cover_slot(vi, (t as usize) % ii, l);
            }
        }
        self.encode_groups();

        self.slack = target;
        self.config.window_slack = target;
        let fd_stats = self.fd.stats();
        self.stats.sat_vars = fd_stats.sat_vars;
        self.stats.clauses = fd_stats.clauses;
    }

    /// The iteration interval this instance targets.
    pub fn ii(&self) -> usize {
        self.ii
    }

    /// The current slack level.
    pub fn slack(&self) -> usize {
        self.slack
    }

    /// Encoding and progress statistics (sizes reflect the current,
    /// widened formulation).
    pub fn stats(&self) -> TimeSolverStats {
        self.stats
    }

    /// Number of incremental widenings performed so far.
    pub fn widenings(&self) -> usize {
        self.widenings
    }

    /// Learnt clauses currently alive in the SAT core — the search
    /// state a widening carries over instead of discarding.
    pub fn learnt_clauses(&self) -> usize {
        self.fd.sat().num_learnts()
    }

    /// When the last solve returned [`SolveOutcome::Unsat`], the failed
    /// assumption literals (negated). For this encoding that core is a
    /// subset of `{¬g}` for the current level guard `g`: the formulation
    /// without the guard is trivially satisfiable (every window may be
    /// empty), so unsatisfiability is always pinned on the level.
    pub fn unsat_core(&self) -> &[Lit] {
        self.fd.unsat_core()
    }

    /// The guard literal of the current slack level (exposed for core
    /// inspection in tests and diagnostics).
    pub fn current_guard(&self) -> Lit {
        self.guard
    }

    /// Installs a cooperative cancellation flag on the underlying SAT
    /// core.
    pub fn set_cancel_flag(&mut self, flag: Arc<AtomicBool>) {
        self.fd.set_cancel_flag(flag);
    }

    /// Attempts to find a schedule at the current slack level.
    pub fn solve_outcome(&mut self) -> SolveOutcome {
        let assumptions = [self.guard];
        let result = match &self.config.budget {
            Some(b) => self.fd.solve_with_assumptions_limited(&assumptions, b),
            None => self.fd.solve_with_assumptions(&assumptions),
        };
        match result {
            SatResult::Sat => {
                self.have_model = true;
                self.stats.solutions += 1;
                let times: Vec<usize> = self
                    .vars
                    .iter()
                    .map(|&v| self.fd.value(v) as usize)
                    .collect();
                SolveOutcome::Solution(TimeSolution::from_times(self.ii, times))
            }
            SatResult::Unsat => SolveOutcome::Unsat,
            SatResult::Unknown => SolveOutcome::Timeout,
        }
    }

    /// Convenience wrapper returning just the solution.
    pub fn solve(&mut self) -> Option<TimeSolution> {
        self.solve_outcome().solution()
    }

    /// Blocks the current schedule and searches for a different one.
    /// The blocking clause is permanent: it persists across
    /// [`IncrementalTimeSolver::widen_to`] (see the module docs).
    ///
    /// # Panics
    ///
    /// Panics if no schedule has been produced yet.
    pub fn next_outcome(&mut self) -> SolveOutcome {
        assert!(self.have_model, "next_outcome requires a current solution");
        self.fd.block_current(&self.vars);
        self.have_model = false;
        self.solve_outcome()
    }

    /// Pulls up to `max` distinct schedules in one call, blocking each
    /// before searching for the next (same contract as
    /// [`crate::TimeSolver::enumerate_solutions`]).
    pub fn enumerate_solutions(&mut self, max: usize) -> (Vec<TimeSolution>, EnumerationEnd) {
        let mut out = Vec::new();
        if max == 0 {
            return (out, EnumerationEnd::CapReached);
        }
        loop {
            let outcome = if out.is_empty() && !self.have_model {
                self.solve_outcome()
            } else {
                self.next_outcome()
            };
            match outcome {
                SolveOutcome::Solution(sol) => {
                    out.push(sol);
                    if out.len() >= max {
                        return (out, EnumerationEnd::CapReached);
                    }
                }
                SolveOutcome::Unsat => return (out, EnumerationEnd::Unsat),
                SolveOutcome::Timeout => return (out, EnumerationEnd::Timeout),
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{TimeSolver, TimeSolverConfig};
    use cgra_arch::Cgra;
    use cgra_base::Budget;
    use cgra_dfg::examples::{accumulator, running_example};
    use cgra_dfg::DfgBuilder;
    use std::collections::BTreeSet;

    fn cfg2x2() -> TimeSolverConfig {
        TimeSolverConfig::for_cgra(&Cgra::new(2, 2).unwrap())
    }

    fn times_set(sols: &[TimeSolution], dfg: &Dfg) -> BTreeSet<Vec<usize>> {
        sols.iter()
            .map(|s| dfg.nodes().map(|v| s.time(v)).collect())
            .collect()
    }

    #[test]
    fn agrees_with_fresh_solver_across_slack_levels() {
        // Sat/Unsat parity with a from-scratch TimeSolver at every
        // (II, slack) level of the escalation ladder.
        let dfg = running_example();
        for ii in 3..=5 {
            let mut inc = IncrementalTimeSolver::new(&dfg, ii, cfg2x2()).unwrap();
            for slack in 0..=2 {
                inc.widen_to(slack);
                let mut fresh =
                    TimeSolver::new(&dfg, ii, cfg2x2().with_window_slack(slack)).unwrap();
                let inc_sat = matches!(inc.solve_outcome(), SolveOutcome::Solution(_));
                let fresh_sat = matches!(fresh.solve_outcome(), SolveOutcome::Solution(_));
                assert_eq!(inc_sat, fresh_sat, "ii={ii} slack={slack}");
            }
        }
    }

    #[test]
    fn incremental_solutions_validate() {
        let dfg = running_example();
        let mut inc = IncrementalTimeSolver::new(&dfg, 4, cfg2x2()).unwrap();
        let sol = inc.solve().expect("running example maps at II=4");
        sol.validate(&dfg, &cfg2x2()).unwrap();
        inc.widen_to(1);
        let cfg1 = cfg2x2().with_window_slack(1);
        let sol = inc.solve().expect("still Sat after widening");
        sol.validate(&dfg, &cfg1).unwrap();
    }

    #[test]
    fn widening_turns_unsat_into_sat() {
        // Eight independent single-window nodes need slack to satisfy
        // capacity 4 at II=2 (same scenario as the TimeSolver test).
        let mut b = DfgBuilder::new();
        for i in 0..8 {
            b.input(format!("x{i}"));
        }
        let dfg = b.build().unwrap();
        let mut inc = IncrementalTimeSolver::new(&dfg, 2, cfg2x2()).unwrap();
        assert_eq!(inc.solve_outcome(), SolveOutcome::Unsat);
        inc.widen_to(1);
        let cfg1 = cfg2x2().with_window_slack(1);
        let sol = inc.solve().expect("slack spreads the nodes");
        sol.validate(&dfg, &cfg1).unwrap();
        assert_eq!(inc.widenings(), 1);
    }

    #[test]
    fn enumeration_set_matches_fresh_solver() {
        // The solution *set* at each level equals the fresh solver's
        // (orders may differ: the CNFs are different).
        let dfg = accumulator();
        let mut inc = IncrementalTimeSolver::new(&dfg, 2, cfg2x2()).unwrap();
        inc.widen_to(1);
        let (inc_sols, inc_end) = inc.enumerate_solutions(usize::MAX);
        let mut fresh = TimeSolver::new(&dfg, 2, cfg2x2().with_window_slack(1)).unwrap();
        let (fresh_sols, fresh_end) = fresh.enumerate_solutions(usize::MAX);
        assert_eq!(inc_end, EnumerationEnd::Unsat);
        assert_eq!(fresh_end, EnumerationEnd::Unsat);
        assert_eq!(times_set(&inc_sols, &dfg), times_set(&fresh_sols, &dfg));
    }

    #[test]
    fn enumeration_is_deterministic_run_to_run() {
        let dfg = accumulator();
        let run = || {
            let mut inc = IncrementalTimeSolver::new(&dfg, 2, cfg2x2()).unwrap();
            inc.widen_to(1);
            let (sols, _) = inc.enumerate_solutions(usize::MAX);
            sols.iter()
                .map(|s| dfg.nodes().map(|v| s.time(v)).collect::<Vec<_>>())
                .collect::<Vec<_>>()
        };
        assert_eq!(run(), run());
    }

    #[test]
    fn blocking_clauses_survive_widening() {
        // Block every II=2 schedule at slack 0, widen, and check the
        // blocked schedules do not come back.
        let dfg = accumulator();
        let mut inc = IncrementalTimeSolver::new(&dfg, 2, cfg2x2()).unwrap();
        let (level0, end) = inc.enumerate_solutions(usize::MAX);
        assert_eq!(end, EnumerationEnd::Unsat);
        assert!(!level0.is_empty());
        inc.widen_to(1);
        let (level1, _) = inc.enumerate_solutions(usize::MAX);
        let set0 = times_set(&level0, &dfg);
        let set1 = times_set(&level1, &dfg);
        assert!(
            set0.is_disjoint(&set1),
            "widening must not resurrect blocked schedules"
        );
        // Together they are exactly the fresh slack-1 solution set.
        let mut fresh = TimeSolver::new(&dfg, 2, cfg2x2().with_window_slack(1)).unwrap();
        let (all, _) = fresh.enumerate_solutions(usize::MAX);
        let union: BTreeSet<Vec<usize>> = set0.union(&set1).cloned().collect();
        assert_eq!(union, times_set(&all, &dfg));
    }

    #[test]
    fn unsat_core_is_the_level_guard() {
        let dfg = running_example();
        let mut inc = IncrementalTimeSolver::new(&dfg, 3, cfg2x2()).unwrap();
        for slack in 0..=2 {
            inc.widen_to(slack);
            assert_eq!(inc.solve_outcome(), SolveOutcome::Unsat, "slack={slack}");
            let g = inc.current_guard();
            assert!(
                inc.unsat_core().iter().all(|&l| l == !g),
                "slack={slack}: core must pin the level guard"
            );
        }
    }

    #[test]
    fn budget_timeout_then_recovery_on_same_instance() {
        // A zero-conflict budget interrupts the solve; lifting it on
        // the same live instance recovers the answer (bugfix: budget
        // exhaustion mid-incremental-solve must behave like a fresh
        // instance's Timeout, not poison the solver).
        let dfg = running_example();
        let cfg = cfg2x2().with_budget(Budget::conflicts(0));
        let mut inc = IncrementalTimeSolver::new(&dfg, 4, cfg.clone()).unwrap();
        assert_eq!(inc.solve_outcome(), SolveOutcome::Timeout);
        inc.config.budget = None;
        assert!(matches!(inc.solve_outcome(), SolveOutcome::Solution(_)));
        // And widening after a timeout works too.
        let mut inc2 = IncrementalTimeSolver::new(&dfg, 3, cfg).unwrap();
        assert_eq!(inc2.solve_outcome(), SolveOutcome::Timeout);
        inc2.widen_to(1);
        inc2.config.budget = None;
        assert_eq!(inc2.solve_outcome(), SolveOutcome::Unsat);
    }

    #[test]
    fn widen_to_same_level_is_a_noop() {
        let dfg = accumulator();
        let mut inc = IncrementalTimeSolver::new(&dfg, 2, cfg2x2()).unwrap();
        let before = inc.stats();
        inc.widen_to(0);
        assert_eq!(inc.stats(), before);
        assert_eq!(inc.widenings(), 0);
    }

    #[test]
    #[should_panic(expected = "cannot narrow")]
    fn narrowing_panics() {
        let dfg = accumulator();
        let mut inc = IncrementalTimeSolver::new(&dfg, 2, cfg2x2()).unwrap();
        inc.widen_to(2);
        inc.widen_to(1);
    }

    #[test]
    fn learnt_state_is_retained_across_widenings() {
        // On a hard-enough Unsat level the solver learns clauses; after
        // widening they are still alive (nothing is rebuilt).
        let dfg = monomap_frontend::suite::generate("nw");
        let cfg = TimeSolverConfig::for_cgra(&Cgra::new(4, 4).unwrap());
        let mii = crate::min_ii(&dfg, &Cgra::new(4, 4).unwrap());
        let mut inc = IncrementalTimeSolver::new(&dfg, mii, cfg).unwrap();
        let mut learnt_before = 0;
        for slack in 0..=2 {
            inc.widen_to(slack);
            let _ = inc.solve_outcome();
            assert!(
                inc.learnt_clauses() >= learnt_before,
                "slack={slack}: learnt clauses must carry over"
            );
            learnt_before = inc.learnt_clauses();
        }
    }
}
