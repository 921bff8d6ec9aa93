//! The SMT time-solution search (paper §IV-B).
//!
//! Variables are the absolute schedule times of DFG nodes, ranging over
//! their (optionally slack-extended) KMS windows. Three constraint
//! families are encoded:
//!
//! 1. **modulo scheduling** — data and loop-carried dependence ordering
//!    (the paper's `t_d`/`t_s`/`it` case split, expressed equivalently
//!    over absolute times: `T_d ≥ T_s + 1` for data edges and
//!    `T_d ≥ T_s + 1 − d·II` for loop-carried edges of distance `d`);
//! 2. **capacity** — at most `|V_Mi|` nodes per kernel slot;
//! 3. **connectivity** — for every node `v` and slot `i`, at most `D_M`
//!    of `v`'s DFG neighbours are scheduled in slot `i`.
//!
//! Families 2 and 3 are the paper's additions that make a subsequent
//! monomorphism-based space solution possible (§IV-D); both can be
//! disabled for the ablation experiments.

use std::cell::Cell;
use std::fmt;
use std::sync::atomic::AtomicBool;
use std::sync::Arc;

use cgra_arch::{Cgra, OpClass};
use cgra_base::Budget;
use cgra_dfg::{Dfg, DfgError, EdgeKind, NodeId};
use cgra_smt::{FdSolver, IntVar, Lit, SatResult, SolverStats};

use crate::Mobility;

/// Configuration of the time search.
#[derive(Clone, Debug)]
pub struct TimeSolverConfig {
    /// PE count per kernel slot (`|V_Mi|`).
    pub capacity: usize,
    /// CGRA connectivity degree `D_M` (neighbours + self).
    pub degree: usize,
    /// Per-class slot capacities of a heterogeneous CGRA: at most
    /// `cap` nodes of operation class `class` per kernel slot (there
    /// are only `cap` PEs providing that class). Populated by
    /// [`TimeSolverConfig::for_cgra`] **only** for classes whose
    /// provider count is below [`TimeSolverConfig::capacity`], so the
    /// encoding of homogeneous instances is bit-for-bit what it was
    /// before heterogeneity existed.
    pub class_capacities: Vec<(OpClass, usize)>,
    /// Enable the capacity constraint family (paper default: on).
    pub capacity_constraints: bool,
    /// Enable the connectivity constraint family (paper default: on).
    pub connectivity_constraints: bool,
    /// Use the tight same-slot bound (`D_M − 1` when the node itself
    /// shares the slot) instead of the paper's uniform `D_M`.
    pub strict_connectivity: bool,
    /// Extend every ALAP window by `window_slack · II` steps (see
    /// docs/ARCHITECTURE.md, "The time phase").
    pub window_slack: usize,
    /// Optional resource budget per solve call.
    pub budget: Option<Budget>,
}

impl TimeSolverConfig {
    /// The paper's configuration for a given CGRA: capacity and degree
    /// from the architecture, both constraint families on, paper
    /// connectivity bound, no window slack. Heterogeneous grids
    /// additionally contribute per-class slot capacities.
    pub fn for_cgra(cgra: &Cgra) -> Self {
        let capacity = cgra.num_pes();
        let class_capacities = OpClass::ALL
            .into_iter()
            .filter_map(|class| {
                let supply = cgra.providers(class);
                (supply < capacity).then_some((class, supply))
            })
            .collect();
        TimeSolverConfig {
            capacity,
            degree: cgra.connectivity_degree(),
            class_capacities,
            capacity_constraints: true,
            connectivity_constraints: true,
            strict_connectivity: false,
            window_slack: 0,
            budget: None,
        }
    }

    /// Returns the configuration with a different window slack.
    pub fn with_window_slack(mut self, slack: usize) -> Self {
        self.window_slack = slack;
        self
    }

    /// Returns the configuration with the strict same-slot bound.
    pub fn with_strict_connectivity(mut self, strict: bool) -> Self {
        self.strict_connectivity = strict;
        self
    }

    /// Returns the configuration with the capacity constraint family
    /// toggled (ablation switch; the paper's default is on).
    pub fn with_capacity_constraints(mut self, enable: bool) -> Self {
        self.capacity_constraints = enable;
        self
    }

    /// Returns the configuration with the connectivity constraint
    /// family toggled (ablation switch; the paper's default is on).
    pub fn with_connectivity_constraints(mut self, enable: bool) -> Self {
        self.connectivity_constraints = enable;
        self
    }

    /// Returns the configuration with a solve budget.
    pub fn with_budget(mut self, budget: Budget) -> Self {
        self.budget = Some(budget);
        self
    }
}

/// An error constructing a [`TimeSolver`].
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum TimeSolverError {
    /// The DFG failed validation (e.g. a data cycle).
    Dfg(DfgError),
    /// `II` must be positive.
    ZeroIi,
    /// Capacity must be positive.
    ZeroCapacity,
}

impl fmt::Display for TimeSolverError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            TimeSolverError::Dfg(e) => write!(f, "invalid DFG: {e}"),
            TimeSolverError::ZeroIi => write!(f, "iteration interval must be positive"),
            TimeSolverError::ZeroCapacity => write!(f, "CGRA capacity must be positive"),
        }
    }
}

impl std::error::Error for TimeSolverError {}

impl From<DfgError> for TimeSolverError {
    fn from(e: DfgError) -> Self {
        TimeSolverError::Dfg(e)
    }
}

/// Outcome of one time-solve attempt.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum SolveOutcome {
    /// A schedule satisfying all constraint families.
    Solution(TimeSolution),
    /// No schedule exists for this `II` and window slack.
    Unsat,
    /// The budget or cancellation flag interrupted the search.
    Timeout,
}

impl SolveOutcome {
    /// Extracts the solution, if any.
    pub fn solution(self) -> Option<TimeSolution> {
        match self {
            SolveOutcome::Solution(s) => Some(s),
            _ => None,
        }
    }
}

/// A time solution: an absolute schedule time per node, for a given
/// `II`. Labels (`time mod II`) are what the space phase consumes.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct TimeSolution {
    ii: usize,
    times: Vec<usize>,
}

/// A violation found by [`TimeSolution::validate`].
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum TimeSolutionError {
    /// A dependence edge is not respected by the schedule.
    DependenceViolated {
        /// Producing node.
        src: NodeId,
        /// Consuming node.
        dst: NodeId,
    },
    /// More nodes in a slot than the CGRA has PEs.
    CapacityExceeded {
        /// The over-full slot.
        slot: usize,
        /// Nodes scheduled there.
        count: usize,
        /// The capacity bound.
        capacity: usize,
    },
    /// More nodes of one operation class in a slot than the CGRA has
    /// PEs providing that class (heterogeneous grids only).
    ClassCapacityExceeded {
        /// The over-subscribed class.
        class: OpClass,
        /// The over-full slot.
        slot: usize,
        /// Nodes of that class scheduled there.
        count: usize,
        /// PEs providing the class.
        capacity: usize,
    },
    /// A node has more same-slot neighbours than the connectivity
    /// degree allows.
    ConnectivityExceeded {
        /// The over-connected node.
        node: NodeId,
        /// The offending slot.
        slot: usize,
        /// Number of neighbours in that slot.
        count: usize,
        /// The degree bound applied.
        bound: usize,
    },
}

impl fmt::Display for TimeSolutionError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            TimeSolutionError::DependenceViolated { src, dst } => {
                write!(f, "dependence {src} -> {dst} violated")
            }
            TimeSolutionError::CapacityExceeded {
                slot,
                count,
                capacity,
            } => write!(f, "slot {slot} holds {count} nodes, capacity {capacity}"),
            TimeSolutionError::ClassCapacityExceeded {
                class,
                slot,
                count,
                capacity,
            } => write!(
                f,
                "slot {slot} holds {count} {class} nodes, only {capacity} PEs provide {class}"
            ),
            TimeSolutionError::ConnectivityExceeded {
                node,
                slot,
                count,
                bound,
            } => write!(
                f,
                "node {node} has {count} neighbours in slot {slot}, bound {bound}"
            ),
        }
    }
}

impl std::error::Error for TimeSolutionError {}

impl TimeSolution {
    /// Assembles a solution from raw per-node absolute times (used by
    /// the heuristic scheduler and by tests); run
    /// [`TimeSolution::validate`] before trusting it.
    ///
    /// # Panics
    ///
    /// Panics if `ii == 0`.
    pub fn from_times(ii: usize, times: Vec<usize>) -> TimeSolution {
        assert!(ii > 0, "iteration interval must be positive");
        TimeSolution { ii, times }
    }

    /// The iteration interval of this schedule.
    pub fn ii(&self) -> usize {
        self.ii
    }

    /// The absolute schedule time of a node.
    pub fn time(&self, v: NodeId) -> usize {
        self.times[v.index()]
    }

    /// The kernel slot (vertex label, `l_G`) of a node.
    pub fn slot(&self, v: NodeId) -> usize {
        self.times[v.index()] % self.ii
    }

    /// The folding iteration (`it` subscript) of a node.
    pub fn iteration(&self, v: NodeId) -> usize {
        self.times[v.index()] / self.ii
    }

    /// The schedule length (last time + 1).
    pub fn length(&self) -> usize {
        self.times.iter().map(|&t| t + 1).max().unwrap_or(0)
    }

    /// All labels, indexed by node.
    pub fn labels(&self) -> Vec<usize> {
        self.times.iter().map(|&t| t % self.ii).collect()
    }

    /// Checks the solution against all constraint families of `config`.
    ///
    /// # Errors
    ///
    /// Returns the first violation found.
    pub fn validate(&self, dfg: &Dfg, config: &TimeSolverConfig) -> Result<(), TimeSolutionError> {
        // Dependences.
        for e in dfg.edges() {
            if e.src == e.dst {
                continue;
            }
            let ts = self.time(e.src) as i64;
            let td = self.time(e.dst) as i64;
            let ok = match e.kind {
                EdgeKind::Data => td > ts,
                EdgeKind::LoopCarried { distance } => {
                    td >= ts + 1 - (distance as i64) * (self.ii as i64)
                }
            };
            if !ok {
                return Err(TimeSolutionError::DependenceViolated {
                    src: e.src,
                    dst: e.dst,
                });
            }
        }
        // Capacity: total per slot, then per restricted operation class.
        if config.capacity_constraints {
            for slot in 0..self.ii {
                let count = dfg.nodes().filter(|&v| self.slot(v) == slot).count();
                if count > config.capacity {
                    return Err(TimeSolutionError::CapacityExceeded {
                        slot,
                        count,
                        capacity: config.capacity,
                    });
                }
                for &(class, cap) in &config.class_capacities {
                    let count = dfg
                        .nodes()
                        .filter(|&v| self.slot(v) == slot && dfg.op(v).op_class() == class)
                        .count();
                    if count > cap {
                        return Err(TimeSolutionError::ClassCapacityExceeded {
                            class,
                            slot,
                            count,
                            capacity: cap,
                        });
                    }
                }
            }
        }
        // Connectivity.
        if config.connectivity_constraints {
            let adj = dfg.adjacency();
            for v in dfg.nodes() {
                let neighbors = adj.undirected_neighbors(v);
                for slot in 0..self.ii {
                    let count = neighbors.iter().filter(|&&u| self.slot(u) == slot).count();
                    let bound = if config.strict_connectivity && self.slot(v) == slot {
                        config.degree - 1
                    } else {
                        config.degree
                    };
                    if count > bound {
                        return Err(TimeSolutionError::ConnectivityExceeded {
                            node: v,
                            slot,
                            count,
                            bound,
                        });
                    }
                }
            }
        }
        Ok(())
    }
}

/// Encoding-size and progress counters of a [`TimeSolver`].
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct TimeSolverStats {
    /// Finite-domain variables (one per DFG node).
    pub int_vars: usize,
    /// SAT variables after encoding.
    pub sat_vars: usize,
    /// SAT clauses after encoding.
    pub clauses: usize,
    /// Solutions produced so far (including the first).
    pub solutions: usize,
}

/// The storage one encoding needs: the SAT store and the encoder's
/// buffers. Each thread keeps the last one a [`TimeSolver`] dropped and
/// the next [`TimeSolver::new`] on that thread clears and reuses it, so
/// a mapper walking `(II, slack)` levels, or a worker serving requests
/// one after another, encodes without allocating once its buffers have
/// grown to the largest formula it has seen.
#[derive(Default)]
struct Store {
    fd: FdSolver,
    /// The time variable of each node, in node order.
    vars: Vec<IntVar>,
    /// `slots[v * II + slot]`: the literal `T_v mod II == slot`, if
    /// that slot is in `v`'s window.
    slots: Vec<Option<Lit>>,
    /// The literals of the clause or cardinality row being built.
    lits: Vec<Lit>,
    /// The neighbours of the node being encoded.
    neighbors: Vec<NodeId>,
}

thread_local! {
    static RECYCLED: Cell<Option<Store>> = const { Cell::new(None) };
}

impl Store {
    /// This thread's recycled store, cleared, or a new one.
    fn take() -> Store {
        let mut store = RECYCLED
            .try_with(Cell::take)
            .ok()
            .flatten()
            .unwrap_or_default();
        store.fd.clear();
        store.vars.clear();
        store
    }

    /// Keeps `self` for this thread's next encoding.
    fn give_back(self) {
        let _ = RECYCLED.try_with(|slot| slot.set(Some(self)));
    }
}

/// The SMT time-dimension search of the paper, for one `(DFG, II)` pair.
///
/// Construct, then pull schedules one at a time with
/// [`TimeSolver::next`].
///
/// The SAT store is recycled per thread: dropping a solver keeps its
/// storage for the next `TimeSolver::new` on the same thread, which
/// clears it first, so the formula and the search are exactly those of
/// a fresh store.
pub struct TimeSolver<'a> {
    dfg: &'a Dfg,
    ii: usize,
    config: TimeSolverConfig,
    store: Store,
    stats: TimeSolverStats,
}

impl Drop for TimeSolver<'_> {
    fn drop(&mut self) {
        std::mem::take(&mut self.store).give_back();
    }
}

impl fmt::Debug for TimeSolver<'_> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("TimeSolver")
            .field("dfg", &self.dfg.name())
            .field("ii", &self.ii)
            .field("stats", &self.stats)
            .finish()
    }
}

impl<'a> TimeSolver<'a> {
    /// Builds the time formulation for `dfg` at iteration interval `ii`.
    ///
    /// # Errors
    ///
    /// Returns [`TimeSolverError`] for invalid graphs or degenerate
    /// configurations.
    pub fn new(dfg: &'a Dfg, ii: usize, config: TimeSolverConfig) -> Result<Self, TimeSolverError> {
        if ii == 0 {
            return Err(TimeSolverError::ZeroIi);
        }
        if config.capacity == 0 {
            return Err(TimeSolverError::ZeroCapacity);
        }
        dfg.validate()?;
        let mobility = Mobility::compute(dfg)?;
        let mut store = Store::take();
        let Store {
            fd,
            vars,
            slots,
            lits,
            neighbors,
        } = &mut store;

        // One finite-domain variable per node: its absolute time, over
        // its mobility window with the ALAP bound extended by
        // `slack · II` (the node's times in the KMS, see `Kms`).
        let stretch = config.window_slack * ii;
        vars.extend(
            dfg.nodes()
                .map(|v| fd.new_int(mobility.asap(v) as i64..=(mobility.alap(v) + stretch) as i64)),
        );

        // 1. Modulo-scheduling constraints.
        let ii_i = ii as i64;
        for e in dfg.edges() {
            if e.src == e.dst {
                // A self loop-carried edge (`v` reads its own previous
                // value) is satisfiable for any schedule: T ≥ T + 1 − d·II
                // holds whenever d ≥ 1.
                continue;
            }
            let (s, d) = (vars[e.src.index()], vars[e.dst.index()]);
            match e.kind {
                EdgeKind::Data => fd.require_binary(s, d, |ts, td| td > ts),
                EdgeKind::LoopCarried { distance } => {
                    let lag = (distance as i64) * ii_i;
                    fd.require_binary(s, d, move |ts, td| td >= ts + 1 - lag)
                }
            }
        }

        // Slot indicator literals y[v][slot] = (T_v mod II == slot).
        slots.clear();
        slots.resize(vars.len() * ii, None);
        for (vi, &var) in vars.iter().enumerate() {
            for slot in 0..ii {
                lits.clear();
                lits.extend(
                    fd.indicator_lits(var)
                        .filter(|&(t, _)| (t as usize) % ii == slot)
                        .map(|(_, l)| l),
                );
                if !lits.is_empty() {
                    slots[vi * ii + slot] = Some(fd.or_lit(lits));
                }
            }
        }
        let slot_lit = |v: NodeId, slot: usize| slots[v.index() * ii + slot];

        // 2. Capacity constraints: ∀ slot, |{v : l(v) = slot}| ≤ |V_Mi|.
        if config.capacity_constraints {
            for slot in 0..ii {
                lits.clear();
                lits.extend(dfg.nodes().filter_map(|v| slot_lit(v, slot)));
                if lits.len() > config.capacity {
                    fd.at_most_k(lits, config.capacity);
                }
            }
            // 2b. Per-class capacities of heterogeneous grids:
            // ∀ slot, class, |{v of class : l(v) = slot}| ≤ providers.
            // `class_capacities` is empty on homogeneous grids, so the
            // CNF there is unchanged.
            for &(class, cap) in &config.class_capacities {
                for slot in 0..ii {
                    lits.clear();
                    lits.extend(
                        dfg.nodes()
                            .filter(|&v| dfg.op(v).op_class() == class)
                            .filter_map(|v| slot_lit(v, slot)),
                    );
                    if lits.len() > cap {
                        fd.at_most_k(lits, cap);
                    }
                }
            }
        }

        // 3. Connectivity constraints: ∀ v, slot, |S_v^slot| ≤ D_M.
        if config.connectivity_constraints {
            let adj = dfg.adjacency();
            for v in dfg.nodes() {
                adj.undirected_neighbors_into(v, neighbors);
                if neighbors.len() <= config.degree.saturating_sub(1) {
                    // Cannot exceed any bound; skip the encoding.
                    continue;
                }
                for slot in 0..ii {
                    lits.clear();
                    lits.extend(neighbors.iter().filter_map(|&u| slot_lit(u, slot)));
                    if config.strict_connectivity {
                        // Counting v itself alongside its neighbours
                        // enforces: neighbours ≤ D_M − 1 when v shares
                        // the slot, ≤ D_M otherwise.
                        if let Some(own) = slot_lit(v, slot) {
                            lits.push(own);
                        }
                    }
                    if lits.len() > config.degree {
                        fd.at_most_k(lits, config.degree);
                    }
                }
            }
        }

        let fd_stats = fd.stats();
        Ok(TimeSolver {
            dfg,
            ii,
            config,
            store,
            stats: TimeSolverStats {
                int_vars: fd_stats.int_vars,
                sat_vars: fd_stats.sat_vars,
                clauses: fd_stats.clauses,
                solutions: 0,
            },
        })
    }

    /// Encoding and progress statistics.
    pub fn stats(&self) -> TimeSolverStats {
        self.stats
    }

    /// The SAT core's work counters (decisions, conflicts, learnt and
    /// deleted clauses, arena compactions) since this solver was built.
    pub fn sat_stats(&self) -> SolverStats {
        self.store.fd.sat().stats()
    }

    /// Installs a cooperative cancellation flag on the underlying SAT
    /// core.
    pub fn set_cancel_flag(&mut self, flag: Arc<AtomicBool>) {
        self.store.fd.set_cancel_flag(flag);
    }

    /// The next schedule: solves the formula with every schedule this
    /// solver returned before excluded, so successive calls enumerate
    /// distinct schedules (the mapper's fall-back when the space phase
    /// fails) until [`SolveOutcome::Unsat`].
    ///
    /// Each schedule is blocked as it is returned, so the SAT core sees
    /// solve, block, solve. After `Unsat` every call is `Unsat` again and
    /// adds no clause. [`SolveOutcome::Timeout`] means the budget or the cancel
    /// flag cut the solve; nothing is blocked, so a later call under a
    /// lowered flag searches the same formula again.
    // Not an `Iterator`: the sequence never ends, and a `Timeout` can be
    // followed by more schedules.
    #[allow(clippy::should_implement_trait)]
    pub fn next(&mut self) -> SolveOutcome {
        let Store { fd, vars, .. } = &mut self.store;
        let result = match &self.config.budget {
            Some(b) => fd.solve_limited(b),
            None => fd.solve(),
        };
        match result {
            SatResult::Sat => {
                self.stats.solutions += 1;
                let times = vars.iter().map(|&v| fd.value(v) as usize).collect();
                fd.block_current(vars);
                SolveOutcome::Solution(TimeSolution { ii: self.ii, times })
            }
            SatResult::Unsat => SolveOutcome::Unsat,
            SatResult::Unknown => SolveOutcome::Timeout,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cgra_dfg::examples::{accumulator, running_example};
    use cgra_dfg::{DfgBuilder, Operation as Op};

    fn cfg2x2() -> TimeSolverConfig {
        TimeSolverConfig::for_cgra(&Cgra::new(2, 2).unwrap())
    }

    #[test]
    fn running_example_solves_at_mii() {
        let dfg = running_example();
        let cfg = cfg2x2();
        let mut solver = TimeSolver::new(&dfg, 4, cfg.clone()).unwrap();
        let sol = solver
            .next()
            .solution()
            .expect("paper maps the example at II=4");
        assert_eq!(sol.ii(), 4);
        sol.validate(&dfg, &cfg).unwrap();
    }

    #[test]
    fn running_example_unsat_below_mii() {
        let dfg = running_example();
        let mut solver = TimeSolver::new(&dfg, 3, cfg2x2()).unwrap();
        let clauses = solver.store.fd.stats().clauses;
        // Unsat from the first pull on, and pulling again adds no clause.
        for _ in 0..3 {
            assert_eq!(solver.next(), SolveOutcome::Unsat);
            assert_eq!(solver.store.fd.stats().clauses, clauses);
        }
    }

    #[test]
    fn accumulator_solves_at_two() {
        let dfg = accumulator();
        let cfg = cfg2x2();
        let mut solver = TimeSolver::new(&dfg, 2, cfg.clone()).unwrap();
        let sol = solver.next().solution().unwrap();
        sol.validate(&dfg, &cfg).unwrap();
        // The loop-carried edge must hold: T_phi >= T_sum + 1 - 2.
        let phi = cgra_dfg::NodeId::from_index(1);
        let sum = cgra_dfg::NodeId::from_index(2);
        assert!(sol.time(phi) as i64 >= sol.time(sum) as i64 + 1 - 2);
    }

    fn wide_independent(n: usize) -> cgra_dfg::Dfg {
        let mut b = DfgBuilder::new();
        for i in 0..n {
            b.input(format!("x{i}"));
        }
        b.build().unwrap()
    }

    #[test]
    fn capacity_needs_window_slack() {
        // Eight independent nodes all have the singleton window [0,0]:
        // without slack no II can satisfy capacity 4; with slack they
        // spread across slots.
        let dfg = wide_independent(8);
        let cfg = cfg2x2();
        let mut s0 = TimeSolver::new(&dfg, 2, cfg.clone()).unwrap();
        assert_eq!(s0.next(), SolveOutcome::Unsat);
        let cfg1 = cfg.with_window_slack(1);
        let mut s1 = TimeSolver::new(&dfg, 2, cfg1.clone()).unwrap();
        let sol = s1.next().solution().expect("slack allows spreading");
        sol.validate(&dfg, &cfg1).unwrap();
    }

    #[test]
    fn capacity_constraint_can_be_disabled() {
        let dfg = wide_independent(8);
        let mut cfg = cfg2x2();
        cfg.capacity_constraints = false;
        let mut s = TimeSolver::new(&dfg, 2, cfg).unwrap();
        assert!(matches!(s.next(), SolveOutcome::Solution(_)));
    }

    /// A node with four same-slot neighbours violates `D_M = 3` on 2×2.
    fn star() -> cgra_dfg::Dfg {
        let mut b = DfgBuilder::new();
        let x = b.input("x");
        let c = b.unary("c", Op::Neg, x);
        for i in 0..4 {
            b.unary(format!("k{i}"), Op::Not, c);
        }
        b.build().unwrap()
    }

    #[test]
    fn connectivity_forces_unsat_on_small_degree() {
        let dfg = star();
        // Windows: x [0,0], c [1,1], consumers [2,2]; at II=3 all four
        // consumers share slot 2 and c has degree bound 3.
        let cfg = cfg2x2();
        let mut s = TimeSolver::new(&dfg, 3, cfg).unwrap();
        assert_eq!(s.next(), SolveOutcome::Unsat);

        // Ablation: disabling connectivity makes it "solvable" in time —
        // the situation §IV-D proves cannot then be mapped in space.
        let mut cfg_off = cfg2x2();
        cfg_off.connectivity_constraints = false;
        let mut s = TimeSolver::new(&dfg, 3, cfg_off).unwrap();
        assert!(matches!(s.next(), SolveOutcome::Solution(_)));

        // A 3×3 CGRA (D_M = 5) accommodates the star directly.
        let cfg3 = TimeSolverConfig::for_cgra(&Cgra::new(3, 3).unwrap());
        let mut s = TimeSolver::new(&dfg, 3, cfg3.clone()).unwrap();
        let sol = s
            .next()
            .solution()
            .expect("D_M = 5 fits four same-slot neighbours");
        sol.validate(&dfg, &cfg3).unwrap();
    }

    #[test]
    fn connectivity_with_slack_spreads_consumers() {
        // With window slack the four consumers can move to different
        // slots, satisfying even D_M = 3.
        let dfg = star();
        let cfg = cfg2x2().with_window_slack(2);
        let mut s = TimeSolver::new(&dfg, 3, cfg.clone()).unwrap();
        let sol = s
            .next()
            .solution()
            .expect("slack spreads the star consumers");
        sol.validate(&dfg, &cfg).unwrap();
    }

    #[test]
    fn strict_connectivity_is_tighter() {
        // c and its consumers: with strict mode, when c shares a slot
        // with its neighbours the bound drops to D_M − 1 = 2.
        let mut b = DfgBuilder::new();
        let x = b.input("x");
        let c = b.unary("c", Op::Neg, x);
        for i in 0..3 {
            b.unary(format!("k{i}"), Op::Not, c);
        }
        let dfg = b.build().unwrap();
        // II = 1: every node in slot 0. c has 4 neighbours (x + 3
        // consumers) > 3 regardless; use a 3x3 (D_M = 5, capacity 9).
        let cgra = Cgra::new(3, 3).unwrap();
        let base = TimeSolverConfig::for_cgra(&cgra).with_window_slack(0);
        let mut s = TimeSolver::new(&dfg, 1, base.clone()).unwrap();
        assert!(
            matches!(s.next(), SolveOutcome::Solution(_)),
            "paper bound: 4 ≤ 5"
        );
        let strict = base.with_strict_connectivity(true);
        let mut s = TimeSolver::new(&dfg, 1, strict).unwrap();
        // Strict: at II=1 v shares slot 0 with everything; 4 > 5-1 = 4?
        // 4 <= 4 still holds, so strengthen: II=1 all five nodes in one
        // slot; c's neighbour count is 4, strict bound 4 — satisfiable.
        assert!(matches!(s.next(), SolveOutcome::Solution(_)));
    }

    /// `loads` independent loads off one input.
    fn load_fan(loads: usize) -> cgra_dfg::Dfg {
        let mut b = DfgBuilder::new();
        let x = b.input("x");
        for i in 0..loads {
            b.load(format!("ld{i}"), x);
        }
        b.build().unwrap()
    }

    #[test]
    fn class_capacity_forces_spreading() {
        use cgra_arch::{CapabilityProfile, Cgra};
        // Three loads, 3×3 mem-left-column (3 memory PEs — never
        // binding), then a 2-provider map where the loads cannot share
        // a slot.
        let dfg = load_fan(3);
        let het3 = Cgra::new(3, 3)
            .unwrap()
            .with_capability_profile(CapabilityProfile::MemLeftColumn);
        let cfg = TimeSolverConfig::for_cgra(&het3).with_window_slack(1);
        assert_eq!(cfg.class_capacities, vec![(OpClass::Mem, 3)]);
        let sol = TimeSolver::new(&dfg, 2, cfg.clone())
            .unwrap()
            .next()
            .solution()
            .expect("three memory PEs hold three loads");
        sol.validate(&dfg, &cfg).unwrap();

        // Same kernel, only two memory PEs: slot sharing capped at 2,
        // so at II=2 the loads must spread 2+1 across the slots.
        let mut caps = vec![cgra_arch::OpClassSet::only(OpClass::Alu); 9];
        caps[0] = cgra_arch::OpClassSet::all();
        caps[1] = cgra_arch::OpClassSet::all();
        let het2 = Cgra::new(3, 3).unwrap().with_pe_capabilities(caps).unwrap();
        let cfg2 = TimeSolverConfig::for_cgra(&het2).with_window_slack(1);
        let sol = TimeSolver::new(&dfg, 2, cfg2.clone())
            .unwrap()
            .next()
            .solution()
            .expect("slack lets the third load take the other slot");
        sol.validate(&dfg, &cfg2).unwrap();
        for slot in 0..2 {
            let mem_in_slot = dfg
                .nodes()
                .filter(|&v| dfg.op(v).is_memory() && sol.slot(v) == slot)
                .count();
            assert!(mem_in_slot <= 2, "slot {slot} holds {mem_in_slot} loads");
        }
    }

    #[test]
    fn class_capacity_validation_catches_violations() {
        let dfg = load_fan(3);
        let mut cfg = cfg2x2();
        cfg.class_capacities = vec![(OpClass::Mem, 2)];
        // All three loads in slot 0 of an II=2 schedule (input at 0,
        // loads at 1... make times: x=0, loads at 2,2,4 → slots 0,0,0).
        let sol = TimeSolution::from_times(2, vec![0, 2, 2, 4]);
        let err = sol.validate(&dfg, &cfg).unwrap_err();
        assert!(
            matches!(
                err,
                TimeSolutionError::ClassCapacityExceeded {
                    class: OpClass::Mem,
                    count: 3,
                    capacity: 2,
                    ..
                }
            ),
            "{err}"
        );
        assert!(err.to_string().contains("mem"));
    }

    #[test]
    fn homogeneous_config_has_no_class_capacities() {
        assert!(cfg2x2().class_capacities.is_empty());
        let big = TimeSolverConfig::for_cgra(&Cgra::new(10, 10).unwrap());
        assert!(big.class_capacities.is_empty());
    }

    #[test]
    fn enumeration_yields_distinct_valid_schedules() {
        let dfg = accumulator();
        let cfg = cfg2x2().with_window_slack(1);
        let mut solver = TimeSolver::new(&dfg, 2, cfg.clone()).unwrap();
        let mut seen: std::collections::HashSet<Vec<usize>> = std::collections::HashSet::new();
        let mut outcome = solver.next();
        let mut count = 0;
        while let SolveOutcome::Solution(sol) = outcome {
            sol.validate(&dfg, &cfg).unwrap();
            let times: Vec<usize> = dfg.nodes().map(|v| sol.time(v)).collect();
            assert!(seen.insert(times), "enumeration repeated a schedule");
            count += 1;
            assert!(count < 200, "runaway enumeration");
            outcome = solver.next();
        }
        assert_eq!(outcome, SolveOutcome::Unsat);
        assert!(count > 1, "accumulator has multiple schedules with slack");
        assert_eq!(solver.stats().solutions, count);
        // Past the last schedule every pull is Unsat and adds no clause.
        let clauses = solver.store.fd.stats().clauses;
        for _ in 0..3 {
            assert_eq!(solver.next(), SolveOutcome::Unsat);
            assert_eq!(solver.store.fd.stats().clauses, clauses);
        }
        assert_eq!(solver.stats().solutions, count);
    }

    #[test]
    fn cancel_flag_reports_timeout() {
        let dfg = running_example();
        let mut solver = TimeSolver::new(&dfg, 4, cfg2x2()).unwrap();
        solver.set_cancel_flag(Arc::new(AtomicBool::new(true)));
        assert_eq!(solver.next(), SolveOutcome::Timeout);
        assert_eq!(solver.stats().solutions, 0);
    }

    #[test]
    fn enumerate_solutions_reports_timeout_on_cancel() {
        // Mid-enumeration: a flag raised between pulls cuts each pull until
        // it is lowered, and the schedule already returned stays blocked.
        use std::sync::atomic::Ordering::SeqCst;
        let dfg = running_example();
        let mut solver = TimeSolver::new(&dfg, 4, cfg2x2()).unwrap();
        let flag = Arc::new(AtomicBool::new(false));
        solver.set_cancel_flag(Arc::clone(&flag));
        let first = solver.next().solution().expect("II 4 is feasible");
        flag.store(true, SeqCst);
        assert_eq!(solver.next(), SolveOutcome::Timeout);
        assert_eq!(solver.next(), SolveOutcome::Timeout);
        flag.store(false, SeqCst);
        let second = solver.next().solution().expect("more than one schedule");
        assert_ne!(first, second);
        assert_eq!(solver.stats().solutions, 2);
    }

    #[test]
    fn invalid_configs_rejected() {
        let dfg = accumulator();
        assert_eq!(
            TimeSolver::new(&dfg, 0, cfg2x2()).unwrap_err(),
            TimeSolverError::ZeroIi
        );
        let mut cfg = cfg2x2();
        cfg.capacity = 0;
        assert_eq!(
            TimeSolver::new(&dfg, 2, cfg).unwrap_err(),
            TimeSolverError::ZeroCapacity
        );
    }

    #[test]
    fn self_loop_carried_edge_is_fine() {
        let mut b = DfgBuilder::new();
        let p = b.phi("p", 0);
        b.loop_carried(p, p, 1);
        b.output("o", p);
        let dfg = b.build().unwrap();
        let cfg = cfg2x2();
        let mut s = TimeSolver::new(&dfg, 1, cfg.clone()).unwrap();
        let sol = s.next().solution().expect("self accumulator at II=1");
        sol.validate(&dfg, &cfg).unwrap();
    }

    #[test]
    fn stats_are_populated() {
        let dfg = running_example();
        let solver = TimeSolver::new(&dfg, 4, cfg2x2()).unwrap();
        let st = solver.stats();
        assert_eq!(st.int_vars, 14);
        assert!(st.sat_vars > 14);
        assert!(st.clauses > 0);
    }

    #[test]
    fn solution_labels_and_iterations() {
        let dfg = running_example();
        let mut solver = TimeSolver::new(&dfg, 4, cfg2x2()).unwrap();
        let sol = solver.next().solution().unwrap();
        for v in dfg.nodes() {
            assert_eq!(sol.slot(v), sol.time(v) % 4);
            assert_eq!(sol.iteration(v), sol.time(v) / 4);
        }
        assert_eq!(sol.labels().len(), 14);
        assert!(sol.length() <= 6); // within the mobility schedule
    }
}
