//! The coupled (joint space-time) SAT mapper, in the style of
//! SAT-MapIt.
//!
//! One Boolean variable `x[v][t][p]` per node × candidate time × PE.
//! Constraints:
//!
//! * exactly one `(t, p)` per node;
//! * at most one node per `(kernel slot, p)` (a PE executes one
//!   operation per slot);
//! * for every dependence edge and candidate time pair: timing
//!   legality, and — when legal — placement compatibility (the consumer
//!   must sit on a PE that can read the producer's register file).
//!
//! The variable count is `|V| · |window| · |PEs|`: the formulation
//! grows linearly with the PE count and the search space exponentially,
//! which is exactly the scalability wall the paper attributes to
//! coupled approaches (§V, Fig. 5). The decoupled mapper's time
//! formulation, by contrast, references the CGRA only through two
//! scalar constants.

use std::time::Instant;

use cgra_base::{Budget, CancelFlag};

use cgra_arch::{Cgra, PeId, RoutingModel};
use cgra_dfg::{Dfg, EdgeKind};
use cgra_sat::{SatResult, Solver};
use cgra_sched::{min_ii, unsupported_op_class, Kms, Mobility};
use cgra_smt::{at_most_one, Lit};
use monomap_core::api::{
    emit, run_request, EngineId, MapEvent, MapObserver, MapOutcome, MapReport, MapRequest, Mapper,
    SpaceAttemptOutcome,
};
use monomap_core::{MapError, MapStats, MapperConfig, Mapping, Placement};

/// Configuration of the coupled mapper.
#[derive(Clone, Debug)]
pub struct CoupledConfig {
    /// Largest II to attempt; `None` means `mII + 16`.
    pub max_ii: Option<usize>,
    /// Maximum window slack per II (same completeness net as the
    /// decoupled mapper, for a fair comparison).
    pub max_window_slack: usize,
    /// Optional SAT budget per `(II, slack)` attempt.
    pub budget: Option<Budget>,
    /// Longest route (in links) a dependence may take; 1 is the
    /// classic neighbour-only encoding.
    pub max_route_hops: usize,
}

impl Default for CoupledConfig {
    fn default() -> Self {
        CoupledConfig {
            max_ii: None,
            max_window_slack: 2,
            budget: None,
            max_route_hops: 1,
        }
    }
}

impl CoupledConfig {
    /// The shared-subset projection of the unified [`MapperConfig`]
    /// (II cap, window-slack ceiling, SAT budget, route bound);
    /// decoupled-only knobs are ignored. This is how the [`Mapper`]
    /// trait path configures the engine.
    pub fn from_mapper_config(config: &MapperConfig) -> Self {
        CoupledConfig {
            max_ii: config.max_ii,
            max_window_slack: config.max_window_slack,
            budget: config.time_budget.clone(),
            max_route_hops: config.max_route_hops,
        }
    }
}

/// A mapping found by a baseline mapper, with statistics.
#[derive(Clone, Debug)]
pub struct BaselineResult {
    /// The mapping (same type and validator as the decoupled mapper's).
    pub mapping: Mapping,
    /// Search statistics.
    pub stats: BaselineStats,
}

/// Statistics of a baseline search.
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct BaselineStats {
    /// Lower bound the search started from.
    pub mii: usize,
    /// Achieved II.
    pub achieved_ii: usize,
    /// Wall-clock total.
    pub total_seconds: f64,
    /// IIs attempted.
    pub iis_tried: usize,
    /// SAT variables of the successful formulation.
    pub sat_vars: usize,
    /// SAT clauses of the successful formulation.
    pub clauses: usize,
}

impl From<BaselineStats> for MapStats {
    /// Projects the baseline statistics into the unified superset;
    /// fields the baselines do not meter (phase split, time-solution
    /// and mono-step counters) stay at their defaults, and
    /// `time_strategy` is `None` (the baselines have no decoupled time
    /// phase).
    fn from(s: BaselineStats) -> MapStats {
        MapStats {
            mii: s.mii,
            achieved_ii: s.achieved_ii,
            total_seconds: s.total_seconds,
            iis_tried: s.iis_tried,
            sat_vars: s.sat_vars,
            clauses: s.clauses,
            ..MapStats::default()
        }
    }
}

/// The coupled SAT mapper. See the module docs for the encoding.
///
/// Owns a clone of its CGRA, so it satisfies the `'static` bound of
/// `Box<dyn Mapper>` and registers with a
/// [`monomap_core::api::MappingService`].
#[derive(Clone, Debug)]
pub struct CoupledMapper {
    cgra: Cgra,
    config: CoupledConfig,
    cancel: Option<CancelFlag>,
}

impl CoupledMapper {
    /// A coupled mapper with default configuration.
    pub fn new(cgra: &Cgra) -> Self {
        CoupledMapper {
            cgra: cgra.clone(),
            config: CoupledConfig::default(),
            cancel: None,
        }
    }

    /// A coupled mapper with explicit configuration.
    pub fn with_config(cgra: &Cgra, config: CoupledConfig) -> Self {
        CoupledMapper {
            cgra: cgra.clone(),
            config,
            cancel: None,
        }
    }

    /// Installs a cooperative cancellation flag.
    pub fn set_cancel(&mut self, flag: CancelFlag) {
        self.cancel = Some(flag);
    }

    fn cancelled(&self) -> bool {
        self.cancel.as_ref().is_some_and(CancelFlag::is_cancelled)
    }

    /// Maps `dfg` onto the CGRA by joint space-time SAT search.
    ///
    /// # Errors
    ///
    /// Same contract as [`monomap_core::DecoupledMapper::map`].
    pub fn map(&self, dfg: &Dfg) -> Result<BaselineResult, MapError> {
        self.map_observed(dfg, None)
    }

    /// Like [`CoupledMapper::map`], but emitting structured
    /// [`MapEvent`]s. The coupled search is joint, so each `(II,
    /// slack)` SAT attempt is reported as one
    /// [`MapEvent::SpaceAttempt`] and no
    /// [`MapEvent::TimeSolutionFound`] events occur.
    pub fn map_observed(
        &self,
        dfg: &Dfg,
        observer: Option<&dyn MapObserver>,
    ) -> Result<BaselineResult, MapError> {
        let result = self.map_inner(dfg, observer);
        if let Some(obs) = observer {
            obs.on_event(&MapEvent::Finished {
                mapped: result.is_ok(),
                ii: result.as_ref().ok().map(|r| r.mapping.ii()),
            });
        }
        result
    }

    fn map_inner(
        &self,
        dfg: &Dfg,
        obs: Option<&dyn MapObserver>,
    ) -> Result<BaselineResult, MapError> {
        dfg.validate()?;
        if let Some(class) = unsupported_op_class(dfg, &self.cgra) {
            return Err(MapError::UnsupportedOpClass { class });
        }
        let start = Instant::now();
        let mii = min_ii(dfg, &self.cgra);
        let max_ii = self.config.max_ii.unwrap_or(mii + 16).max(mii);
        let mut stats = BaselineStats {
            mii,
            ..BaselineStats::default()
        };
        let mobility = Mobility::compute(dfg).expect("validated DFG");
        // Reachability clauses wider than one hop come from a routing
        // model built once per search; `None` keeps the classic
        // neighbour-only encoding (and its exact clause order).
        let routing = (self.config.max_route_hops > 1)
            .then(|| RoutingModel::new(&self.cgra, self.config.max_route_hops));

        for ii in mii..=max_ii {
            stats.iis_tried += 1;
            emit(obs, MapEvent::IiStarted { ii });
            for slack in 0..=self.config.max_window_slack {
                if self.cancelled() {
                    return Err(MapError::Timeout { ii });
                }
                let attempt = self.attempt(dfg, &mobility, routing.as_ref(), ii, slack, &mut stats);
                emit(
                    obs,
                    MapEvent::SpaceAttempt {
                        ii,
                        slack,
                        outcome: match &attempt {
                            Attempt::Found(_) => SpaceAttemptOutcome::Found,
                            Attempt::Unsat => SpaceAttemptOutcome::Exhausted,
                            Attempt::Timeout => SpaceAttemptOutcome::Cancelled,
                        },
                    },
                );
                match attempt {
                    Attempt::Found(mapping) => {
                        stats.achieved_ii = ii;
                        stats.total_seconds = start.elapsed().as_secs_f64();
                        debug_assert_eq!(
                            mapping.validate_routed(dfg, &self.cgra, self.config.max_route_hops),
                            Ok(())
                        );
                        return Ok(BaselineResult { mapping, stats });
                    }
                    Attempt::Unsat => {
                        emit(obs, MapEvent::Escalated { ii, slack });
                        continue;
                    }
                    Attempt::Timeout => return Err(MapError::Timeout { ii }),
                }
            }
        }
        Err(MapError::NoSolution { mii, max_ii })
    }

    fn attempt(
        &self,
        dfg: &Dfg,
        mobility: &Mobility,
        routing: Option<&RoutingModel>,
        ii: usize,
        slack: usize,
        stats: &mut BaselineStats,
    ) -> Attempt {
        let kms = Kms::with_slack(mobility, ii, slack);
        let npes = self.cgra.num_pes();
        let mut solver = Solver::new();
        if let Some(flag) = &self.cancel {
            solver.set_cancel_flag(flag.arc());
        }

        // x[v][ti][p]: node v at candidate time index ti on PE p.
        let mut x: Vec<Vec<Vec<Lit>>> = Vec::with_capacity(dfg.num_nodes());
        // times[v]: the candidate absolute times of v.
        let mut times: Vec<Vec<usize>> = Vec::with_capacity(dfg.num_nodes());
        // y[v][ti] = OR_p x[v][ti][p] (node v executes at that time).
        let mut y: Vec<Vec<Lit>> = Vec::with_capacity(dfg.num_nodes());
        for v in dfg.nodes() {
            let ts = kms.times_of(v);
            let mut rows = Vec::with_capacity(ts.len());
            let mut yrow = Vec::with_capacity(ts.len());
            for _ in &ts {
                let row: Vec<Lit> = (0..npes).map(|_| solver.new_var().pos()).collect();
                let yv = solver.new_var().pos();
                for &l in &row {
                    solver.add_clause([!l, yv]);
                }
                let mut def = vec![!yv];
                def.extend(row.iter().copied());
                solver.add_clause(def);
                rows.push(row);
                yrow.push(yv);
            }
            // Exactly one (t, p) placement per node.
            let all: Vec<Lit> = rows.iter().flatten().copied().collect();
            solver.add_clause(all.iter().copied());
            cgra_smt::at_most_k(&mut solver, &all, 1);
            // Heterogeneity: forbid placements on PEs lacking the
            // node's operation class (no clauses on homogeneous grids,
            // keeping their CNF unchanged).
            let class = dfg.op(v).op_class();
            for p in self.cgra.pes() {
                if !self.cgra.supports(p, class) {
                    for row in &rows {
                        solver.add_clause([!row[p.index()]]);
                    }
                }
            }
            x.push(rows);
            y.push(yrow);
            times.push(ts);
        }

        // One operation per (slot, PE).
        for slot in 0..ii {
            #[allow(clippy::needless_range_loop)]
            for p in 0..npes {
                let mut lits: Vec<Lit> = Vec::new();
                for v in dfg.nodes() {
                    let vi = v.index();
                    for (ti, &t) in times[vi].iter().enumerate() {
                        if t % ii == slot {
                            lits.push(x[vi][ti][p]);
                        }
                    }
                }
                at_most_one(&mut solver, &lits);
            }
        }

        // Dependence edges: timing + register-file reachability.
        for e in dfg.edges() {
            // The encoding itself can be large on big CGRAs; keep the
            // external timeout responsive during construction too.
            if self.cancelled() {
                return Attempt::Timeout;
            }
            if e.src == e.dst {
                continue;
            }
            let (u, v) = (e.src.index(), e.dst.index());
            for (tui, &tu) in times[u].iter().enumerate() {
                for (tvi, &tv) in times[v].iter().enumerate() {
                    let legal = match e.kind {
                        EdgeKind::Data => tv as i64 > tu as i64,
                        EdgeKind::LoopCarried { distance } => {
                            tv as i64 >= tu as i64 + 1 - (distance as i64) * (ii as i64)
                        }
                    };
                    if !legal {
                        solver.add_clause([!y[u][tui], !y[v][tvi]]);
                        continue;
                    }
                    let same_slot = tu % ii == tv % ii;
                    for p in self.cgra.pes() {
                        // x[u][tui][p] ∧ y[v][tvi] → v on a PE readable
                        // from p (over a route of up to the configured
                        // number of links).
                        let mut clause = vec![!x[u][tui][p.index()], !y[v][tvi]];
                        match routing {
                            // The classic neighbour-only encoding,
                            // literal-for-literal (clause order is part
                            // of the k=1 golden behaviour).
                            None if same_slot => {
                                for q in self.cgra.neighbors(p) {
                                    clause.push(x[v][tvi][q.index()]);
                                }
                            }
                            None => {
                                for q in self.cgra.neighbor_mask_with_self(p).iter() {
                                    clause.push(x[v][tvi][q.index()]);
                                }
                            }
                            Some(r) => {
                                // Same-slot edges cannot use the
                                // held-value (same-PE) case.
                                let mask = if same_slot {
                                    r.reach_mask(p)
                                } else {
                                    r.reach_mask_with_self(p)
                                };
                                for q in mask.iter() {
                                    clause.push(x[v][tvi][q.index()]);
                                }
                            }
                        }
                        solver.add_clause(clause);
                    }
                }
            }
        }

        stats.sat_vars = stats.sat_vars.max(solver.num_vars());
        stats.clauses = stats.clauses.max(solver.num_clauses());

        let result = match &self.config.budget {
            Some(b) => solver.solve_limited(&[], b),
            None => solver.solve(),
        };
        match result {
            SatResult::Sat => {
                let mut placements = Vec::with_capacity(dfg.num_nodes());
                for v in dfg.nodes() {
                    let vi = v.index();
                    let mut found = None;
                    for (ti, &t) in times[vi].iter().enumerate() {
                        #[allow(clippy::needless_range_loop)]
                        for p in 0..npes {
                            if solver.lit_value(x[vi][ti][p]).is_true() {
                                found = Some(Placement {
                                    pe: PeId::from_index(p),
                                    slot: t % ii,
                                    time: t,
                                });
                            }
                        }
                    }
                    placements.push(found.expect("exactly-one placement per node"));
                }
                let mapping = Mapping::new(dfg.name(), ii, placements);
                let mapping = if routing.is_some() {
                    // Record the chosen route length of every edge, as
                    // the decoupled mapper does (self-dependences are
                    // held: 0).
                    let hops = dfg
                        .edges()
                        .iter()
                        .map(|e| {
                            if e.src == e.dst {
                                return 0;
                            }
                            let (pu, pv) = (mapping.pe(e.src), mapping.pe(e.dst));
                            self.cgra
                                .hop_distance(pu, pv)
                                .expect("reachability clauses bound every route")
                        })
                        .collect();
                    mapping.with_route_hops(hops)
                } else {
                    mapping
                };
                Attempt::Found(mapping)
            }
            SatResult::Unsat => Attempt::Unsat,
            SatResult::Unknown => Attempt::Timeout,
        }
    }
}

impl Mapper for CoupledMapper {
    fn engine_id(&self) -> EngineId {
        EngineId::Coupled
    }

    fn map(&self, req: &MapRequest) -> MapReport {
        let cgra = req.cgra.as_ref().unwrap_or(&self.cgra);
        let mut inner =
            CoupledMapper::with_config(cgra, CoupledConfig::from_mapper_config(&req.config));
        let result = run_request(req, |flag| {
            inner.set_cancel(flag);
            inner.map_observed(&req.dfg, req.observer.as_deref())
        });
        baseline_report(EngineId::Coupled, req, result)
    }
}

/// Folds a baseline engine's native result into the unified report —
/// the shared success/failure assembly of both baseline [`Mapper`]
/// impls.
pub(crate) fn baseline_report(
    engine: EngineId,
    req: &MapRequest,
    result: Result<BaselineResult, MapError>,
) -> MapReport {
    match result {
        Ok(r) => MapReport {
            engine,
            dfg_name: req.dfg.name().to_string(),
            outcome: MapOutcome::Mapped { ii: r.mapping.ii() },
            stats: r.stats.into(),
            mapping: Some(r.mapping),
        },
        Err(e) => MapReport::from_error(engine, &req.dfg, e, MapStats::default()),
    }
}

enum Attempt {
    Found(Mapping),
    Unsat,
    Timeout,
}

#[cfg(test)]
mod tests {
    use super::*;
    use cgra_dfg::examples::{accumulator, running_example, stream_scale};
    use monomap_core::DecoupledMapper;

    #[test]
    fn running_example_same_ii_as_decoupled() {
        let cgra = Cgra::new(2, 2).unwrap();
        let dfg = running_example();
        let coupled = CoupledMapper::new(&cgra).map(&dfg).unwrap();
        coupled.mapping.validate(&dfg, &cgra).unwrap();
        assert_eq!(coupled.mapping.ii(), 4);

        let decoupled = DecoupledMapper::new(&cgra).map(&dfg).unwrap();
        assert_eq!(coupled.mapping.ii(), decoupled.mapping.ii());
    }

    #[test]
    fn accumulator_maps() {
        let cgra = Cgra::new(2, 2).unwrap();
        let dfg = accumulator();
        let r = CoupledMapper::new(&cgra).map(&dfg).unwrap();
        assert_eq!(r.mapping.ii(), 2);
        r.mapping.validate(&dfg, &cgra).unwrap();
        assert!(r.stats.sat_vars > 0);
        assert!(r.stats.clauses > 0);
    }

    #[test]
    fn stream_scale_on_3x3() {
        let cgra = Cgra::new(3, 3).unwrap();
        let dfg = stream_scale();
        let r = CoupledMapper::new(&cgra).map(&dfg).unwrap();
        r.mapping.validate(&dfg, &cgra).unwrap();
        assert!(r.mapping.ii() >= r.stats.mii);
    }

    #[test]
    fn widened_routing_lowers_the_mesh_star_ii() {
        use cgra_arch::Topology;
        use cgra_dfg::{DfgBuilder, Operation as Op};
        // A 6-consumer star saturates a mesh PE's 4 neighbours under
        // the one-hop encoding; two-hop reachability clauses relax
        // exactly that constraint.
        let cgra = Cgra::with_topology(3, 3, Topology::Mesh).unwrap();
        let mut b = DfgBuilder::new();
        let x = b.input("x");
        let c = b.unary("c", Op::Neg, x);
        for i in 0..6 {
            b.unary(format!("k{i}"), Op::Not, c);
        }
        let dfg = b.build().unwrap();
        let one = CoupledMapper::new(&cgra).map(&dfg).unwrap();
        let cfg = CoupledConfig {
            max_route_hops: 2,
            ..Default::default()
        };
        let two = CoupledMapper::with_config(&cgra, cfg).map(&dfg).unwrap();
        two.mapping.validate_routed(&dfg, &cgra, 2).unwrap();
        assert!(
            two.mapping.ii() < one.mapping.ii(),
            "the coupled search is exact: k=2 ({}) must beat k=1 ({}) on the star",
            two.mapping.ii(),
            one.mapping.ii()
        );
        assert_eq!(two.mapping.route_hops().len(), dfg.edges().len());
        assert!(two.mapping.route_hops().iter().all(|&d| d <= 2));
        assert!(one.mapping.route_hops().is_empty());
    }

    #[test]
    fn route_bound_carries_over_from_mapper_config() {
        let unified = MapperConfig::new().with_max_route_hops(2).with_max_ii(5);
        let cfg = CoupledConfig::from_mapper_config(&unified);
        assert_eq!(cfg.max_route_hops, 2);
        assert_eq!(cfg.max_ii, Some(5));
    }

    #[test]
    fn cancel_flag_times_out() {
        let cgra = Cgra::new(2, 2).unwrap();
        let dfg = running_example();
        let mut mapper = CoupledMapper::new(&cgra);
        let flag = CancelFlag::new();
        flag.cancel();
        mapper.set_cancel(flag);
        assert!(matches!(mapper.map(&dfg), Err(MapError::Timeout { .. })));
    }

    #[test]
    fn trait_path_matches_native_ii() {
        let cgra = Cgra::new(2, 2).unwrap();
        let dfg = running_example();
        let native = CoupledMapper::new(&cgra).map(&dfg).unwrap();
        let boxed: Box<dyn Mapper> = Box::new(CoupledMapper::new(&cgra));
        let report = boxed.map(&MapRequest::new(EngineId::Coupled, dfg.clone()));
        assert_eq!(report.outcome.ii(), Some(native.mapping.ii()));
        assert_eq!(report.stats.mii, native.stats.mii);
        assert!(report.stats.sat_vars > 0, "coupled CNF size is reported");
    }

    #[test]
    fn budget_limits_search() {
        let cgra = Cgra::new(3, 3).unwrap();
        let dfg = running_example();
        let cfg = CoupledConfig {
            budget: Some(Budget::conflicts(1)),
            ..CoupledConfig::default()
        };
        // With a single-conflict budget the solver gives up quickly.
        let r = CoupledMapper::with_config(&cgra, cfg).map(&dfg);
        assert!(matches!(r, Err(MapError::Timeout { .. })) || r.is_ok());
    }

    #[test]
    fn heterogeneous_grid_respects_capabilities() {
        use cgra_arch::CapabilityProfile;
        let cgra = Cgra::new(3, 3)
            .unwrap()
            .with_capability_profile(CapabilityProfile::MemLeftColumn);
        let dfg = stream_scale(); // has load + store + mul
        let r = CoupledMapper::new(&cgra).map(&dfg).unwrap();
        r.mapping.validate(&dfg, &cgra).unwrap();
        for v in dfg.nodes() {
            assert!(
                cgra.supports(r.mapping.pe(v), dfg.op(v).op_class()),
                "{v:?}"
            );
        }
    }

    #[test]
    fn unsupported_class_fails_fast() {
        use cgra_arch::{OpClass, OpClassSet};
        let cgra = Cgra::new(2, 2)
            .unwrap()
            .with_pe_capabilities(vec![OpClassSet::only(OpClass::Alu); 4])
            .unwrap();
        let dfg = stream_scale();
        assert!(matches!(
            CoupledMapper::new(&cgra).map(&dfg),
            Err(MapError::UnsupportedOpClass { .. })
        ));
    }

    #[test]
    fn variable_count_grows_with_cgra() {
        let dfg = accumulator();
        let small = {
            let cgra = Cgra::new(2, 2).unwrap();
            CoupledMapper::new(&cgra).map(&dfg).unwrap().stats.sat_vars
        };
        let large = {
            let cgra = Cgra::new(5, 5).unwrap();
            CoupledMapper::new(&cgra).map(&dfg).unwrap().stats.sat_vars
        };
        assert!(
            large > small * 3,
            "coupled formulation scales with PE count ({small} vs {large})"
        );
    }
}
