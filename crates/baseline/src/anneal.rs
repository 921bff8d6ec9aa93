//! A DRESC-style simulated-annealing mapper (\[11\] in the paper's
//! related work): schedule, placement and routing are perturbed
//! together, guided by a penalty cost. Heuristic and incomplete —
//! included as the classic point of comparison for the ablation
//! benches.

use std::time::Instant;

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use cgra_arch::{Cgra, PeId};
use cgra_base::CancelFlag;
use cgra_dfg::{Dfg, EdgeKind};
use cgra_sched::{min_ii, unsupported_op_class, Kms, Mobility};
use monomap_core::api::{
    emit, run_request, EngineId, MapEvent, MapObserver, MapReport, MapRequest, Mapper,
    SpaceAttemptOutcome,
};
use monomap_core::{MapError, MapperConfig, Mapping, Placement};

use crate::coupled::baseline_report;
use crate::{BaselineResult, BaselineStats};

/// Annealing schedule parameters.
#[derive(Clone, Debug)]
pub struct AnnealingConfig {
    /// Largest II to attempt; `None` means `mII + 16`.
    pub max_ii: Option<usize>,
    /// Window slack applied to candidate times.
    pub window_slack: usize,
    /// Moves per temperature step.
    pub moves_per_temp: usize,
    /// Number of temperature steps.
    pub temp_steps: usize,
    /// Initial temperature.
    pub initial_temp: f64,
    /// Geometric cooling factor per step.
    pub cooling: f64,
    /// Independent restarts per II.
    pub restarts: usize,
    /// RNG seed (deterministic runs).
    pub seed: u64,
    /// Longest route (in links) a dependence may take; 1 is the
    /// classic neighbour-only model.
    pub max_route_hops: usize,
}

impl Default for AnnealingConfig {
    fn default() -> Self {
        AnnealingConfig {
            max_ii: None,
            window_slack: 1,
            moves_per_temp: 400,
            temp_steps: 120,
            initial_temp: 4.0,
            cooling: 0.93,
            restarts: 3,
            seed: 0xd2e5c,
            max_route_hops: 1,
        }
    }
}

impl AnnealingConfig {
    /// The shared-subset projection of the unified [`MapperConfig`]:
    /// only the II cap and the route bound carry over. The
    /// annealing-specific knobs (schedule, restarts, seed, window
    /// slack) keep their defaults so the trait path behaves exactly
    /// like `AnnealingMapper::new` — the engine stays comparable
    /// across the native and service paths.
    pub fn from_mapper_config(config: &MapperConfig) -> Self {
        AnnealingConfig {
            max_ii: config.max_ii,
            max_route_hops: config.max_route_hops,
            ..AnnealingConfig::default()
        }
    }
}

/// The simulated-annealing mapper.
///
/// Owns a clone of its CGRA, so it satisfies the `'static` bound of
/// `Box<dyn Mapper>` and registers with a
/// [`monomap_core::api::MappingService`].
#[derive(Clone, Debug)]
pub struct AnnealingMapper {
    cgra: Cgra,
    config: AnnealingConfig,
    cancel: Option<CancelFlag>,
}

impl AnnealingMapper {
    /// An annealer with default parameters.
    pub fn new(cgra: &Cgra) -> Self {
        AnnealingMapper {
            cgra: cgra.clone(),
            config: AnnealingConfig::default(),
            cancel: None,
        }
    }

    /// An annealer with explicit parameters.
    pub fn with_config(cgra: &Cgra, config: AnnealingConfig) -> Self {
        AnnealingMapper {
            cgra: cgra.clone(),
            config,
            cancel: None,
        }
    }

    /// Installs a cooperative cancellation flag, polled once per
    /// temperature step inside the annealing loop (the same idiom as
    /// the exact mappers, so a bench watchdog can always release an
    /// annealing cell).
    pub fn set_cancel(&mut self, flag: CancelFlag) {
        self.cancel = Some(flag);
    }

    fn cancelled(&self) -> bool {
        self.cancel.as_ref().is_some_and(CancelFlag::is_cancelled)
    }

    /// Maps `dfg`, escalating the II when annealing cannot reach zero
    /// cost.
    ///
    /// # Errors
    ///
    /// [`MapError::InvalidDfg`] or [`MapError::NoSolution`]; with a
    /// cancellation flag installed a raised flag surfaces as
    /// [`MapError::Timeout`].
    pub fn map(&self, dfg: &Dfg) -> Result<BaselineResult, MapError> {
        self.map_observed(dfg, None)
    }

    /// Like [`AnnealingMapper::map`], but emitting structured
    /// [`MapEvent`]s: one [`MapEvent::SpaceAttempt`] per annealing
    /// restart (the annealer perturbs schedule and placement jointly,
    /// so no [`MapEvent::TimeSolutionFound`] events occur).
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
        let mobility = Mobility::compute(dfg).expect("validated DFG");
        let mut stats = BaselineStats {
            mii,
            ..BaselineStats::default()
        };
        let mut rng = StdRng::seed_from_u64(self.config.seed);
        let classes: Vec<cgra_arch::OpClass> = dfg.nodes().map(|v| dfg.op(v).op_class()).collect();

        for ii in mii..=max_ii {
            stats.iis_tried += 1;
            emit(obs, MapEvent::IiStarted { ii });
            let kms = Kms::with_slack(&mobility, ii, self.config.window_slack);
            let times: Vec<Vec<usize>> = dfg.nodes().map(|v| kms.times_of(v)).collect();
            for _ in 0..self.config.restarts {
                if self.cancelled() {
                    return Err(MapError::Timeout { ii });
                }
                let found = self.anneal_once(dfg, ii, &times, &classes, &mut rng);
                emit(
                    obs,
                    MapEvent::SpaceAttempt {
                        ii,
                        slack: self.config.window_slack,
                        outcome: if found.is_some() {
                            SpaceAttemptOutcome::Found
                        } else {
                            SpaceAttemptOutcome::Exhausted
                        },
                    },
                );
                if let Some(mapping) = found {
                    stats.achieved_ii = ii;
                    stats.total_seconds = start.elapsed().as_secs_f64();
                    debug_assert_eq!(
                        mapping.validate_routed(dfg, &self.cgra, self.config.max_route_hops),
                        Ok(())
                    );
                    return Ok(BaselineResult { mapping, stats });
                }
            }
            emit(
                obs,
                MapEvent::Escalated {
                    ii,
                    slack: self.config.window_slack,
                },
            );
        }
        if self.cancelled() {
            return Err(MapError::Timeout { ii: max_ii });
        }
        Err(MapError::NoSolution { mii, max_ii })
    }

    fn anneal_once(
        &self,
        dfg: &Dfg,
        ii: usize,
        times: &[Vec<usize>],
        classes: &[cgra_arch::OpClass],
        rng: &mut StdRng,
    ) -> Option<Mapping> {
        let n = dfg.num_nodes();
        let npes = self.cgra.num_pes();
        // State: (time index into times[v], pe index) per node.
        let mut state: Vec<(usize, usize)> = (0..n)
            .map(|v| (rng.gen_range(0..times[v].len()), rng.gen_range(0..npes)))
            .collect();
        let mut cost = self.cost(dfg, ii, times, classes, &state);
        let mut temp = self.config.initial_temp;
        for _ in 0..self.config.temp_steps {
            // Cancellation point: one poll per temperature step bounds
            // the reaction latency to `moves_per_temp` cost evaluations.
            if self.cancelled() {
                return None;
            }
            for _ in 0..self.config.moves_per_temp {
                if cost == 0 {
                    return Some(self.to_mapping(dfg, ii, times, &state));
                }
                let v = rng.gen_range(0..n);
                let old = state[v];
                if rng.gen_bool(0.5) {
                    state[v].0 = rng.gen_range(0..times[v].len());
                } else {
                    state[v].1 = rng.gen_range(0..npes);
                }
                let new_cost = self.cost(dfg, ii, times, classes, &state);
                let delta = new_cost as f64 - cost as f64;
                if delta <= 0.0 || rng.gen_bool((-delta / temp).exp().clamp(0.0, 1.0)) {
                    cost = new_cost;
                } else {
                    state[v] = old;
                }
            }
            temp *= self.config.cooling;
        }
        if cost == 0 {
            return Some(self.to_mapping(dfg, ii, times, &state));
        }
        None
    }

    /// Penalty cost: (PE, slot) collisions + timing violations +
    /// unreadable register files + operations on PEs lacking their
    /// functional-unit class (heterogeneous grids).
    fn cost(
        &self,
        dfg: &Dfg,
        ii: usize,
        times: &[Vec<usize>],
        classes: &[cgra_arch::OpClass],
        state: &[(usize, usize)],
    ) -> usize {
        let mut cost = 0usize;
        // Collisions, and capability violations (free on homogeneous
        // grids: every PE supports every class).
        let mut seen = std::collections::HashMap::new();
        for (v, &(ti, p)) in state.iter().enumerate() {
            let slot = times[v][ti] % ii;
            *seen.entry((slot, p)).or_insert(0usize) += 1;
            if !self.cgra.supports(PeId::from_index(p), classes[v]) {
                cost += 2;
            }
        }
        cost += seen
            .values()
            .map(|&c| c.saturating_sub(1) * 2)
            .sum::<usize>();
        // Edges.
        for e in dfg.edges() {
            if e.src == e.dst {
                continue;
            }
            let (u, v) = (e.src.index(), e.dst.index());
            let tu = times[u][state[u].0] as i64;
            let tv = times[v][state[v].0] as i64;
            let legal = match e.kind {
                EdgeKind::Data => tv > tu,
                EdgeKind::LoopCarried { distance } => {
                    tv >= tu + 1 - (distance as i64) * (ii as i64)
                }
            };
            if !legal {
                cost += 2;
            }
            let pu = PeId::from_index(state[u].1);
            let pv = PeId::from_index(state[v].1);
            let same_slot = tu.rem_euclid(ii as i64) == tv.rem_euclid(ii as i64);
            // A value is readable over a route of up to
            // `max_route_hops` links; a same-slot edge cannot use the
            // held-value (same-PE) case.
            let k = self.config.max_route_hops;
            let dist = self.cgra.hop_distance(pu, pv);
            let routable = match dist {
                Some(0) => !same_slot,
                Some(d) => d <= k,
                None => false,
            };
            if !routable {
                cost += if k <= 1 {
                    // The classic neighbour-only penalty — keeps the
                    // k=1 annealing trajectory bit-identical.
                    1
                } else {
                    // Graded under a routing model: penalise by how far
                    // past the bound the route is, so the annealer is
                    // pulled towards shorter routes.
                    match dist {
                        Some(d) if d > k => d - k,
                        _ => 1,
                    }
                };
            }
        }
        cost
    }

    fn to_mapping(
        &self,
        dfg: &Dfg,
        ii: usize,
        times: &[Vec<usize>],
        state: &[(usize, usize)],
    ) -> Mapping {
        let placements: Vec<Placement> = state
            .iter()
            .enumerate()
            .map(|(v, &(ti, p))| {
                let time = times[v][ti];
                Placement {
                    pe: PeId::from_index(p),
                    slot: time % ii,
                    time,
                }
            })
            .collect();
        let mapping = Mapping::new(dfg.name(), ii, placements);
        if self.config.max_route_hops > 1 {
            // Record the chosen route length of every edge, as the
            // decoupled mapper does (self-dependences are held: 0).
            let hops = dfg
                .edges()
                .iter()
                .map(|e| {
                    if e.src == e.dst {
                        return 0;
                    }
                    let (pu, pv) = (state[e.src.index()].1, state[e.dst.index()].1);
                    self.cgra
                        .hop_distance(PeId::from_index(pu), PeId::from_index(pv))
                        .expect("zero-cost states route every dependence")
                })
                .collect();
            mapping.with_route_hops(hops)
        } else {
            mapping
        }
    }
}

impl Mapper for AnnealingMapper {
    fn engine_id(&self) -> EngineId {
        EngineId::Annealing
    }

    fn map(&self, req: &MapRequest) -> MapReport {
        let cgra = req.cgra.as_ref().unwrap_or(&self.cgra);
        let mut inner =
            AnnealingMapper::with_config(cgra, AnnealingConfig::from_mapper_config(&req.config));
        let result = run_request(req, |flag| {
            inner.set_cancel(flag);
            inner.map_observed(&req.dfg, req.observer.as_deref())
        });
        baseline_report(EngineId::Annealing, req, result)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cgra_dfg::examples::{accumulator, running_example};

    #[test]
    fn accumulator_anneals() {
        let cgra = Cgra::new(2, 2).unwrap();
        let dfg = accumulator();
        let r = AnnealingMapper::new(&cgra).map(&dfg).unwrap();
        r.mapping.validate(&dfg, &cgra).unwrap();
        assert!(r.mapping.ii() >= 2);
    }

    #[test]
    fn running_example_anneals_on_3x3() {
        // On a roomier CGRA the annealer converges reliably.
        let cgra = Cgra::new(3, 3).unwrap();
        let dfg = running_example();
        let r = AnnealingMapper::new(&cgra).map(&dfg).unwrap();
        r.mapping.validate(&dfg, &cgra).unwrap();
        assert!(r.mapping.ii() >= r.stats.mii);
    }

    #[test]
    fn widened_routing_anneals_the_mesh_star() {
        use cgra_arch::Topology;
        use cgra_dfg::{DfgBuilder, Operation as Op};
        // A 6-consumer star saturates a mesh PE's 4 neighbours under
        // the one-hop model; a two-hop route bound relaxes exactly
        // that constraint (mirrors the decoupled mapper's test).
        let cgra = Cgra::with_topology(3, 3, Topology::Mesh).unwrap();
        let mut b = DfgBuilder::new();
        let x = b.input("x");
        let c = b.unary("c", Op::Neg, x);
        for i in 0..6 {
            b.unary(format!("k{i}"), Op::Not, c);
        }
        let dfg = b.build().unwrap();
        let one = AnnealingMapper::new(&cgra).map(&dfg).unwrap();
        let cfg = AnnealingConfig {
            max_route_hops: 2,
            ..Default::default()
        };
        let two = AnnealingMapper::with_config(&cgra, cfg).map(&dfg).unwrap();
        two.mapping.validate_routed(&dfg, &cgra, 2).unwrap();
        assert!(
            two.mapping.ii() <= one.mapping.ii(),
            "k=2 ({}) must never need a larger II than k=1 ({})",
            two.mapping.ii(),
            one.mapping.ii()
        );
        // The routed mapping records its per-edge route lengths; the
        // one-hop mapping stays on the classic wire form.
        assert_eq!(two.mapping.route_hops().len(), dfg.edges().len());
        assert!(two.mapping.route_hops().iter().all(|&d| d <= 2));
        assert!(one.mapping.route_hops().is_empty());
    }

    #[test]
    fn route_bound_carries_over_from_mapper_config() {
        let unified = MapperConfig::new().with_max_route_hops(3).with_max_ii(7);
        let cfg = AnnealingConfig::from_mapper_config(&unified);
        assert_eq!(cfg.max_route_hops, 3);
        assert_eq!(cfg.max_ii, Some(7));
    }

    #[test]
    fn determinism_with_fixed_seed() {
        let cgra = Cgra::new(3, 3).unwrap();
        let dfg = accumulator();
        let a = AnnealingMapper::new(&cgra).map(&dfg).unwrap();
        let b = AnnealingMapper::new(&cgra).map(&dfg).unwrap();
        assert_eq!(a.mapping, b.mapping);
    }

    #[test]
    fn cancel_flag_times_out_annealer() {
        let cgra = Cgra::new(3, 3).unwrap();
        let dfg = running_example();
        let mut mapper = AnnealingMapper::new(&cgra);
        let flag = CancelFlag::new();
        flag.cancel();
        mapper.set_cancel(flag);
        assert!(matches!(mapper.map(&dfg), Err(MapError::Timeout { .. })));
    }

    #[test]
    fn trait_path_matches_native_mapping() {
        // The annealer is seeded, so the trait path (same defaults)
        // reproduces the native mapping exactly.
        let cgra = Cgra::new(3, 3).unwrap();
        let dfg = accumulator();
        let native = AnnealingMapper::new(&cgra).map(&dfg).unwrap();
        let boxed: Box<dyn Mapper> = Box::new(AnnealingMapper::new(&cgra));
        let report = boxed.map(&MapRequest::new(EngineId::Annealing, dfg.clone()));
        assert_eq!(report.mapping.as_ref(), Some(&native.mapping));
    }

    #[test]
    fn cancel_mid_anneal_returns_within_bounded_delay() {
        use std::time::{Duration, Instant};
        // A hopeless instance (a chain that needs neighbours, on a
        // neighbourless 1×1 CGRA) with a huge move budget: uncancelled,
        // the annealer would grind through every II escalation;
        // cancelled at 50 ms it must return promptly.
        let mut b = cgra_dfg::DfgBuilder::new();
        let x = b.input("x");
        let mut cur = x;
        for i in 0..10 {
            cur = b.unary(format!("u{i}"), cgra_dfg::Operation::Neg, cur);
        }
        let dfg = b.build().unwrap();
        let cgra = Cgra::new(1, 1).unwrap();
        let cfg = AnnealingConfig {
            moves_per_temp: 10_000,
            temp_steps: 10_000,
            restarts: 8,
            ..AnnealingConfig::default()
        };
        let flag = CancelFlag::new();
        let mut mapper = AnnealingMapper::with_config(&cgra, cfg);
        mapper.set_cancel(flag.clone());
        let started = Instant::now();
        let result = std::thread::scope(|scope| {
            let watchdog = flag.clone();
            scope.spawn(move || {
                std::thread::sleep(Duration::from_millis(50));
                watchdog.cancel();
            });
            mapper.map(&dfg)
        });
        assert!(
            matches!(result, Err(MapError::Timeout { .. })),
            "{result:?}"
        );
        assert!(
            started.elapsed() < Duration::from_secs(10),
            "cancelled anneal must return promptly, took {:?}",
            started.elapsed()
        );
    }

    #[test]
    fn heterogeneous_grid_respects_capabilities() {
        use cgra_arch::CapabilityProfile;
        use cgra_dfg::examples::stream_scale;
        let cgra = Cgra::new(3, 3)
            .unwrap()
            .with_capability_profile(CapabilityProfile::MemLeftColumn);
        let dfg = stream_scale();
        let r = AnnealingMapper::new(&cgra).map(&dfg).unwrap();
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
        use cgra_dfg::examples::stream_scale;
        let cgra = Cgra::new(2, 2)
            .unwrap()
            .with_pe_capabilities(vec![OpClassSet::only(OpClass::Alu); 4])
            .unwrap();
        assert!(matches!(
            AnnealingMapper::new(&cgra).map(&stream_scale()),
            Err(MapError::UnsupportedOpClass { .. })
        ));
    }

    #[test]
    fn hopeless_instance_reports_no_solution() {
        // More nodes than (PEs x max II) slots cannot fit.
        let mut b = cgra_dfg::DfgBuilder::new();
        let x = b.input("x");
        let mut cur = x;
        for i in 0..10 {
            cur = b.unary(format!("u{i}"), cgra_dfg::Operation::Neg, cur);
        }
        let dfg = b.build().unwrap();
        let cgra = Cgra::new(1, 1).unwrap();
        let cfg = AnnealingConfig {
            max_ii: Some(3),
            temp_steps: 5,
            moves_per_temp: 50,
            restarts: 1,
            ..AnnealingConfig::default()
        };
        // A 1x1 CGRA cannot host a chain that needs neighbours.
        assert!(AnnealingMapper::with_config(&cgra, cfg).map(&dfg).is_err());
    }
}
