//! Construction of the monomorphism problem from a time solution
//! (paper §IV-C): the scheduled DFG becomes the pattern, the MRRG the
//! target — plus the [`SpaceEngine`] that holds the target in its
//! II-independent layered form.

use cgra_arch::{Cgra, Mrrg, PeId, PeSet, RoutingModel};
use cgra_base::{CancelFlag, DenseBitSet};
use cgra_dfg::Dfg;
use cgra_iso::{LayeredTarget, MonoOutcome, Pattern, SearchConfig, Searcher, Target};
use cgra_sched::TimeSolution;

/// Builds the undirected labelled pattern graph from the DFG and its
/// time solution: labels are kernel slots (`l_G(v) = T_v mod II`), edge
/// direction is dropped, self edges vanish (paper §IV-B: "the
/// directionality of the edges becomes redundant and is removed").
///
/// Each vertex additionally carries its operation class as a
/// requirement mask, matched against the per-PE capability masks of the
/// target: on heterogeneous CGRAs the search's candidate domains are
/// *compatibility-filtered* up front (an op lands only on PEs whose
/// functional units cover it), which shrinks the space instead of
/// growing it. On homogeneous CGRAs every PE carries the full mask, so
/// the domains — and therefore the search — are exactly what they were
/// without capabilities.
pub fn build_pattern(dfg: &Dfg, solution: &TimeSolution) -> Pattern {
    let labels: Vec<u32> = dfg.nodes().map(|v| solution.slot(v) as u32).collect();
    let edges: Vec<(usize, usize)> = dfg
        .edges()
        .iter()
        .filter(|e| e.src != e.dst)
        .map(|e| (e.src.index(), e.dst.index()))
        .collect();
    let requirements: Vec<u32> = dfg
        .nodes()
        .map(|v| dfg.op(v).op_class().bit() as u32)
        .collect();
    Pattern::new(labels, edges).with_requirements(requirements)
}

/// Builds the MRRG as a *dense* monomorphism target under a k-hop
/// routing model: vertex `slot · |PEs| + pe` carries label `slot`, and
/// the edge relation is assembled from the per-distance reachability
/// rows of a [`RoutingModel`] as distance tiers (tier 0: the held-value
/// relation — the same PE in every other slot; tier `d`: the PEs at
/// exactly `d` topology hops, in every slot for cross-slot pairs and
/// excluding the producer's own slot only at `d = 0`). The cumulative
/// union of the tiers is the search relation, so at `k = 1` it is
/// exactly the classic register-file-readability relation of [`Mrrg`]:
/// same-slot pairs must be neighbours, cross-slot pairs may also share
/// the PE. Every vertex also carries its PE's capability bitmask, the
/// counterpart of [`build_pattern`]'s requirement masks.
///
/// The mapper does not search this form — `|PEs|·II` rows of `|PEs|·II`
/// bits repeat the same two `|PEs|`-row relations `II²` times, which
/// [`SpaceEngine`] holds once. It stays as the oracle that form is
/// tested against ([`target_matches_mrrg`], `tests/iso_oracle.rs`).
pub fn build_target(cgra: &Cgra, ii: usize, max_route_hops: usize) -> Target {
    let routing = RoutingModel::new(cgra, max_route_hops);
    let n = cgra.num_pes();
    let total = n * ii;
    let labels: Vec<u32> = (0..total).map(|i| (i / n) as u32).collect();
    let caps: Vec<u32> = (0..ii)
        .flat_map(|_| cgra.pes().map(|pe| cgra.capability(pe).bits() as u32))
        .collect();
    let mut tiers = Vec::with_capacity(routing.max_hops() + 1);
    let mut tier0 = Vec::with_capacity(total);
    for slot in 0..ii {
        for pe in cgra.pes() {
            let mut row = DenseBitSet::new(total);
            for other in 0..ii {
                if other != slot {
                    row.insert(other * n + pe.index());
                }
            }
            tier0.push(row);
        }
    }
    tiers.push(tier0);
    for d in 1..=routing.max_hops() {
        let mut tier = Vec::with_capacity(total);
        for _slot in 0..ii {
            for pe in cgra.pes() {
                let mut row = DenseBitSet::new(total);
                for other in 0..ii {
                    let base = other * n;
                    for q in routing.tier(pe, d).iter() {
                        row.insert(base + q.index());
                    }
                }
                tier.push(row);
            }
        }
        tiers.push(tier);
    }
    Target::from_tiers(labels, tiers).with_capabilities(caps)
}

/// Outcome of one space-phase attempt.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum SpaceOutcome {
    /// `map[v]` is the MRRG vertex index of node `v`.
    Found(Vec<usize>),
    /// The search space was exhausted without a monomorphism.
    Exhausted,
    /// The step budget ran out.
    LimitReached,
    /// The cancellation flag interrupted the search.
    Cancelled,
}

impl From<MonoOutcome> for SpaceOutcome {
    fn from(o: MonoOutcome) -> Self {
        match o {
            MonoOutcome::Found(map) => SpaceOutcome::Found(map),
            MonoOutcome::Exhausted => SpaceOutcome::Exhausted,
            MonoOutcome::LimitReached => SpaceOutcome::LimitReached,
            MonoOutcome::Cancelled => SpaceOutcome::Cancelled,
        }
    }
}

/// The reusable space-phase engine.
///
/// An MRRG vertex's slot is its label, and whether two vertices are
/// related depends only on their PEs and on whether they share a slot.
/// The engine therefore holds the MRRG as a [`LayeredTarget`]: the
/// routing model's two `|PEs|`-row relations
/// ([`RoutingModel::reach_mask`] within a slot,
/// [`RoutingModel::reach_mask_with_self`] across slots) and one
/// capability mask per PE. That structure does not depend on the II, so
/// one engine serves every II, slack level and time solution of every
/// request on its CGRA and route bound ([`crate::DecoupledMapper`]
/// keeps one per bound), search domains are `|PEs|` bits wide at any
/// II, and nothing is sized `|PEs|·II`.
///
/// The first vertex a search places tries one PE per orbit of the
/// CGRA's verified symmetries
/// ([`RoutingModel::orbit_representatives`]): every other choice is the
/// image of one of those under an automorphism of the MRRG, so it would
/// only repeat the same subtree.
pub struct SpaceEngine {
    target: LayeredTarget,
}

impl SpaceEngine {
    /// An engine for `cgra` under the paper's one-hop routing model.
    pub fn new(cgra: &Cgra) -> Self {
        SpaceEngine::with_route_hops(cgra, 1)
    }

    /// An engine whose target relates vertices up to `max_route_hops`
    /// topology hops apart.
    ///
    /// # Panics
    ///
    /// Panics unless `1 <= max_route_hops <= MAX_ROUTE_HOPS`.
    pub fn with_route_hops(cgra: &Cgra, max_route_hops: usize) -> Self {
        let routing = RoutingModel::new(cgra, max_route_hops);
        let rows = |mask: fn(&RoutingModel, PeId) -> &PeSet| -> Vec<DenseBitSet> {
            cgra.pes()
                .map(|pe| mask(&routing, pe).as_raw().clone())
                .collect()
        };
        let target = LayeredTarget::new(
            rows(RoutingModel::reach_mask),
            rows(RoutingModel::reach_mask_with_self),
            cgra.pes()
                .map(|pe| cgra.capability(pe).bits() as u32)
                .collect(),
        )
        .with_roots(routing.orbit_representatives(cgra).as_raw().clone());
        SpaceEngine { target }
    }

    /// Runs the monomorphism search for one time solution, with a step
    /// budget and an optional cancellation flag polled inside the
    /// search.
    ///
    /// Returns the outcome along with the number of search steps taken.
    pub fn search(
        &self,
        dfg: &Dfg,
        solution: &TimeSolution,
        step_limit: u64,
        cancel: Option<&CancelFlag>,
    ) -> (SpaceOutcome, u64) {
        let pattern = build_pattern(dfg, solution);
        let mut config = SearchConfig::steps(step_limit);
        if let Some(flag) = cancel {
            config = config.with_cancel_flag(flag.clone());
        }
        let mut searcher = Searcher::layered(&pattern, &self.target, config);
        let outcome = SpaceOutcome::from(searcher.run());
        (outcome, searcher.stats().steps)
    }
}

/// Runs the monomorphism search for one time solution.
///
/// Returns the found map along with the number of search steps taken.
/// One-shot convenience over [`SpaceEngine`].
pub fn space_search(
    dfg: &Dfg,
    cgra: &Cgra,
    solution: &TimeSolution,
    step_limit: u64,
    cancel: Option<&CancelFlag>,
) -> (SpaceOutcome, u64) {
    SpaceEngine::new(cgra).search(dfg, solution, step_limit, cancel)
}

/// Verifies that [`build_target`] agrees with the [`Mrrg`] reachability
/// oracle at the given route bound (used by tests: the dense target is
/// in turn what the engine's layered form is checked against).
pub fn target_matches_mrrg(cgra: &Cgra, ii: usize, max_route_hops: usize) -> bool {
    let target = build_target(cgra, ii, max_route_hops);
    let mrrg = Mrrg::with_route_hops(cgra, ii, max_route_hops);
    if target.num_vertices() != mrrg.num_vertices() {
        return false;
    }
    for a in 0..target.num_vertices() {
        let va = mrrg.vertex_at(a);
        if target.label(a) as usize != mrrg.label(va) {
            return false;
        }
        for b in 0..target.num_vertices() {
            if target.adjacent(a, b) != mrrg.adjacent(va, mrrg.vertex_at(b)) {
                return false;
            }
        }
    }
    true
}

#[cfg(test)]
mod tests {
    use super::*;
    use cgra_arch::Topology;
    use cgra_dfg::examples::running_example;
    use cgra_sched::{TimeSolver, TimeSolverConfig};

    #[test]
    fn target_agrees_with_mrrg_oracle() {
        for topo in [Topology::Torus, Topology::Mesh] {
            let cgra = Cgra::with_topology(2, 2, topo).unwrap();
            assert!(target_matches_mrrg(&cgra, 3, 1), "{topo} 2x2 II=3");
        }
        let cgra = Cgra::new(3, 3).unwrap();
        assert!(target_matches_mrrg(&cgra, 2, 1), "torus 3x3 II=2");
    }

    #[test]
    fn routed_target_agrees_with_mrrg_oracle() {
        for topo in [Topology::Torus, Topology::Mesh, Topology::Diagonal] {
            let cgra = Cgra::with_topology(3, 3, topo).unwrap();
            for k in [2, 3] {
                assert!(target_matches_mrrg(&cgra, 2, k), "{topo} 3x3 II=2 k={k}");
            }
        }
    }

    #[test]
    fn routed_target_records_route_lengths() {
        // 3x3 mesh, II=2: corner PE0 to centre PE4 is 2 hops.
        let cgra = Cgra::with_topology(3, 3, Topology::Mesh).unwrap();
        let n = cgra.num_pes();
        let t = build_target(&cgra, 2, 2);
        assert_eq!(t.route_length(0, 1), Some(1), "same slot, adjacent");
        assert_eq!(t.route_length(0, 4), Some(2), "same slot, knight");
        assert_eq!(t.route_length(0, n), Some(0), "held value across slots");
        assert_eq!(t.route_length(0, n + 4), Some(2), "cross slot, 2 hops");
        assert_eq!(t.route_length(0, 8), None, "far corner beyond k=2");
        // k=1 targets only relate adjacency; the same pair vanishes.
        let t1 = build_target(&cgra, 2, 1);
        assert!(!t1.adjacent(0, 4));
        assert_eq!(t1.route_length(0, 4), None);
    }

    #[test]
    fn pattern_drops_direction_and_self_edges() {
        let dfg = running_example();
        let cgra = Cgra::new(2, 2).unwrap();
        let cfg = TimeSolverConfig::for_cgra(&cgra);
        let sol = TimeSolver::new(&dfg, 4, cfg).unwrap().solve().unwrap();
        let p = build_pattern(&dfg, &sol);
        assert_eq!(p.num_vertices(), 14);
        // 15 directed edges, no duplicates between the same pair, no
        // self edges in the running example.
        assert_eq!(p.num_edges(), 15);
        for v in dfg.nodes() {
            assert_eq!(p.label(v.index()) as usize, sol.slot(v));
        }
    }

    #[test]
    fn running_example_space_solution_exists() {
        // The paper's Fig. 4: a monomorphism exists for the running
        // example at II = 4 on the 2×2 CGRA.
        let dfg = running_example();
        let cgra = Cgra::new(2, 2).unwrap();
        let cfg = TimeSolverConfig::for_cgra(&cgra);
        let sol = TimeSolver::new(&dfg, 4, cfg).unwrap().solve().unwrap();
        let (outcome, steps) = space_search(&dfg, &cgra, &sol, 1_000_000, None);
        assert!(matches!(outcome, SpaceOutcome::Found(_)), "{outcome:?}");
        assert!(steps > 0);
    }

    #[test]
    fn engine_search_matches_one_shot_search() {
        let dfg = running_example();
        let cgra = Cgra::new(2, 2).unwrap();
        let cfg = TimeSolverConfig::for_cgra(&cgra);
        let sol = TimeSolver::new(&dfg, 4, cfg).unwrap().solve().unwrap();
        let engine = SpaceEngine::new(&cgra);
        let (a, steps_a) = engine.search(&dfg, &sol, 1_000_000, None);
        let (b, steps_b) = engine.search(&dfg, &sol, 1_000_000, None);
        let (c, steps_c) = space_search(&dfg, &cgra, &sol, 1_000_000, None);
        assert_eq!(a, b, "engine search is deterministic across reuse");
        assert_eq!(a, c, "a fresh engine gives the same result");
        assert_eq!(steps_a, steps_b);
        assert_eq!(steps_a, steps_c);
    }

    #[test]
    fn engine_search_observes_cancel_flag() {
        let dfg = running_example();
        let cgra = Cgra::new(2, 2).unwrap();
        let cfg = TimeSolverConfig::for_cgra(&cgra);
        let sol = TimeSolver::new(&dfg, 4, cfg).unwrap().solve().unwrap();
        let flag = CancelFlag::new();
        flag.cancel();
        let engine = SpaceEngine::new(&cgra);
        let (outcome, steps) = engine.search(&dfg, &sol, 1_000_000, Some(&flag));
        assert_eq!(outcome, SpaceOutcome::Cancelled);
        assert_eq!(steps, 0);
    }

    #[test]
    fn heterogeneous_target_filters_domains() {
        use cgra_arch::{CapabilityProfile, OpClass};
        use cgra_dfg::{DfgBuilder, Operation as Op};
        let mut b = DfgBuilder::new();
        let x = b.input("x");
        let ld = b.load("ld", x);
        b.output("o", ld);
        let dfg = b.build().unwrap();
        let cgra = Cgra::new(3, 3)
            .unwrap()
            .with_capability_profile(CapabilityProfile::MemLeftColumn);
        let cfg = TimeSolverConfig::for_cgra(&cgra).with_window_slack(1);
        let sol = TimeSolver::new(&dfg, 2, cfg).unwrap().solve().unwrap();
        let (outcome, _) = space_search(&dfg, &cgra, &sol, 1_000_000, None);
        let SpaceOutcome::Found(map) = outcome else {
            panic!("mem-left-column hosts one load: {outcome:?}");
        };
        // The load must sit in the memory column (PE index % 3 == 0).
        let n = cgra.num_pes();
        let load_pe = map[1] % n;
        assert_eq!(load_pe % 3, 0, "load on PE{load_pe} outside the mem column");
        assert_eq!(dfg.op(cgra_dfg::NodeId::from_index(1)), Op::Load);
        assert_eq!(cgra.providers(OpClass::Mem), 3);
    }

    #[test]
    fn homogeneous_target_capabilities_accept_everything() {
        // On a homogeneous grid every target vertex carries the full
        // mask, so requirement filtering removes nothing and the search
        // is unchanged.
        let cgra = Cgra::new(2, 2).unwrap();
        let t = build_target(&cgra, 2, 1);
        for v in 0..t.num_vertices() {
            assert_eq!(t.capability(v), cgra_arch::OpClassSet::all().bits() as u32);
        }
    }

    #[test]
    fn target_sizes() {
        let cgra = Cgra::new(4, 4).unwrap();
        let t = build_target(&cgra, 5, 1);
        assert_eq!(t.num_vertices(), 80);
        // Uniform torus: same-slot degree 4, cross-slot 5 each.
        assert_eq!(t.degree(0), 4 + 4 * 5);
        // k=2 on the 4x4 torus adds the 6 distance-2 PEs (2 straight
        // wraps + 4 diagonal steps): 10 reachable per slot.
        let t2 = build_target(&cgra, 5, 2);
        assert_eq!(t2.degree(0), 10 + 4 * 11);
    }
}
