//! The routing model: who can feed whom, under a k-hop route bound.
//!
//! The paper's register-file-read model is the `k = 1` case: a value
//! produced on a PE is readable from that PE and its topological
//! neighbours, so dependence endpoints must be co-located or adjacent.
//! Real CGRAs route further — a value can be forwarded through
//! intermediate register files, one hop per cycle — which relaxes the
//! placement constraint to "within `k` hops". [`RoutingModel`] owns
//! that predicate for every consumer of it: the space-phase target
//! construction, the mapping validator, the coupled SAT baseline's
//! placement clauses and the annealer's penalty all ask this one type
//! instead of open-coding adjacency.
//!
//! Two predicates, matching the two timing cases of the MRRG:
//!
//! * [`RoutingModel::connected`] — producer and consumer execute in
//!   the **same kernel slot** (different stage), so the value must
//!   physically move: distance `1..=k`.
//! * [`RoutingModel::reachable`] — different slots, so the value may
//!   also simply stay where it is: distance `0..=k`.
//!
//! The masks are cumulative unions of the per-distance BFS tiers
//! precomputed on the [`Cgra`], cloned into the model so it is
//! self-contained (`'static`, cheaply shareable with engines that own
//! their CGRA).

use crate::cgra::MAX_ROUTE_HOPS;
use crate::{Cgra, PeId, PeSet};

/// The k-hop reachability model over a concrete CGRA. See the module
/// docs.
#[derive(Clone, Debug)]
pub struct RoutingModel {
    max_hops: usize,
    /// `tiers[d - 1][pe]` = PEs at distance exactly `d`, `d ∈ 1..=k`.
    tiers: Vec<Vec<PeSet>>,
    /// Union of tiers `1..=k` per PE.
    reach: Vec<PeSet>,
    /// Union of tiers `1..=k` plus the PE itself.
    reach_with_self: Vec<PeSet>,
}

impl RoutingModel {
    /// Builds the model for routes of at most `max_hops` hops.
    ///
    /// `max_hops = 1` reproduces the paper's adjacency model exactly:
    /// [`RoutingModel::reach_mask`] equals [`Cgra::neighbor_mask`] and
    /// [`RoutingModel::reach_mask_with_self`] equals
    /// [`Cgra::neighbor_mask_with_self`].
    ///
    /// # Panics
    ///
    /// Panics unless `1 <= max_hops <= MAX_ROUTE_HOPS`.
    pub fn new(cgra: &Cgra, max_hops: usize) -> Self {
        assert!(
            (1..=MAX_ROUTE_HOPS).contains(&max_hops),
            "max_route_hops {max_hops} out of range 1..={MAX_ROUTE_HOPS}"
        );
        let n = cgra.num_pes();
        let tiers: Vec<Vec<PeSet>> = (1..=max_hops)
            .map(|d| cgra.pes().map(|pe| cgra.hop_tier(pe, d).clone()).collect())
            .collect();
        let mut reach: Vec<PeSet> = vec![PeSet::new(n); n];
        for tier in &tiers {
            for (idx, t) in tier.iter().enumerate() {
                reach[idx].union_with(t);
            }
        }
        let reach_with_self: Vec<PeSet> = reach
            .iter()
            .enumerate()
            .map(|(idx, r)| {
                let mut m = r.clone();
                m.insert(PeId::from_index(idx));
                m
            })
            .collect();
        RoutingModel {
            max_hops,
            tiers,
            reach,
            reach_with_self,
        }
    }

    /// The route-length bound `k` this model was built with.
    pub fn max_hops(&self) -> usize {
        self.max_hops
    }

    /// PEs within `1..=k` hops of `pe` (excluding `pe` itself): the
    /// placement candidates for a **same-slot** consumer of a value
    /// produced at `pe`.
    pub fn reach_mask(&self, pe: PeId) -> &PeSet {
        &self.reach[pe.index()]
    }

    /// PEs within `0..=k` hops of `pe` (including `pe`): the placement
    /// candidates for a **cross-slot** consumer, which may also read
    /// the value from the producing PE's own register file.
    pub fn reach_mask_with_self(&self, pe: PeId) -> &PeSet {
        &self.reach_with_self[pe.index()]
    }

    /// PEs at distance exactly `hops` from `pe` (`1 <= hops <= k`).
    ///
    /// # Panics
    ///
    /// Panics when `hops` is 0 or exceeds [`RoutingModel::max_hops`].
    pub fn tier(&self, pe: PeId, hops: usize) -> &PeSet {
        assert!(
            (1..=self.max_hops).contains(&hops),
            "tier {hops} out of range 1..={}",
            self.max_hops
        );
        &self.tiers[hops - 1][pe.index()]
    }

    /// Same-slot feed predicate: can a value produced on `a` reach a
    /// consumer executing on `b` in the same kernel slot? True exactly
    /// when their distance is in `1..=k`.
    pub fn connected(&self, a: PeId, b: PeId) -> bool {
        self.reach[a.index()].contains(b)
    }

    /// Cross-slot feed predicate: distance in `0..=k` (the value may
    /// be held in `a`'s own register file).
    pub fn reachable(&self, a: PeId, b: PeId) -> bool {
        self.reach_with_self[a.index()].contains(b)
    }

    /// One PE per orbit of the grid symmetries that this model
    /// *verifies*: the lowest-indexed PE of every class of PEs the
    /// symmetries carry onto one another.
    ///
    /// The candidates are the unit row and column translations, the two
    /// reflections and (on square grids) the transpose. A candidate is
    /// kept only if it maps every distance tier of every PE onto the
    /// same tier of the image PE and preserves every capability mask, so
    /// the kept ones are automorphisms of the routed,
    /// capability-labelled PE graph whatever the topology, route bound
    /// or capability profile; orbits are the connected components of
    /// "some kept candidate maps `p` to `q`". A homogeneous torus has
    /// one orbit (PE 0); a grid with no surviving candidate has one per
    /// PE.
    ///
    /// `cgra` must be the CGRA the model was built from.
    pub fn orbit_representatives(&self, cgra: &Cgra) -> PeSet {
        let n = cgra.num_pes();
        assert_eq!(n, self.reach.len(), "the model's own CGRA");
        let mut leader: Vec<usize> = (0..n).collect();
        fn find(leader: &mut [usize], mut p: usize) -> usize {
            while leader[p] != p {
                leader[p] = leader[leader[p]];
                p = leader[p];
            }
            p
        }
        for sigma in self.symmetries(cgra) {
            for (p, &q) in sigma.iter().enumerate() {
                let (a, b) = (find(&mut leader, p), find(&mut leader, q));
                // The lower index leads, so a leader is its orbit's minimum.
                leader[a.max(b)] = a.min(b);
            }
        }
        let mut reps = PeSet::new(n);
        for p in 0..n {
            if find(&mut leader, p) == p {
                reps.insert(PeId::from_index(p));
            }
        }
        reps
    }

    /// The candidate grid symmetries (as PE permutations) that are
    /// automorphisms of every tier and every capability mask.
    fn symmetries(&self, cgra: &Cgra) -> Vec<Vec<usize>> {
        let (rows, cols) = (cgra.rows(), cgra.cols());
        let image = |candidate: usize, (r, c): (usize, usize)| match candidate {
            0 => ((r + 1) % rows, c),
            1 => (r, (c + 1) % cols),
            2 => (rows - 1 - r, c),
            3 => (r, cols - 1 - c),
            _ => (c, r),
        };
        // The transpose only maps a square grid onto itself.
        let candidates = if rows == cols { 5 } else { 4 };
        (0..candidates)
            .map(|candidate| -> Vec<usize> {
                cgra.pes()
                    .map(|pe| {
                        let (r, c) = image(candidate, cgra.coords(pe));
                        cgra.pe(r, c).index()
                    })
                    .collect()
            })
            .filter(|sigma| {
                cgra.pes().all(|pe| {
                    let image = PeId::from_index(sigma[pe.index()]);
                    cgra.capability(pe) == cgra.capability(image)
                        && self.tiers.iter().all(|tier| {
                            let (from, to) = (&tier[pe.index()], &tier[image.index()]);
                            from.len() == to.len()
                                && from
                                    .iter()
                                    .all(|q| to.contains(PeId::from_index(sigma[q.index()])))
                        })
                })
            })
            .collect()
    }

    /// Shortest-path distance, when within the model's bound: `Some(0)`
    /// for `a == b`, `Some(d)` for routed pairs, `None` beyond `k`.
    pub fn distance(&self, a: PeId, b: PeId) -> Option<usize> {
        if a == b {
            return Some(0);
        }
        self.tiers
            .iter()
            .position(|tier| tier[a.index()].contains(b))
            .map(|i| i + 1)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Topology;

    #[test]
    fn k1_masks_equal_adjacency_masks_on_random_grids() {
        // The refactor's anchor, checked the house way (the workspace
        // has no property-testing dependency by design): a hand-rolled
        // xorshift draws random grid shapes, and on every one, for all
        // three topologies, the k=1 model must reproduce the legacy
        // adjacency masks bit for bit.
        let mut state: u64 = 0x9e3779b97f4a7c15;
        let mut rng = move || {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            state
        };
        for _ in 0..40 {
            let rows = (rng() % 7 + 1) as usize;
            let cols = (rng() % 7 + 1) as usize;
            for topo in [Topology::Torus, Topology::Mesh, Topology::Diagonal] {
                let cgra = Cgra::with_topology(rows, cols, topo).unwrap();
                let model = RoutingModel::new(&cgra, 1);
                for pe in cgra.pes() {
                    assert_eq!(
                        model.reach_mask(pe).iter().collect::<Vec<_>>(),
                        cgra.neighbor_mask(pe).iter().collect::<Vec<_>>(),
                        "{rows}x{cols} {topo} {pe}: reach mask"
                    );
                    assert_eq!(
                        model.reach_mask_with_self(pe).iter().collect::<Vec<_>>(),
                        cgra.neighbor_mask_with_self(pe).iter().collect::<Vec<_>>(),
                        "{rows}x{cols} {topo} {pe}: reach-with-self mask"
                    );
                    for q in cgra.pes() {
                        assert_eq!(model.connected(pe, q), cgra.adjacent(pe, q));
                        assert_eq!(model.reachable(pe, q), cgra.reachable(pe, q));
                    }
                }
            }
        }
    }

    #[test]
    fn k2_reaches_the_mesh_knights_move() {
        // 3x3 mesh: corner (0,0) to centre-adjacent (1,1) is 2 hops.
        let cgra = Cgra::with_topology(3, 3, Topology::Mesh).unwrap();
        let model = RoutingModel::new(&cgra, 2);
        let (a, b) = (cgra.pe(0, 0), cgra.pe(1, 1));
        assert!(!RoutingModel::new(&cgra, 1).connected(a, b));
        assert!(model.connected(a, b));
        assert_eq!(model.distance(a, b), Some(2));
        // Far corner stays out of reach at k=2 (distance 4)...
        assert!(!model.connected(a, cgra.pe(2, 2)));
        assert_eq!(model.distance(a, cgra.pe(2, 2)), None);
        // ...and comes into reach at k=4.
        assert!(RoutingModel::new(&cgra, 4).connected(a, cgra.pe(2, 2)));
    }

    #[test]
    fn masks_are_cumulative_unions_of_tiers() {
        let cgra = Cgra::with_topology(4, 4, Topology::Mesh).unwrap();
        for k in 1..=MAX_ROUTE_HOPS {
            let model = RoutingModel::new(&cgra, k);
            for pe in cgra.pes() {
                let mut expect: Vec<PeId> =
                    (1..=k).flat_map(|d| cgra.hop_tier(pe, d).iter()).collect();
                expect.sort_unstable();
                let mut got: Vec<PeId> = model.reach_mask(pe).iter().collect();
                got.sort_unstable();
                assert_eq!(got, expect, "k={k} {pe}");
                assert!(!model.reach_mask(pe).contains(pe));
                assert!(model.reach_mask_with_self(pe).contains(pe));
                assert!(model.reachable(pe, pe));
                assert!(!model.connected(pe, pe));
            }
        }
    }

    #[test]
    fn kept_symmetries_are_automorphisms_of_every_tier_and_mask() {
        use crate::CapabilityProfile;
        for (rows, cols) in [(2, 2), (3, 3), (3, 4), (4, 4), (5, 2)] {
            for topo in [Topology::Torus, Topology::Mesh, Topology::Diagonal] {
                for profile in CapabilityProfile::ALL {
                    let cgra = Cgra::with_topology(rows, cols, topo)
                        .unwrap()
                        .with_capability_profile(profile);
                    for k in 1..=3 {
                        let model = RoutingModel::new(&cgra, k);
                        for sigma in model.symmetries(&cgra) {
                            let at = |pe: PeId| PeId::from_index(sigma[pe.index()]);
                            let mut image: Vec<usize> = sigma.clone();
                            image.sort_unstable();
                            assert!(image.into_iter().eq(0..cgra.num_pes()), "a permutation");
                            for p in cgra.pes() {
                                assert_eq!(cgra.capability(p), cgra.capability(at(p)));
                                for q in cgra.pes() {
                                    assert_eq!(
                                        model.distance(p, q),
                                        model.distance(at(p), at(q)),
                                        "{rows}x{cols} {topo} {profile:?} k={k}: {p} {q}"
                                    );
                                }
                            }
                        }
                    }
                }
            }
        }
    }

    #[test]
    fn orbits_follow_the_grid_symmetry() {
        use crate::CapabilityProfile;
        let reps = |cgra: &Cgra, k| -> Vec<usize> {
            RoutingModel::new(cgra, k)
                .orbit_representatives(cgra)
                .iter()
                .map(PeId::index)
                .collect()
        };
        // Corner, edge, centre.
        let mesh = Cgra::with_topology(3, 3, Topology::Mesh).unwrap();
        assert_eq!(reps(&mesh, 1), [0, 1, 4]);
        assert_eq!(reps(&mesh, 2), [0, 1, 4]);
        // Translations carry every PE of a homogeneous torus to PE 0.
        let torus = Cgra::new(4, 4).unwrap();
        assert_eq!(reps(&torus, 1), [0]);
        // A memory column breaks the column translation: row translations
        // and the row reflection remain, so orbits are whole columns and
        // the memory column (col 0) stays apart from the others.
        let mem = Cgra::new(4, 4)
            .unwrap()
            .with_capability_profile(CapabilityProfile::MemLeftColumn);
        assert_eq!(reps(&mem, 1), [0, 1, 2, 3]);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn zero_hops_is_rejected() {
        let cgra = Cgra::new(2, 2).unwrap();
        let _ = RoutingModel::new(&cgra, 0);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn beyond_the_bound_is_rejected() {
        let cgra = Cgra::new(2, 2).unwrap();
        let _ = RoutingModel::new(&cgra, MAX_ROUTE_HOPS + 1);
    }
}
