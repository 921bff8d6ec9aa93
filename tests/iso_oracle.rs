//! The propagating monomorphism search against exhaustive placement.
//!
//! On every grid up to 3×3 × {torus, mesh, diagonal} × {homogeneous,
//! memory in the left column} × route bound {1, 2}, a few hundred
//! random patterns are placed four ways: by brute force over the dense
//! [`build_target`] MRRG, by the search over that same dense target,
//! and by the search over the layered form the mapper uses, with and
//! without the PE-orbit restriction on the first vertex. All four must
//! agree on whether the pattern embeds — `Exhausted` on an embeddable
//! instance would silently raise an II — and every map found must be a
//! monomorphism into the dense MRRG.

use monomap::arch::{CapabilityProfile, Cgra, OpClass, RoutingModel, Topology};
use monomap::base::DenseBitSet;
use monomap::core::build_target;
use monomap::iso::{
    is_monomorphism, LayeredTarget, MonoOutcome, Pattern, SearchConfig, Searcher, Target,
};

/// The mapper's II-independent target, with or without its orbit roots.
fn layered(cgra: &Cgra, hops: usize, with_roots: bool) -> LayeredTarget {
    let routing = RoutingModel::new(cgra, hops);
    let rows = |cross: bool| -> Vec<DenseBitSet> {
        cgra.pes()
            .map(|pe| match cross {
                false => routing.reach_mask(pe).as_raw().clone(),
                true => routing.reach_mask_with_self(pe).as_raw().clone(),
            })
            .collect()
    };
    let caps = cgra.pes().map(|pe| cgra.capability(pe).bits() as u32);
    let target = LayeredTarget::new(rows(false), rows(true), caps.collect());
    match with_roots {
        true => target.with_roots(routing.orbit_representatives(cgra).as_raw().clone()),
        false => target,
    }
}

/// Does `pattern` embed in `target`? Vertices in index order, every
/// target vertex tried, each choice checked against the placed prefix.
fn embeds(pattern: &Pattern, target: &Target, map: &mut Vec<usize>) -> bool {
    let u = map.len();
    if u == pattern.num_vertices() {
        return true;
    }
    let req = pattern.requirement(u);
    for t in 0..target.num_vertices() {
        let fits = target.label(t) == pattern.label(u)
            && target.capability(t) & req == req
            && !map.contains(&t)
            && pattern
                .neighbors(u)
                .iter()
                .all(|&w| w >= u || target.adjacent(map[w], t));
        if fits {
            map.push(t);
            if embeds(pattern, target, map) {
                return true;
            }
            map.pop();
        }
    }
    false
}

#[test]
fn search_agrees_with_exhaustive_placement_on_small_grids() {
    let mut state = 0x9e37_79b9_7f4a_7c15u64;
    let mut next = move |n: usize| {
        state ^= state << 13;
        state ^= state >> 7;
        state ^= state << 17;
        (state % n as u64) as usize
    };
    let classes = [OpClass::Alu, OpClass::Alu, OpClass::Mul, OpClass::Mem];
    let (mut embeddable, mut refuted) = (0, 0);
    for rows in 1..=3 {
        for cols in 1..=3 {
            for topo in [Topology::Torus, Topology::Mesh, Topology::Diagonal] {
                for profile in [
                    CapabilityProfile::Homogeneous,
                    CapabilityProfile::MemLeftColumn,
                ] {
                    let cgra = Cgra::with_topology(rows, cols, topo)
                        .unwrap()
                        .with_capability_profile(profile);
                    for hops in [1, 2] {
                        let with_roots = layered(&cgra, hops, true);
                        let without_roots = layered(&cgra, hops, false);
                        for trial in 0..200 {
                            let ii = 1 + next(3);
                            let np = 1 + next(7);
                            let labels = (0..np).map(|_| next(ii) as u32).collect();
                            let density = 2 + next(3);
                            let mut edges = Vec::new();
                            for a in 0..np {
                                for b in a + 1..np {
                                    if next(density) == 0 {
                                        edges.push((a, b));
                                    }
                                }
                            }
                            let reqs = (0..np).map(|_| classes[next(4)].bit() as u32);
                            let pattern =
                                Pattern::new(labels, edges).with_requirements(reqs.collect());
                            let dense = build_target(&cgra, ii, hops);
                            let expected = embeds(&pattern, &dense, &mut Vec::new());
                            let config = SearchConfig::unlimited;
                            let runs = [
                                Searcher::new(&pattern, &dense).run(),
                                Searcher::layered(&pattern, &without_roots, config()).run(),
                                Searcher::layered(&pattern, &with_roots, config()).run(),
                            ];
                            for (which, outcome) in runs.into_iter().enumerate() {
                                let at = format!(
                                    "{rows}x{cols} {topo} {profile} k={hops} trial {trial} \
                                     ii={ii} search {which}: {pattern:?}"
                                );
                                match outcome {
                                    MonoOutcome::Found(map) => {
                                        assert!(expected, "found a map where none exists: {at}");
                                        assert!(is_monomorphism(&pattern, &dense, &map), "{at}");
                                    }
                                    MonoOutcome::Exhausted => {
                                        assert!(!expected, "missed an embedding: {at}")
                                    }
                                    other => panic!("{other:?} without a limit: {at}"),
                                }
                            }
                            match expected {
                                true => embeddable += 1,
                                false => refuted += 1,
                            }
                        }
                    }
                }
            }
        }
    }
    // The generator must exercise both answers.
    assert!(
        embeddable > 2000 && refuted > 2000,
        "{embeddable} / {refuted}"
    );
}
