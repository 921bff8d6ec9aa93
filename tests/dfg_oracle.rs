//! The linear DFG checks against their `O(V·E)` references
//! (`tests/common/reference.rs`): validation must return the same
//! first error and canonicalization the same bytes and permutation —
//! including where the work budget cuts a symmetric graph short — on
//! the suite kernels under renumbering, on faulty variants of them, and
//! on highly symmetric rings and stars.

mod common;

use std::collections::BTreeSet;

use common::{assert_matches_reference, reference, with_edges, with_random_faults, XorShift};
use monomap::dfg::{DfgError, Edge};
use monomap::prelude::*;

/// Random faulty variants per suite kernel and fault count. The full
/// count runs under `--release` (as the CI release batteries do).
#[cfg(debug_assertions)]
const FAULTY_VARIANTS: u64 = 12;
#[cfg(not(debug_assertions))]
const FAULTY_VARIANTS: u64 = 120;

/// Numberings of each symmetric graph (the first is as built).
#[cfg(debug_assertions)]
const SYMMETRIC_NUMBERINGS: u64 = 1;
#[cfg(not(debug_assertions))]
const SYMMETRIC_NUMBERINGS: u64 = 4;

fn variant_name(err: &DfgError) -> &'static str {
    match err {
        DfgError::DataCycle { .. } => "DataCycle",
        DfgError::MissingOperand { .. } => "MissingOperand",
        DfgError::DuplicateOperand { .. } => "DuplicateOperand",
        DfgError::OperandOutOfRange { .. } => "OperandOutOfRange",
        DfgError::SelfDataEdge { .. } => "SelfDataEdge",
        DfgError::ZeroDistance { .. } => "ZeroDistance",
        DfgError::LoopCarriedIntoNonPhi { .. } => "LoopCarriedIntoNonPhi",
        DfgError::UnknownNode { .. } => "UnknownNode",
    }
}

#[test]
fn suite_kernels_under_renumbering_match_the_reference() {
    for dfg in suite::generate_all() {
        for seed in 0..16 {
            let g = if seed == 0 {
                dfg.clone()
            } else {
                common::renumbered(&dfg, seed)
            };
            let (verdict, work) = assert_matches_reference(&g, &format!("{} #{seed}", g.name()));
            assert_eq!(verdict, Ok(()), "{}", g.name());
            assert!(work.unwrap() < reference::WORK_LIMIT, "{}", g.name());
        }
    }
}

#[test]
fn faulty_kernels_report_the_reference_first_error() {
    let mut seen = BTreeSet::new();
    let mut multi_fault_errors = 0;
    let mut rng = XorShift(0x5eed_0ffa_1700);
    for dfg in suite::generate_all() {
        // One targeted fault per variant the random draws reach least
        // often: a data cycle closed through an existing operand slot
        // and a self data edge into a fed slot.
        let edges = dfg.edges();
        let last = edges.len() - 1;
        let mut cycle = edges.to_vec();
        let first = edges
            .iter()
            .position(|e| e.kind == EdgeKind::Data)
            .expect("every kernel has a data edge");
        if let Some(back) = edges.iter().find(|e| e.src == edges[first].dst) {
            cycle[first].src = back.dst;
        }
        let mut self_edge = edges.to_vec();
        self_edge[last].src = self_edge[last].dst;
        self_edge[last].kind = EdgeKind::Data;
        for (i, g) in [with_edges(&dfg, &cycle), with_edges(&dfg, &self_edge)]
            .iter()
            .enumerate()
        {
            if let (Err(err), _) =
                assert_matches_reference(g, &format!("{} targeted {i}", g.name()))
            {
                seen.insert(variant_name(&err));
            }
        }
        for faults in 1..=3 {
            for i in 0..FAULTY_VARIANTS {
                let g = with_random_faults(&dfg, &mut rng, faults);
                let what = format!("{} with {faults} fault(s) #{i}", g.name());
                if let (Err(err), _) = assert_matches_reference(&g, &what) {
                    seen.insert(variant_name(&err));
                    if faults > 1 {
                        multi_fault_errors += 1;
                    }
                }
            }
        }
    }
    let all = [
        "DataCycle",
        "DuplicateOperand",
        "LoopCarriedIntoNonPhi",
        "MissingOperand",
        "OperandOutOfRange",
        "SelfDataEdge",
        "UnknownNode",
        "ZeroDistance",
    ];
    assert_eq!(
        seen.into_iter().collect::<Vec<_>>(),
        all,
        "every DfgError variant is compared"
    );
    assert!(
        multi_fault_errors > 100,
        "only {multi_fault_errors} multi-fault graphs were rejected"
    );
}

/// `n` φ nodes in a ring of loop-carried edges: valid, and rotationally
/// symmetric, so refinement never splits it.
fn phi_ring(n: usize) -> Dfg {
    let mut g = Dfg::new("ring");
    let phis: Vec<NodeId> = (0..n)
        .map(|i| g.add_node(Operation::Phi(0), format!("p{i}")))
        .collect();
    for i in 0..n {
        g.add_edge(
            phis[i],
            phis[(i + 1) % n],
            0,
            EdgeKind::LoopCarried { distance: 1 },
        );
    }
    g
}

/// One input feeding `leaves` identical negations.
fn star(leaves: usize) -> Dfg {
    let mut g = Dfg::new("star");
    let hub = g.add_node(Operation::Input(0), "hub");
    for i in 0..leaves {
        let leaf = g.add_node(Operation::Neg, format!("l{i}"));
        g.add_edge(hub, leaf, 0, EdgeKind::Data);
    }
    g
}

/// `pairs` disjoint input → negation chains.
fn chains(pairs: usize) -> Dfg {
    let mut g = Dfg::new("chains");
    for i in 0..pairs {
        let x = g.add_node(Operation::Input(0), format!("x{i}"));
        let y = g.add_node(Operation::Neg, format!("y{i}"));
        g.add_edge(x, y, 0, EdgeKind::Data);
    }
    g
}

#[test]
fn symmetric_graphs_exhaust_the_budget_at_the_reference_leaf() {
    // Each graph spends the whole budget: the reference refines in
    // O(V·E) per round, which is why the graphs stay this small. The
    // reference recurses once per individualized node, with large debug
    // frames, so it runs on a thread with room for that.
    let graphs = [phi_ring(128), star(256), chains(32)];
    std::thread::Builder::new()
        .stack_size(64 << 20)
        .spawn(move || {
            for g in &graphs {
                for seed in 0..SYMMETRIC_NUMBERINGS {
                    let h = if seed == 0 {
                        g.clone()
                    } else {
                        common::renumbered(g, seed)
                    };
                    let what = format!("{} of {} nodes #{seed}", h.name(), h.num_nodes());
                    let (verdict, work) = assert_matches_reference(&h, &what);
                    assert_eq!(verdict, Ok(()), "{what}");
                    assert!(
                        work.unwrap() >= reference::WORK_LIMIT,
                        "{what}: the budget was not exhausted"
                    );
                }
            }
        })
        .unwrap()
        .join()
        .unwrap();
}

#[test]
fn degenerate_graphs_match_the_reference() {
    let empty = Dfg::new("empty");
    let mut lone = Dfg::new("lone");
    lone.add_node(Operation::Const(3), "c");
    let mut self_phi = Dfg::new("self-phi");
    let p = self_phi.add_node(Operation::Phi(1), "p");
    self_phi.add_edge(p, p, 0, EdgeKind::LoopCarried { distance: 2 });
    let unknown = with_edges(
        &lone,
        &[Edge {
            src: NodeId::from_index(0),
            dst: NodeId::from_index(5),
            operand: 0,
            kind: EdgeKind::Data,
        }],
    );
    for g in [empty, lone, self_phi, unknown] {
        let _ = assert_matches_reference(&g, g.name());
    }
}
