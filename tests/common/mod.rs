//! Helpers shared across the e2e integration-test binaries.

pub mod json_corpus;
pub mod reference;

use monomap::dfg::{DfgError, Edge};
use monomap::prelude::*;

/// Checks every mapping-validity invariant directly, without going
/// through `Mapping::validate` (which is *also* asserted): every placed
/// op's PE provides the op's class, no two ops share a `(PE, slot)`
/// cell, and every routed edge uses real grid adjacency (or stays on
/// one PE across slots).
#[allow(dead_code)] // the DFG-only suite tests map nothing
pub fn assert_mapping_invariants(dfg: &Dfg, cgra: &Cgra, mapping: &Mapping) {
    assert_routed_mapping_invariants(dfg, cgra, mapping, 1);
}

/// [`assert_mapping_invariants`] generalised to a k-hop routing model:
/// every routed edge's endpoints must lie within `max_route_hops`
/// links of each other on the real grid (or stay on one PE across
/// slots).
#[allow(dead_code)] // not every test binary exercises routed mappings
pub fn assert_routed_mapping_invariants(
    dfg: &Dfg,
    cgra: &Cgra,
    mapping: &Mapping,
    max_route_hops: usize,
) {
    mapping.validate_routed(dfg, cgra, max_route_hops).unwrap();
    let mut cells = std::collections::HashSet::new();
    for v in dfg.nodes() {
        let pe = mapping.pe(v);
        let class = dfg.op(v).op_class();
        assert!(
            cgra.capability(pe).contains(class),
            "{}: {v:?} ({class}) on {pe} lacking the class",
            dfg.name()
        );
        assert!(
            cells.insert((pe, mapping.slot(v))),
            "{}: {v:?} collides on ({pe}, slot {})",
            dfg.name(),
            mapping.slot(v)
        );
    }
    for e in dfg.edges() {
        if e.src == e.dst {
            continue;
        }
        let (ps, pd) = (mapping.pe(e.src), mapping.pe(e.dst));
        let within = ps == pd
            || cgra
                .hop_distance(ps, pd)
                .is_some_and(|d| d <= max_route_hops);
        assert!(
            within,
            "{}: routed edge {:?}->{:?} exceeds the {max_route_hops}-hop bound ({ps}/{pd})",
            dfg.name(),
            e.src,
            e.dst
        );
    }
}

/// `dfg` with its nodes added in a seeded random order (edges keep
/// their order): the same kernel, canonical digest and mII, but another
/// numbering — and with it another variable order inside the mapper,
/// which is what makes the achieved II and the search cost vary.
#[allow(dead_code)] // only the renumbering battery draws numberings
pub fn renumbered(dfg: &Dfg, seed: u64) -> Dfg {
    let n = dfg.num_nodes();
    // xorshift64*; the seed is spread first so 1, 2, 3… diverge.
    let mut state = seed.wrapping_mul(0x9E37_79B9_7F4A_7C15) | 1;
    let mut next = move || {
        state ^= state >> 12;
        state ^= state << 25;
        state ^= state >> 27;
        state.wrapping_mul(0x2545_F491_4F6C_DD1D)
    };
    // `order[new] = old`, a Fisher–Yates shuffle of the identity.
    let mut order: Vec<usize> = (0..n).collect();
    for i in (1..n).rev() {
        order.swap(i, (next() % (i as u64 + 1)) as usize);
    }
    let mut new_of = vec![0; n];
    let mut out = Dfg::new(dfg.name());
    for (new, &old) in order.iter().enumerate() {
        new_of[old] = new;
        let old = NodeId::from_index(old);
        out.add_node(dfg.op(old), dfg.node_name(old));
    }
    for e in dfg.edges() {
        out.add_edge(
            NodeId::from_index(new_of[e.src.index()]),
            NodeId::from_index(new_of[e.dst.index()]),
            e.operand,
            e.kind,
        );
    }
    out
}

/// The seeded xorshift generator of the byte-mutation batteries.
#[allow(dead_code)] // not every test binary fuzzes
pub struct XorShift(pub u64);

#[allow(dead_code)]
impl XorShift {
    pub fn next(&mut self) -> u64 {
        self.0 ^= self.0 << 13;
        self.0 ^= self.0 >> 7;
        self.0 ^= self.0 << 17;
        self.0
    }

    pub fn below(&mut self, n: u64) -> usize {
        (self.next() % n.max(1)) as usize
    }
}

/// Applies one of six byte mutations to a random corpus entry and
/// returns the mutant: truncation, bit flip, byte overwrite, splice
/// from another entry, slice deletion, slice duplication.
#[allow(dead_code)] // not every test binary fuzzes
pub fn mutate(rng: &mut XorShift, corpus: &[Vec<u8>]) -> Vec<u8> {
    let mut bytes = corpus[rng.below(corpus.len() as u64)].clone();
    match rng.below(6) {
        // Truncate at an arbitrary byte (possibly mid-UTF-8).
        0 => {
            let at = rng.below(bytes.len() as u64 + 1);
            bytes.truncate(at);
        }
        // Flip one bit.
        1 => {
            if !bytes.is_empty() {
                let at = rng.below(bytes.len() as u64);
                bytes[at] ^= 1 << rng.below(8);
            }
        }
        // Overwrite one byte with anything.
        2 => {
            if !bytes.is_empty() {
                let at = rng.below(bytes.len() as u64);
                bytes[at] = rng.next() as u8;
            }
        }
        // Splice a random slice of another corpus entry into a random
        // position.
        3 => {
            let donor = &corpus[rng.below(corpus.len() as u64)];
            let from = rng.below(donor.len() as u64);
            let to = from + rng.below((donor.len() - from) as u64 + 1);
            let at = rng.below(bytes.len() as u64 + 1);
            bytes.splice(at..at, donor[from..to].iter().copied());
        }
        // Delete a random slice.
        4 => {
            if !bytes.is_empty() {
                let from = rng.below(bytes.len() as u64);
                let to = from + rng.below((bytes.len() - from) as u64 + 1);
                bytes.drain(from..to);
            }
        }
        // Duplicate a random slice in place (builds pathological
        // repetition — deep nesting, run-on literals).
        _ => {
            let from = rng.below(bytes.len() as u64);
            let to = from + rng.below((bytes.len() - from) as u64 + 1);
            let slice: Vec<u8> = bytes[from..to].to_vec();
            let at = rng.below(bytes.len() as u64 + 1);
            bytes.splice(at..at, slice);
        }
    }
    bytes
}

/// Asserts that `dfg`'s validation and adjacency queries, and (when
/// every edge names a real node) its topological order and canonical
/// form, equal the [`reference`] implementations and the per-node edge
/// scans exactly. Returns the reference validation result and, when
/// compared, the reference canonicalizer's work.
#[allow(dead_code)] // not every test binary runs the oracle
pub fn assert_matches_reference(dfg: &Dfg, what: &str) -> (Result<(), DfgError>, Option<u64>) {
    let expected = reference::validate(dfg);
    assert_eq!(dfg.validate(), expected, "{what}: validate");
    let adj = dfg.adjacency();
    for v in dfg.nodes() {
        assert!(
            adj.in_edges(v).eq(dfg.in_edges(v)),
            "{what}: in-edges of {v}"
        );
        assert!(
            adj.out_edges(v).eq(dfg.out_edges(v)),
            "{what}: out-edges of {v}"
        );
        assert_eq!(
            adj.undirected_neighbors(v),
            dfg.undirected_neighbors(v),
            "{what}: neighbours of {v}"
        );
    }
    let n = dfg.num_nodes();
    if dfg
        .edges()
        .iter()
        .any(|e| e.src.index() >= n || e.dst.index() >= n)
    {
        return (expected, None);
    }
    assert_eq!(
        dfg.topo_order(),
        reference::topo_order(dfg),
        "{what}: topo_order"
    );
    let canon = dfg.canonical_form();
    let (bytes, to_canonical, work) = reference::canonical_form(dfg);
    assert!(canon.bytes() == bytes, "{what}: canonical bytes differ");
    for v in dfg.nodes() {
        assert_eq!(
            canon.to_canonical(v),
            to_canonical[v.index()] as usize,
            "{what}: canonical index of {v}"
        );
    }
    (expected, Some(work))
}

/// `dfg`'s nodes with another edge list.
#[allow(dead_code)] // not every test binary runs the oracle
pub fn with_edges(dfg: &Dfg, edges: &[Edge]) -> Dfg {
    let mut out = Dfg::new(dfg.name());
    for v in dfg.nodes() {
        out.add_node(dfg.op(v), dfg.node_name(v));
    }
    for e in edges {
        out.add_edge(e.src, e.dst, e.operand, e.kind);
    }
    out
}

/// `dfg` with `faults` random edge mutations: drop, duplicate or add
/// an edge, move an operand slot, move an endpoint (sometimes past the
/// last node), or flip an edge between data and loop-carried (distance
/// 0 to 2). Between them they reach every [`DfgError`]; with two or
/// more, which error comes first is what is compared.
#[allow(dead_code)] // not every test binary runs the oracle
pub fn with_random_faults(dfg: &Dfg, rng: &mut XorShift, faults: usize) -> Dfg {
    let n = dfg.num_nodes() as u64;
    let node = |rng: &mut XorShift| {
        // One draw in sixteen lands past the last node.
        let bound = n + (n / 16).max(1);
        NodeId::from_index(rng.below(bound))
    };
    let mut edges: Vec<Edge> = dfg.edges().to_vec();
    for _ in 0..faults {
        let at = rng.below(edges.len() as u64);
        match rng.below(7) {
            0 if !edges.is_empty() => {
                edges.remove(at);
            }
            1 if !edges.is_empty() => {
                let dup = edges[at];
                edges.insert(rng.below(edges.len() as u64 + 1), dup);
            }
            2 if !edges.is_empty() => edges[at].operand = rng.below(4) as u8,
            3 if !edges.is_empty() => edges[at].src = node(rng),
            4 if !edges.is_empty() => edges[at].dst = node(rng),
            5 if !edges.is_empty() => {
                edges[at].kind = match edges[at].kind {
                    EdgeKind::Data => EdgeKind::LoopCarried {
                        distance: rng.below(3) as u32,
                    },
                    EdgeKind::LoopCarried { .. } => EdgeKind::Data,
                }
            }
            _ => {
                let kind = if rng.below(2) == 0 {
                    EdgeKind::Data
                } else {
                    EdgeKind::LoopCarried {
                        distance: rng.below(3) as u32,
                    }
                };
                edges.push(Edge {
                    src: node(rng),
                    dst: node(rng),
                    operand: rng.below(4) as u8,
                    kind,
                });
            }
        }
    }
    with_edges(dfg, &edges)
}
