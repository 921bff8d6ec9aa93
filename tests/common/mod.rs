//! Helpers shared across the e2e integration-test binaries.

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
