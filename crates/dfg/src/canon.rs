//! Canonical form and content digest of a DFG.
//!
//! Two DFGs that differ only in the order their nodes were added (and
//! in diagnostic names) describe the same kernel, and a mapping for one
//! is a mapping for the other after renumbering. This module computes a
//! **canonical form**: a deterministic renumbering of the nodes plus a
//! stable byte serialization of the renumbered graph, such that any two
//! isomorphic DFGs produce identical bytes. The [`DfgDigest`] of those
//! bytes is the content address used by the `monomap-service` mapping
//! cache — repeated kernels (the common case in compiler fleets) hit
//! the cache regardless of how the front end happened to number them.
//!
//! The labeling algorithm is classic individualization–refinement:
//! iterated Weisfeiler–Leman color refinement over `(operation,
//! edge-slot, edge-kind)` signatures, and, where symmetry leaves a
//! color class with more than one node, branching on every member of
//! the first such class and keeping the lexicographically smallest
//! encoding. DFG kernels are small (tens of nodes) and highly
//! asymmetric, so the branching is shallow in practice; a work budget
//! bounds crafted pathological symmetry (past it, remaining ties break
//! by node index — still deterministic, merely no longer
//! renumbering-invariant for such graphs).
//!
//! Diagnostic names (the graph's and each node's) are **excluded** from
//! the canonical form: identity is structural.
//!
//! # Example
//!
//! ```
//! use cgra_dfg::{Dfg, EdgeKind, Operation};
//!
//! // The same kernel, nodes added in two different orders.
//! let mut a = Dfg::new("a");
//! let x = a.add_node(Operation::Input(0), "x");
//! let y = a.add_node(Operation::Neg, "y");
//! a.add_edge(x, y, 0, EdgeKind::Data);
//!
//! let mut b = Dfg::new("b");
//! let y2 = b.add_node(Operation::Neg, "y2");
//! let x2 = b.add_node(Operation::Input(0), "x2");
//! b.add_edge(x2, y2, 0, EdgeKind::Data);
//!
//! assert_eq!(a.digest(), b.digest());
//!
//! // One extra edge changes the digest.
//! let mut c = a.clone();
//! let z = c.add_node(Operation::Not, "z");
//! c.add_edge(x, z, 0, EdgeKind::Data);
//! assert_ne!(a.digest(), c.digest());
//! ```

use std::fmt;

use serde::{Deserialize, Serialize};

use cgra_base::hash::{fnv128, fnv64, FNV64_OFFSET};

use crate::{Dfg, EdgeKind, NodeId, Operation};

// ---------------------------------------------------------------------
// Digest
// ---------------------------------------------------------------------

/// The 128-bit content address of a DFG: an FNV-1a hash of its
/// canonical byte form. Isomorphic (renumbered) DFGs share a digest;
/// structurally different DFGs get different digests (up to hash
/// collision — exact consumers compare [`CanonicalDfg::bytes`] too).
///
/// Not cryptographic: it defends against accidental collision, not an
/// adversary.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct DfgDigest(pub u128);

impl DfgDigest {
    /// The digest of raw canonical bytes.
    pub fn of_bytes(bytes: &[u8]) -> Self {
        DfgDigest(fnv128(bytes))
    }

    /// A 64-bit fold of the digest, for hash-table bucketing.
    pub fn to_u64(self) -> u64 {
        (self.0 as u64) ^ ((self.0 >> 64) as u64)
    }

    /// The 32-hex-digit text form (the wire and log representation).
    pub fn to_hex(self) -> String {
        format!("{:032x}", self.0)
    }

    /// Parses the 32-hex-digit text form.
    pub fn from_hex(s: &str) -> Option<Self> {
        if s.len() != 32 {
            return None;
        }
        u128::from_str_radix(s, 16).ok().map(DfgDigest)
    }
}

impl fmt::Display for DfgDigest {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:032x}", self.0)
    }
}

impl fmt::Debug for DfgDigest {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "DfgDigest({:032x})", self.0)
    }
}

// JSON has no 128-bit integers; the digest travels as its hex string.
impl Serialize for DfgDigest {
    fn write_json(&self, out: &mut String) {
        use std::fmt::Write;
        let _ = write!(out, "\"{self}\"");
    }
}

impl Deserialize for DfgDigest {
    fn from_json(r: &mut serde::de::Reader<'_>) -> Result<Self, serde::de::Error> {
        if r.peek() != Some(b'"') {
            return Err(r.expected("hex string"));
        }
        let s = r.string()?;
        DfgDigest::from_hex(&s)
            .ok_or_else(|| serde::de::Error::custom(format!("not a 32-digit hex digest: `{s}`")))
    }
}

// ---------------------------------------------------------------------
// Canonical form
// ---------------------------------------------------------------------

/// The canonical form of a [`Dfg`]: a stable byte serialization of the
/// canonically renumbered graph, plus the permutation between the
/// original numbering and the canonical one.
///
/// Produced by [`Dfg::canonical_form`]. Two isomorphic DFGs yield
/// identical [`CanonicalDfg::bytes`]; the permutation translates
/// per-node data (such as a cached mapping's placements) between the
/// two numberings.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct CanonicalDfg {
    bytes: Vec<u8>,
    /// `to_canonical[original_index] = canonical_index`.
    to_canonical: Vec<u32>,
}

impl CanonicalDfg {
    /// The stable byte serialization (the digest preimage).
    pub fn bytes(&self) -> &[u8] {
        &self.bytes
    }

    /// The content digest of the canonical bytes.
    pub fn digest(&self) -> DfgDigest {
        DfgDigest::of_bytes(&self.bytes)
    }

    /// The canonical index of an original node.
    pub fn to_canonical(&self, node: NodeId) -> usize {
        self.to_canonical[node.index()] as usize
    }

    /// The original node at a canonical index.
    pub fn from_canonical(&self, canonical: usize) -> NodeId {
        let orig = self
            .to_canonical
            .iter()
            .position(|&c| c as usize == canonical)
            .expect("canonical index in range");
        NodeId::from_index(orig)
    }

    /// Reorders a per-node vector from original order into canonical
    /// order: `out[to_canonical(v)] = data[v.index()]`.
    ///
    /// # Panics
    ///
    /// Panics if `data.len()` is not the node count.
    pub fn permute_to_canonical<T: Clone>(&self, data: &[T]) -> Vec<T> {
        assert_eq!(data.len(), self.to_canonical.len(), "per-node data length");
        let mut out: Vec<Option<T>> = vec![None; data.len()];
        for (orig, &canon) in self.to_canonical.iter().enumerate() {
            out[canon as usize] = Some(data[orig].clone());
        }
        out.into_iter()
            .map(|x| x.expect("permutation is a bijection"))
            .collect()
    }

    /// Reorders a per-node vector from canonical order back into this
    /// DFG's original order: `out[v.index()] = data[to_canonical(v)]`.
    ///
    /// # Panics
    ///
    /// Panics if `data.len()` is not the node count.
    pub fn permute_from_canonical<T: Clone>(&self, data: &[T]) -> Vec<T> {
        assert_eq!(data.len(), self.to_canonical.len(), "per-node data length");
        self.to_canonical
            .iter()
            .map(|&canon| data[canon as usize].clone())
            .collect()
    }
}

impl Dfg {
    /// Computes the canonical form: deterministic node renumbering plus
    /// stable serialization. Isomorphic DFGs (same structure, any node
    /// numbering, any diagnostic names) produce identical bytes.
    pub fn canonical_form(&self) -> CanonicalDfg {
        Canonicalizer::new(self).run()
    }

    /// The content digest of this DFG's canonical form — the key under
    /// which the mapping cache addresses repeated kernels. Shorthand
    /// for `self.canonical_form().digest()`.
    pub fn digest(&self) -> DfgDigest {
        self.canonical_form().digest()
    }
}

// ---------------------------------------------------------------------
// Stable encodings
// ---------------------------------------------------------------------

fn push_u32(out: &mut Vec<u8>, v: u32) {
    out.extend_from_slice(&v.to_le_bytes());
}

fn push_i64(out: &mut Vec<u8>, v: i64) {
    out.extend_from_slice(&v.to_le_bytes());
}

/// Encodes an operation with an explicit, stable discriminant (the
/// digest must not depend on compiler enum layout or `Debug` output).
fn encode_op(op: Operation, out: &mut Vec<u8>) {
    use Operation::*;
    match op {
        Const(v) => {
            out.push(0);
            push_i64(out, v);
        }
        Input(ch) => {
            out.push(1);
            push_u32(out, ch);
        }
        Phi(init) => {
            out.push(2);
            push_i64(out, init);
        }
        Add => out.push(3),
        Sub => out.push(4),
        Mul => out.push(5),
        Div => out.push(6),
        And => out.push(7),
        Or => out.push(8),
        Xor => out.push(9),
        Shl => out.push(10),
        Shr => out.push(11),
        Min => out.push(12),
        Max => out.push(13),
        Lt => out.push(14),
        Eq => out.push(15),
        Neg => out.push(16),
        Not => out.push(17),
        Abs => out.push(18),
        Select => out.push(19),
        Load => out.push(20),
        Store => out.push(21),
        Output => out.push(22),
    }
}

fn kind_code(kind: EdgeKind) -> (u8, u32) {
    match kind {
        EdgeKind::Data => (0, 0),
        EdgeKind::LoopCarried { distance } => (1, distance),
    }
}

/// The FNV-1a state after an edge signature's fixed 7 bytes:
/// direction, operand slot, kind code, distance (little-endian). The
/// signature itself continues it with the neighbour's color.
fn edge_sig_prefix(direction: u8, operand: u8, kind: EdgeKind) -> u64 {
    let (code, distance) = kind_code(kind);
    let d = distance.to_le_bytes();
    fnv64(
        FNV64_OFFSET,
        &[direction, operand, code, d[0], d[1], d[2], d[3]],
    )
}

// ---------------------------------------------------------------------
// Individualization–refinement
// ---------------------------------------------------------------------

/// Work budget for the individualization–refinement search, in units
/// of edge-signature computations. Real mapping kernels (tens of
/// nodes, mostly asymmetric) finish in a tiny fraction of this; a
/// crafted highly symmetric graph would otherwise branch factorially.
/// When the budget runs out the search degrades gracefully: the
/// remaining ties are broken by original node index — still
/// deterministic for a given input (same bytes in, same bytes out),
/// but no longer guaranteed invariant across renumberings, so such
/// pathological graphs merely lose cross-numbering cache hits (the
/// cache compares full canonical bytes, so correctness is unaffected).
const WORK_LIMIT: u64 = 2_000_000;

struct Canonicalizer<'a> {
    dfg: &'a Dfg,
    /// Node-invariant hash of each node's operation.
    op_color: Vec<u64>,
    /// Every node's incident edges, one entry per (node, edge) pair:
    /// `sig_prefix[sig_start[v]..sig_start[v + 1]]` are `v`'s in-edges
    /// then its out-edges, and `sig_neighbor` the node at each edge's
    /// other end. An edge signature hashes (direction, operand slot,
    /// edge kind, distance) and then the neighbour's color; FNV-1a
    /// streams, so the state after the fixed part is computed once
    /// here and each round only folds in the 8 color bytes.
    sig_start: Vec<u32>,
    sig_prefix: Vec<u64>,
    sig_neighbor: Vec<u32>,
    /// Scratch: a round's edge signatures, laid out as `sig_prefix`.
    sigs: Vec<u64>,
    /// Scratch: the sorted colors [`Canonicalizer::distinct`] counts.
    sorted: Vec<u64>,
    best: Option<(Vec<u8>, Vec<u32>)>,
    /// Edge signatures computed so far (bounded by [`WORK_LIMIT`]).
    work: u64,
}

impl<'a> Canonicalizer<'a> {
    fn new(dfg: &'a Dfg) -> Self {
        let mut bytes = Vec::with_capacity(9);
        let op_color = dfg
            .nodes()
            .map(|v| {
                bytes.clear();
                encode_op(dfg.op(v), &mut bytes);
                fnv64(FNV64_OFFSET, &bytes)
            })
            .collect();
        let adj = dfg.adjacency();
        let incident = 2 * dfg.num_edges();
        let mut sig_start = Vec::with_capacity(dfg.num_nodes() + 1);
        let mut sig_prefix = Vec::with_capacity(incident);
        let mut sig_neighbor = Vec::with_capacity(incident);
        sig_start.push(0);
        for v in dfg.nodes() {
            for e in adj.in_edges(v) {
                sig_prefix.push(edge_sig_prefix(0, e.operand, e.kind));
                sig_neighbor.push(e.src.index() as u32);
            }
            for e in adj.out_edges(v) {
                sig_prefix.push(edge_sig_prefix(1, e.operand, e.kind));
                sig_neighbor.push(e.dst.index() as u32);
            }
            sig_start.push(sig_prefix.len() as u32);
        }
        Canonicalizer {
            dfg,
            op_color,
            sig_start,
            sig_prefix,
            sig_neighbor,
            sigs: Vec::new(),
            sorted: Vec::new(),
            best: None,
            work: 0,
        }
    }

    fn exhausted(&self) -> bool {
        self.work >= WORK_LIMIT
    }

    fn run(mut self) -> CanonicalDfg {
        let colors = self.op_color.clone();
        self.search(colors);
        let (bytes, to_canonical) = self.best.expect("search visits at least one leaf");
        CanonicalDfg {
            bytes,
            to_canonical,
        }
    }

    /// One round of Weisfeiler–Leman refinement into `next`: every
    /// node's color is re-hashed with the sorted multiset of its edge
    /// signatures (direction, operand slot, edge kind, neighbour color).
    fn refine_once(&mut self, colors: &[u64], next: &mut Vec<u64>) {
        self.work += 2 * self.dfg.num_edges() as u64 + self.dfg.num_nodes() as u64;
        // Three passes, each free of the others' dependencies: every
        // edge signature, then each node's signatures sorted, then
        // each node's fold. Separate passes keep many independent FNV
        // multiply chains in flight.
        self.sigs.clear();
        self.sigs.extend(
            self.sig_prefix
                .iter()
                .zip(&self.sig_neighbor)
                .map(|(&prefix, &u)| fnv64(prefix, &colors[u as usize].to_le_bytes())),
        );
        for w in self.sig_start.windows(2) {
            self.sigs[w[0] as usize..w[1] as usize].sort_unstable();
        }
        next.clear();
        next.extend(
            colors
                .iter()
                .zip(self.sig_start.windows(2))
                .map(|(&color, w)| {
                    self.sigs[w[0] as usize..w[1] as usize]
                        .iter()
                        .fold(color, |h, s| fnv64(h, &s.to_le_bytes()))
                }),
        );
    }

    fn distinct(&mut self, colors: &[u64]) -> usize {
        self.sorted.clear();
        self.sorted.extend_from_slice(colors);
        self.sorted.sort_unstable();
        self.sorted.dedup();
        self.sorted.len()
    }

    /// Refines until the partition stops splitting; branches on the
    /// first non-singleton color class if any remains; records the
    /// lexicographically smallest leaf encoding. Honours [`WORK_LIMIT`]
    /// by recording a tie-broken leaf and pruning once exhausted.
    ///
    /// The tree is walked depth-first with an explicit stack of branch
    /// points (one per individualized node, so a symmetric graph's depth
    /// grows with its size): each entry holds its refined coloring, the
    /// color of the cell it branches on and the next member to try.
    fn search(&mut self, root: Vec<u64>) {
        let mut stack: Vec<(Vec<u64>, u64, usize)> = Vec::new();
        let mut visit = Some(root);
        loop {
            if let Some(colors) = visit.take() {
                if let Some((colors, cell_color)) = self.refine_or_record(colors) {
                    stack.push((colors, cell_color, 0));
                }
            }
            // A branch point is pushed only while budget remains, so
            // this fires only after a leaf: at least one leaf was
            // recorded, stop growing the tree.
            if self.exhausted() {
                return;
            }
            let Some((colors, cell_color, next)) = stack.last_mut() else {
                return;
            };
            match (*next..colors.len()).find(|&v| colors[v] == *cell_color) {
                Some(v) => {
                    *next = v + 1;
                    // Individualize: give this node a fresh color
                    // derived from its old one (invariant across
                    // numberings because every member of the cell is
                    // tried).
                    let mut branched = colors.clone();
                    branched[v] = fnv64(branched[v], b"individualized");
                    visit = Some(branched);
                }
                None => {
                    stack.pop();
                }
            }
        }
    }

    /// Refines `colors` until the partition stops splitting. A discrete
    /// partition, or any once the budget is spent, is recorded as a leaf
    /// (`None`); otherwise returns the refined colors and the color of
    /// the cell to branch on.
    fn refine_or_record(&mut self, mut colors: Vec<u64>) -> Option<(Vec<u64>, u64)> {
        let n = colors.len();
        let mut classes = self.distinct(&colors);
        // Refinement only ever splits classes (the old color feeds the
        // new hash), so at most n rounds are needed.
        let mut next = Vec::with_capacity(n);
        for _ in 0..n {
            if self.exhausted() {
                break;
            }
            self.refine_once(&colors, &mut next);
            let next_classes = self.distinct(&next);
            if next_classes == classes {
                break;
            }
            classes = next_classes;
            std::mem::swap(&mut colors, &mut next);
        }
        if classes == n || self.exhausted() {
            // Discrete, or out of budget: record this leaf (ties, if
            // any remain, break by original index inside record_leaf).
            self.record_leaf(&colors);
            return None;
        }
        // The first non-singleton class, by color value: a deterministic,
        // renumbering-invariant choice of branching cell.
        let mut sorted = colors.clone();
        sorted.sort_unstable();
        let cell_color = sorted
            .windows(2)
            .find(|w| w[0] == w[1])
            .map(|w| w[0])
            .expect("non-discrete partition has a duplicated color");
        Some((colors, cell_color))
    }

    /// Encodes the graph under the coloring and keeps it if it beats
    /// the best leaf so far.
    fn record_leaf(&mut self, colors: &[u64]) {
        let n = colors.len();
        // Canonical index = rank of the node's color. On the normal
        // (discrete) path colors are pairwise distinct and the index
        // tie-break never fires; it only matters for budget-exhausted
        // leaves, where it keeps the output deterministic. Here and for
        // the edges below, a sort key packs a tuple into one integer
        // whose order is the tuple's lexicographic order.
        let mut order: Vec<u128> = colors
            .iter()
            .enumerate()
            .map(|(v, &c)| (c as u128) << 32 | v as u128)
            .collect();
        order.sort_unstable();
        let mut to_canonical = vec![0u32; n];
        for (rank, &key) in order.iter().enumerate() {
            to_canonical[key as u32 as usize] = rank as u32;
        }
        let e = self.dfg.num_edges();
        let mut bytes = Vec::with_capacity(13 + 9 * n + 14 * e);
        bytes.extend_from_slice(b"MDFG1");
        push_u32(&mut bytes, n as u32);
        push_u32(&mut bytes, e as u32);
        for &key in &order {
            encode_op(
                self.dfg.op(NodeId::from_index(key as u32 as usize)),
                &mut bytes,
            );
        }
        // (src, dst, operand, kind code, distance) in canonical numbering.
        let mut edges: Vec<u128> = self
            .dfg
            .edges()
            .iter()
            .map(|e| {
                let (code, distance) = kind_code(e.kind);
                (to_canonical[e.src.index()] as u128) << 80
                    | (to_canonical[e.dst.index()] as u128) << 48
                    | (e.operand as u128) << 40
                    | (code as u128) << 32
                    | distance as u128
            })
            .collect();
        edges.sort_unstable();
        for key in edges {
            push_u32(&mut bytes, (key >> 80) as u32);
            push_u32(&mut bytes, (key >> 48) as u32);
            bytes.push((key >> 40) as u8);
            bytes.push((key >> 32) as u8);
            push_u32(&mut bytes, key as u32);
        }
        match &self.best {
            Some((best_bytes, _)) if *best_bytes <= bytes => {}
            _ => self.best = Some((bytes, to_canonical)),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::examples::running_example;
    use crate::Operation as Op;

    /// Renumbers `dfg` by `perm` (`perm[old_index] = new_index`),
    /// keeping structure and dropping nothing.
    fn renumber(dfg: &Dfg, perm: &[usize]) -> Dfg {
        let n = dfg.num_nodes();
        assert_eq!(perm.len(), n);
        let mut g = Dfg::new(format!("{}-renumbered", dfg.name()));
        // Add nodes in new-index order.
        let mut old_at = vec![0usize; n];
        for (old, &new) in perm.iter().enumerate() {
            old_at[new] = old;
        }
        for &old in &old_at {
            let v = NodeId::from_index(old);
            g.add_node(dfg.op(v), format!("r{}", dfg.node_name(v)));
        }
        for e in dfg.edges() {
            g.add_edge(
                NodeId::from_index(perm[e.src.index()]),
                NodeId::from_index(perm[e.dst.index()]),
                e.operand,
                e.kind,
            );
        }
        g
    }

    /// A deterministic pseudo-random permutation of `0..n`.
    fn shuffle(n: usize, seed: u64) -> Vec<usize> {
        let mut perm: Vec<usize> = (0..n).collect();
        let mut state = seed | 1;
        for i in (1..n).rev() {
            // xorshift64
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            perm.swap(i, (state as usize) % (i + 1));
        }
        perm
    }

    #[test]
    fn canonical_permutation_translates_node_data() {
        let dfg = running_example();
        let perm = shuffle(dfg.num_nodes(), 42);
        let renumbered = renumber(&dfg, &perm);
        let ca = dfg.canonical_form();
        let cb = renumbered.canonical_form();
        assert_eq!(ca.bytes(), cb.bytes(), "identical canonical bytes");
        // The same node (through the renumbering) lands on the same
        // canonical index, so ops agree canonically.
        for v in dfg.nodes() {
            let w = NodeId::from_index(perm[v.index()]);
            assert_eq!(ca.to_canonical(v), cb.to_canonical(w));
            assert_eq!(dfg.op(v), renumbered.op(w));
        }
        // Round-tripping per-node data through canonical order is the
        // identity.
        let data: Vec<usize> = (0..dfg.num_nodes()).collect();
        let canonical = ca.permute_to_canonical(&data);
        assert_eq!(ca.permute_from_canonical(&canonical), data);
        // from_canonical inverts to_canonical.
        for v in dfg.nodes() {
            assert_eq!(ca.from_canonical(ca.to_canonical(v)), v);
        }
    }

    #[test]
    fn one_edge_difference_changes_the_digest() {
        let base = running_example();
        let d0 = base.digest();
        // Adding any structural edge must move the digest.
        let mut plus = base.clone();
        let nodes: Vec<NodeId> = plus.nodes().collect();
        plus.add_edge(nodes[0], nodes[1], 7, EdgeKind::Data);
        assert_ne!(plus.digest(), d0);
        // Changing one edge's kind must move the digest.
        let mut g1 = Dfg::new("k1");
        let a1 = g1.add_node(Op::Phi(0), "a");
        let b1 = g1.add_node(Op::Neg, "b");
        g1.add_edge(b1, a1, 0, EdgeKind::LoopCarried { distance: 1 });
        let mut g2 = Dfg::new("k2");
        let a2 = g2.add_node(Op::Phi(0), "a");
        let b2 = g2.add_node(Op::Neg, "b");
        g2.add_edge(b2, a2, 0, EdgeKind::LoopCarried { distance: 2 });
        assert_ne!(g1.digest(), g2.digest(), "loop distance is structural");
    }

    #[test]
    fn names_are_not_structural() {
        let mut a = Dfg::new("first");
        let x = a.add_node(Op::Input(0), "x");
        let y = a.add_node(Op::Output, "y");
        a.add_edge(x, y, 0, EdgeKind::Data);
        let mut b = Dfg::new("second");
        let p = b.add_node(Op::Input(0), "completely");
        let q = b.add_node(Op::Output, "different");
        b.add_edge(p, q, 0, EdgeKind::Data);
        assert_eq!(a.digest(), b.digest());
    }

    #[test]
    fn operation_payloads_are_structural() {
        let mk = |v: i64| {
            let mut g = Dfg::new("c");
            g.add_node(Op::Const(v), "c");
            g
        };
        assert_ne!(mk(1).digest(), mk(2).digest());
        let mk_in = |ch: u32| {
            let mut g = Dfg::new("i");
            g.add_node(Op::Input(ch), "i");
            g
        };
        assert_ne!(mk_in(0).digest(), mk_in(1).digest());
    }

    #[test]
    fn symmetric_graphs_canonicalize() {
        // Two interchangeable Neg nodes fed by the same input: the
        // refinement cannot split them, so the branching path runs.
        // Any renumbering must still agree.
        let mut g = Dfg::new("sym");
        let x = g.add_node(Op::Input(0), "x");
        let a = g.add_node(Op::Neg, "a");
        let b = g.add_node(Op::Neg, "b");
        g.add_edge(x, a, 0, EdgeKind::Data);
        g.add_edge(x, b, 0, EdgeKind::Data);
        let d0 = g.digest();
        for seed in 1..6 {
            let perm = shuffle(g.num_nodes(), seed);
            assert_eq!(renumber(&g, &perm).digest(), d0, "seed {seed}");
        }
    }

    #[test]
    fn a_wide_star_canonicalizes_on_a_small_stack() {
        // One input feeding 256 interchangeable negations: the search
        // individualizes one leaf per level, 255 deep, before the first
        // leaf is discrete. That depth must stay off the call stack (a
        // walk recursing per level needs more than 1 MiB for it in a
        // debug build), so a quarter-MiB thread holds it.
        let mut g = Dfg::new("star");
        let hub = g.add_node(Op::Input(0), "hub");
        for i in 0..256 {
            let leaf = g.add_node(Op::Neg, format!("l{i}"));
            g.add_edge(hub, leaf, 0, EdgeKind::Data);
        }
        let digest = std::thread::Builder::new()
            .stack_size(256 << 10)
            .spawn(move || g.digest())
            .unwrap()
            .join()
            .expect("canonicalization fits a 256 KiB stack");
        assert_ne!(digest, Dfg::new("star").digest());
    }

    #[test]
    fn pathological_symmetry_stays_bounded_and_deterministic() {
        // Sixteen structurally identical disconnected chains: WL
        // refinement can never split them, so an unbudgeted search
        // would branch 16! ways. The work budget must make this
        // return quickly, and the (tie-broken) result must be
        // deterministic for a fixed input.
        let mut g = Dfg::new("sym-pathological");
        for i in 0..16 {
            let x = g.add_node(Op::Input(0), format!("x{i}"));
            let n = g.add_node(Op::Neg, format!("n{i}"));
            g.add_edge(x, n, 0, EdgeKind::Data);
        }
        let started = std::time::Instant::now();
        let d1 = g.digest();
        let d2 = g.digest();
        assert_eq!(d1, d2, "budget-exhausted form is still deterministic");
        assert!(
            started.elapsed() < std::time::Duration::from_secs(30),
            "the work budget must bound factorial branching"
        );
    }

    #[test]
    fn digest_text_roundtrip() {
        let d = running_example().digest();
        assert_eq!(DfgDigest::from_hex(&d.to_hex()), Some(d));
        assert_eq!(d.to_hex().len(), 32);
        assert!(DfgDigest::from_hex("xyz").is_none());
        assert!(DfgDigest::from_hex("").is_none());
        let json = serde_json::to_string(&d).unwrap();
        let back: DfgDigest = serde_json::from_str(&json).unwrap();
        assert_eq!(back, d);
    }

    #[test]
    fn digest_is_stable_across_builds() {
        // The canonical encoding is a wire format: a persisted cache
        // must stay valid across recompiles, so the digest of a fixed
        // kernel is locked here. If this assertion fails, the encoding
        // changed — bump the `MDFG` version tag and invalidate caches.
        let mut g = Dfg::new("locked");
        let x = g.add_node(Op::Input(0), "x");
        let acc = g.add_node(Op::Phi(0), "acc");
        let sum = g.add_node(Op::Add, "sum");
        g.add_edge(acc, sum, 0, EdgeKind::Data);
        g.add_edge(x, sum, 1, EdgeKind::Data);
        g.add_edge(sum, acc, 0, EdgeKind::LoopCarried { distance: 1 });
        let hex = g.digest().to_hex();
        assert_eq!(hex, g.digest().to_hex(), "deterministic");
        // Locked constant: recompute only on a deliberate format bump.
        assert_eq!(hex, "c1068005b19dc8a384be6f5d00b7407c");
    }
}
