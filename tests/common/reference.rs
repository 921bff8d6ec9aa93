//! Test-only reference copies of `Dfg::validate` and
//! `Dfg::canonical_form` as they were before the graph gained its
//! adjacency index: every per-node query scans all edges, so
//! validation, topological order and each refinement round cost
//! `O(V·E)`. The oracle tests hold the library's linear versions to
//! these results exactly — the same first error, the same canonical
//! bytes and permutation, and the same budget cut on graphs that
//! exhaust the work limit.
//!
//! The code is the library's at that point with `self` turned into a
//! `dfg` argument and private helpers into public accessors; the
//! canonicalizer additionally reports the work it spent.

#![allow(dead_code)] // not every test binary runs the oracle

use monomap::base::hash::{fnv64, FNV64_OFFSET};
use monomap::dfg::{Dfg, DfgError, EdgeKind, NodeId, Operation};

/// The canonicalizer's work budget (`cgra_dfg::canon`'s `WORK_LIMIT`).
pub const WORK_LIMIT: u64 = 2_000_000;

/// `Dfg::topo_order` with an edge scan per dequeued node.
pub fn topo_order(dfg: &Dfg) -> Result<Vec<NodeId>, DfgError> {
    let n = dfg.num_nodes();
    let mut indeg = vec![0usize; n];
    for e in dfg.edges() {
        if e.kind == EdgeKind::Data {
            indeg[e.dst.index()] += 1;
        }
    }
    let mut queue: Vec<NodeId> = dfg.nodes().filter(|v| indeg[v.index()] == 0).collect();
    let mut order = Vec::with_capacity(n);
    let mut head = 0;
    while head < queue.len() {
        let v = queue[head];
        head += 1;
        order.push(v);
        for e in dfg.edges() {
            if e.kind == EdgeKind::Data && e.src == v {
                indeg[e.dst.index()] -= 1;
                if indeg[e.dst.index()] == 0 {
                    queue.push(e.dst);
                }
            }
        }
    }
    if order.len() != n {
        let witness = dfg
            .nodes()
            .find(|v| indeg[v.index()] > 0)
            .expect("cycle implies a node with positive in-degree");
        return Err(DfgError::DataCycle { witness });
    }
    Ok(order)
}

/// `Dfg::validate` with a per-node scan for in-edges.
pub fn validate(dfg: &Dfg) -> Result<(), DfgError> {
    let n = dfg.num_nodes();
    for e in dfg.edges() {
        if e.src.index() >= n {
            return Err(DfgError::UnknownNode { node: e.src });
        }
        if e.dst.index() >= n {
            return Err(DfgError::UnknownNode { node: e.dst });
        }
        match e.kind {
            EdgeKind::Data => {
                if e.src == e.dst {
                    return Err(DfgError::SelfDataEdge { node: e.src });
                }
            }
            EdgeKind::LoopCarried { distance } => {
                if distance == 0 {
                    return Err(DfgError::ZeroDistance {
                        src: e.src,
                        dst: e.dst,
                    });
                }
                if !matches!(dfg.op(e.dst), Operation::Phi(_)) {
                    return Err(DfgError::LoopCarriedIntoNonPhi { node: e.dst });
                }
            }
        }
    }
    // Operand completeness.
    for v in dfg.nodes() {
        let arity = dfg.op(v).arity();
        let mut fed = vec![false; arity];
        for e in dfg.in_edges(v) {
            let slot = e.operand as usize;
            if slot >= arity {
                return Err(DfgError::OperandOutOfRange {
                    node: v,
                    operand: e.operand,
                    arity,
                });
            }
            if fed[slot] {
                return Err(DfgError::DuplicateOperand {
                    node: v,
                    operand: e.operand,
                });
            }
            fed[slot] = true;
        }
        if let Some(slot) = fed.iter().position(|&f| !f) {
            return Err(DfgError::MissingOperand {
                node: v,
                operand: slot as u8,
            });
        }
    }
    topo_order(dfg).map(|_| ())
}

/// The reference canonical form: `(bytes, to_canonical, work)`.
pub fn canonical_form(dfg: &Dfg) -> (Vec<u8>, Vec<u32>, u64) {
    let mut c = Canonicalizer::new(dfg);
    let colors = c.op_color.clone();
    c.search(colors);
    let (bytes, to_canonical) = c.best.expect("search visits at least one leaf");
    (bytes, to_canonical, c.work)
}

fn push_u32(out: &mut Vec<u8>, v: u32) {
    out.extend_from_slice(&v.to_le_bytes());
}

fn push_i64(out: &mut Vec<u8>, v: i64) {
    out.extend_from_slice(&v.to_le_bytes());
}

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

struct Canonicalizer<'a> {
    dfg: &'a Dfg,
    op_color: Vec<u64>,
    best: Option<(Vec<u8>, Vec<u32>)>,
    work: u64,
}

impl<'a> Canonicalizer<'a> {
    fn new(dfg: &'a Dfg) -> Self {
        let op_color = dfg
            .nodes()
            .map(|v| {
                let mut bytes = Vec::with_capacity(9);
                encode_op(dfg.op(v), &mut bytes);
                fnv64(FNV64_OFFSET, &bytes)
            })
            .collect();
        Canonicalizer {
            dfg,
            op_color,
            best: None,
            work: 0,
        }
    }

    fn exhausted(&self) -> bool {
        self.work >= WORK_LIMIT
    }

    fn refine_once(&mut self, colors: &[u64]) -> Vec<u64> {
        self.work += 2 * self.dfg.num_edges() as u64 + self.dfg.num_nodes() as u64;
        let mut sigs: Vec<u64> = Vec::new();
        self.dfg
            .nodes()
            .map(|v| {
                sigs.clear();
                for e in self.dfg.in_edges(v) {
                    sigs.push(self.edge_sig(0, e.operand, e.kind, colors[e.src.index()]));
                }
                for e in self.dfg.out_edges(v) {
                    sigs.push(self.edge_sig(1, e.operand, e.kind, colors[e.dst.index()]));
                }
                sigs.sort_unstable();
                let mut h = colors[v.index()];
                for &s in &sigs {
                    h = fnv64(h, &s.to_le_bytes());
                }
                h
            })
            .collect()
    }

    fn edge_sig(&self, direction: u8, operand: u8, kind: EdgeKind, neighbor_color: u64) -> u64 {
        let (code, distance) = kind_code(kind);
        let mut bytes = Vec::with_capacity(15);
        bytes.push(direction);
        bytes.push(operand);
        bytes.push(code);
        push_u32(&mut bytes, distance);
        bytes.extend_from_slice(&neighbor_color.to_le_bytes());
        fnv64(FNV64_OFFSET, &bytes)
    }

    fn distinct(colors: &[u64]) -> usize {
        let mut sorted = colors.to_vec();
        sorted.sort_unstable();
        sorted.dedup();
        sorted.len()
    }

    fn search(&mut self, mut colors: Vec<u64>) {
        let n = colors.len();
        let mut classes = Self::distinct(&colors);
        for _ in 0..n {
            if self.exhausted() {
                break;
            }
            let next = self.refine_once(&colors);
            let next_classes = Self::distinct(&next);
            if next_classes == classes {
                break;
            }
            classes = next_classes;
            colors = next;
        }
        if classes == n || self.exhausted() {
            self.record_leaf(&colors);
            return;
        }
        let mut sorted = colors.clone();
        sorted.sort_unstable();
        let cell_color = *sorted
            .windows(2)
            .find(|w| w[0] == w[1])
            .map(|w| &w[0])
            .expect("non-discrete partition has a duplicated color");
        for v in 0..n {
            if colors[v] == cell_color {
                let mut branched = colors.clone();
                branched[v] = fnv64(branched[v], b"individualized");
                self.search(branched);
                if self.exhausted() {
                    return;
                }
            }
        }
    }

    fn record_leaf(&mut self, colors: &[u64]) {
        let n = colors.len();
        let mut order: Vec<usize> = (0..n).collect();
        order.sort_unstable_by_key(|&v| (colors[v], v));
        let mut to_canonical = vec![0u32; n];
        for (rank, &v) in order.iter().enumerate() {
            to_canonical[v] = rank as u32;
        }
        let mut bytes = Vec::new();
        bytes.extend_from_slice(b"MDFG1");
        push_u32(&mut bytes, n as u32);
        push_u32(&mut bytes, self.dfg.num_edges() as u32);
        for &v in &order {
            encode_op(self.dfg.op(NodeId::from_index(v)), &mut bytes);
        }
        let mut edges: Vec<(u32, u32, u8, u8, u32)> = self
            .dfg
            .edges()
            .iter()
            .map(|e| {
                let (code, distance) = kind_code(e.kind);
                (
                    to_canonical[e.src.index()],
                    to_canonical[e.dst.index()],
                    e.operand,
                    code,
                    distance,
                )
            })
            .collect();
        edges.sort_unstable();
        for (src, dst, operand, code, distance) in edges {
            push_u32(&mut bytes, src);
            push_u32(&mut bytes, dst);
            bytes.push(operand);
            bytes.push(code);
            push_u32(&mut bytes, distance);
        }
        match &self.best {
            Some((best_bytes, _)) if *best_bytes <= bytes => {}
            _ => self.best = Some((bytes, to_canonical)),
        }
    }
}
