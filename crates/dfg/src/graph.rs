//! The data-flow graph structure and its validation.

use std::fmt;

use serde::{Deserialize, Serialize};

use crate::Operation;

/// Identifier of a DFG node, densely numbered from zero.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize)]
pub struct NodeId(pub(crate) u32);

impl NodeId {
    /// Creates a node id from a raw dense index.
    pub fn from_index(index: usize) -> Self {
        NodeId(index as u32)
    }

    /// The dense index of this node.
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

impl fmt::Debug for NodeId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "n{}", self.0)
    }
}

impl fmt::Display for NodeId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "n{}", self.0)
    }
}

/// The kind of a dependency edge.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug, Serialize, Deserialize)]
pub enum EdgeKind {
    /// An intra-iteration data dependency (black edges in Fig. 2a).
    Data,
    /// A loop-carried dependency crossing `distance ≥ 1` iterations (red
    /// edges in Fig. 2a).
    LoopCarried {
        /// Number of iterations the dependency spans.
        distance: u32,
    },
}

impl EdgeKind {
    /// The iteration distance (0 for data edges).
    pub fn distance(self) -> u32 {
        match self {
            EdgeKind::Data => 0,
            EdgeKind::LoopCarried { distance } => distance,
        }
    }

    /// True for loop-carried edges.
    pub fn is_loop_carried(self) -> bool {
        matches!(self, EdgeKind::LoopCarried { .. })
    }
}

/// A dependency edge: `src` produces a value consumed by `dst` as its
/// `operand`-th input.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug, Serialize, Deserialize)]
pub struct Edge {
    /// Producing node.
    pub src: NodeId,
    /// Consuming node.
    pub dst: NodeId,
    /// Which input slot of `dst` this edge feeds.
    pub operand: u8,
    /// Data or loop-carried.
    pub kind: EdgeKind,
}

#[derive(Clone, Debug, Serialize, Deserialize)]
struct Node {
    op: Operation,
    name: String,
}

/// Errors detected by [`Dfg::validate`] (and returned by
/// [`crate::DfgBuilder::build`]).
///
/// Serializable so mapper error reports carrying a `DfgError` cause
/// round-trip through JSON.
#[derive(Clone, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub enum DfgError {
    /// The acyclic-data-subgraph invariant is violated: a cycle exists
    /// using only data edges.
    DataCycle {
        /// A node on the cycle.
        witness: NodeId,
    },
    /// A node is missing an input: no edge feeds the given operand slot.
    MissingOperand {
        /// The node with the incomplete inputs.
        node: NodeId,
        /// The unfed operand slot.
        operand: u8,
    },
    /// Two edges feed the same operand slot of the same node.
    DuplicateOperand {
        /// The over-fed node.
        node: NodeId,
        /// The operand slot fed twice.
        operand: u8,
    },
    /// An edge feeds an operand slot beyond the node's arity.
    OperandOutOfRange {
        /// The target node.
        node: NodeId,
        /// The out-of-range slot.
        operand: u8,
        /// The node's arity.
        arity: usize,
    },
    /// A data edge from a node to itself.
    SelfDataEdge {
        /// The offending node.
        node: NodeId,
    },
    /// A loop-carried edge with distance zero.
    ZeroDistance {
        /// Source of the offending edge.
        src: NodeId,
        /// Destination of the offending edge.
        dst: NodeId,
    },
    /// A loop-carried edge terminates in a non-φ node.
    LoopCarriedIntoNonPhi {
        /// The non-φ destination.
        node: NodeId,
    },
    /// An edge references a node id that does not exist.
    UnknownNode {
        /// The offending id.
        node: NodeId,
    },
}

impl fmt::Display for DfgError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            DfgError::DataCycle { witness } => {
                write!(f, "data-edge cycle through {witness}")
            }
            DfgError::MissingOperand { node, operand } => {
                write!(f, "operand {operand} of {node} is not fed by any edge")
            }
            DfgError::DuplicateOperand { node, operand } => {
                write!(f, "operand {operand} of {node} is fed by multiple edges")
            }
            DfgError::OperandOutOfRange {
                node,
                operand,
                arity,
            } => write!(
                f,
                "operand {operand} of {node} exceeds its arity of {arity}"
            ),
            DfgError::SelfDataEdge { node } => {
                write!(f, "data edge from {node} to itself")
            }
            DfgError::ZeroDistance { src, dst } => {
                write!(f, "loop-carried edge {src} -> {dst} with distance 0")
            }
            DfgError::LoopCarriedIntoNonPhi { node } => {
                write!(f, "loop-carried edge into non-phi node {node}")
            }
            DfgError::UnknownNode { node } => write!(f, "edge references unknown node {node}"),
        }
    }
}

impl std::error::Error for DfgError {}

/// A loop-body data-flow graph.
///
/// Nodes are instructions ([`Operation`]); edges are data or loop-carried
/// dependencies. The graph must be acyclic over data edges; cycles are
/// closed only through loop-carried edges (which end in φ nodes).
///
/// Construct via [`crate::DfgBuilder`]; direct mutation methods exist for
/// generators and tests, with [`Dfg::validate`] as the invariant check.
#[derive(Clone, Debug, Default, Serialize, Deserialize)]
pub struct Dfg {
    name: String,
    nodes: Vec<Node>,
    edges: Vec<Edge>,
}

impl Dfg {
    /// Creates an empty DFG with a diagnostic name.
    pub fn new(name: impl Into<String>) -> Self {
        Dfg {
            name: name.into(),
            nodes: Vec::new(),
            edges: Vec::new(),
        }
    }

    /// The diagnostic name of this graph.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Adds a node and returns its id.
    pub fn add_node(&mut self, op: Operation, name: impl Into<String>) -> NodeId {
        let id = NodeId(self.nodes.len() as u32);
        self.nodes.push(Node {
            op,
            name: name.into(),
        });
        id
    }

    /// Adds an edge.
    ///
    /// Invariants are only checked by [`Dfg::validate`], so generators
    /// can build graphs freely before a final check.
    pub fn add_edge(&mut self, src: NodeId, dst: NodeId, operand: u8, kind: EdgeKind) {
        self.edges.push(Edge {
            src,
            dst,
            operand,
            kind,
        });
    }

    /// Number of nodes (`|V_G|`).
    pub fn num_nodes(&self) -> usize {
        self.nodes.len()
    }

    /// Number of edges (`|E_G|`, counting each directed dependency once).
    pub fn num_edges(&self) -> usize {
        self.edges.len()
    }

    /// The operation of a node.
    pub fn op(&self, node: NodeId) -> Operation {
        self.nodes[node.index()].op
    }

    /// The diagnostic name of a node.
    pub fn node_name(&self, node: NodeId) -> &str {
        &self.nodes[node.index()].name
    }

    /// Iterates over all node ids in index order.
    pub fn nodes(&self) -> impl Iterator<Item = NodeId> + '_ {
        (0..self.nodes.len() as u32).map(NodeId)
    }

    /// All edges.
    pub fn edges(&self) -> &[Edge] {
        &self.edges
    }

    /// Edges entering `node` (its operands), in edge order.
    ///
    /// One call scans every edge; to visit every node's edges, build
    /// the index once with [`Dfg::adjacency`].
    pub fn in_edges(&self, node: NodeId) -> impl Iterator<Item = &Edge> + '_ {
        self.edges.iter().filter(move |e| e.dst == node)
    }

    /// Edges leaving `node` (its consumers), in edge order.
    ///
    /// One call scans every edge; to visit every node's edges, build
    /// the index once with [`Dfg::adjacency`].
    pub fn out_edges(&self, node: NodeId) -> impl Iterator<Item = &Edge> + '_ {
        self.edges.iter().filter(move |e| e.src == node)
    }

    /// The distinct undirected neighbours of `node` over all edges,
    /// excluding `node` itself, sorted by id. This is the neighbour
    /// notion used by the paper's connectivity constraint and by the
    /// monomorphism search (edge direction is dropped after scheduling,
    /// §IV-B).
    ///
    /// One call scans every edge; for every node's neighbours, use
    /// [`Adjacency::undirected_neighbors`].
    pub fn undirected_neighbors(&self, node: NodeId) -> Vec<NodeId> {
        let mut out: Vec<NodeId> = self
            .edges
            .iter()
            .filter_map(|e| {
                if e.src == node && e.dst != node {
                    Some(e.dst)
                } else if e.dst == node && e.src != node {
                    Some(e.src)
                } else {
                    None
                }
            })
            .collect();
        out.sort_unstable();
        out.dedup();
        out
    }

    /// Maximum undirected degree over all nodes.
    pub fn max_undirected_degree(&self) -> usize {
        let adj = self.adjacency();
        let mut scratch = Vec::new();
        self.nodes()
            .map(|v| {
                adj.undirected_neighbors_into(v, &mut scratch);
                scratch.len()
            })
            .max()
            .unwrap_or(0)
    }

    /// Builds the per-node in/out edge index in `O(V + E)`.
    ///
    /// An edge naming a node id past the last (which fails
    /// [`Dfg::validate`] with [`DfgError::UnknownNode`]) is listed only
    /// at its endpoint that exists, as the per-node scans find it.
    pub fn adjacency(&self) -> Adjacency<'_> {
        let n = self.num_nodes();
        let (in_start, in_list) = csr(n, &self.edges, |e| e.dst.index());
        let (out_start, out_list) = csr(n, &self.edges, |e| e.src.index());
        Adjacency {
            dfg: self,
            in_start,
            in_list,
            out_start,
            out_list,
        }
    }

    /// A topological order of the nodes over data edges only: Kahn's
    /// algorithm with a FIFO queue seeded in index order, successors
    /// visited in edge order.
    ///
    /// # Errors
    ///
    /// Returns [`DfgError::DataCycle`] if data edges form a cycle; the
    /// witness is the lowest-index node left with unmet inputs.
    pub fn topo_order(&self) -> Result<Vec<NodeId>, DfgError> {
        let n = self.num_nodes();
        // The out-edge half of the adjacency index.
        let (out_start, out_list) = csr(n, &self.edges, |e| e.src.index());
        let mut indeg = vec![0u32; n];
        for e in &self.edges {
            if e.kind == EdgeKind::Data {
                indeg[e.dst.index()] += 1;
            }
        }
        // The order doubles as the FIFO queue: everything before `head`
        // has been popped.
        let mut order: Vec<NodeId> = Vec::with_capacity(n);
        order.extend(self.nodes().filter(|v| indeg[v.index()] == 0));
        let mut head = 0;
        while head < order.len() {
            let v = order[head];
            head += 1;
            let out = &out_list[out_start[v.index()] as usize..out_start[v.index() + 1] as usize];
            for e in out.iter().map(|&i| &self.edges[i as usize]) {
                if e.kind == EdgeKind::Data {
                    let d = e.dst.index();
                    indeg[d] -= 1;
                    if indeg[d] == 0 {
                        order.push(e.dst);
                    }
                }
            }
        }
        if order.len() != n {
            let witness = self
                .nodes()
                .find(|v| indeg[v.index()] > 0)
                .expect("cycle implies a node with positive in-degree");
            return Err(DfgError::DataCycle { witness });
        }
        Ok(order)
    }

    /// Checks all structural invariants.
    ///
    /// The checks run in a fixed order, and the first violation is
    /// returned: edge by edge, an unknown endpoint (source first), then
    /// the edge's own kind rules; then node by node, each in-edge in
    /// edge order against the node's operand slots (out of range, fed
    /// twice), then the lowest unfed slot; then data-edge acyclicity.
    ///
    /// # Errors
    ///
    /// Returns the first violation found; see [`DfgError`].
    pub fn validate(&self) -> Result<(), DfgError> {
        let n = self.num_nodes();
        for e in &self.edges {
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
                    if !matches!(self.op(e.dst), Operation::Phi(_)) {
                        return Err(DfgError::LoopCarriedIntoNonPhi { node: e.dst });
                    }
                }
            }
        }
        // Operand completeness, in one pass over the edges: each node
        // keeps a bitmask of its fed slots and its first faulty in-edge
        // (out of range or fed twice, in edge order, as a walk over the
        // node's in-edges meets them); the lowest-index node with a
        // fault or a gap reports.
        let mut fed = vec![0u8; n];
        let mut first_fault = vec![NO_FAULT; n];
        for (i, e) in self.edges.iter().enumerate() {
            let v = e.dst.index();
            if first_fault[v] != NO_FAULT {
                continue;
            }
            let slot = e.operand as usize;
            if slot >= self.nodes[v].op.arity() || fed[v] & (1 << slot) != 0 {
                first_fault[v] = i as u32;
            } else {
                fed[v] |= 1 << slot;
            }
        }
        for (v, &fault) in first_fault.iter().enumerate() {
            let node = NodeId(v as u32);
            let arity = self.nodes[v].op.arity();
            if fault != NO_FAULT {
                let operand = self.edges[fault as usize].operand;
                return Err(if operand as usize >= arity {
                    DfgError::OperandOutOfRange {
                        node,
                        operand,
                        arity,
                    }
                } else {
                    DfgError::DuplicateOperand { node, operand }
                });
            }
            let unfed = !fed[v] & OPERAND_MASK[arity];
            if unfed != 0 {
                return Err(DfgError::MissingOperand {
                    node,
                    operand: unfed.trailing_zeros() as u8,
                });
            }
        }
        self.topo_order().map(|_| ())
    }

    /// The simple cycles closed by loop-carried edges, as
    /// `(length, distance)` pairs, where `length` is the number of nodes
    /// on the cycle (unit latency each) and `distance` the edge's
    /// iteration distance. Used for `RecII`.
    ///
    /// For each loop-carried edge `u -> v`, the length is the longest
    /// data path from `v` back to `u` plus one (the loop-carried edge
    /// itself); edges whose endpoints are not data-connected contribute
    /// the trivial self-cycle of length 1.
    pub fn recurrence_cycles(&self) -> Vec<(usize, u32)> {
        let order = match self.topo_order() {
            Ok(o) => o,
            Err(_) => return Vec::new(),
        };
        let adj = self.adjacency();
        let mut cycles = Vec::new();
        for e in &self.edges {
            if let EdgeKind::LoopCarried { distance } = e.kind {
                if e.src == e.dst {
                    cycles.push((1, distance));
                    continue;
                }
                // Longest data path v = e.dst  ..  u = e.src, counted in
                // edges; -inf when unreachable.
                let mut dist = vec![i64::MIN; self.num_nodes()];
                dist[e.dst.index()] = 0;
                for &w in &order {
                    if dist[w.index()] == i64::MIN {
                        continue;
                    }
                    for oe in adj.out_edges(w).filter(|x| x.kind == EdgeKind::Data) {
                        let cand = dist[w.index()] + 1;
                        if cand > dist[oe.dst.index()] {
                            dist[oe.dst.index()] = cand;
                        }
                    }
                }
                if dist[e.src.index()] != i64::MIN {
                    // Path edges + the loop-carried edge; node count along
                    // the cycle equals edge count, each node 1 cycle of
                    // latency.
                    cycles.push((dist[e.src.index()] as usize + 1, distance));
                }
            }
        }
        cycles
    }
}

/// `OPERAND_MASK[arity]` has one bit per operand slot; every
/// [`Operation`] has at most three.
const OPERAND_MASK: [u8; 4] = [0b000, 0b001, 0b011, 0b111];

/// "No faulty in-edge yet" in [`Dfg::validate`]'s operand pass.
const NO_FAULT: u32 = u32::MAX;

/// A compressed-sparse-row index over a [`Dfg`]'s edges: for every
/// node, its in-edges and its out-edges, each in edge order. Built by
/// [`Dfg::adjacency`] in `O(V + E)`; borrowing the graph, it cannot
/// outlive a later `add_node`/`add_edge`.
///
/// It answers the per-node queries that otherwise scan every edge
/// ([`Dfg::in_edges`], [`Dfg::out_edges`],
/// [`Dfg::undirected_neighbors`]) with the same items in the same
/// order, so a loop over all nodes is linear rather than `O(V·E)`.
#[derive(Clone, Debug)]
pub struct Adjacency<'a> {
    dfg: &'a Dfg,
    /// `in_list[in_start[v]..in_start[v + 1]]` are the indices of the
    /// edges entering `v`.
    in_start: Vec<u32>,
    in_list: Vec<u32>,
    /// Likewise for the edges leaving `v`.
    out_start: Vec<u32>,
    out_list: Vec<u32>,
}

impl<'a> Adjacency<'a> {
    /// Edges entering `node`, in edge order (as [`Dfg::in_edges`]).
    pub fn in_edges(&self, node: NodeId) -> impl Iterator<Item = &'a Edge> + '_ {
        let v = node.index();
        let edges = &self.dfg.edges;
        self.in_list[self.in_start[v] as usize..self.in_start[v + 1] as usize]
            .iter()
            .map(move |&i| &edges[i as usize])
    }

    /// Edges leaving `node`, in edge order (as [`Dfg::out_edges`]).
    pub fn out_edges(&self, node: NodeId) -> impl Iterator<Item = &'a Edge> + '_ {
        let v = node.index();
        let edges = &self.dfg.edges;
        self.out_list[self.out_start[v] as usize..self.out_start[v + 1] as usize]
            .iter()
            .map(move |&i| &edges[i as usize])
    }

    /// The distinct undirected neighbours of `node`, excluding `node`
    /// itself, sorted by id (as [`Dfg::undirected_neighbors`]).
    pub fn undirected_neighbors(&self, node: NodeId) -> Vec<NodeId> {
        let mut out = Vec::new();
        self.undirected_neighbors_into(node, &mut out);
        out
    }

    /// [`Adjacency::undirected_neighbors`] into a reused buffer (cleared
    /// first).
    pub fn undirected_neighbors_into(&self, node: NodeId, out: &mut Vec<NodeId>) {
        out.clear();
        out.extend(self.out_edges(node).map(|e| e.dst));
        out.extend(self.in_edges(node).map(|e| e.src));
        out.retain(|&u| u != node);
        out.sort_unstable();
        out.dedup();
    }
}

/// A counting sort of edge indices by `key`: `list[start[k]..start[k +
/// 1]]` are the indices of the edges with key `k`, in edge order.
/// Edges with a key `>= n` are left out.
fn csr(n: usize, edges: &[Edge], key: impl Fn(&Edge) -> usize) -> (Vec<u32>, Vec<u32>) {
    let mut start = vec![0u32; n + 1];
    for e in edges {
        if key(e) < n {
            start[key(e) + 1] += 1;
        }
    }
    for k in 0..n {
        start[k + 1] += start[k];
    }
    // Fill through `start[k]` as a cursor; afterwards `start[k]` holds
    // the end of key `k`, which is the start of `k + 1`: shift back.
    let mut list = vec![0u32; start[n] as usize];
    for (i, e) in edges.iter().enumerate() {
        let k = key(e);
        if k < n {
            list[start[k] as usize] = i as u32;
            start[k] += 1;
        }
    }
    start.copy_within(0..n, 1);
    start[0] = 0;
    (start, list)
}

impl fmt::Display for Dfg {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "dfg {:?}: {} nodes, {} edges",
            self.name,
            self.num_nodes(),
            self.num_edges()
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Operation as Op;

    fn diamond() -> Dfg {
        // a -> b, a -> c, (b,c) -> d
        let mut g = Dfg::new("diamond");
        let a = g.add_node(Op::Input(0), "a");
        let b = g.add_node(Op::Neg, "b");
        let c = g.add_node(Op::Not, "c");
        let d = g.add_node(Op::Add, "d");
        g.add_edge(a, b, 0, EdgeKind::Data);
        g.add_edge(a, c, 0, EdgeKind::Data);
        g.add_edge(b, d, 0, EdgeKind::Data);
        g.add_edge(c, d, 1, EdgeKind::Data);
        g
    }

    #[test]
    fn diamond_is_valid() {
        let g = diamond();
        assert!(g.validate().is_ok());
        assert_eq!(g.num_nodes(), 4);
        assert_eq!(g.num_edges(), 4);
    }

    #[test]
    fn topo_order_respects_edges() {
        let g = diamond();
        let order = g.topo_order().unwrap();
        let pos: Vec<usize> = g
            .nodes()
            .map(|v| order.iter().position(|&x| x == v).unwrap())
            .collect();
        for e in g.edges() {
            assert!(pos[e.src.index()] < pos[e.dst.index()]);
        }
    }

    #[test]
    fn data_cycle_detected() {
        let mut g = Dfg::new("cyclic");
        let a = g.add_node(Op::Neg, "a");
        let b = g.add_node(Op::Neg, "b");
        g.add_edge(a, b, 0, EdgeKind::Data);
        g.add_edge(b, a, 0, EdgeKind::Data);
        assert!(matches!(g.validate(), Err(DfgError::DataCycle { .. })));
    }

    #[test]
    fn missing_operand_detected() {
        let mut g = Dfg::new("missing");
        let a = g.add_node(Op::Input(0), "a");
        let b = g.add_node(Op::Add, "b");
        g.add_edge(a, b, 0, EdgeKind::Data);
        assert_eq!(
            g.validate(),
            Err(DfgError::MissingOperand {
                node: b,
                operand: 1
            })
        );
    }

    #[test]
    fn duplicate_operand_detected() {
        let mut g = Dfg::new("dup");
        let a = g.add_node(Op::Input(0), "a");
        let b = g.add_node(Op::Neg, "b");
        g.add_edge(a, b, 0, EdgeKind::Data);
        g.add_edge(a, b, 0, EdgeKind::Data);
        assert_eq!(
            g.validate(),
            Err(DfgError::DuplicateOperand {
                node: b,
                operand: 0
            })
        );
    }

    #[test]
    fn operand_out_of_range_detected() {
        let mut g = Dfg::new("range");
        let a = g.add_node(Op::Input(0), "a");
        let b = g.add_node(Op::Neg, "b");
        g.add_edge(a, b, 3, EdgeKind::Data);
        assert!(matches!(
            g.validate(),
            Err(DfgError::OperandOutOfRange { .. })
        ));
    }

    #[test]
    fn loop_carried_must_hit_phi() {
        let mut g = Dfg::new("lc");
        let a = g.add_node(Op::Input(0), "a");
        let b = g.add_node(Op::Neg, "b");
        g.add_edge(a, b, 0, EdgeKind::Data);
        g.add_edge(b, a, 0, EdgeKind::LoopCarried { distance: 1 });
        assert!(matches!(
            g.validate(),
            Err(DfgError::LoopCarriedIntoNonPhi { .. })
        ));
    }

    #[test]
    fn zero_distance_rejected() {
        let mut g = Dfg::new("zd");
        let p = g.add_node(Op::Phi(0), "p");
        let b = g.add_node(Op::Neg, "b");
        g.add_edge(p, b, 0, EdgeKind::Data);
        g.add_edge(b, p, 0, EdgeKind::LoopCarried { distance: 0 });
        assert!(matches!(g.validate(), Err(DfgError::ZeroDistance { .. })));
    }

    #[test]
    fn accumulator_is_valid_and_has_cycle() {
        let mut g = Dfg::new("acc");
        let x = g.add_node(Op::Input(0), "x");
        let p = g.add_node(Op::Phi(0), "p");
        let s = g.add_node(Op::Add, "s");
        g.add_edge(p, s, 0, EdgeKind::Data);
        g.add_edge(x, s, 1, EdgeKind::Data);
        g.add_edge(s, p, 0, EdgeKind::LoopCarried { distance: 1 });
        assert!(g.validate().is_ok());
        let cycles = g.recurrence_cycles();
        assert_eq!(cycles, vec![(2, 1)]); // phi -> add -> (lc) phi
    }

    #[test]
    fn recurrence_length_uses_longest_path() {
        // phi -> a -> b -> c -(lc)-> phi, plus a shortcut phi -> c.
        let mut g = Dfg::new("rec");
        let p = g.add_node(Op::Phi(0), "p");
        let a = g.add_node(Op::Neg, "a");
        let b = g.add_node(Op::Not, "b");
        let c = g.add_node(Op::Add, "c");
        g.add_edge(p, a, 0, EdgeKind::Data);
        g.add_edge(a, b, 0, EdgeKind::Data);
        g.add_edge(b, c, 0, EdgeKind::Data);
        g.add_edge(p, c, 1, EdgeKind::Data);
        g.add_edge(c, p, 0, EdgeKind::LoopCarried { distance: 1 });
        assert!(g.validate().is_ok());
        assert_eq!(g.recurrence_cycles(), vec![(4, 1)]);
    }

    #[test]
    fn undirected_neighbors_dedup() {
        let mut g = Dfg::new("nbrs");
        let p = g.add_node(Op::Phi(0), "p");
        let b = g.add_node(Op::Neg, "b");
        g.add_edge(p, b, 0, EdgeKind::Data);
        g.add_edge(b, p, 0, EdgeKind::LoopCarried { distance: 1 });
        // Two directed edges between the same pair: one neighbour.
        assert_eq!(g.undirected_neighbors(p), vec![b]);
        assert_eq!(g.undirected_neighbors(b), vec![p]);
        assert_eq!(g.max_undirected_degree(), 1);
    }

    #[test]
    fn display_summarises() {
        let g = diamond();
        assert_eq!(g.to_string(), "dfg \"diamond\": 4 nodes, 4 edges");
    }
}
