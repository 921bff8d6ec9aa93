//! Structural metrics of a DFG — the quantities that drive mapping
//! difficulty (used by the bench reports and handy for kernel triage).

use std::collections::BTreeMap;

use crate::{Dfg, EdgeKind};

/// Summary statistics of a DFG's structure.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct DfgMetrics {
    /// Node count (`|V_G|`).
    pub nodes: usize,
    /// Directed edge count (`|E_G|`).
    pub edges: usize,
    /// Loop-carried edge count.
    pub loop_carried_edges: usize,
    /// Critical-path length over data edges (cycles, unit latency).
    pub depth: usize,
    /// Maximum number of nodes at one ASAP level (graph width).
    pub width: usize,
    /// Maximum undirected degree.
    pub max_degree: usize,
    /// Histogram of operation mnemonics.
    pub op_histogram: BTreeMap<&'static str, usize>,
    /// Number of memory operations (loads + stores).
    pub memory_ops: usize,
}

impl DfgMetrics {
    /// Computes the metrics of a graph.
    ///
    /// # Panics
    ///
    /// Panics if the data subgraph is cyclic (validate first).
    pub fn of(dfg: &Dfg) -> DfgMetrics {
        let order = dfg
            .topo_order()
            .expect("metrics need an acyclic data subgraph");
        let adj = dfg.adjacency();
        let mut level = vec![0usize; dfg.num_nodes()];
        for &v in &order {
            for e in adj.out_edges(v).filter(|e| e.kind == EdgeKind::Data) {
                level[e.dst.index()] = level[e.dst.index()].max(level[v.index()] + 1);
            }
        }
        let depth = level.iter().map(|&l| l + 1).max().unwrap_or(0);
        let mut width_at = vec![0usize; depth.max(1)];
        for &l in &level {
            width_at[l] += 1;
        }
        let mut op_histogram: BTreeMap<&'static str, usize> = BTreeMap::new();
        let mut memory_ops = 0;
        for v in dfg.nodes() {
            let op = dfg.op(v);
            *op_histogram.entry(op.mnemonic()).or_insert(0) += 1;
            if op.is_memory() {
                memory_ops += 1;
            }
        }
        DfgMetrics {
            nodes: dfg.num_nodes(),
            edges: dfg.num_edges(),
            loop_carried_edges: dfg
                .edges()
                .iter()
                .filter(|e| e.kind.is_loop_carried())
                .count(),
            depth,
            width: width_at.iter().copied().max().unwrap_or(0),
            max_degree: dfg.max_undirected_degree(),
            op_histogram,
            memory_ops,
        }
    }

    /// Average instruction-level parallelism (`nodes / depth`).
    pub fn avg_parallelism(&self) -> f64 {
        self.nodes as f64 / self.depth.max(1) as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::examples::{accumulator, running_example};

    #[test]
    fn running_example_metrics() {
        let m = DfgMetrics::of(&running_example());
        assert_eq!(m.nodes, 14);
        assert_eq!(m.edges, 15);
        assert_eq!(m.loop_carried_edges, 1);
        assert_eq!(m.depth, 6); // Table I schedule length
        assert_eq!(m.width, 5); // five ASAP-0 nodes
        assert_eq!(m.memory_ops, 2); // ld11, st10
        assert_eq!(m.op_histogram["input"], 3);
    }

    #[test]
    fn accumulator_metrics() {
        let m = DfgMetrics::of(&accumulator());
        assert_eq!(m.nodes, 4);
        assert_eq!(m.depth, 3); // x/phi -> sum -> out
        assert!(m.avg_parallelism() > 1.0);
    }
}
