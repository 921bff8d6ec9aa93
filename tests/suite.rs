//! The 17 suite kernels through the DFG layer: canonical digests that
//! survive renumbering and tell the kernels apart, and metrics that
//! agree with the graphs.

use monomap::dfg::DfgMetrics;
use monomap::prelude::*;

mod common;
use common::renumbered;

#[test]
fn renumbered_graphs_share_digest_across_the_suite() {
    for dfg in suite::generate_all() {
        let d0 = dfg.digest();
        for seed in [3, 17, 99] {
            let name = dfg.name();
            assert_eq!(renumbered(&dfg, seed).digest(), d0, "{name} seed {seed}");
        }
    }
}

#[test]
fn suite_digests_are_pairwise_distinct() {
    let mut digests: Vec<(String, _)> = suite::generate_all()
        .iter()
        .map(|g| (g.name().to_string(), g.digest()))
        .collect();
    digests.push(("running_example".into(), running_example().digest()));
    for i in 0..digests.len() {
        for j in (i + 1)..digests.len() {
            assert_ne!(
                digests[i].1, digests[j].1,
                "{} vs {}",
                digests[i].0, digests[j].0
            );
        }
    }
}

#[test]
fn suite_metrics_are_consistent() {
    for dfg in suite::generate_all() {
        let name = dfg.name();
        let m = DfgMetrics::of(&dfg);
        assert_eq!(m.nodes, dfg.num_nodes(), "{name}");
        assert!(m.depth >= 1 && m.depth <= m.nodes, "{name}");
        assert!(m.width >= 1, "{name}");
        assert_eq!(
            m.op_histogram.values().sum::<usize>(),
            m.nodes,
            "{name}: histogram covers all nodes"
        );
        assert!(m.loop_carried_edges >= 1, "{name}: suite kernels loop");
    }
}
