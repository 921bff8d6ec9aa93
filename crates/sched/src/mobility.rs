//! ASAP/ALAP scheduling and the Mobility Schedule (paper Table I).

use std::fmt::Write as _;

use cgra_dfg::{Dfg, DfgError, EdgeKind, NodeId};

/// ASAP and ALAP schedules of a DFG over its data edges (unit latency),
/// defining each node's mobility window.
///
/// Loop-carried edges are ignored here — they are handled by the modulo
/// constraints of the time solver — so the windows match the paper's
/// Table I exactly.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Mobility {
    asap: Vec<usize>,
    alap: Vec<usize>,
    length: usize,
}

impl Mobility {
    /// Computes ASAP/ALAP windows.
    ///
    /// # Errors
    ///
    /// Returns [`DfgError::DataCycle`] if the data subgraph is cyclic.
    pub fn compute(dfg: &Dfg) -> Result<Mobility, DfgError> {
        let order = dfg.topo_order()?;
        let adj = dfg.adjacency();
        let n = dfg.num_nodes();
        let mut asap = vec![0usize; n];
        for &v in &order {
            for e in adj.out_edges(v).filter(|e| e.kind == EdgeKind::Data) {
                asap[e.dst.index()] = asap[e.dst.index()].max(asap[v.index()] + 1);
            }
        }
        let length = asap.iter().map(|&t| t + 1).max().unwrap_or(0);
        let mut alap = vec![length.saturating_sub(1); n];
        for &v in order.iter().rev() {
            for e in adj.out_edges(v).filter(|e| e.kind == EdgeKind::Data) {
                alap[v.index()] = alap[v.index()].min(alap[e.dst.index()] - 1);
            }
        }
        Ok(Mobility { asap, alap, length })
    }

    /// Number of nodes covered by these windows.
    pub fn num_nodes(&self) -> usize {
        self.asap.len()
    }

    /// The ASAP time of a node.
    pub fn asap(&self, v: NodeId) -> usize {
        self.asap[v.index()]
    }

    /// The ALAP time of a node.
    pub fn alap(&self, v: NodeId) -> usize {
        self.alap[v.index()]
    }

    /// The schedule length (critical-path length in cycles; `MobS
    /// length` in the paper).
    pub fn length(&self) -> usize {
        self.length
    }

    /// The inclusive mobility window of a node.
    pub fn window(&self, v: NodeId) -> std::ops::RangeInclusive<usize> {
        self.asap[v.index()]..=self.alap[v.index()]
    }

    /// The mobility (window width minus one) of a node.
    pub fn mobility(&self, v: NodeId) -> usize {
        self.alap[v.index()] - self.asap[v.index()]
    }

    /// True when the dependences of `dfg`, the graph these windows were
    /// computed from, leave no schedule at `ii` whose times lie in the
    /// KMS windows extended by `slack · ii` (see
    /// [`crate::Kms::with_slack`]): pushing every node up from its ASAP
    /// time along `T_d ≥ T_s + 1` (data edges) and
    /// `T_d ≥ T_s + 1 − d·II` (loop-carried edges of distance `d`) drives
    /// some node past `alap + slack · ii`.
    ///
    /// Every schedule the [`crate::TimeSolver`] formula or
    /// [`crate::ims_schedule`] can return satisfies those windows and
    /// edges, so a refuted level has none; without capacity and
    /// connectivity constraints the converse holds too, as the pushed
    /// times are then a schedule.
    pub fn refutes(&self, dfg: &Dfg, ii: usize, slack: usize) -> bool {
        let mut earliest = self.asap.clone();
        loop {
            let mut moved = false;
            for e in dfg.edges() {
                let lag = match e.kind {
                    // A self loop-carried edge holds for any schedule.
                    _ if e.src == e.dst => continue,
                    EdgeKind::Data => 0,
                    EdgeKind::LoopCarried { distance } => distance as usize * ii,
                };
                let (s, d) = (e.src.index(), e.dst.index());
                let need = (earliest[s] + 1).saturating_sub(lag);
                if need > earliest[d] {
                    if need > self.alap[d] + slack * ii {
                        return true;
                    }
                    earliest[d] = need;
                    moved = true;
                }
            }
            // Each pass that moves a node raises it within its bounded
            // window, so the loop ends.
            if !moved {
                return false;
            }
        }
    }

    /// Nodes whose mobility window contains time `t` (a MobS row).
    pub fn eligible_at(&self, t: usize) -> Vec<NodeId> {
        (0..self.asap.len())
            .filter(|&i| self.asap[i] <= t && t <= self.alap[i])
            .map(NodeId::from_index)
            .collect()
    }

    /// Renders the ASAP/ALAP/MobS table in the style of the paper's
    /// Table I: one row per time step listing the nodes scheduled there
    /// (ASAP, ALAP) and eligible there (MobS).
    pub fn to_table_string(&self) -> String {
        let mut out = String::new();
        let _ = writeln!(
            out,
            "{:>4} | {:<20} | {:<20} | MobS",
            "Time", "ASAP", "ALAP"
        );
        for t in 0..self.length {
            let fmt = |ids: Vec<usize>| {
                ids.iter()
                    .map(|i| i.to_string())
                    .collect::<Vec<_>>()
                    .join(" ")
            };
            let asap_row: Vec<usize> = (0..self.asap.len())
                .filter(|&i| self.asap[i] == t)
                .collect();
            let alap_row: Vec<usize> = (0..self.alap.len())
                .filter(|&i| self.alap[i] == t)
                .collect();
            let mob_row: Vec<usize> = self.eligible_at(t).iter().map(|v| v.index()).collect();
            let _ = writeln!(
                out,
                "{:>4} | {:<20} | {:<20} | {}",
                t,
                fmt(asap_row),
                fmt(alap_row),
                fmt(mob_row)
            );
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cgra_dfg::examples::running_example;
    use cgra_dfg::{DfgBuilder, Operation as Op};

    fn ids(v: Vec<NodeId>) -> Vec<usize> {
        v.into_iter().map(|n| n.index()).collect()
    }

    /// Golden test against the paper's Table I.
    #[test]
    fn table1_running_example() {
        let dfg = running_example();
        let m = Mobility::compute(&dfg).unwrap();
        assert_eq!(m.length(), 6);

        // ASAP rows of Table I.
        let asap_expected: [&[usize]; 6] = [
            &[0, 1, 2, 3, 4],
            &[5, 11],
            &[6, 12],
            &[7, 8, 13],
            &[9],
            &[10],
        ];
        // ALAP rows of Table I.
        let alap_expected: [&[usize]; 6] = [
            &[4],
            &[3, 5],
            &[0, 2, 6],
            &[1, 8, 11],
            &[7, 9, 12],
            &[10, 13],
        ];
        // MobS rows of Table I.
        let mobs_expected: [&[usize]; 6] = [
            &[0, 1, 2, 3, 4],
            &[0, 1, 2, 3, 5, 11],
            &[0, 1, 2, 6, 11, 12],
            &[1, 7, 8, 11, 12, 13],
            &[7, 9, 12, 13],
            &[10, 13],
        ];
        for t in 0..6 {
            let asap_row: Vec<usize> = (0..14).filter(|&i| m.asap[i] == t).collect();
            let alap_row: Vec<usize> = (0..14).filter(|&i| m.alap[i] == t).collect();
            assert_eq!(asap_row, asap_expected[t], "ASAP row {t}");
            assert_eq!(alap_row, alap_expected[t], "ALAP row {t}");
            assert_eq!(ids(m.eligible_at(t)), mobs_expected[t], "MobS row {t}");
        }
    }

    #[test]
    fn asap_below_alap_always() {
        let dfg = running_example();
        let m = Mobility::compute(&dfg).unwrap();
        for v in dfg.nodes() {
            assert!(m.asap(v) <= m.alap(v), "{v}");
            assert!(m.alap(v) < m.length());
        }
    }

    #[test]
    fn chain_has_no_mobility() {
        let mut b = DfgBuilder::new();
        let x = b.input("x");
        let a = b.unary("a", Op::Neg, x);
        let c = b.unary("c", Op::Not, a);
        b.output("o", c);
        let dfg = b.build().unwrap();
        let m = Mobility::compute(&dfg).unwrap();
        for v in dfg.nodes() {
            assert_eq!(m.mobility(v), 0);
        }
        assert_eq!(m.length(), 4);
    }

    #[test]
    fn independent_nodes_have_full_mobility() {
        let mut b = DfgBuilder::new();
        let x = b.input("x");
        let _y = b.input("y");
        let a = b.unary("a", Op::Neg, x);
        b.output("o", a);
        let dfg = b.build().unwrap();
        let m = Mobility::compute(&dfg).unwrap();
        // y is unconstrained: window spans the whole schedule.
        assert_eq!(m.window(cgra_dfg::NodeId::from_index(1)), 0..=2);
    }

    #[test]
    fn single_node_graph() {
        let mut b = DfgBuilder::new();
        b.input("x");
        let dfg = b.build().unwrap();
        let m = Mobility::compute(&dfg).unwrap();
        assert_eq!(m.length(), 1);
        assert_eq!(m.window(cgra_dfg::NodeId::from_index(0)), 0..=0);
    }

    /// `φ → a → m → c` with `c → φ` loop-carried at distance 1: RecII 4.
    fn recurrence() -> Dfg {
        let mut b = DfgBuilder::new();
        let x = b.input("x");
        let phi = b.phi("phi", 0);
        let a = b.binary("a", Op::Add, phi, x);
        let m = b.unary("m", Op::Neg, a);
        let c = b.unary("c", Op::Not, m);
        b.loop_carried(c, phi, 1);
        b.output("o", c);
        b.build().unwrap()
    }

    #[test]
    fn recurrence_is_refuted_below_rec_ii_only() {
        let dfg = recurrence();
        let m = Mobility::compute(&dfg).unwrap();
        // Below II 4 the cycle gains a step per lap: no slack holds it.
        for slack in 0..4 {
            assert!(m.refutes(&dfg, 3, slack), "slack {slack}");
        }
        for ii in 4..7 {
            assert!(!m.refutes(&dfg, ii, 0), "II {ii}");
        }
    }

    #[test]
    fn data_edges_alone_never_refute() {
        let mut b = DfgBuilder::new();
        let x = b.input("x");
        let y = b.input("y");
        let a = b.unary("a", Op::Neg, x);
        let c = b.binary("c", Op::Add, a, y);
        b.output("o", c);
        let dfg = b.build().unwrap();
        let m = Mobility::compute(&dfg).unwrap();
        for ii in 1..8 {
            assert!(!m.refutes(&dfg, ii, 0), "II {ii}");
        }
    }

    #[test]
    fn running_example_is_refuted_below_rec_ii() {
        let dfg = running_example();
        let m = Mobility::compute(&dfg).unwrap();
        assert_eq!(crate::rec_ii(&dfg), 4);
        for ii in 1..8 {
            for slack in 0..3 {
                assert_eq!(m.refutes(&dfg, ii, slack), ii < 4, "II {ii} slack {slack}");
            }
        }
    }

    #[test]
    fn table_rendering_contains_rows() {
        let dfg = running_example();
        let m = Mobility::compute(&dfg).unwrap();
        let s = m.to_table_string();
        assert!(s.contains("MobS"));
        assert_eq!(s.lines().count(), 7); // header + 6 time rows
    }
}
