//! The Kernel Mobility Schedule (paper §IV-B, Table II).

use std::fmt::Write as _;

use cgra_dfg::NodeId;

use crate::Mobility;

/// One candidate placement of a node in the KMS: an absolute time within
/// the (possibly slack-extended) mobility window, decomposed into kernel
/// slot and folding iteration.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord)]
pub struct KmsEntry {
    /// The node.
    pub node: NodeId,
    /// Absolute schedule time `T`.
    pub time: usize,
    /// Kernel slot `T mod II` (the vertex label after scheduling).
    pub slot: usize,
    /// Folding iteration `T div II` (the `it` subscript of Table II).
    pub iteration: usize,
}

/// The Kernel Mobility Schedule: the superset of all possible schedules
/// for a given `II`, produced by folding the mobility schedule by `II`.
///
/// Each node contributes one [`KmsEntry`] per time step in its mobility
/// window; entries are grouped by kernel slot. An optional window slack
/// extends every ALAP bound by `slack · II` (see docs/ARCHITECTURE.md,
/// "The time phase" — a pure
/// window fold can be unsatisfiable even when a legal modulo schedule
/// exists, e.g. when capacity forces independent operations apart).
#[derive(Clone, Debug)]
pub struct Kms {
    ii: usize,
    slack: usize,
    rows: Vec<Vec<KmsEntry>>,
    /// Interleaving depth `⌈length / II⌉` before slack.
    interleave: usize,
}

impl Kms {
    /// Folds `mobility` by `ii` with no window slack (the paper's
    /// construction).
    ///
    /// # Panics
    ///
    /// Panics if `ii == 0`.
    pub fn new(mobility: &Mobility, ii: usize) -> Kms {
        Kms::with_slack(mobility, ii, 0)
    }

    /// Folds `mobility` by `ii`, extending every node's ALAP bound by
    /// `slack · ii` time steps.
    ///
    /// # Panics
    ///
    /// Panics if `ii == 0`.
    pub fn with_slack(mobility: &Mobility, ii: usize, slack: usize) -> Kms {
        assert!(ii > 0, "iteration interval must be positive");
        let mut rows: Vec<Vec<KmsEntry>> = vec![Vec::new(); ii];
        let n = mobility.length();
        let num_nodes = mobility.num_nodes();
        for i in 0..num_nodes {
            let v = NodeId::from_index(i);
            let hi = mobility.alap(v) + slack * ii;
            for time in mobility.asap(v)..=hi {
                rows[time % ii].push(KmsEntry {
                    node: v,
                    time,
                    slot: time % ii,
                    iteration: time / ii,
                });
            }
        }
        for row in &mut rows {
            row.sort();
        }
        Kms {
            ii,
            slack,
            rows,
            interleave: n.div_ceil(ii),
        }
    }

    /// The iteration interval.
    pub fn ii(&self) -> usize {
        self.ii
    }

    /// The window slack the KMS was built with.
    pub fn slack(&self) -> usize {
        self.slack
    }

    /// Number of loop iterations interleaved in the kernel
    /// (`⌈MobS length / II⌉`, paper §IV-B).
    pub fn interleave_depth(&self) -> usize {
        self.interleave
    }

    /// The entries of a kernel slot.
    pub fn row(&self, slot: usize) -> &[KmsEntry] {
        &self.rows[slot]
    }

    /// Iterates over all entries, slot-major.
    pub fn entries(&self) -> impl Iterator<Item = &KmsEntry> + '_ {
        self.rows.iter().flatten()
    }

    /// The candidate absolute times of one node.
    pub fn times_of(&self, v: NodeId) -> Vec<usize> {
        let mut ts: Vec<usize> = self
            .entries()
            .filter(|e| e.node == v)
            .map(|e| e.time)
            .collect();
        ts.sort_unstable();
        ts
    }

    /// Renders the KMS like the paper's Table II: one row per kernel
    /// slot listing `node_iteration` candidates.
    ///
    /// Note: the paper's table rotates rows so that the steady-state
    /// kernel window `[length − II, length)` appears first; this
    /// rendering uses canonical slots (`slot = T mod II`), which carries
    /// the same information (see the golden test).
    pub fn to_table_string(&self) -> String {
        let mut out = String::new();
        let _ = writeln!(out, "{:>4} | Nodes (node_iteration)", "Slot");
        for (s, row) in self.rows.iter().enumerate() {
            let cells: Vec<String> = row
                .iter()
                .map(|e| format!("{}_{}", e.node.index(), e.iteration))
                .collect();
            let _ = writeln!(out, "{:>4} | {}", s, cells.join(" "));
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cgra_dfg::examples::running_example;

    fn kms4() -> Kms {
        let dfg = running_example();
        let m = Mobility::compute(&dfg).unwrap();
        Kms::new(&m, 4)
    }

    fn row_pairs(kms: &Kms, slot: usize) -> Vec<(usize, usize)> {
        kms.row(slot)
            .iter()
            .map(|e| (e.node.index(), e.iteration))
            .collect()
    }

    /// Golden test against the paper's Table II (canonical slot
    /// numbering; the paper displays the same rows rotated by
    /// `length − II = 2` with iteration subscripts counted from the
    /// kernel window start — see module docs).
    #[test]
    fn table2_running_example() {
        let kms = kms4();
        assert_eq!(kms.interleave_depth(), 2); // ⌈6/4⌉ = 2 (paper §IV-B)

        // Slot 0 = times {0, 4}: MobS(0) at iteration 0, MobS(4) at 1.
        assert_eq!(
            row_pairs(&kms, 0),
            vec![
                (0, 0),
                (1, 0),
                (2, 0),
                (3, 0),
                (4, 0),
                (7, 1),
                (9, 1),
                (12, 1),
                (13, 1)
            ]
        );
        // Slot 1 = times {1, 5}.
        assert_eq!(
            row_pairs(&kms, 1),
            vec![
                (0, 0),
                (1, 0),
                (2, 0),
                (3, 0),
                (5, 0),
                (10, 1),
                (11, 0),
                (13, 1)
            ]
        );
        // Slot 2 = time {2} only.
        assert_eq!(
            row_pairs(&kms, 2),
            vec![(0, 0), (1, 0), (2, 0), (6, 0), (11, 0), (12, 0)]
        );
        // Slot 3 = time {3} only — matches the paper's row 1 exactly.
        assert_eq!(
            row_pairs(&kms, 3),
            vec![(1, 0), (7, 0), (8, 0), (11, 0), (12, 0), (13, 0)]
        );
    }

    #[test]
    fn paper_rotation_equivalence() {
        // The paper's Table II row 0 is {0,1,2,6,11,12} with subscript 0:
        // that is our canonical slot (0 + length - II) mod II = 2.
        let kms = kms4();
        let paper_row0: Vec<usize> = kms.row(2).iter().map(|e| e.node.index()).collect();
        assert_eq!(paper_row0, vec![0, 1, 2, 6, 11, 12]);
        let paper_row1: Vec<usize> = kms.row(3).iter().map(|e| e.node.index()).collect();
        assert_eq!(paper_row1, vec![1, 7, 8, 11, 12, 13]);
    }

    #[test]
    fn slack_extends_windows() {
        let dfg = running_example();
        let m = Mobility::compute(&dfg).unwrap();
        let k0 = Kms::new(&m, 4);
        let k1 = Kms::with_slack(&m, 4, 1);
        let v = cgra_dfg::NodeId::from_index(10); // window [5,5]
        assert_eq!(k0.times_of(v), vec![5]);
        assert_eq!(k1.times_of(v), vec![5, 6, 7, 8, 9]);
        assert_eq!(k1.slack(), 1);
    }

    #[test]
    fn every_node_appears() {
        let kms = kms4();
        let dfg = running_example();
        for v in dfg.nodes() {
            assert!(!kms.times_of(v).is_empty(), "{v}");
        }
    }

    #[test]
    fn entries_consistent() {
        let kms = kms4();
        for e in kms.entries() {
            assert_eq!(e.slot, e.time % 4);
            assert_eq!(e.iteration, e.time / 4);
        }
    }

    #[test]
    fn rendering_lists_slots() {
        let kms = kms4();
        let s = kms.to_table_string();
        assert_eq!(s.lines().count(), 5);
        assert!(s.contains("0_0"));
    }

    #[test]
    #[should_panic(expected = "positive")]
    fn zero_ii_panics() {
        let dfg = running_example();
        let m = Mobility::compute(&dfg).unwrap();
        let _ = Kms::new(&m, 0);
    }
}
