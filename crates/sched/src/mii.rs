//! The minimum iteration interval `mII = max(ResII, RecII)` (Rau 1996,
//! paper §IV-B), with the resource component computed per operation
//! class on heterogeneous CGRAs.

use cgra_arch::{Cgra, OpClass};
use cgra_dfg::Dfg;

/// The resource-constrained minimum II.
///
/// On a homogeneous grid this is the paper's `⌈|V_G| / |V_Mi|⌉` —
/// every PE executes at most one operation per kernel slot. On a
/// heterogeneous grid each operation class adds its own bound
/// `⌈|ops of class c| / |PEs providing c|⌉` (a kernel with ten memory
/// accesses and four memory-port PEs needs at least three slots no
/// matter how roomy the rest of the array is); the result is the
/// maximum over the total bound and every provided class's bound.
///
/// Classes with demand but **no** provider have no finite bound at all;
/// they are reported by [`unsupported_op_class`] (which mappers check
/// up front) and skipped here.
pub fn res_ii(dfg: &Dfg, cgra: &Cgra) -> usize {
    let mut mii = dfg.num_nodes().div_ceil(cgra.num_pes()).max(1);
    if !cgra.is_homogeneous() {
        for class in OpClass::ALL {
            let demand = dfg
                .nodes()
                .filter(|&v| dfg.op(v).op_class() == class)
                .count();
            let supply = cgra.providers(class);
            if demand > 0 && supply > 0 {
                mii = mii.max(demand.div_ceil(supply));
            }
        }
    }
    mii
}

/// The first operation class the kernel demands but no PE provides, if
/// any. Such instances have no mapping at any II; the mappers check
/// this before searching and fail with a clean error instead of
/// exhausting the II range.
pub fn unsupported_op_class(dfg: &Dfg, cgra: &Cgra) -> Option<OpClass> {
    OpClass::ALL.into_iter().find(|&class| {
        cgra.providers(class) == 0 && dfg.nodes().any(|v| dfg.op(v).op_class() == class)
    })
}

/// The recurrence-constrained minimum II: the maximum over all
/// recurrence cycles of `⌈length / distance⌉`, where `length` is the
/// cycle latency (unit-latency nodes) and `distance` the total
/// loop-carried distance around the cycle.
pub fn rec_ii(dfg: &Dfg) -> usize {
    dfg.recurrence_cycles()
        .iter()
        .map(|&(len, dist)| len.div_ceil(dist as usize))
        .max()
        .unwrap_or(1)
}

/// The minimum iteration interval `mII = max(ResII, RecII)`: the II at
/// which the search of both mappers starts (no solution exists below
/// it).
pub fn min_ii(dfg: &Dfg, cgra: &Cgra) -> usize {
    res_ii(dfg, cgra).max(rec_ii(dfg))
}

#[cfg(test)]
mod tests {
    use super::*;
    use cgra_arch::{CapabilityProfile, OpClassSet};
    use cgra_dfg::examples::{accumulator, running_example};
    use monomap_frontend::suite;

    #[test]
    fn running_example_matches_paper() {
        // Paper §IV-B: ResII = ⌈14 / 4⌉ = 4, RecII = 4, mII = 4.
        let dfg = running_example();
        let cgra = Cgra::new(2, 2).unwrap();
        assert_eq!(res_ii(&dfg, &cgra), 4);
        assert_eq!(rec_ii(&dfg), 4);
        assert_eq!(min_ii(&dfg, &cgra), 4);
    }

    #[test]
    fn accumulator_is_rec_bound() {
        let dfg = accumulator();
        let cgra = Cgra::new(4, 4).unwrap();
        assert_eq!(res_ii(&dfg, &cgra), 1);
        assert_eq!(rec_ii(&dfg), 2);
        assert_eq!(min_ii(&dfg, &cgra), 2);
    }

    /// Golden test: mII for every suite benchmark × CGRA size must match
    /// the paper's Table III. The single documented exception is sha2 on
    /// 2×2, where the paper lists 6 but `⌈25/4⌉ = 7` (see DESIGN.md §8).
    #[test]
    fn table3_mii_columns() {
        // (name, mII at 2x2, mII at 5x5, mII at 10x10, mII at 20x20)
        let expected: [(&str, usize, usize, usize, usize); 17] = [
            ("aes", 14, 14, 14, 14),
            ("backprop", 9, 5, 5, 5),
            ("basicmath", 7, 7, 7, 7),
            ("bitcount", 3, 3, 3, 3),
            ("cfd", 13, 3, 2, 2),
            ("crc32", 8, 8, 8, 8),
            ("fft", 7, 7, 7, 7),
            ("gsm", 6, 4, 4, 4),
            ("heartwall", 9, 3, 3, 3),
            ("hotspot3D", 15, 3, 2, 2),
            ("lud", 7, 3, 3, 3),
            ("nw", 9, 2, 2, 2),
            ("particlefilter", 10, 9, 9, 9),
            ("sha1", 6, 2, 2, 2),
            ("sha2", 7, 7, 7, 7), // paper's 2x2 column says 6; formula says 7
            ("stringsearch", 7, 3, 3, 3),
            ("susan", 6, 2, 2, 2),
        ];
        let sizes = [2usize, 5, 10, 20];
        for (name, m2, m5, m10, m20) in expected {
            let dfg = suite::generate(name);
            let got: Vec<usize> = sizes
                .iter()
                .map(|&s| min_ii(&dfg, &Cgra::new(s, s).unwrap()))
                .collect();
            assert_eq!(got, vec![m2, m5, m10, m20], "{name}");
        }
    }

    #[test]
    fn res_ii_shrinks_with_cgra_size() {
        let dfg = suite::generate("hotspot3D"); // 57 nodes
        assert_eq!(res_ii(&dfg, &Cgra::new(2, 2).unwrap()), 15);
        assert_eq!(res_ii(&dfg, &Cgra::new(5, 5).unwrap()), 3);
        assert_eq!(res_ii(&dfg, &Cgra::new(10, 10).unwrap()), 1);
    }

    #[test]
    fn rec_ii_of_acyclic_graph_is_one() {
        let mut b = cgra_dfg::DfgBuilder::new();
        let x = b.input("x");
        b.output("o", x);
        let dfg = b.build().unwrap();
        assert_eq!(rec_ii(&dfg), 1);
    }

    /// A kernel with `loads` memory accesses padded with ALU work.
    fn mem_kernel(loads: usize) -> Dfg {
        let mut b = cgra_dfg::DfgBuilder::new();
        let x = b.input("x");
        for i in 0..loads {
            b.load(format!("ld{i}"), x);
        }
        b.build().unwrap()
    }

    #[test]
    fn per_class_res_ii_binds_on_restricted_grids() {
        // 6 loads on 3×3 mem-left-column: 3 memory PEs → ResII ≥ 2,
        // even though 7 nodes fit one slot of 9 PEs.
        let dfg = mem_kernel(6);
        let homo = Cgra::new(3, 3).unwrap();
        assert_eq!(res_ii(&dfg, &homo), 1);
        let het = homo
            .clone()
            .with_capability_profile(CapabilityProfile::MemLeftColumn);
        assert_eq!(res_ii(&dfg, &het), 2);
        assert_eq!(min_ii(&dfg, &het), 2);
    }

    #[test]
    fn homogeneous_res_ii_is_unchanged_by_class_accounting() {
        // On a homogeneous grid every per-class bound is dominated by
        // the total bound, so the heterogeneity-aware formula reduces
        // to the paper's.
        for name in ["susan", "crc32", "hotspot3D"] {
            let dfg = suite::generate(name);
            let cgra = Cgra::new(5, 5).unwrap();
            assert_eq!(
                res_ii(&dfg, &cgra),
                dfg.num_nodes().div_ceil(25).max(1),
                "{name}"
            );
        }
    }

    #[test]
    fn unsupported_class_is_detected() {
        let dfg = mem_kernel(1);
        // An ALU-only grid cannot host the load.
        let alu_only = Cgra::new(2, 2)
            .unwrap()
            .with_pe_capabilities(vec![OpClassSet::only(OpClass::Alu); 4])
            .unwrap();
        assert_eq!(unsupported_op_class(&dfg, &alu_only), Some(OpClass::Mem));
        // Any grid with a memory column is fine.
        let ok = Cgra::new(2, 2)
            .unwrap()
            .with_capability_profile(CapabilityProfile::MemLeftColumn);
        assert_eq!(unsupported_op_class(&dfg, &ok), None);
        // And homogeneous grids support everything.
        assert_eq!(unsupported_op_class(&dfg, &Cgra::new(2, 2).unwrap()), None);
    }
}
