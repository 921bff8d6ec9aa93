//! End-to-end tests for heterogeneous PE capabilities: the acceptance
//! grid (memory ops confined to one column, muls to a checkerboard),
//! the builder's error paths, and the regression lock that homogeneous
//! grids behave byte-identically to the pre-heterogeneity mapper.

use monomap::arch::{ArchError, CapabilityProfile, OpClass, OpClassSet};
use monomap::core::{MapError, MappingError};
use monomap::prelude::*;

mod common;
use common::assert_mapping_invariants;

/// The standard heterogeneous test grid: `size × size`, memory ports in
/// column 0, multipliers on the checkerboard, ALU everywhere.
fn het_grid(size: usize) -> Cgra {
    Cgra::new(size, size)
        .unwrap()
        .with_capability_profile(CapabilityProfile::MemLeftMulCheckerboard)
}

/// The acceptance grid: a 4×4 with memory in the left column and muls
/// on the checkerboard maps the **full** 17-kernel suite, and every
/// mapping executes on the machine simulator — which refuses
/// capability-violating instructions — without faults.
#[test]
fn full_suite_maps_on_4x4_heterogeneous_grid() {
    let cgra = het_grid(4);
    for name in suite::names() {
        let dfg = suite::generate(name);
        let homo_mii = min_ii(&dfg, &Cgra::new(4, 4).unwrap());
        let result = DecoupledMapper::new(&cgra)
            .map(&dfg)
            .unwrap_or_else(|e| panic!("{name} on het 4x4: {e}"));
        assert!(result.mapping.ii() >= homo_mii, "{name}");
        assert_mapping_invariants(&dfg, &cgra, &result.mapping);

        // Sim verification: the machine simulator independently polices
        // capabilities, timing and reachability. (Full output
        // equivalence with the iteration-major interpreter is asserted
        // on race-free kernels elsewhere; suite kernels may alias
        // stores — see cgra-sim's memory-ordering caveat.)
        let env = SimEnv::new(256)
            .with_memory((0..256).map(|i| i * 3).collect())
            .with_input_stream((0..16).collect())
            .with_input_stream((16..32).collect())
            .with_input_stream((5..21).collect())
            .with_input_stream((7..23).collect());
        let rec = MachineSimulator::new(&cgra, &dfg, &result.mapping)
            .run(&env, 4)
            .unwrap_or_else(|e| panic!("{name} on het 4x4: sim fault {e}"));
        assert!(rec.cycles >= 4 * result.mapping.ii(), "{name}");
    }
}

/// Race-free heterogeneous equivalence: on kernels without aliasing
/// stores the machine run on the heterogeneous grid must reproduce the
/// reference interpreter exactly.
#[test]
fn heterogeneous_examples_match_reference_outputs() {
    let cgra = het_grid(4);
    // accumulator: pure; stream_scale: load/store ranges disjoint by
    // index; both race-free.
    let dfg = accumulator();
    let mapping = DecoupledMapper::new(&cgra).map(&dfg).unwrap().mapping;
    let env = SimEnv::new(8).with_input_stream(vec![5, -2, 7, 1, 9]);
    let reference = interpret(&dfg, &env, 5).unwrap();
    let machine = MachineSimulator::new(&cgra, &dfg, &mapping)
        .run(&env, 5)
        .unwrap();
    assert_eq!(reference.outputs, machine.outputs);
    assert_eq!(reference.memory, machine.memory);

    let dfg = stream_scale();
    let mapping = DecoupledMapper::new(&cgra).map(&dfg).unwrap().mapping;
    let env = SimEnv::new(16).with_memory((0..16).map(|i| i as i64 * 7).collect());
    let reference = interpret(&dfg, &env, 8).unwrap();
    let machine = MachineSimulator::new(&cgra, &dfg, &mapping)
        .run(&env, 8)
        .unwrap();
    assert_eq!(reference.outputs, machine.outputs);
    assert_eq!(reference.memory, machine.memory);
}

// --- builder error paths -------------------------------------------------

#[test]
fn capability_map_size_mismatch_is_rejected() {
    let err = Cgra::new(3, 3)
        .unwrap()
        .with_pe_capabilities(vec![OpClassSet::all(); 8])
        .unwrap_err();
    assert_eq!(
        err,
        ArchError::CapabilityMapSize {
            got: 8,
            expected: 9
        }
    );
    let err = Cgra::new(3, 3)
        .unwrap()
        .with_pe_capabilities(vec![])
        .unwrap_err();
    assert_eq!(
        err,
        ArchError::CapabilityMapSize {
            got: 0,
            expected: 9
        }
    );
}

#[test]
fn empty_capability_set_is_rejected() {
    let mut caps = vec![OpClassSet::all(); 9];
    caps[4] = OpClassSet::empty();
    let err = Cgra::new(3, 3)
        .unwrap()
        .with_pe_capabilities(caps)
        .unwrap_err();
    assert_eq!(err, ArchError::EmptyCapabilitySet { pe: 4 });
}

/// A kernel requiring an op class no PE provides fails with a clean,
/// immediate error from every mapper — no hang, no panic, no II sweep.
#[test]
fn unsupported_op_class_fails_cleanly_everywhere() {
    let alu_only = Cgra::new(3, 3)
        .unwrap()
        .with_pe_capabilities(vec![OpClassSet::only(OpClass::Alu); 9])
        .unwrap();
    let dfg = stream_scale(); // load + mul + store
    let started = std::time::Instant::now();

    let err = DecoupledMapper::new(&alu_only).map(&dfg).unwrap_err();
    assert!(
        matches!(err, MapError::UnsupportedOpClass { .. }),
        "{err:?}"
    );
    assert!(err.to_string().contains("operation class"), "{err}");

    let err = CoupledMapper::new(&alu_only).map(&dfg).unwrap_err();
    assert!(
        matches!(err, MapError::UnsupportedOpClass { .. }),
        "{err:?}"
    );

    let err = AnnealingMapper::new(&alu_only).map(&dfg).unwrap_err();
    assert!(
        matches!(err, MapError::UnsupportedOpClass { .. }),
        "{err:?}"
    );

    assert!(
        started.elapsed() < std::time::Duration::from_secs(5),
        "unsupported classes must fail without searching (took {:?})",
        started.elapsed()
    );
}

/// A *supported but scarce* class on an otherwise infeasible instance
/// still exhausts cleanly as NoSolution (bounded time, no hang).
#[test]
fn scarce_class_exhausts_as_no_solution() {
    // Five same-slot-window loads with zero slack and one memory PE on
    // a 2×2: per-class capacity 1 per slot and max_ii 3 cannot host
    // them.
    let mut b = DfgBuilder::new();
    let x = b.input("x");
    for i in 0..5 {
        b.load(format!("ld{i}"), x);
    }
    let dfg = b.build().unwrap();
    let mut caps = vec![OpClassSet::only(OpClass::Alu).with(OpClass::Mul); 4];
    caps[0] = OpClassSet::all();
    let cgra = Cgra::new(2, 2).unwrap().with_pe_capabilities(caps).unwrap();
    let cfg = MapperConfig::new().with_max_ii(3).with_max_window_slack(0);
    let err = DecoupledMapper::with_config(&cgra, cfg)
        .map(&dfg)
        .unwrap_err();
    assert!(matches!(err, MapError::NoSolution { .. }), "{err:?}");
}

#[test]
fn validate_reports_incapable_pe() {
    // Hand-build a mapping that parks the load on a mul-only PE and
    // confirm the validator names the node and class.
    let mut b = DfgBuilder::new();
    let x = b.input("x");
    b.load("ld", x);
    let dfg = b.build().unwrap();
    let mut caps = vec![OpClassSet::all(); 4];
    caps[1] = OpClassSet::only(OpClass::Alu).with(OpClass::Mul);
    let cgra = Cgra::new(2, 2).unwrap().with_pe_capabilities(caps).unwrap();
    let mapping = Mapping::new(
        "bad",
        2,
        vec![
            monomap::core::Placement {
                pe: PeId::from_index(0),
                slot: 0,
                time: 0,
            },
            monomap::core::Placement {
                pe: PeId::from_index(1),
                slot: 1,
                time: 1,
            },
        ],
    );
    assert!(matches!(
        mapping.validate(&dfg, &cgra),
        Err(MappingError::IncapablePe {
            class: OpClass::Mem,
            ..
        })
    ));
}

// --- homogeneous byte-identity regression --------------------------------

/// Serialized serial-path mappings on the homogeneous grids. The serial
/// mapper must keep producing these byte-for-byte: on homogeneous grids
/// every capability mask is full, so domains, search order and results
/// do not depend on the capability machinery. First captured *before*
/// heterogeneity was introduced (commit 7ff512a); re-captured once, at
/// the same IIs, when the propagating monomorphism search replaced the
/// static-order DFS and chose other embeddings (`bitcount` kept its
/// own). `susan`, `gsm` and `fft` were re-captured, at the same IIs,
/// when the suite's numbering became that of the compiled `kernels/*.mk`
/// (`bitcount` and `crc32` kept theirs).
const GOLDEN_SERIAL: [(&str, usize, &str); 6] = [
    (
        "susan",
        5,
        r#"{"dfg_name":"susan","ii":2,"placements":[{"pe":8,"slot":0,"time":10},{"pe":10,"slot":0,"time":0},{"pe":20,"slot":0,"time":0},{"pe":0,"slot":0,"time":0},{"pe":7,"slot":1,"time":7},{"pe":6,"slot":0,"time":8},{"pe":0,"slot":1,"time":1},{"pe":4,"slot":0,"time":2},{"pe":1,"slot":1,"time":3},{"pe":4,"slot":1,"time":3},{"pe":3,"slot":0,"time":4},{"pe":3,"slot":1,"time":5},{"pe":2,"slot":0,"time":6},{"pe":2,"slot":1,"time":7},{"pe":1,"slot":0,"time":8},{"pe":7,"slot":0,"time":8},{"pe":6,"slot":1,"time":9},{"pe":5,"slot":0,"time":10},{"pe":5,"slot":1,"time":11},{"pe":9,"slot":0,"time":12},{"pe":9,"slot":1,"time":13}]}"#,
    ),
    (
        "gsm",
        5,
        r#"{"dfg_name":"gsm","ii":4,"placements":[{"pe":1,"slot":3,"time":3},{"pe":1,"slot":2,"time":2},{"pe":3,"slot":1,"time":1},{"pe":0,"slot":0,"time":0},{"pe":4,"slot":3,"time":3},{"pe":7,"slot":0,"time":4},{"pe":0,"slot":1,"time":1},{"pe":0,"slot":2,"time":2},{"pe":4,"slot":2,"time":2},{"pe":0,"slot":3,"time":3},{"pe":3,"slot":3,"time":3},{"pe":1,"slot":0,"time":4},{"pe":3,"slot":0,"time":4},{"pe":2,"slot":0,"time":4},{"pe":1,"slot":1,"time":5},{"pe":2,"slot":1,"time":5},{"pe":2,"slot":2,"time":6},{"pe":3,"slot":2,"time":6},{"pe":7,"slot":2,"time":6},{"pe":2,"slot":3,"time":7},{"pe":6,"slot":3,"time":7},{"pe":22,"slot":0,"time":8},{"pe":6,"slot":0,"time":8},{"pe":5,"slot":1,"time":9}]}"#,
    ),
    (
        "bitcount",
        5,
        r#"{"dfg_name":"bitcount","ii":3,"placements":[{"pe":1,"slot":1,"time":1},{"pe":2,"slot":1,"time":1},{"pe":1,"slot":0,"time":0},{"pe":0,"slot":0,"time":0},{"pe":0,"slot":1,"time":1},{"pe":0,"slot":2,"time":2},{"pe":4,"slot":0,"time":3}]}"#,
    ),
    (
        "fft",
        5,
        r#"{"dfg_name":"fft","ii":7,"placements":[{"pe":3,"slot":0,"time":0},{"pe":2,"slot":6,"time":6},{"pe":3,"slot":6,"time":6},{"pe":2,"slot":0,"time":0},{"pe":0,"slot":1,"time":1},{"pe":4,"slot":6,"time":6},{"pe":2,"slot":1,"time":1},{"pe":1,"slot":2,"time":2},{"pe":0,"slot":3,"time":3},{"pe":1,"slot":4,"time":4},{"pe":0,"slot":5,"time":5},{"pe":1,"slot":6,"time":6},{"pe":0,"slot":6,"time":6},{"pe":1,"slot":0,"time":7},{"pe":0,"slot":0,"time":7},{"pe":1,"slot":1,"time":8},{"pe":0,"slot":2,"time":9},{"pe":1,"slot":3,"time":10},{"pe":0,"slot":4,"time":11},{"pe":1,"slot":5,"time":12}]}"#,
    ),
    (
        "crc32",
        5,
        r#"{"dfg_name":"crc32","ii":8,"placements":[{"pe":2,"slot":0,"time":0},{"pe":4,"slot":0,"time":16},{"pe":6,"slot":0,"time":0},{"pe":0,"slot":0,"time":0},{"pe":1,"slot":1,"time":1},{"pe":1,"slot":2,"time":2},{"pe":2,"slot":3,"time":3},{"pe":3,"slot":4,"time":4},{"pe":4,"slot":5,"time":5},{"pe":0,"slot":6,"time":6},{"pe":0,"slot":7,"time":7},{"pe":1,"slot":0,"time":8},{"pe":0,"slot":1,"time":9},{"pe":0,"slot":2,"time":10},{"pe":0,"slot":3,"time":11},{"pe":1,"slot":7,"time":15},{"pe":0,"slot":4,"time":12},{"pe":0,"slot":5,"time":13},{"pe":1,"slot":5,"time":13},{"pe":1,"slot":6,"time":14},{"pe":6,"slot":7,"time":15},{"pe":2,"slot":7,"time":15},{"pe":3,"slot":0,"time":16},{"pe":7,"slot":0,"time":16}]}"#,
    ),
    (
        "running-example",
        2,
        r#"{"dfg_name":"running-example","ii":4,"placements":[{"pe":0,"slot":1,"time":1},{"pe":1,"slot":2,"time":2},{"pe":3,"slot":2,"time":2},{"pe":1,"slot":0,"time":0},{"pe":0,"slot":0,"time":0},{"pe":1,"slot":1,"time":1},{"pe":0,"slot":2,"time":2},{"pe":0,"slot":3,"time":3},{"pe":1,"slot":3,"time":3},{"pe":3,"slot":0,"time":4},{"pe":2,"slot":1,"time":5},{"pe":2,"slot":2,"time":2},{"pe":2,"slot":0,"time":4},{"pe":3,"slot":1,"time":5}]}"#,
    ),
];

fn golden_dfg(name: &str) -> Dfg {
    if name == "running-example" {
        running_example()
    } else {
        suite::generate(name)
    }
}

#[test]
fn homogeneous_serial_mappings_are_byte_identical_to_pre_heterogeneity() {
    for (name, size, golden) in GOLDEN_SERIAL {
        let dfg = golden_dfg(name);
        let cgra = Cgra::new(size, size).unwrap();
        let result = DecoupledMapper::new(&cgra).map(&dfg).unwrap();
        let json = serde_json::to_string(&result.mapping).unwrap();
        assert_eq!(json, golden, "{name}@{size}x{size} serial mapping drifted");
    }
}

/// Under `with_space_parallelism` the winning placement may legitimately
/// vary, but the achieved II must still match the pre-heterogeneity
/// (golden) II and the mapping must pass every invariant.
#[test]
fn homogeneous_portfolio_iis_match_pre_heterogeneity() {
    for (name, size, golden) in GOLDEN_SERIAL {
        let dfg = golden_dfg(name);
        let cgra = Cgra::new(size, size).unwrap();
        let golden_ii: Mapping = serde_json::from_str(golden).unwrap();
        let cfg = MapperConfig::new().with_space_parallelism(4);
        let result = DecoupledMapper::with_config(&cgra, cfg).map(&dfg).unwrap();
        result.mapping.validate(&dfg, &cgra).unwrap();
        assert_eq!(
            result.mapping.ii(),
            golden_ii.ii(),
            "{name}@{size}x{size} portfolio II drifted"
        );
    }
}
