//! Differential and property tests for the `.mk` frontend, driven by
//! a hand-rolled xorshift source generator (not the DFG builder — the
//! point is to exercise the lexer/parser/semantic pipeline on *text*
//! no human wrote):
//!
//! * every generated well-formed source compiles (and never panics);
//! * pretty-printing the compiled DFG and re-parsing it is a canonical
//!   fixpoint (`compile(emit(compile(s)))` has the same digest);
//! * validation and canonical form of every compiled kernel (and of
//!   renumbered and faulty variants) match the reference
//!   implementations in `tests/common/reference.rs`;
//! * every level the dependence screen refutes is unsatisfiable;
//! * mappings of compiled random kernels satisfy every invariant in
//!   `tests/common` and execute identically on the machine simulator
//!   and the reference interpreter (the sim-validation corpus is
//!   store-free, so the differential check is exact).

mod common;

use monomap::prelude::*;
use monomap_frontend::{compile_one, emit};

/// Iterations per property. The full battery runs under `--release`
/// (CI runs `cargo test --release -q --test frontend_property` too);
/// debug runs keep the suite snappy.
#[cfg(debug_assertions)]
const COMPILE_CASES: u64 = 60;
#[cfg(not(debug_assertions))]
const COMPILE_CASES: u64 = 400;

#[cfg(debug_assertions)]
const MAP_CASES: u64 = 6;
#[cfg(not(debug_assertions))]
const MAP_CASES: u64 = 24;

/// The classic xorshift64 generator — deterministic, dependency-free.
struct XorShift(u64);

impl XorShift {
    fn new(seed: u64) -> XorShift {
        XorShift(seed.max(1))
    }

    fn next(&mut self) -> u64 {
        self.0 ^= self.0 << 13;
        self.0 ^= self.0 >> 7;
        self.0 ^= self.0 << 17;
        self.0
    }

    /// Uniform-ish draw in `0..n`.
    fn below(&mut self, n: u64) -> u64 {
        self.next() % n.max(1)
    }
}

/// Emits a random well-formed kernel: every name defined before use,
/// exactly one recurrence, closed exactly once. `with_stores` extends
/// the grammar draw to store statements and parenthesized
/// store-expressions (excluded for differential simulation, where
/// memory write order must stay deterministic).
fn random_kernel(rng: &mut XorShift, with_stores: bool) -> String {
    let mut src = String::from("kernel prop {\n");
    let mut names: Vec<String> = Vec::new();
    let uses_memory = with_stores || rng.below(2) == 0;
    if uses_memory {
        src.push_str("  i32[] mem;\n");
    }
    // Seed the pool so expressions always have names to draw from.
    src.push_str("  i32 v0 = in(0);\n");
    names.push("v0".into());
    src.push_str(&format!("  rec i32 r = {};\n", rng.below(200) as i64 - 100));
    names.push("r".into());

    let stmts = 2 + rng.below(10);
    for i in 1..=stmts {
        match rng.below(if with_stores && uses_memory { 8 } else { 6 }) {
            // Mostly fresh scalar definitions, growing the pool.
            0..=4 => {
                let expr = random_expr(rng, &names, uses_memory, 0);
                src.push_str(&format!("  i32 v{i} = {expr};\n"));
                names.push(format!("v{i}"));
            }
            5 => {
                let expr = random_expr(rng, &names, uses_memory, 0);
                src.push_str(&format!("  out({expr});\n"));
            }
            // Store statement (only in the with_stores grammar).
            _ => {
                let addr = random_expr(rng, &names, uses_memory, 1);
                let value = random_expr(rng, &names, uses_memory, 1);
                src.push_str(&format!("  mem[{addr}] = {value};\n"));
            }
        }
    }
    let carried = &names[rng.below(names.len() as u64) as usize];
    let distance = 1 + rng.below(3);
    if distance == 1 && rng.below(2) == 0 {
        src.push_str(&format!("  r = {carried};\n"));
    } else {
        src.push_str(&format!("  r = {carried} @ {distance};\n"));
    }
    src.push_str("}\n");
    src
}

/// A random expression over the defined `names`, depth-bounded.
fn random_expr(rng: &mut XorShift, names: &[String], memory: bool, depth: u32) -> String {
    if depth >= 4 {
        // Leaves only.
        return match rng.below(3) {
            0 => format!("{}", rng.below(100) as i64 - 50),
            1 => format!("in({})", rng.below(4)),
            _ => names[rng.below(names.len() as u64) as usize].clone(),
        };
    }
    match rng.below(if memory { 10 } else { 9 }) {
        0 => format!("{}", rng.below(1000) as i64 - 500),
        1 => names[rng.below(names.len() as u64) as usize].clone(),
        2 => format!("in({})", rng.below(4)),
        3 => {
            let op =
                ["+", "-", "*", "/", "&", "|", "^", "<<", ">>", "<", "=="][rng.below(11) as usize];
            format!(
                "({} {op} {})",
                random_expr(rng, names, memory, depth + 1),
                random_expr(rng, names, memory, depth + 1)
            )
        }
        4 => format!("-{}", random_expr(rng, names, memory, depth + 1)),
        5 => format!("~{}", random_expr(rng, names, memory, depth + 1)),
        6 => format!("abs({})", random_expr(rng, names, memory, depth + 1)),
        7 => {
            let f = if rng.below(2) == 0 { "min" } else { "max" };
            format!(
                "{f}({}, {})",
                random_expr(rng, names, memory, depth + 1),
                random_expr(rng, names, memory, depth + 1)
            )
        }
        8 => format!(
            "select({}, {}, {})",
            random_expr(rng, names, memory, depth + 1),
            random_expr(rng, names, memory, depth + 1),
            random_expr(rng, names, memory, depth + 1)
        ),
        _ => format!("mem[{}]", random_expr(rng, names, memory, depth + 1)),
    }
}

#[test]
fn random_well_formed_sources_always_compile() {
    for seed in 1..=COMPILE_CASES {
        let mut rng = XorShift::new(seed.wrapping_mul(0x9e37_79b9_7f4a_7c15));
        let source = random_kernel(&mut rng, true);
        let dfg =
            compile_one(&source).unwrap_or_else(|e| panic!("seed {seed}: {e}\nsource:\n{source}"));
        dfg.validate()
            .unwrap_or_else(|e| panic!("seed {seed}: invalid DFG: {e}\nsource:\n{source}"));
        assert!(dfg.num_nodes() >= 3, "seed {seed} produced a trivial graph");
    }
}

#[test]
fn random_kernels_match_the_reference_dfg_checks() {
    // Validation, topological order, adjacency and canonical form of
    // every random kernel, a renumbering of it and faulty variants of
    // it equal the `O(V·E)` reference implementations exactly.
    let mut faults = common::XorShift(0x0ddb_a110);
    for seed in 1..=COMPILE_CASES {
        let mut rng = XorShift::new(seed.wrapping_mul(0x2545_f491_4f6c_dd1d));
        let source = random_kernel(&mut rng, true);
        let dfg = compile_one(&source).expect("well-formed by construction");
        let what = format!("seed {seed}\n{source}");
        assert_eq!(common::assert_matches_reference(&dfg, &what).0, Ok(()));
        let _ = common::assert_matches_reference(&common::renumbered(&dfg, seed), &what);
        for count in 1..=2 {
            let faulty = common::with_random_faults(&dfg, &mut faults, count);
            let _ = common::assert_matches_reference(&faulty, &what);
        }
    }
}

#[test]
fn emit_then_reparse_is_a_canonical_fixpoint() {
    for seed in 1..=COMPILE_CASES {
        let mut rng = XorShift::new(seed.wrapping_mul(0xd130_2b97_9af5_02cb));
        let source = random_kernel(&mut rng, true);
        let first = compile_one(&source).expect("well-formed by construction");
        let printed = emit(&first).expect("valid graphs pretty-print");
        let second = compile_one(&printed)
            .unwrap_or_else(|e| panic!("seed {seed}: emitted text broken: {e}\n{printed}"));
        assert_eq!(
            first.digest(),
            second.digest(),
            "seed {seed}: canonical drift\noriginal:\n{source}\nemitted:\n{printed}"
        );
        // And the printer is itself a fixpoint from its own output.
        let reprinted = emit(&second).expect("valid graphs pretty-print");
        assert_eq!(
            compile_one(&reprinted).unwrap().digest(),
            first.digest(),
            "seed {seed}: second round trip drifted"
        );
    }
}

/// The mapper skips an `(II, slack)` level whose dependences alone
/// push a node out of its window (`Mobility::refutes`); every such
/// level's formula must be unsatisfiable, on the first pull. Levels run
/// over the II range the mapper starts with, mII..=mII+2, where about
/// one kernel in sixty has a refuted level, so debug runs the release
/// count too (only refuted levels are solved).
#[test]
fn dependence_screen_refutes_only_unsat_levels() {
    let grids = [Cgra::new(2, 2).unwrap(), Cgra::new(4, 4).unwrap()];
    let mut refuted = 0;
    for seed in 1..=400u64 {
        let mut rng = XorShift::new(seed.wrapping_mul(0x2545_f491_4f6c_dd1d));
        let source = random_kernel(&mut rng, true);
        let dfg = compile_one(&source).expect("well-formed by construction");
        let mobility = Mobility::compute(&dfg).unwrap();
        for cgra in &grids {
            let mii = min_ii(&dfg, cgra);
            for ii in mii..=mii + 2 {
                for slack in 0..=2 {
                    if !mobility.refutes(&dfg, ii, slack) {
                        continue;
                    }
                    refuted += 1;
                    let config = TimeSolverConfig::for_cgra(cgra).with_window_slack(slack);
                    let mut solver = TimeSolver::new(&dfg, ii, config).unwrap();
                    assert!(
                        matches!(solver.next(), monomap::sched::SolveOutcome::Unsat),
                        "seed {seed}: II {ii} slack {slack} refuted but satisfiable\n{source}"
                    );
                }
            }
        }
    }
    assert!(refuted > 0, "no level refuted — generator drifted?");
}

#[test]
fn compiled_random_kernels_map_and_simulate_exactly() {
    let cgra = Cgra::new(4, 4).unwrap();
    let mut mapped = 0;
    let mut cases = 0;
    for seed in 1..=MAP_CASES * 10 {
        if cases >= MAP_CASES {
            break;
        }
        let mut rng = XorShift::new(seed.wrapping_mul(0xa076_1d64_78bd_642f));
        // Store-free: the machine simulator and reference interpreter
        // may order same-slot memory writes differently, so the exact
        // differential check needs read-only memory traffic.
        let source = random_kernel(&mut rng, false);
        let dfg = compile_one(&source).expect("well-formed by construction");
        if dfg.num_nodes() > 18 {
            // Keep the mapped corpus in the size band the rest of the
            // property suite uses; big graphs make debug-mode solves
            // dominate the whole test run.
            continue;
        }
        cases += 1;
        let mii = min_ii(&dfg, &cgra);
        match DecoupledMapper::new(&cgra).map(&dfg) {
            Ok(result) => {
                mapped += 1;
                assert!(result.mapping.ii() >= mii);
                common::assert_mapping_invariants(&dfg, &cgra, &result.mapping);
                let iterations = 4;
                let env = SimEnv::new(64)
                    .with_memory((0..64).map(|i| i * 3 - 7).collect())
                    .with_input_stream(vec![5, -9, 42, 0]);
                let reference = interpret(&dfg, &env, iterations)
                    .unwrap_or_else(|e| panic!("seed {seed}: interpret: {e}\n{source}"));
                let machine = MachineSimulator::new(&cgra, &dfg, &result.mapping)
                    .run(&env, iterations)
                    .unwrap_or_else(|e| panic!("seed {seed}: machine: {e}\n{source}"));
                assert_eq!(reference.outputs, machine.outputs, "seed {seed}\n{source}");
                assert_eq!(reference.memory, machine.memory, "seed {seed}\n{source}");
            }
            Err(monomap::core::MapError::NoSolution { .. }) => {} // clean failure
            Err(e) => panic!("seed {seed}: unexpected failure {e}\n{source}"),
        }
    }
    assert!(
        cases >= MAP_CASES / 2,
        "only {cases} mappable-sized kernels drawn — generator drifted?"
    );
    assert!(
        mapped >= cases / 2,
        "only {mapped}/{cases} random kernels mapped — generator drifted?"
    );
}
