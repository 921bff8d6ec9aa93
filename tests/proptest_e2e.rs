//! Property-based end-to-end tests: randomly generated loop kernels
//! must map (or fail cleanly) — on homogeneous *and* randomly
//! heterogeneous grids — and every produced mapping must satisfy all
//! invariants and execute correctly, differential-checked between the
//! reference interpreter and the capability-policing machine simulator.

use proptest::prelude::*;

use monomap::arch::{OpClass, OpClassSet};
use monomap::prelude::*;

/// Strategy: a random valid loop DFG of 3..=18 nodes built from a
/// random instruction tape, always containing at least one recurrence.
fn arb_dfg() -> impl Strategy<Value = Dfg> {
    (
        2usize..6,                                // recurrence length
        proptest::collection::vec(0u8..8, 0..14), // instruction tape
        any::<u64>(),                             // value seed
    )
        .prop_map(|(rec_len, tape, seed)| {
            let mut b = DfgBuilder::named("prop");
            let mut pool: Vec<NodeId> = Vec::new();
            let x = b.input("x");
            pool.push(x);
            // Recurrence core.
            let phi = b.phi("phi", (seed % 100) as i64);
            pool.push(phi);
            let mut cur = phi;
            for i in 1..rec_len {
                cur = b.unary(format!("r{i}"), Operation::Neg, cur);
                pool.push(cur);
            }
            b.loop_carried(cur, phi, 1);
            // Random tape of additional structure.
            let mut s = seed;
            let mut next = move || {
                s ^= s << 13;
                s ^= s >> 7;
                s ^= s << 17;
                s
            };
            for (i, op) in tape.iter().enumerate() {
                let pick = |n: u64, pool: &[NodeId]| pool[(n % pool.len() as u64) as usize];
                let a = pick(next(), &pool);
                let c = pick(next(), &pool);
                let v = match op {
                    0 => b.binary(format!("t{i}"), Operation::Add, a, c),
                    1 => b.binary(format!("t{i}"), Operation::Xor, a, c),
                    2 => b.unary(format!("t{i}"), Operation::Not, a),
                    3 => b.binary(format!("t{i}"), Operation::Mul, a, c),
                    4 => b.load(format!("t{i}"), a),
                    5 => b.binary(format!("t{i}"), Operation::Min, a, c),
                    6 => b.constant(format!("t{i}"), (next() % 64) as i64),
                    _ => b.output(format!("t{i}"), a),
                };
                pool.push(v);
            }
            b.build().expect("constructed kernels are valid")
        })
}

/// Strategy: a random per-PE capability map for an `n`-PE grid. Every
/// PE keeps the ALU (so no set is empty); each additionally gets the
/// multiplier and/or memory port with independent probability, with PE0
/// forced to full capability so small kernels usually stay mappable.
fn arb_capabilities(n: usize) -> impl Strategy<Value = Vec<OpClassSet>> {
    // The vendored proptest stub only takes a length *range*; draw
    // exactly `n`.
    #[allow(clippy::range_plus_one)]
    proptest::collection::vec(0u8..4, n..n + 1).prop_map(|draws| {
        draws
            .into_iter()
            .enumerate()
            .map(|(i, d)| {
                let mut set = OpClassSet::only(OpClass::Alu);
                if i == 0 || d & 1 != 0 {
                    set = set.with(OpClass::Mul);
                }
                if i == 0 || d & 2 != 0 {
                    set = set.with(OpClass::Mem);
                }
                set
            })
            .collect()
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Any random kernel that maps produces a mapping satisfying every
    /// invariant, at an II no lower than the bound — and executes
    /// identically on the machine simulator and the reference
    /// interpreter (random kernels are store-free, so the differential
    /// check is exact).
    #[test]
    fn random_kernels_map_validly(dfg in arb_dfg()) {
        let cgra = Cgra::new(3, 3).unwrap();
        let mii = min_ii(&dfg, &cgra);
        match DecoupledMapper::new(&cgra).map(&dfg) {
            Ok(result) => {
                prop_assert!(result.mapping.validate(&dfg, &cgra).is_ok());
                prop_assert!(result.mapping.ii() >= mii);
                let env = SimEnv::new(32)
                    .with_memory((0..32).map(|i| i * 7).collect())
                    .with_input_stream(vec![3, -4, 11]);
                let reference = interpret(&dfg, &env, 3).unwrap();
                let machine = MachineSimulator::new(&cgra, &dfg, &result.mapping)
                    .run(&env, 3)
                    .unwrap();
                prop_assert_eq!(&reference.outputs, &machine.outputs);
                prop_assert_eq!(&reference.memory, &machine.memory);
            }
            Err(e) => {
                // Only clean, explainable failures are acceptable.
                prop_assert!(matches!(
                    e,
                    monomap::core::MapError::NoSolution { .. }
                ), "unexpected failure: {e}");
            }
        }
    }

    /// The paper's §IV-D claims a monomorphism exists for every
    /// constrained time solution. Its proof is a *local* counting
    /// argument, and this very property test found rare random kernels
    /// (several nodes of degree > D_M interacting) where the first time
    /// solution admits no embedding — see EXPERIMENTS.md. The property
    /// that actually holds, and that the mapper relies on, is: some
    /// enumerated time solution embeds, so the decoupled pipeline with
    /// its fall-back always succeeds. The first solution embeds in the
    /// overwhelming majority of cases (the suite never needs fall-back).
    #[test]
    fn time_solutions_admit_space_solutions_with_enumeration(dfg in arb_dfg()) {
        use monomap::core::{build_pattern, build_target};
        use monomap::sched::SolveOutcome;
        let cgra = Cgra::new(3, 3).unwrap();
        let mii = min_ii(&dfg, &cgra);
        'outer: for ii in mii..mii + 4 {
            let cfg = TimeSolverConfig::for_cgra(&cgra).with_window_slack(1);
            let Ok(mut solver) = TimeSolver::new(&dfg, ii, cfg) else { continue };
            let target = build_target(&cgra, ii, 1);
            let mut outcome = solver.next();
            let mut tries = 0;
            while let SolveOutcome::Solution(sol) = outcome {
                let pattern = build_pattern(&dfg, &sol);
                if monomap::iso::find_monomorphism(&pattern, &target).is_some() {
                    break 'outer; // pipeline succeeds at this II
                }
                tries += 1;
                if tries >= 24 {
                    continue 'outer; // escalate II like the mapper does
                }
                outcome = solver.next();
            }
        }
        // Cross-check: the full mapper (same fall-backs plus slack and
        // II escalation) must map the kernel.
        let result = monomap::core::DecoupledMapper::new(&cgra).map(&dfg);
        prop_assert!(result.is_ok(), "mapper failed: {:?}", result.err());
    }

    /// Heterogeneous end-to-end: a random kernel on a random capability
    /// map either maps — with every invariant holding, every op on a
    /// capable PE, and the machine simulator (which independently
    /// refuses capability violations) agreeing with the reference
    /// interpreter — or fails cleanly. Random kernels never contain
    /// stores, so the two simulators' memory orderings cannot diverge
    /// and the differential check is exact.
    #[test]
    fn random_kernels_on_random_heterogeneous_grids(
        dfg in arb_dfg(),
        caps in arb_capabilities(16),
        inputs in proptest::collection::vec(-50i64..50, 4..5),
    ) {
        let cgra = Cgra::new(4, 4).unwrap().with_pe_capabilities(caps).unwrap();
        let mii = min_ii(&dfg, &cgra);
        match DecoupledMapper::new(&cgra).map(&dfg) {
            Ok(result) => {
                prop_assert!(result.mapping.validate(&dfg, &cgra).is_ok());
                prop_assert!(result.mapping.ii() >= mii);
                for v in dfg.nodes() {
                    prop_assert!(
                        cgra.supports(result.mapping.pe(v), dfg.op(v).op_class()),
                        "{v:?} on incapable PE"
                    );
                }
                // Differential: reference interpreter vs machine run.
                let iterations = inputs.len();
                let env = SimEnv::new(64)
                    .with_memory((0..64).map(|i| i * 5).collect())
                    .with_input_stream(inputs.clone());
                let reference = interpret(&dfg, &env, iterations).unwrap();
                let machine = MachineSimulator::new(&cgra, &dfg, &result.mapping)
                    .run(&env, iterations)
                    .unwrap();
                prop_assert_eq!(&reference.outputs, &machine.outputs);
                prop_assert_eq!(&reference.memory, &machine.memory);
            }
            Err(e) => {
                prop_assert!(matches!(
                    e,
                    monomap::core::MapError::NoSolution { .. }
                        | monomap::core::MapError::UnsupportedOpClass { .. }
                ), "unexpected failure: {e}");
            }
        }
    }

    /// Mapped execution matches the reference interpreter on memoryless
    /// kernels (no aliasing concerns by construction).
    #[test]
    fn mapped_execution_matches_reference(
        rec_len in 2usize..5,
        adds in 0usize..6,
        inputs in proptest::collection::vec(-100i64..100, 4..8),
    ) {
        let mut b = DfgBuilder::named("pure");
        let x = b.input("x");
        let phi = b.phi("phi", 1);
        let mut cur = phi;
        for i in 1..rec_len {
            cur = b.unary(format!("r{i}"), Operation::Neg, cur);
        }
        b.loop_carried(cur, phi, 1);
        let mut acc = x;
        for i in 0..adds {
            acc = b.binary(format!("a{i}"), Operation::Add, acc, cur);
        }
        let out = b.output("o", acc);
        let dfg = b.build().unwrap();

        let cgra = Cgra::new(3, 3).unwrap();
        let mapping = DecoupledMapper::new(&cgra).map(&dfg).unwrap().mapping;
        let iterations = inputs.len();
        let env = SimEnv::new(4).with_input_stream(inputs);
        let reference = interpret(&dfg, &env, iterations).unwrap();
        let machine = MachineSimulator::new(&cgra, &dfg, &mapping)
            .run(&env, iterations)
            .unwrap();
        prop_assert_eq!(&reference.outputs, &machine.outputs);
        prop_assert!(machine.outputs.contains_key(&(out.index(), 0)));
    }

    /// The kernel table always contains every node exactly once.
    #[test]
    fn kernel_table_is_a_permutation(dfg in arb_dfg()) {
        let cgra = Cgra::new(4, 4).unwrap();
        if let Ok(result) = DecoupledMapper::new(&cgra).map(&dfg) {
            let table = result.mapping.kernel_table(&cgra);
            let cells: Vec<&str> = table.split_whitespace().collect();
            for v in 0..dfg.num_nodes() {
                let name = format!("n{v}");
                prop_assert_eq!(cells.iter().filter(|&&c| c == name).count(), 1);
            }
        }
    }
}
