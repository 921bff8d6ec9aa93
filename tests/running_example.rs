//! End-to-end reproduction of every artifact the paper derives from
//! its running example (Fig. 2, Tables I and II, Fig. 4).

use monomap::core::{build_pattern, build_target};
use monomap::iso::is_monomorphism;
use monomap::prelude::*;

#[test]
fn figure2a_structure() {
    let dfg = running_example();
    assert_eq!(dfg.num_nodes(), 14);
    assert!(dfg.validate().is_ok());
    // One loop-carried edge (7 -> 4), fourteen data edges.
    let lc: Vec<_> = dfg
        .edges()
        .iter()
        .filter(|e| e.kind.is_loop_carried())
        .collect();
    assert_eq!(lc.len(), 1);
    assert_eq!(lc[0].src.index(), 7);
    assert_eq!(lc[0].dst.index(), 4);
}

#[test]
fn section4b_mii_derivation() {
    // Paper: ResII = ⌈14/(2·2)⌉ = 4, RecII = 4, mII = max(4,4) = 4.
    let dfg = running_example();
    let cgra = Cgra::new(2, 2).unwrap();
    assert_eq!(res_ii(&dfg, &cgra), 4);
    assert_eq!(rec_ii(&dfg), 4);
    assert_eq!(min_ii(&dfg, &cgra), 4);
}

#[test]
fn table1_windows() {
    // Spot-check the windows of Table I (full golden test lives in
    // cgra-sched): node 0 in [0,2], node 4 in [0,0], node 13 in [3,5].
    let dfg = running_example();
    let m = Mobility::compute(&dfg).unwrap();
    assert_eq!(m.window(NodeId::from_index(0)), 0..=2);
    assert_eq!(m.window(NodeId::from_index(4)), 0..=0);
    assert_eq!(m.window(NodeId::from_index(13)), 3..=5);
    assert_eq!(m.length(), 6);
}

#[test]
fn table2_interleaving() {
    // Paper §IV-B: ⌈6/4⌉ = 2 iterations interleave in the kernel.
    let dfg = running_example();
    let m = Mobility::compute(&dfg).unwrap();
    let kms = Kms::new(&m, 4);
    assert_eq!(kms.interleave_depth(), 2);
}

#[test]
fn below_mii_is_unsat() {
    let dfg = running_example();
    let cgra = Cgra::new(2, 2).unwrap();
    for ii in 1..4 {
        let cfg = TimeSolverConfig::for_cgra(&cgra);
        if let Ok(mut solver) = TimeSolver::new(&dfg, ii, cfg) {
            assert!(
                solver.next().solution().is_none(),
                "no schedule may exist below mII (II={ii})"
            );
        }
    }
}

#[test]
fn figure4_monomorphism_into_mrrg() {
    // A time solution at II = 4 always admits a monomorphism into the
    // 2×2 MRRG (the paper's Fig. 4 and §IV-D claim), and the map the
    // engine returns satisfies mono1–mono3.
    let dfg = running_example();
    let cgra = Cgra::new(2, 2).unwrap();
    let cfg = TimeSolverConfig::for_cgra(&cgra);
    let mut solver = TimeSolver::new(&dfg, 4, cfg).unwrap();
    let mut checked = 0;
    let mut outcome = solver.next();
    while let monomap::sched::SolveOutcome::Solution(sol) = outcome {
        let pattern = build_pattern(&dfg, &sol);
        let target = build_target(&cgra, 4, 1);
        let map = monomap::iso::find_monomorphism(&pattern, &target)
            .expect("paper §IV-D: every constrained time solution embeds");
        assert!(is_monomorphism(&pattern, &target, &map));
        checked += 1;
        if checked >= 12 {
            break; // a dozen schedules is convincing enough per run
        }
        outcome = solver.next();
    }
    assert!(checked >= 1);
}

#[test]
fn figure2b_end_to_end_mapping() {
    let dfg = running_example();
    let cgra = Cgra::new(2, 2).unwrap();
    let result = DecoupledMapper::new(&cgra).map(&dfg).unwrap();
    assert_eq!(result.mapping.ii(), 4, "paper maps the example at II=4");
    result.mapping.validate(&dfg, &cgra).unwrap();
    // The kernel occupies at most |PEs| cells per slot by injectivity;
    // with 14 nodes in 16 cells exactly two stay idle.
    let occ = result.mapping.pe_occupancy(&cgra);
    assert_eq!(occ.iter().sum::<usize>(), 14);
}

#[test]
fn coupled_baseline_agrees_on_quality() {
    let dfg = running_example();
    let cgra = Cgra::new(2, 2).unwrap();
    let mono = DecoupledMapper::new(&cgra).map(&dfg).unwrap();
    let coupled = CoupledMapper::new(&cgra).map(&dfg).unwrap();
    assert_eq!(mono.mapping.ii(), coupled.mapping.ii());
    coupled.mapping.validate(&dfg, &cgra).unwrap();
}

#[test]
fn mapped_execution_matches_reference() {
    let dfg = running_example();
    let cgra = Cgra::new(2, 2).unwrap();
    let mapping = DecoupledMapper::new(&cgra).map(&dfg).unwrap().mapping;
    // Loads hit 0..16, stores hit the wrapped complements (48..64):
    // race-free (see cgra-sim docs).
    let env = SimEnv::new(64)
        .with_memory((0..64).collect())
        .with_input_stream(vec![1, 2, 3, 4, 5])
        .with_input_stream(vec![10, 20, 30, 40, 50])
        .with_input_stream(vec![9, 8, 7, 6, 5]);
    let reference = interpret(&dfg, &env, 5).unwrap();
    let machine = MachineSimulator::new(&cgra, &dfg, &mapping)
        .run(&env, 5)
        .unwrap();
    assert_eq!(reference.outputs, machine.outputs);
    assert_eq!(reference.memory, machine.memory);
}
