//! The dependence screen against the time formula.
//!
//! `Mobility::refutes` lets the mapper end an `(II, slack)` level
//! without encoding it when the dependences alone push a node out of
//! its window. That is sound only if every refuted level's formula is
//! unsatisfiable, and it is exact where the formula has no capacity or
//! connectivity row to add (and, on the 20×20, where the few rows it
//! has never bind). Both are checked here against the first
//! pull of `TimeSolver::next`, on the cells `tests/time_formula.rs`
//! pins (every suite kernel on the homogeneous 2×2, 4×4 and 20×20 and
//! the heterogeneous 4×4) at II mII..=mII+2 and slack 0–2.
//! `tests/frontend_property.rs` runs the soundness half over its random
//! kernels.

use monomap::arch::{CapabilityProfile, Cgra};
use monomap::frontend::suite;
use monomap::sched::{min_ii, Mobility, SolveOutcome, TimeSolver, TimeSolverConfig};

fn grids() -> Vec<(&'static str, Cgra)> {
    vec![
        ("hom2", Cgra::new(2, 2).unwrap()),
        ("hom4", Cgra::new(4, 4).unwrap()),
        ("hom20", Cgra::new(20, 20).unwrap()),
        (
            "het4",
            Cgra::new(4, 4)
                .unwrap()
                .with_capability_profile(CapabilityProfile::MemLeftMulCheckerboard),
        ),
    ]
}

/// Is the first schedule of this level `Unsat`?
fn first_pull_unsat(dfg: &monomap::dfg::Dfg, ii: usize, config: TimeSolverConfig) -> bool {
    let mut solver = TimeSolver::new(dfg, ii, config).expect("suite kernels encode");
    matches!(solver.next(), SolveOutcome::Unsat)
}

#[test]
fn refuted_levels_are_unsat_on_every_grid() {
    let mut refuted = 0;
    for (grid, cgra) in grids() {
        for kernel in suite::names() {
            let dfg = suite::generate(kernel);
            let mobility = Mobility::compute(&dfg).unwrap();
            let mii = min_ii(&dfg, &cgra);
            for ii in mii..=mii + 2 {
                for slack in 0..=2 {
                    if !mobility.refutes(&dfg, ii, slack) {
                        continue;
                    }
                    refuted += 1;
                    let config = TimeSolverConfig::for_cgra(&cgra).with_window_slack(slack);
                    assert!(
                        first_pull_unsat(&dfg, ii, config),
                        "{grid} {kernel} II {ii} slack {slack}: refuted but satisfiable"
                    );
                }
            }
        }
    }
    // At least hotspot3D's six on the 20x20 (see below).
    assert!(refuted >= 6, "only {refuted} refuted cells");
}

#[test]
fn screen_is_exact_on_the_20x20() {
    let cgra = Cgra::new(20, 20).unwrap();
    let mut refuted = Vec::new();
    for kernel in suite::names() {
        let dfg = suite::generate(kernel);
        let mobility = Mobility::compute(&dfg).unwrap();
        let mii = min_ii(&dfg, &cgra);
        for ii in mii..=mii + 2 {
            for slack in 0..=2 {
                let config = TimeSolverConfig::for_cgra(&cgra).with_window_slack(slack);
                // With only dependences and windows left, the pushed
                // times are a schedule whenever they fit: exact always.
                let plain = config
                    .clone()
                    .with_capacity_constraints(false)
                    .with_connectivity_constraints(false);
                let screened = mobility.refutes(&dfg, ii, slack);
                let cell = format!("{kernel} II {ii} slack {slack}: refuted = {screened}");
                assert_eq!(screened, first_pull_unsat(&dfg, ii, plain), "{cell}");
                // 400 PEs leave no capacity row, and the few
                // connectivity rows of high-degree nodes never bind.
                assert_eq!(screened, first_pull_unsat(&dfg, ii, config), "{cell}");
                if screened {
                    refuted.push((kernel, ii, slack));
                }
            }
        }
    }
    assert_eq!(
        refuted,
        [
            ("hotspot3D", 2, 0),
            ("hotspot3D", 2, 1),
            ("hotspot3D", 2, 2),
            ("hotspot3D", 3, 0),
            ("hotspot3D", 3, 1),
            ("hotspot3D", 4, 0),
        ]
    );
}
