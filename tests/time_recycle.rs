//! A recycled SAT store encodes and searches exactly as a new one.
//!
//! `TimeSolver` keeps each thread's last SAT store and clears it for
//! the next encoding. Whatever the previous formula did to it — a Sat
//! answer with a model on the trail, an Unsat proof, a search cut off
//! by a budget or a raised cancel flag, or a search long enough to
//! reduce the learnt-clause database and compact the clause arena — the
//! next formula must give the same encoding stats, the same 16
//! schedules in the same order, and the same SAT work counters as on a
//! thread that never encoded anything. (`tests/encode_allocations.rs`
//! shows that the store is in fact reused.)

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::thread;
use std::time::Duration;

use cgra_arch::{CapabilityProfile, Cgra};
use cgra_base::Budget;
use cgra_sched::{
    min_ii, SolveOutcome, SolverStats, TimeSolver, TimeSolverConfig, TimeSolverStats,
};
use monomap_frontend::suite;

/// Everything observable about one formula: its encoding, up to 16
/// schedules in enumeration order with how enumeration ended, and the
/// SAT work that took.
type Observation = (TimeSolverStats, Vec<Vec<usize>>, &'static str, SolverStats);

fn het4() -> Cgra {
    Cgra::new(4, 4)
        .unwrap()
        .with_capability_profile(CapabilityProfile::MemLeftMulCheckerboard)
}

/// `(kernel, grid, slack)` of the formulas observed after recycling.
fn targets() -> Vec<(&'static str, Cgra, usize)> {
    vec![
        ("hotspot3D", Cgra::new(2, 2).unwrap(), 2),
        ("nw", Cgra::new(4, 4).unwrap(), 1),
        ("cfd", Cgra::new(20, 20).unwrap(), 0),
        ("susan", het4(), 2),
    ]
}

fn observe(kernel: &str, cgra: &Cgra, slack: usize) -> Observation {
    let dfg = suite::generate(kernel);
    let config = TimeSolverConfig::for_cgra(cgra).with_window_slack(slack);
    let mut solver = TimeSolver::new(&dfg, min_ii(&dfg, cgra), config).unwrap();
    let mut schedules = Vec::new();
    let mut outcome = solver.solve_outcome();
    let end = loop {
        match outcome {
            SolveOutcome::Solution(sol) => {
                schedules.push(dfg.nodes().map(|v| sol.time(v)).collect());
                if schedules.len() == 16 {
                    break "cap";
                }
                outcome = solver.next_outcome();
            }
            SolveOutcome::Unsat => break "unsat",
            SolveOutcome::Timeout => break "timeout",
        }
    };
    (solver.stats(), schedules, end, solver.sat_stats())
}

/// A formula of `kernel` on 2×2 at `ii` below or at its mII, solved
/// once under `budget`, left to drop into the thread's store.
fn use_store(
    kernel: &str,
    below_mii: usize,
    slack: usize,
    budget: Option<Budget>,
) -> (SolveOutcome, SolverStats) {
    let cgra = Cgra::new(2, 2).unwrap();
    let dfg = suite::generate(kernel);
    let mut config = TimeSolverConfig::for_cgra(&cgra).with_window_slack(slack);
    if let Some(b) = budget {
        config = config.with_budget(b);
    }
    let ii = min_ii(&dfg, &cgra) - below_mii;
    let mut solver = TimeSolver::new(&dfg, ii, config).unwrap();
    let outcome = solver.solve_outcome();
    (outcome, solver.sat_stats())
}

/// The previous uses, each run on its own thread before the targets.
fn previous_uses() -> Vec<(&'static str, fn())> {
    vec![
        ("sat", || {
            let (outcome, _) = use_store("aes", 0, 1, None);
            assert!(matches!(outcome, SolveOutcome::Solution(_)));
        }),
        ("unsat", || {
            let (outcome, _) = use_store("aes", 0, 0, None);
            assert_eq!(outcome, SolveOutcome::Unsat);
        }),
        ("budget cut", || {
            let (outcome, stats) = use_store("sha1", 1, 1, Some(Budget::conflicts(500)));
            assert_eq!(outcome, SolveOutcome::Timeout);
            assert!(stats.conflicts >= 500);
        }),
        ("cancelled", || {
            let cgra = Cgra::new(2, 2).unwrap();
            let dfg = suite::generate("sha1");
            let config = TimeSolverConfig::for_cgra(&cgra)
                .with_window_slack(2)
                .with_budget(Budget::conflicts(30_000));
            let mut solver = TimeSolver::new(&dfg, min_ii(&dfg, &cgra) - 1, config).unwrap();
            let flag = Arc::new(AtomicBool::new(false));
            solver.set_cancel_flag(Arc::clone(&flag));
            let raiser = thread::spawn(move || {
                thread::sleep(Duration::from_millis(20));
                flag.store(true, Ordering::SeqCst);
            });
            assert_eq!(solver.solve_outcome(), SolveOutcome::Timeout);
            raiser.join().unwrap();
        }),
        ("reduced and compacted", || {
            // sha1 one below its mII on 2×2 is Unsat, proven after some
            // 6 000 conflicts: past the 4 000-learnt cap, so the database
            // is reduced and the arena compacted on the way.
            let (outcome, stats) = use_store("sha1", 1, 0, None);
            assert_eq!(outcome, SolveOutcome::Unsat);
            assert!(
                stats.deleted_clauses > 0 && stats.compactions > 0,
                "{stats}"
            );
        }),
    ]
}

#[test]
fn a_recycled_store_encodes_and_searches_as_a_new_one() {
    let fresh: Vec<Observation> = targets()
        .into_iter()
        .map(|(kernel, cgra, slack)| {
            // A new thread has no store to recycle.
            thread::spawn(move || observe(kernel, &cgra, slack))
                .join()
                .unwrap()
        })
        .collect();
    for (what, previous) in previous_uses() {
        let recycled: Vec<Observation> = thread::spawn(move || {
            targets()
                .into_iter()
                .map(|(kernel, cgra, slack)| {
                    previous();
                    observe(kernel, &cgra, slack)
                })
                .collect()
        })
        .join()
        .unwrap();
        for ((kernel, _, slack), (fresh, recycled)) in
            targets().iter().zip(fresh.iter().zip(&recycled))
        {
            assert_eq!(
                recycled, fresh,
                "{kernel} slack {slack} after a {what} formula"
            );
        }
    }
}
