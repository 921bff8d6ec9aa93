//! Time-formula pins: the CNF that `TimeSolver::new` builds, and the
//! order in which its schedules come out, for every suite kernel on the
//! three homogeneous cold grids and the heterogeneous 4×4.
//!
//! Each row of `tests/golden/time_formula.tsv` is one `(grid, kernel,
//! II = mII, slack)` cell: the encoding's `TimeSolverStats` (`int_vars`,
//! `sat_vars`, `clauses`) and an FNV-1a digest of the first 16 schedules
//! `TimeSolver::next` enumerates (every node's time, in order) together
//! with why enumeration ended. A change to the encoder
//! or the SAT core that keeps every row has kept the formula and the
//! search; one that moves a row has changed what the mapper sees.
//!
//! Debug checks every fourth row; `--release` checks the whole table.
//! `PRINT_TIME_FORMULA=1 cargo test --release --test time_formula --
//! --nocapture` prints the current table in the file's form.

use cgra_arch::{CapabilityProfile, Cgra};
use cgra_sched::{min_ii, SolveOutcome, TimeSolver, TimeSolverConfig};
use monomap_frontend::suite;

const GOLDEN: &str = include_str!("golden/time_formula.tsv");

/// Schedules digested per cell: the mapper's default
/// `max_time_solutions`.
const SCHEDULES: usize = 16;

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

/// 64-bit FNV-1a.
fn fnv1a(state: &mut u64, bytes: &[u8]) {
    for &b in bytes {
        *state ^= u64::from(b);
        *state = state.wrapping_mul(0x0000_0100_0000_01b3);
    }
}

/// The table row of one cell.
fn row(grid: &str, kernel: &str, cgra: &Cgra, slack: usize) -> String {
    let dfg = suite::generate(kernel);
    let ii = min_ii(&dfg, cgra);
    let config = TimeSolverConfig::for_cgra(cgra).with_window_slack(slack);
    let mut solver = TimeSolver::new(&dfg, ii, config).expect("suite kernels encode");
    let stats = solver.stats();
    let mut digest = 0xcbf2_9ce4_8422_2325u64;
    let mut schedules = 0;
    let mut outcome = solver.next();
    let end = loop {
        match outcome {
            SolveOutcome::Solution(sol) => {
                schedules += 1;
                for v in dfg.nodes() {
                    fnv1a(&mut digest, &(sol.time(v) as u32).to_le_bytes());
                }
                fnv1a(&mut digest, b";");
                if schedules == SCHEDULES {
                    break "cap";
                }
                outcome = solver.next();
            }
            SolveOutcome::Unsat => break "unsat",
            SolveOutcome::Timeout => break "timeout",
        }
    };
    fnv1a(&mut digest, end.as_bytes());
    format!(
        "{grid}\t{kernel}\t{ii}\t{slack}\t{}\t{}\t{}\t{schedules}\t{end}\t{digest:016x}",
        stats.int_vars, stats.sat_vars, stats.clauses
    )
}

/// Every cell, in table order.
fn cells() -> Vec<(&'static str, Cgra, &'static str, usize)> {
    let mut out = Vec::new();
    for (grid, cgra) in grids() {
        for kernel in suite::names() {
            for slack in 0..=2 {
                out.push((grid, cgra.clone(), kernel, slack));
            }
        }
    }
    out
}

#[test]
fn time_formula_and_enumeration_order_are_pinned() {
    let golden: Vec<&str> = GOLDEN.lines().collect();
    let cells = cells();
    let print = std::env::var_os("PRINT_TIME_FORMULA").is_some();
    if !print {
        assert_eq!(golden.len(), cells.len(), "one golden row per cell");
    }
    let stride = if cfg!(debug_assertions) && !print {
        4
    } else {
        1
    };
    let mut checked = 0;
    for (i, (grid, cgra, kernel, slack)) in cells.iter().enumerate() {
        if i % stride != 0 {
            continue;
        }
        let line = row(grid, kernel, cgra, *slack);
        if print {
            println!("{line}");
            continue;
        }
        assert_eq!(line, golden[i], "time formula moved at row {}", i + 1);
        checked += 1;
    }
    if !print {
        assert_eq!(checked, cells.len().div_ceil(stride));
    }
}
