//! Search pins: what `SpaceEngine::search` does with the schedules the
//! mapper hands it, on grids whose domains span one, two and seven
//! 64-bit words.
//!
//! Each row of `tests/golden/iso_search.tsv` is one `(grid, kernel,
//! II = mII, slack, schedule, budget)` search: the outcome, the steps it
//! took and an FNV-1a digest of the map it found. The schedules are the
//! first four `TimeSolver::next` enumerates at each slack 0–2, and the
//! budgets are the first two rungs of the mapper's ladder under the
//! default `mono_step_limit` (a thousandth and a hundredth of it). The
//! grids are the homogeneous 4×4, 9×9 (81 PEs, two words per domain) and
//! 20×20 (400 PEs, seven words) tori, the heterogeneous 4×4 and the 4×4
//! mesh under a two-hop route bound. `tests/iso_oracle.rs` checks
//! answers on grids up to 3×3; this file holds the search's choices,
//! failures and step counts on the multi-word grids it cannot reach.
//!
//! `PRINT_ISO_SEARCH=1 cargo test --release --test iso_search --
//! --nocapture` prints the current table in the file's form.

use monomap::arch::{CapabilityProfile, Cgra, Topology};
use monomap::core::{MapperConfig, SpaceEngine, SpaceOutcome};
use monomap::frontend::suite;
use monomap::sched::{min_ii, SolveOutcome, TimeSolver, TimeSolverConfig};

const GOLDEN: &str = include_str!("golden/iso_search.tsv");

/// Schedules searched per `(grid, kernel, slack)`.
const SCHEDULES: usize = 4;

/// A grid of the table: its name, CGRA and route bound.
fn grids() -> Vec<(&'static str, Cgra, usize)> {
    vec![
        ("hom4", Cgra::new(4, 4).unwrap(), 1),
        ("hom9", Cgra::new(9, 9).unwrap(), 1),
        ("hom20", Cgra::new(20, 20).unwrap(), 1),
        (
            "het4",
            Cgra::new(4, 4)
                .unwrap()
                .with_capability_profile(CapabilityProfile::MemLeftMulCheckerboard),
            1,
        ),
        (
            "mesh4k2",
            Cgra::with_topology(4, 4, Topology::Mesh).unwrap(),
            2,
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

/// The rows of one `(grid, kernel)` cell: every slack, schedule and
/// budget, in table order.
fn cell(grid: &str, cgra: &Cgra, hops: usize, kernel: &str) -> Vec<String> {
    let limit = MapperConfig::default().mono_step_limit;
    let budgets = [limit / 1000, limit / 100];
    let engine = SpaceEngine::with_route_hops(cgra, hops);
    let dfg = suite::generate(kernel);
    let ii = min_ii(&dfg, cgra);
    let mut rows = Vec::new();
    for slack in 0..=2 {
        let config = TimeSolverConfig::for_cgra(cgra).with_window_slack(slack);
        let mut solver = TimeSolver::new(&dfg, ii, config).expect("suite kernels encode");
        for schedule in 0..SCHEDULES {
            let SolveOutcome::Solution(sol) = solver.next() else {
                break;
            };
            for budget in budgets {
                let (outcome, steps) = engine.search(&dfg, &sol, budget, None);
                let mut digest = 0xcbf2_9ce4_8422_2325u64;
                let word = match &outcome {
                    SpaceOutcome::Found(map) => {
                        for &t in map {
                            fnv1a(&mut digest, &(t as u32).to_le_bytes());
                        }
                        "found"
                    }
                    SpaceOutcome::Exhausted => "exhausted",
                    SpaceOutcome::LimitReached => "limit",
                    SpaceOutcome::Cancelled => "cancelled",
                };
                rows.push(format!(
                    "{grid}\t{kernel}\t{ii}\t{slack}\t{schedule}\t{budget}\t{word}\t{steps}\t{digest:016x}"
                ));
            }
        }
    }
    rows
}

#[test]
fn search_outcomes_steps_and_maps_are_pinned() {
    let print = std::env::var_os("PRINT_ISO_SEARCH").is_some();
    let mut golden = GOLDEN.lines().peekable();
    for (grid, cgra, hops) in grids() {
        for kernel in suite::names() {
            let prefix = format!("{grid}\t{kernel}\t");
            let pinned: Vec<&str> =
                std::iter::from_fn(|| golden.next_if(|l| l.starts_with(&prefix))).collect();
            let rows = cell(grid, &cgra, hops, kernel);
            if print {
                rows.iter().for_each(|r| println!("{r}"));
                continue;
            }
            assert_eq!(rows, pinned, "search moved on {grid} {kernel}");
        }
    }
    if !print {
        assert_eq!(golden.next(), None, "golden rows past the last cell");
    }
}
