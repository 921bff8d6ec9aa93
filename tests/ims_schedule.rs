//! IMS pins: the schedule `ims_schedule` returns, or its failure, for
//! every suite kernel on the homogeneous 2×2 and 4×4 and the
//! heterogeneous 4×4 at II `mII..=mII+1` and window slack `0..=2`.
//!
//! Each row of `tests/golden/ims_schedule.tsv` is one `(grid, kernel,
//! II, slack)` cell and an FNV-1a digest of the schedule (every node's
//! time, in node order) or of `none`. The heuristic is deterministic, so
//! a refactor of it that keeps every row has kept its schedules.
//!
//! `PRINT_IMS_SCHEDULE=1 cargo test --release --test ims_schedule --
//! --nocapture` prints the current table in the file's form.

use cgra_arch::{CapabilityProfile, Cgra};
use cgra_sched::{ims_schedule, min_ii, TimeSolverConfig};
use monomap_frontend::suite;

const GOLDEN: &str = include_str!("golden/ims_schedule.tsv");

fn grids() -> Vec<(&'static str, Cgra)> {
    vec![
        ("hom2", Cgra::new(2, 2).unwrap()),
        ("hom4", Cgra::new(4, 4).unwrap()),
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

#[test]
fn ims_schedules_are_pinned() {
    let print = std::env::var_os("PRINT_IMS_SCHEDULE").is_some();
    let mut rows = Vec::new();
    for (grid, cgra) in grids() {
        for kernel in suite::names() {
            let dfg = suite::generate(kernel);
            let mii = min_ii(&dfg, &cgra);
            for ii in mii..=mii + 1 {
                for slack in 0..=2 {
                    let config = TimeSolverConfig::for_cgra(&cgra).with_window_slack(slack);
                    let mut digest = 0xcbf2_9ce4_8422_2325u64;
                    match ims_schedule(&dfg, ii, &config) {
                        Some(sol) => {
                            sol.validate(&dfg, &config).unwrap();
                            for v in dfg.nodes() {
                                fnv1a(&mut digest, &(sol.time(v) as u32).to_le_bytes());
                            }
                        }
                        None => fnv1a(&mut digest, b"none"),
                    }
                    rows.push(format!("{grid}\t{kernel}\t{ii}\t{slack}\t{digest:016x}"));
                }
            }
        }
    }
    if print {
        for row in &rows {
            println!("{row}");
        }
        return;
    }
    let golden: Vec<&str> = GOLDEN.lines().collect();
    assert_eq!(golden.len(), rows.len(), "one golden row per cell");
    for (i, (row, want)) in rows.iter().zip(&golden).enumerate() {
        assert_eq!(row, want, "IMS schedule moved at row {}", i + 1);
    }
}
