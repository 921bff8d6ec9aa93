//! Golden-battery generation for the routing-parity lock
//! (`tests/routing_parity.rs` at the workspace root).
//!
//! One suite kernel on one grid runs through all three engines with
//! fixed, deterministic configurations (II caps and a conflict budget
//! instead of wall-clock deadlines, so the outcome is a pure function
//! of the inputs). Each run becomes one tab-separated line; the
//! committed battery is regenerated by the `routing_goldens` binary
//! and asserted byte-identical by the parity test.

use cgra_arch::Cgra;
use cgra_base::Budget;
use cgra_baseline::{AnnealingConfig, AnnealingMapper, CoupledConfig, CoupledMapper};
use monomap_core::{DecoupledMapper, MapError, MapperConfig, Mapping};
use monomap_frontend::suite;

/// II cap per kernel for the golden battery (the same shape as the
/// incremental-parity battery: generous for everything that maps,
/// tight on the two kernels that escalate far on the heterogeneous
/// grid so the battery stays fast).
pub fn golden_ii_cap(kernel: &str) -> usize {
    match kernel {
        "cfd" | "hotspot3D" => 7,
        _ => 16,
    }
}

/// Conflict budget per coupled `(II, slack)` SAT attempt. Conflicts
/// are a deterministic measure, unlike wall-clock deadlines, so a
/// budget exhaustion is reproducible and may be locked as a golden
/// outcome.
pub const GOLDEN_COUPLED_BUDGET: u64 = 50_000;

fn render(engine: &str, grid: &str, kernel: &str, r: Result<Mapping, MapError>) -> String {
    match r {
        Ok(mapping) => {
            let json = serde_json::to_string(&mapping).expect("mappings serialize");
            format!("{engine}\t{grid}\t{kernel}\tOK\t{json}")
        }
        Err(e) => format!("{engine}\t{grid}\t{kernel}\tERR\t{e:?}"),
    }
}

/// The decoupled engine's golden line for `kernel` on `cgra`.
pub fn decoupled_golden_line(cgra: &Cgra, grid: &str, kernel: &str) -> String {
    let dfg = suite::generate(kernel);
    let cap = golden_ii_cap(kernel);
    let r = DecoupledMapper::with_config(cgra, MapperConfig::new().with_max_ii(cap))
        .map(&dfg)
        .map(|r| r.mapping);
    render("decoupled", grid, kernel, r)
}

/// The coupled engine's golden line for `kernel` on `cgra`
/// (deterministic conflict budget, see [`GOLDEN_COUPLED_BUDGET`]).
pub fn coupled_golden_line(cgra: &Cgra, grid: &str, kernel: &str) -> String {
    let dfg = suite::generate(kernel);
    let cap = golden_ii_cap(kernel);
    let r = CoupledMapper::with_config(
        cgra,
        CoupledConfig {
            max_ii: Some(cap),
            budget: Some(Budget::conflicts(GOLDEN_COUPLED_BUDGET)),
            ..CoupledConfig::default()
        },
    )
    .map(&dfg)
    .map(|r| r.mapping);
    render("coupled", grid, kernel, r)
}

/// The annealing engine's golden line for `kernel` on `cgra` (seeded,
/// so deterministic).
pub fn annealing_golden_line(cgra: &Cgra, grid: &str, kernel: &str) -> String {
    let dfg = suite::generate(kernel);
    let cap = golden_ii_cap(kernel);
    let r = AnnealingMapper::with_config(
        cgra,
        AnnealingConfig {
            max_ii: Some(cap),
            ..AnnealingConfig::default()
        },
    )
    .map(&dfg)
    .map(|r| r.mapping);
    render("annealing", grid, kernel, r)
}

/// Runs `kernel` through the decoupled, coupled and annealing engines
/// on `cgra` (labelled `grid`) and returns the three golden lines.
pub fn routing_golden_lines(cgra: &Cgra, grid: &str, kernel: &str) -> Vec<String> {
    vec![
        decoupled_golden_line(cgra, grid, kernel),
        coupled_golden_line(cgra, grid, kernel),
        annealing_golden_line(cgra, grid, kernel),
    ]
}
