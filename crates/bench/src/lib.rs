//! # monomap-bench — the paper's evaluation harness
//!
//! Regenerates every table and figure of the paper's evaluation
//! (§V): Table III (II and compile time, ours vs SAT-MapIt, 17
//! benchmarks × 4 CGRA sizes), Fig. 5 (compile time vs CGRA size for
//! `aes`), plus the ablation studies of the design decisions described
//! in docs/ARCHITECTURE.md ("The time phase").
//!
//! Binaries:
//!
//! * `table3` — the full grid with per-cell timeouts
//!   (`cargo run -p cgra-bench --release --bin table3 [--quick]`),
//! * `fig5` — the `aes` scaling curve,
//! * `ablation` — constraint-family, strictness, topology, annealer and
//!   time-strategy ablations,
//! * `routing_goldens` — captures `tests/golden/routing_parity.tsv`.
//!
//! Performance is measured by one instrument, the `monomap-bench`
//! package under `src/bin/monomap-bench` (contract in the root
//! `BENCHMARK.json`), which times the daemon end to end and each
//! layer under it.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod grid;
pub mod report;
pub mod routing;

pub use grid::{run_cell, run_cell_with_profile, CellOutcome, CellResult, MapperKind};
pub use routing::{
    annealing_golden_line, coupled_golden_line, decoupled_golden_line, golden_ii_cap,
    routing_golden_lines, GOLDEN_COUPLED_BUDGET,
};
