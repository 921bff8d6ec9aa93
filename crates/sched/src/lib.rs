//! # cgra-sched — modulo scheduling and the decoupled time search
//!
//! The temporal half of the `monomap` mapper (paper §IV-B):
//!
//! * [`Mobility`] — ASAP/ALAP schedules and the Mobility Schedule
//!   (Table I of the paper),
//! * [`Kms`] — the Kernel Mobility Schedule obtained by folding the
//!   mobility schedule by `II` (Table II),
//! * [`min_ii`]/[`res_ii`]/[`rec_ii`] — the classic lower bound
//!   `mII = max(ResII, RecII)` (Rau, 1996),
//! * [`TimeSolver`] — the SMT formulation of the time dimension with the
//!   paper's three constraint families (modulo-scheduling dependences,
//!   CGRA capacity, CGRA connectivity), encoded through [`cgra_smt`] and
//!   decided by the `cgra-sat` CDCL core. [`TimeSolver::next`] is its
//!   one way to pull a schedule: each call blocks the schedules returned
//!   before and solves again, so the mapper's fall-back path enumerates
//!   distinct schedules until [`SolveOutcome::Unsat`],
//! * [`IncrementalTimeSolver`] — the same formulation kept live on one
//!   CDCL instance per `(DFG, II)`: slack escalation widens windows via
//!   assumption-guarded clause additions instead of rebuilding, so
//!   learnt clauses and branching activity carry across levels. The
//!   mapper does not use it; the benchmark's `sched.*` probe does.
//!
//! ## Example
//!
//! ```
//! use cgra_arch::Cgra;
//! use cgra_dfg::examples::running_example;
//! use cgra_sched::{min_ii, Mobility, TimeSolver, TimeSolverConfig};
//!
//! let dfg = running_example();
//! let cgra = Cgra::new(2, 2)?;
//! let mii = min_ii(&dfg, &cgra);
//! assert_eq!(mii, 4); // the paper's running example
//! let mut solver = TimeSolver::new(&dfg, mii, TimeSolverConfig::for_cgra(&cgra))?;
//! let solution = solver.next().solution().expect("running example is schedulable at mII");
//! assert!(solution.validate(&dfg, &TimeSolverConfig::for_cgra(&cgra)).is_ok());
//! // The next pull excludes the first schedule.
//! let other = solver.next().solution().expect("the example has more than one schedule");
//! assert_ne!(solution, other);
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod heuristic;
mod incremental;
mod kms;
mod mii;
mod mobility;
mod time_solver;

pub use cgra_smt::SolverStats;
pub use heuristic::ims_schedule;
pub use incremental::{EnumerationEnd, IncrementalTimeSolver};
pub use kms::{Kms, KmsEntry};
pub use mii::{min_ii, rec_ii, res_ii, unsupported_op_class};
pub use mobility::Mobility;
pub use time_solver::{
    SolveOutcome, TimeSolution, TimeSolutionError, TimeSolver, TimeSolverConfig, TimeSolverError,
    TimeSolverStats,
};
