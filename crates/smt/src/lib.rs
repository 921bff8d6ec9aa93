//! # cgra-smt — a finite-domain constraint layer over CDCL SAT
//!
//! The paper formulates the time dimension of CGRA mapping as an SMT
//! problem and hands it to Z3. The formulation is quantifier-free and
//! every variable ranges over a small bounded set of schedule slots, so
//! the theory involved is finite-domain integer arithmetic. This crate
//! provides exactly that fragment as a thin, complete encoding onto the
//! [`cgra_sat`] CDCL core:
//!
//! * integer variables with explicit finite domains (one-hot encoded,
//!   with a linear at-most-one ladder for large domains),
//! * reified domain literals `[x = v]`,
//! * arbitrary binary relations between integer variables (encoded by
//!   forbidding violating value pairs),
//! * cardinality constraints `≤ k` / `≥ k` / `= k` via the Sinz
//!   sequential-counter encoding,
//! * Tseitin `or`/`and` definition literals,
//! * model extraction and solution enumeration through blocking clauses.
//!
//! ## Example
//!
//! ```
//! use cgra_smt::{FdSolver, SatResult};
//!
//! let mut fd = FdSolver::new();
//! let x = fd.new_int(0..=3);
//! let y = fd.new_int(0..=3);
//! // y must be strictly greater than x
//! fd.require_binary(x, y, |a, b| b > a);
//! // and x must be at least 2
//! fd.require_unary(x, |a| a >= 2);
//! assert_eq!(fd.solve(), SatResult::Sat);
//! assert_eq!(fd.value(x), 2);
//! assert_eq!(fd.value(y), 3);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod cardinality;
mod fd;

pub use cardinality::{at_least_k, at_most_k, at_most_one, exactly_k};
pub use cgra_sat::{LBool, Lit, SatResult, SolverStats, Var};
pub use fd::{FdSolver, FdStats, IntVar};
