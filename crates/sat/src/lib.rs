//! # cgra-sat — a CDCL SAT solver
//!
//! A self-contained conflict-driven clause-learning SAT solver in the
//! MiniSat tradition, built as the decision-procedure substrate of the
//! `monomap` CGRA mapper (it stands in for the Z3 solver used in the
//! paper; the mapper's time formulation is finite-domain and is encoded
//! down to CNF by the `cgra-smt` crate).
//!
//! Features:
//!
//! * two-watched-literal propagation with blocker literals,
//! * first-UIP learning with local clause minimisation,
//! * VSIDS branching, phase saving, Luby restarts,
//! * activity-driven learnt-clause database reduction,
//! * incremental solving (add clauses between solves) and solving under
//!   assumptions with unsat-core extraction,
//! * cooperative cancellation and conflict/propagation budgets,
//! * DIMACS CNF input/output for testing.
//!
//! ## Example
//!
//! ```
//! use cgra_sat::{Solver, SatResult};
//!
//! let mut solver = Solver::new();
//! let a = solver.new_var();
//! let b = solver.new_var();
//! solver.add_clause([a.pos(), b.pos()]); // a ∨ b
//! solver.add_clause([a.neg()]);          // ¬a
//! assert_eq!(solver.solve(), SatResult::Sat);
//! assert!(solver.value(b).is_true());
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod dimacs;
mod luby;
mod solver;
mod types;

pub use luby::luby;
pub use solver::{Solver, SolverStats};
pub use types::{LBool, Lit, SatResult, Var};
