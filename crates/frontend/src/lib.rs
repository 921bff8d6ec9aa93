//! The loop-kernel text front door: a restricted C-like DSL (`.mk`)
//! compiled to [`cgra_dfg::Dfg`] graphs.
//!
//! The pipeline mirrors how the DATE 2025 suite kernels enter the
//! mapper in a real deployment: a loop body is written once as text,
//! [`compile`]d to a DFG, and from there flows through the usual
//! space/time decoupled mapping — the surface syntax never reaches the
//! solver. The grammar (see `docs/FRONTEND.md` for the full EBNF)
//! covers exactly the mapper's operation set:
//!
//! ```text
//! kernel dot {
//!   i32 a = in(0);
//!   i32 b = in(1);
//!   rec i32 acc = 0;
//!   acc = acc + a * b;
//!   out(acc);
//! }
//! ```
//!
//! Scalars are single-assignment names for dataflow values; `rec`
//! declares a loop-carried recurrence (a φ node) that must be closed
//! exactly once with `name = expr;` (optionally `@ d` for an iteration
//! distance beyond 1); arrays are pure address namespaces for
//! `mem[idx]` loads and `mem[idx] = v` stores. Every stage reports
//! failures as a [`ParseError`] carrying the 1-based `{line, col}` of
//! the offending token.
//!
//! The inverse direction is [`emit()`]: any validated DFG pretty-prints
//! to source that compiles back to a canonically identical graph.
//!
//! [`suite`] is the paper's 17-kernel benchmark suite, compiled from the
//! committed `kernels/*.mk` files.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use std::fmt;

use serde::{Deserialize, Serialize};

pub mod ast;
pub mod build;
pub mod emit;
pub mod lexer;
pub mod parser;
pub mod suite;

pub use build::{build_kernel, build_program};
pub use emit::emit;
pub use lexer::{lex, Lexeme, Span, Tok};
pub use parser::parse;

use cgra_arch::OpClass;
use cgra_dfg::Dfg;

/// A compilation failure — lexical, syntactic or semantic — anchored
/// to the 1-based source position of the offending token.
#[derive(Clone, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub struct ParseError {
    /// 1-based source line.
    pub line: u32,
    /// 1-based column, counted in characters.
    pub col: u32,
    /// Human-readable description of what went wrong.
    pub message: String,
}

impl ParseError {
    /// Builds an error at `span`.
    pub fn new(span: Span, message: impl Into<String>) -> ParseError {
        ParseError {
            line: span.line,
            col: span.col,
            message: message.into(),
        }
    }
}

impl fmt::Display for ParseError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}:{}: {}", self.line, self.col, self.message)
    }
}

impl std::error::Error for ParseError {}

/// Compiles `.mk` source to one validated [`Dfg`] per kernel, in
/// source order.
///
/// # Errors
///
/// Returns the first [`ParseError`] encountered, whether lexical
/// (stray byte, oversized literal), syntactic (missing `;`, bad
/// nesting) or semantic (undefined name, type mismatch, recurrence
/// misuse).
pub fn compile(source: &str) -> Result<Vec<Dfg>, ParseError> {
    build_program(&parse(source)?)
}

/// Compiles source expected to hold exactly one kernel.
///
/// # Errors
///
/// As [`compile`], plus an error at the start (or at the second
/// kernel) when the file does not contain exactly one kernel.
pub fn compile_one(source: &str) -> Result<Dfg, ParseError> {
    let program = parse(source)?;
    match program.kernels.len() {
        1 => Ok(build_program(&program)?.remove(0)),
        0 => Err(ParseError::new(
            Span::start(),
            "expected exactly one kernel, found none",
        )),
        n => Err(ParseError::new(
            program.kernels[1].span,
            format!("expected exactly one kernel, found {n}"),
        )),
    }
}

/// Per-class node counts of a compiled kernel — the inferred
/// functional-unit demand the heterogeneous mapper matches against
/// per-PE capability sets.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub struct ClassCounts {
    /// Nodes needing only the ALU datapath (arithmetic, logic,
    /// constants, live-ins/outs, φ).
    pub alu: usize,
    /// Multiply/divide nodes.
    pub mul: usize,
    /// Load/store nodes.
    pub mem: usize,
}

/// Counts nodes per inferred [`OpClass`].
pub fn class_counts(dfg: &Dfg) -> ClassCounts {
    let mut counts = ClassCounts {
        alu: 0,
        mul: 0,
        mem: 0,
    };
    for v in dfg.nodes() {
        match dfg.op(v).op_class() {
            OpClass::Alu => counts.alu += 1,
            OpClass::Mul => counts.mul += 1,
            OpClass::Mem => counts.mem += 1,
        }
    }
    counts
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn compile_splits_kernels_in_order() {
        let dfgs = compile("kernel a { out(in(0)); } kernel b { out(in(1)); }").unwrap();
        assert_eq!(dfgs.len(), 2);
        assert_eq!(dfgs[0].name(), "a");
        assert_eq!(dfgs[1].name(), "b");
    }

    #[test]
    fn compile_one_rejects_zero_and_two() {
        assert!(compile_one("// nothing here").is_err());
        let err = compile_one("kernel a { } kernel b { }").unwrap_err();
        assert!(err.message.contains("found 2"), "{}", err.message);
        assert!(compile_one("kernel a { out(in(0)); }").is_ok());
    }

    #[test]
    fn long_operator_chains_compile_on_a_small_stack() {
        // Binary operators cost no nesting level, so a chain is as long
        // as the source: parsing, lowering and dropping it must not
        // recurse once per operator.
        let terms = 20_000;
        let nodes = std::thread::Builder::new()
            .stack_size(256 * 1024)
            .spawn(move || {
                let mut src = String::from("kernel k { i32 a = in(0); out(a");
                src.push_str(&" + a * a".repeat(terms));
                src.push_str("); }");
                compile_one(&src).map(|dfg| dfg.num_nodes())
            })
            .unwrap()
            .join()
            .expect("no stack overflow");
        // in, 2 nodes per term (`*` and `+`), out.
        assert_eq!(nodes, Ok(2 * terms + 2));
    }

    #[test]
    fn parse_error_displays_position_first() {
        let err = compile("kernel k {\n  i32 x = ;\n}").unwrap_err();
        assert!(err.to_string().starts_with("2:11: "), "{err}");
    }

    #[test]
    fn parse_error_round_trips_through_serde() {
        let err = ParseError {
            line: 3,
            col: 14,
            message: "undefined name `q`".into(),
        };
        let json = serde_json::to_string(&err).unwrap();
        assert_eq!(serde_json::from_str::<ParseError>(&json).unwrap(), err);
    }

    #[test]
    fn class_counts_follow_op_class_inference() {
        let dfg = compile_one(
            "kernel k { i32[] m; i32 a = in(0); i32 p = a * m[a]; m[p] = p / 2; out(p); }",
        )
        .unwrap();
        let counts = class_counts(&dfg);
        // mem: load + store; mul: mul + div; alu: input, const 2, out.
        assert_eq!(counts.mem, 2);
        assert_eq!(counts.mul, 2);
        assert_eq!(counts.alu, 3);
    }
}
