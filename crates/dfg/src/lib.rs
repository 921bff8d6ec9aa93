//! # cgra-dfg — data-flow graphs for CGRA mapping
//!
//! The source side of the `monomap` mapper: loop-body data-flow graphs
//! (DFGs) whose nodes are instructions and whose edges are data
//! dependencies or loop-carried dependencies with an iteration distance
//! (paper §III-A, Fig. 2a).
//!
//! The crate provides:
//!
//! * [`Dfg`] — the graph itself, with validation (acyclic data subgraph,
//!   complete operands, loop-carried edges terminating in [`Operation::Phi`]
//!   nodes) and Graphviz export,
//! * [`DfgBuilder`] — a fluent construction API,
//! * [`examples`] — the paper's 14-node running example (Fig. 2a),
//! * [`canon`] — canonical forms and digests, invariant under node
//!   renumbering.
//!
//! The 17-kernel benchmark suite is written in the `.mk` text format
//! and lives with its compiler, in `monomap_frontend::suite`.
//!
//! ## Example
//!
//! ```
//! use cgra_dfg::{DfgBuilder, Operation};
//!
//! let mut b = DfgBuilder::new();
//! let x = b.input("x");
//! let acc = b.phi("acc", 0);
//! let sum = b.binary("sum", Operation::Add, acc, x);
//! b.loop_carried(sum, acc, 1);
//! b.output("out", sum);
//! let dfg = b.build()?;
//! assert_eq!(dfg.num_nodes(), 4);
//! # Ok::<(), cgra_dfg::DfgError>(())
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod builder;
pub mod canon;
mod dot;
pub mod examples;
mod graph;
pub mod metrics;
mod op;

pub use builder::DfgBuilder;
pub use canon::{CanonicalDfg, DfgDigest};
pub use graph::{Adjacency, Dfg, DfgError, Edge, EdgeKind, NodeId};
pub use metrics::DfgMetrics;
pub use op::Operation;
