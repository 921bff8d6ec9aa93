//! # cgra-sim — functional CGRA simulation of space-time mappings
//!
//! End-to-end validation substrate: executes a
//! [`monomap_core::Mapping`] on the modelled CGRA, cycle by cycle, with
//! register-file read semantics (a consumer may read a value only from
//! its own PE's register file or a neighbour's), and compares the
//! result against a direct iteration-major interpretation of the DFG.
//! If the mapper produced a wrong schedule or placement, the two
//! disagree or the machine run fails outright.
//!
//! Also computes per-PE register pressure (how many live values a PE's
//! register file must hold simultaneously under the modulo schedule).
//!
//! ## Memory ordering
//!
//! The interpreter executes iterations in order; the mapped machine
//! executes them overlapped (software pipelining). The DFG carries no
//! memory-dependence edges, so two accesses to one word, at least one a
//! store, may run in the opposite order on the machine — and then the
//! two executions can legitimately disagree. The machine run records
//! every such pair in [`ExecRecord::reorders`]; tests that compare
//! memory assert it is empty first, so an agreement never rests on
//! luck, and [`simulate_report`] names the first reorder when the runs
//! differ.
//!
//! ## Example
//!
//! ```
//! use cgra_arch::Cgra;
//! use cgra_dfg::examples::accumulator;
//! use cgra_sim::{interpret, MachineSimulator, SimEnv};
//! use monomap_core::DecoupledMapper;
//!
//! let cgra = Cgra::new(2, 2)?;
//! let dfg = accumulator();
//! let mapping = DecoupledMapper::new(&cgra).map(&dfg)?.mapping;
//!
//! let env = SimEnv::new(16).with_input_stream(vec![1, 2, 3, 4]);
//! let reference = interpret(&dfg, &env, 4)?;
//! let machine = MachineSimulator::new(&cgra, &dfg, &mapping).run(&env, 4)?;
//! assert_eq!(reference.outputs, machine.outputs); // 1, 3, 6, 10
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod env;
mod machine;
mod pressure;
mod reference;
mod report;

pub use env::{ExecRecord, MemoryReorder, SimEnv, SimError};
pub use machine::MachineSimulator;
pub use pressure::register_pressure;
pub use reference::interpret;
pub use report::{simulate_report, validate_report, ReportError};
