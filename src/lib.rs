//! # monomap — monomorphism-based CGRA mapping via space and time
//! decoupling
//!
//! A from-scratch Rust reproduction of *"Monomorphism-based CGRA
//! Mapping via Space and Time Decoupling"* (Tirelli, Otoni, Pozzi —
//! DATE 2025), including every substrate the paper depends on:
//!
//! | crate | role |
//! |-------|------|
//! | [`base`] | shared substrate: the dense bit set, search budgets, cancellation |
//! | [`arch`] | CGRA model (PE grid, topologies, register files) and the MRRG |
//! | [`dfg`] | data-flow graphs, builders, canonical digests |
//! | [`frontend`] | the `.mk` kernel language and the 17-kernel benchmark suite compiled from `kernels/*.mk` |
//! | [`sat`] | CDCL SAT solver (the decision engine standing in for Z3) |
//! | [`smt`] | finite-domain constraint layer over the SAT core |
//! | [`sched`] | ASAP/ALAP, mobility/KMS folding, `mII`, the SMT time search |
//! | [`iso`] | subgraph-monomorphism engine (propagating, label-partitioned) |
//! | [`core`] | **the paper's contribution**: the decoupled mapper |
//! | [`baseline`] | SAT-MapIt-style coupled mapper + simulated annealing |
//! | [`sim`] | functional CGRA simulator validating mappings end to end |
//! | [`service`] | content-addressed mapping cache + the `monomapd` HTTP daemon |
//!
//! ## Quickstart
//!
//! ```
//! use monomap::prelude::*;
//!
//! // The paper's running example (Fig. 2a) onto a 2×2 CGRA.
//! let cgra = Cgra::new(2, 2)?;
//! let dfg = running_example();
//! let result = DecoupledMapper::new(&cgra).map(&dfg)?;
//! assert_eq!(result.mapping.ii(), 4); // Fig. 2b's kernel
//! result.mapping.validate(&dfg, &cgra)?;
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```
//!
//! See `examples/` for runnable walkthroughs and `crates/bench` for the
//! binaries that regenerate every table and figure of the paper.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub use cgra_arch as arch;
pub use cgra_base as base;
pub use cgra_baseline as baseline;
pub use cgra_dfg as dfg;
pub use cgra_iso as iso;
pub use cgra_sat as sat;
pub use cgra_sched as sched;
pub use cgra_sim as sim;
pub use cgra_smt as smt;
pub use monomap_core as core;
pub use monomap_frontend as frontend;
pub use monomap_service as service;

/// The most commonly used items, re-exported flat.
pub mod prelude {
    pub use cgra_arch::{CapabilityProfile, Cgra, Mrrg, OpClass, OpClassSet, PeId, Topology};
    pub use cgra_base::CancelFlag;
    pub use cgra_baseline::{standard_service, AnnealingMapper, CoupledMapper};
    pub use cgra_dfg::examples::{accumulator, running_example, stream_scale};
    pub use cgra_dfg::{Dfg, DfgBuilder, EdgeKind, NodeId, Operation};
    pub use cgra_sched::{min_ii, rec_ii, res_ii, Kms, Mobility, TimeSolver, TimeSolverConfig};
    pub use cgra_sim::{interpret, register_pressure, validate_report, MachineSimulator, SimEnv};
    pub use monomap_core::api::{
        EngineId, EventCollector, MapEvent, MapObserver, MapOutcome, MapReport, MapRequest, Mapper,
        MappingService, SpaceAttemptOutcome,
    };
    pub use monomap_core::{DecoupledMapper, MapError, MapResult, MapStats, MapperConfig, Mapping};
    pub use monomap_frontend::suite;
    pub use monomap_service::{CacheDisposition, CachedMappingService, MapCache};
}

#[cfg(test)]
mod tests {
    #[test]
    fn prelude_is_usable() {
        use crate::prelude::*;
        let cgra = Cgra::new(2, 2).unwrap();
        assert_eq!(min_ii(&running_example(), &cgra), 4);
    }
}
