//! One experiment cell: (benchmark, CGRA size, mapper) under a
//! wall-clock timeout.
//!
//! Cells run through the unified
//! [`MappingService`](monomap_core::api::MappingService): one
//! [`MapRequest`] per cell, engine selected by id, the wall-clock
//! timeout expressed as the request deadline. The per-engine
//! constructor/watchdog glue this module used to carry lives behind
//! the service now.

use std::time::{Duration, Instant};

use serde::{Deserialize, Serialize};

use cgra_arch::{CapabilityProfile, Cgra};
use cgra_baseline::standard_service;
use cgra_dfg::Dfg;
use monomap_core::api::{EngineId, MapOutcome, MapRequest};
use monomap_core::MapError;

/// Which mapper to run in a cell.
#[derive(Clone, Copy, PartialEq, Eq, Debug, Serialize, Deserialize)]
pub enum MapperKind {
    /// The paper's decoupled monomorphism-based mapper.
    Monomorphism,
    /// The SAT-MapIt-style coupled baseline.
    SatMapIt,
    /// The DRESC-style simulated annealer.
    Annealing,
}

impl MapperKind {
    /// Short display name.
    pub fn name(self) -> &'static str {
        match self {
            MapperKind::Monomorphism => "monomorphism",
            MapperKind::SatMapIt => "sat-mapit",
            MapperKind::Annealing => "annealing",
        }
    }

    /// The service engine id this kind dispatches to.
    pub fn engine(self) -> EngineId {
        match self {
            MapperKind::Monomorphism => EngineId::Decoupled,
            MapperKind::SatMapIt => EngineId::Coupled,
            MapperKind::Annealing => EngineId::Annealing,
        }
    }
}

/// How a cell ended.
#[derive(Clone, Copy, PartialEq, Debug, Serialize, Deserialize)]
pub enum CellOutcome {
    /// A valid mapping was produced at the reported II.
    Mapped {
        /// Achieved iteration interval.
        ii: usize,
    },
    /// The wall-clock timeout (or internal budget) fired first.
    Timeout,
    /// The II range was exhausted without a solution.
    NoSolution,
}

/// Result of one experiment cell.
#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct CellResult {
    /// Benchmark name.
    pub benchmark: String,
    /// DFG node count.
    pub nodes: usize,
    /// CGRA side length (rows = cols).
    pub size: usize,
    /// Mapper that ran.
    pub mapper: MapperKind,
    /// Outcome.
    pub outcome: CellOutcome,
    /// `mII` lower bound for this (benchmark, size).
    pub mii: usize,
    /// Wall-clock of the whole cell in seconds.
    pub total_seconds: f64,
    /// Time-phase seconds (decoupled mapper only; 0 otherwise).
    pub time_phase_seconds: f64,
    /// Space-phase seconds (decoupled mapper only; 0 otherwise).
    pub space_phase_seconds: f64,
}

impl CellResult {
    /// The achieved II, if mapped.
    pub fn ii(&self) -> Option<usize> {
        match self.outcome {
            CellOutcome::Mapped { ii } => Some(ii),
            _ => None,
        }
    }

    /// True when the cell timed out.
    pub fn timed_out(&self) -> bool {
        self.outcome == CellOutcome::Timeout
    }
}

/// Runs one cell on a homogeneous `size × size` grid under a
/// wall-clock timeout; see [`run_cell_with_profile`].
pub fn run_cell(dfg: &Dfg, size: usize, kind: MapperKind, timeout: Duration) -> CellResult {
    run_cell_with_profile(dfg, size, CapabilityProfile::Homogeneous, kind, timeout)
}

/// Runs one cell on a `size × size` grid with the given capability
/// profile, under a wall-clock timeout.
///
/// The cell is one [`MapRequest`] with the timeout as its deadline:
/// the service's watchdog raises the engine's cancellation flag when
/// the deadline expires, and the engine returns at its next
/// cancellation point (SAT decisions, solver boundaries, monomorphism
/// DFS steps, annealing temperature steps), so cells never wedge the
/// harness — every engine observes the flag.
pub fn run_cell_with_profile(
    dfg: &Dfg,
    size: usize,
    profile: CapabilityProfile,
    kind: MapperKind,
    timeout: Duration,
) -> CellResult {
    let cgra = Cgra::new(size, size)
        .expect("valid grid size")
        .with_capability_profile(profile);
    let service = standard_service(&cgra);
    let mii = cgra_sched::min_ii(dfg, &cgra);
    let started = Instant::now();
    let report = service.map(&MapRequest::new(kind.engine(), dfg.clone()).with_deadline(timeout));
    let total_seconds = started.elapsed().as_secs_f64();
    let outcome = match &report.outcome {
        MapOutcome::Mapped { ii } => CellOutcome::Mapped { ii: *ii },
        MapOutcome::Failed(MapError::Timeout { .. }) => CellOutcome::Timeout,
        MapOutcome::Failed(_) | MapOutcome::Rejected { .. } => CellOutcome::NoSolution,
    };
    CellResult {
        benchmark: dfg.name().to_string(),
        nodes: dfg.num_nodes(),
        size,
        mapper: kind,
        outcome,
        // The engine reports mII in its stats; failed searches carry
        // default stats, so the bound is kept locally for those rows.
        mii,
        total_seconds,
        time_phase_seconds: report.stats.time_phase_seconds,
        space_phase_seconds: report.stats.space_phase_seconds,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use monomap_frontend::suite;

    #[test]
    fn mono_cell_maps_susan_quickly() {
        let dfg = suite::generate("susan");
        let r = run_cell(&dfg, 5, MapperKind::Monomorphism, Duration::from_secs(60));
        assert_eq!(r.mii, 2);
        assert!(matches!(r.outcome, CellOutcome::Mapped { .. }), "{r:?}");
        assert!(!r.timed_out());
        assert_eq!(r.nodes, 21);
    }

    #[test]
    fn satmapit_cell_times_out_when_squeezed() {
        // A large grid with a millisecond budget must report Timeout,
        // not hang.
        let dfg = suite::generate("hotspot3D");
        let r = run_cell(&dfg, 10, MapperKind::SatMapIt, Duration::from_millis(50));
        assert!(r.timed_out(), "{:?}", r.outcome);
        assert!(r.total_seconds < 30.0, "watchdog released the harness");
    }

    #[test]
    fn annealing_cell_runs() {
        let dfg = cgra_dfg::examples::accumulator();
        let r = run_cell(&dfg, 3, MapperKind::Annealing, Duration::from_secs(30));
        assert!(matches!(r.outcome, CellOutcome::Mapped { .. }));
    }

    #[test]
    fn annealing_cell_times_out_when_squeezed() {
        // Regression: the watchdog used to block forever in `rx.recv()`
        // because the annealing worker had no cancellation point. A
        // hard cell with a millisecond budget must now report Timeout.
        let dfg = suite::generate("hotspot3D");
        let r = run_cell(&dfg, 10, MapperKind::Annealing, Duration::from_millis(20));
        assert!(
            r.timed_out() || r.ii().is_some(),
            "cell must resolve, got {:?}",
            r.outcome
        );
        assert!(r.total_seconds < 30.0, "watchdog released the harness");
    }

    #[test]
    fn heterogeneous_cell_maps_susan() {
        let dfg = suite::generate("susan");
        let r = run_cell_with_profile(
            &dfg,
            5,
            CapabilityProfile::MemLeftMulCheckerboard,
            MapperKind::Monomorphism,
            Duration::from_secs(120),
        );
        assert!(matches!(r.outcome, CellOutcome::Mapped { .. }), "{r:?}");
        // The restricted grid can only raise the II, never lower it.
        assert!(r.ii().unwrap() >= r.mii);
    }

    #[test]
    fn mono_portfolio_cell_matches_serial_ii() {
        use monomap_core::MapperConfig;
        // Not a run_cell path (run_cell always uses defaults), but the
        // same suite kernel through the service: a portfolio-mode
        // request must reach the serial request's II.
        let dfg = suite::generate("susan");
        let cgra = Cgra::new(5, 5).expect("valid grid");
        let service = standard_service(&cgra);
        let serial = service.map(&MapRequest::new(EngineId::Decoupled, dfg.clone()));
        let portfolio = service.map(
            &MapRequest::new(EngineId::Decoupled, dfg.clone())
                .with_config(MapperConfig::new().with_space_parallelism(4)),
        );
        assert_eq!(serial.outcome.ii().expect("maps"), {
            assert!(portfolio.outcome.is_mapped(), "maps in portfolio mode");
            portfolio.outcome.ii().unwrap()
        });
    }
}
