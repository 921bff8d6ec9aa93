//! Validation of service [`MapReport`]s — the simulator-side hook of
//! the unified mapping API.
//!
//! A [`MapReport`] that arrives over the wire (or out of an engine
//! under test) makes claims: an outcome, an II, and possibly a
//! mapping. [`validate_report`] checks the claims against each other
//! and against the DFG/CGRA pair — outcome/mapping consistency first,
//! then every mapping invariant via [`Mapping::validate_routed`]
//! under the mapping's own declared route bound — and
//! [`simulate_report`] goes further, executing the mapped loop on the
//! machine simulator against the reference interpreter.

use std::fmt;

use cgra_arch::Cgra;
use cgra_dfg::Dfg;
use monomap_core::api::{MapOutcome, MapReport};
use monomap_core::{Mapping, MappingError};

use crate::{interpret, MachineSimulator, SimEnv, SimError};

/// A violation found by [`validate_report`] or [`simulate_report`].
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum ReportError {
    /// The outcome says mapped, but the report carries no mapping.
    MissingMapping,
    /// The report carries a mapping although the outcome is a failure
    /// or rejection.
    UnexpectedMapping,
    /// The outcome's II disagrees with the mapping's.
    IiMismatch {
        /// II claimed by the outcome.
        outcome_ii: usize,
        /// II of the attached mapping.
        mapping_ii: usize,
    },
    /// The outcome's II disagrees with the report's statistics.
    StatsMismatch {
        /// II claimed by the outcome.
        outcome_ii: usize,
        /// `achieved_ii` of the statistics.
        stats_ii: usize,
    },
    /// The report names a different DFG than the one supplied.
    WrongDfg {
        /// Name in the report.
        got: String,
        /// Name of the supplied DFG.
        expected: String,
    },
    /// The mapping violates a mapping invariant.
    Invalid(MappingError),
    /// The machine run failed or disagreed with the reference
    /// interpreter ([`simulate_report`] only).
    Divergence(String),
}

impl fmt::Display for ReportError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ReportError::MissingMapping => write!(f, "outcome is Mapped but no mapping attached"),
            ReportError::UnexpectedMapping => {
                write!(f, "failed report carries a mapping")
            }
            ReportError::IiMismatch {
                outcome_ii,
                mapping_ii,
            } => write!(
                f,
                "outcome claims II={outcome_ii} but the mapping has II={mapping_ii}"
            ),
            ReportError::StatsMismatch {
                outcome_ii,
                stats_ii,
            } => write!(
                f,
                "outcome claims II={outcome_ii} but stats report achieved_ii={stats_ii}"
            ),
            ReportError::WrongDfg { got, expected } => {
                write!(f, "report is for DFG `{got}`, expected `{expected}`")
            }
            ReportError::Invalid(e) => write!(f, "invalid mapping: {e}"),
            ReportError::Divergence(msg) => write!(f, "simulation divergence: {msg}"),
        }
    }
}

impl std::error::Error for ReportError {}

impl From<MappingError> for ReportError {
    fn from(e: MappingError) -> Self {
        ReportError::Invalid(e)
    }
}

/// Checks a [`MapReport`]'s internal consistency and, when it carries
/// a mapping, every mapping invariant against `dfg` and `cgra`.
///
/// * [`MapOutcome::Mapped`] must come with a mapping whose II matches
///   the outcome's and the statistics' (statistics are checked only
///   when metered, i.e. non-zero);
/// * failed and rejected reports must not carry a mapping;
/// * the report must name `dfg`.
///
/// # Errors
///
/// The first violated check.
pub fn validate_report(dfg: &Dfg, cgra: &Cgra, report: &MapReport) -> Result<(), ReportError> {
    if report.dfg_name != dfg.name() {
        return Err(ReportError::WrongDfg {
            got: report.dfg_name.clone(),
            expected: dfg.name().to_string(),
        });
    }
    match &report.outcome {
        MapOutcome::Mapped { ii } => {
            let mapping = report.mapping.as_ref().ok_or(ReportError::MissingMapping)?;
            if mapping.ii() != *ii {
                return Err(ReportError::IiMismatch {
                    outcome_ii: *ii,
                    mapping_ii: mapping.ii(),
                });
            }
            // Engines that meter their search record the achieved II;
            // a zero means the field was not produced.
            if report.stats.achieved_ii != 0 && report.stats.achieved_ii != *ii {
                return Err(ReportError::StatsMismatch {
                    outcome_ii: *ii,
                    stats_ii: report.stats.achieved_ii,
                });
            }
            // Routed mappings are validated under their own declared
            // bound; classic mappings under the strict one-hop model.
            mapping.validate_routed(dfg, cgra, mapping.declared_route_bound())?;
            Ok(())
        }
        MapOutcome::Failed(_) | MapOutcome::Rejected { .. } if report.mapping.is_some() => {
            Err(ReportError::UnexpectedMapping)
        }
        _ => Ok(()),
    }
}

/// [`validate_report`] plus a functional check: executes the mapped
/// loop on the [`MachineSimulator`] for `iterations` iterations in
/// `env` and compares outputs and memory against the reference
/// interpreter. Reports without a mapping pass the structural checks
/// only.
///
/// The runs must agree even where the machine reordered same-word
/// memory accesses (see the crate docs); when they disagree, the
/// message names the first such reorder.
///
/// # Errors
///
/// Structural violations as in [`validate_report`];
/// [`ReportError::Divergence`] when either executor fails or they
/// disagree.
pub fn simulate_report(
    dfg: &Dfg,
    cgra: &Cgra,
    report: &MapReport,
    env: &SimEnv,
    iterations: usize,
) -> Result<(), ReportError> {
    validate_report(dfg, cgra, report)?;
    let Some(mapping) = &report.mapping else {
        return Ok(());
    };
    let run = |label: &str, r: Result<crate::ExecRecord, SimError>| {
        r.map_err(|e| ReportError::Divergence(format!("{label} failed: {e}")))
    };
    let reference = run("reference interpreter", interpret(dfg, env, iterations))?;
    let machine = run(
        "machine simulator",
        machine_run(cgra, dfg, mapping, env, iterations),
    )?;
    let cause = match machine.reorders.first() {
        Some(r) => format!(" (first memory reorder: {r})"),
        None => String::new(),
    };
    if reference.outputs != machine.outputs {
        return Err(ReportError::Divergence(format!(
            "outputs differ: reference {:?} vs machine {:?}{cause}",
            reference.outputs, machine.outputs
        )));
    }
    if reference.memory != machine.memory {
        return Err(ReportError::Divergence(format!(
            "final memories differ{cause}"
        )));
    }
    Ok(())
}

fn machine_run(
    cgra: &Cgra,
    dfg: &Dfg,
    mapping: &Mapping,
    env: &SimEnv,
    iterations: usize,
) -> Result<crate::ExecRecord, SimError> {
    MachineSimulator::new(cgra, dfg, mapping).run(env, iterations)
}

#[cfg(test)]
mod tests {
    use super::*;
    use cgra_dfg::examples::accumulator;
    use monomap_core::api::{EngineId, MapRequest, MappingService};

    fn mapped_report(cgra: &Cgra) -> MapReport {
        MappingService::new(cgra).map(&MapRequest::new(EngineId::Decoupled, accumulator()))
    }

    #[test]
    fn valid_report_passes() {
        let cgra = Cgra::new(2, 2).unwrap();
        let report = mapped_report(&cgra);
        validate_report(&accumulator(), &cgra, &report).unwrap();
    }

    #[test]
    fn detects_missing_mapping() {
        let cgra = Cgra::new(2, 2).unwrap();
        let mut report = mapped_report(&cgra);
        report.mapping = None;
        assert_eq!(
            validate_report(&accumulator(), &cgra, &report),
            Err(ReportError::MissingMapping)
        );
    }

    #[test]
    fn detects_ii_mismatch() {
        let cgra = Cgra::new(2, 2).unwrap();
        let mut report = mapped_report(&cgra);
        report.outcome = MapOutcome::Mapped { ii: 99 };
        assert!(matches!(
            validate_report(&accumulator(), &cgra, &report),
            Err(ReportError::IiMismatch { mapping_ii: 2, .. })
        ));
    }

    #[test]
    fn detects_wrong_dfg() {
        let cgra = Cgra::new(2, 2).unwrap();
        let report = mapped_report(&cgra);
        let other = cgra_dfg::examples::running_example();
        assert!(matches!(
            validate_report(&other, &cgra, &report),
            Err(ReportError::WrongDfg { .. })
        ));
    }

    #[test]
    fn detects_invalid_mapping_against_wrong_cgra() {
        // A mapping computed on a torus can violate adjacency on a
        // mesh of the same size.
        let torus = Cgra::new(3, 3).unwrap();
        let dfg = cgra_dfg::examples::running_example();
        let report =
            MappingService::new(&torus).map(&MapRequest::new(EngineId::Decoupled, dfg.clone()));
        validate_report(&dfg, &torus, &report).unwrap();
        let mesh = Cgra::with_topology(3, 3, cgra_arch::Topology::Mesh).unwrap();
        // Either invalid on the mesh or (rarely) still valid; both are
        // legal, but the check must not panic. Exercise the path:
        let _ = validate_report(&dfg, &mesh, &report);
    }

    #[test]
    fn detects_unexpected_mapping_on_failure() {
        let cgra = Cgra::new(2, 2).unwrap();
        let mut report = mapped_report(&cgra);
        report.outcome = MapOutcome::Rejected {
            reason: "test".into(),
        };
        assert_eq!(
            validate_report(&accumulator(), &cgra, &report),
            Err(ReportError::UnexpectedMapping)
        );
    }

    #[test]
    fn simulate_report_agrees_with_interpreter() {
        let cgra = Cgra::new(2, 2).unwrap();
        let report = mapped_report(&cgra);
        let env = SimEnv::new(16).with_input_stream(vec![1, 2, 3, 4]);
        simulate_report(&accumulator(), &cgra, &report, &env, 4).unwrap();
    }

    #[test]
    fn simulate_report_detects_placement_corruption() {
        // Swapping the mapping for a different kernel's must surface
        // as a structural or functional error, never silence.
        let cgra = Cgra::new(2, 2).unwrap();
        let mut report = mapped_report(&cgra);
        // Corrupt: claim one fewer node by truncating placements.
        let mapping = report.mapping.take().unwrap();
        let mut placements = mapping.placements().to_vec();
        placements.pop();
        report.mapping = Some(Mapping::new(
            mapping.dfg_name().to_string(),
            mapping.ii(),
            placements,
        ));
        assert!(matches!(
            validate_report(&accumulator(), &cgra, &report),
            Err(ReportError::Invalid(MappingError::WrongArity { .. }))
        ));
    }
}
