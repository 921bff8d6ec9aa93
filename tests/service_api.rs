//! Integration tests of the unified mapping API: the `Mapper` trait,
//! the serde request/report envelope, the observer protocol, and the
//! batch `MappingService` — across all three engines and the full
//! 17-kernel suite.

use std::sync::Arc;
use std::time::Duration;

use monomap::prelude::*;

// ---------------------------------------------------------------------
// JSON round trips
// ---------------------------------------------------------------------

#[test]
fn request_to_report_json_pipeline() {
    // The full wire pipeline: request -> JSON -> request -> report ->
    // JSON -> report, for a success and for an error outcome.
    let cgra = Cgra::new(2, 2).unwrap();
    let service = standard_service(&cgra);
    for (req, mapped) in [
        (
            MapRequest::new(EngineId::Decoupled, running_example()),
            true,
        ),
        (
            MapRequest::new(EngineId::Decoupled, running_example())
                .with_config(MapperConfig::new().with_max_ii(2)),
            false,
        ),
        (MapRequest::new(EngineId::Coupled, accumulator()), true),
        (MapRequest::new(EngineId::Annealing, accumulator()), true),
    ] {
        let wire = serde_json::to_string(&req).unwrap();
        let parsed: MapRequest = serde_json::from_str(&wire).unwrap();
        let report = service.map(&parsed);
        assert_eq!(report.outcome.is_mapped(), mapped, "{report:?}");
        let wire = serde_json::to_string(&report).unwrap();
        let back: MapReport = serde_json::from_str(&wire).unwrap();
        assert_eq!(back, report, "report must round-trip");
        if mapped {
            validate_report(&parsed.dfg, &cgra, &back).unwrap();
        }
    }
}

#[test]
fn suite_kernels_roundtrip_as_requests() {
    // Every suite kernel survives the request envelope (serde for the
    // whole 17-kernel workload, not just the toy examples).
    for name in suite::names() {
        let req = MapRequest::new(EngineId::Decoupled, suite::generate(name));
        let wire = serde_json::to_string(&req).unwrap();
        let back: MapRequest = serde_json::from_str(&wire).unwrap();
        assert_eq!(back.dfg.name(), name);
        assert_eq!(back.dfg.num_nodes(), req.dfg.num_nodes());
        assert_eq!(back.dfg.num_edges(), req.dfg.num_edges());
        assert_eq!(wire, serde_json::to_string(&back).unwrap(), "fixpoint");
    }
}

// ---------------------------------------------------------------------
// Object safety + engine parity
// ---------------------------------------------------------------------

#[test]
fn three_engines_behind_one_trait_object() {
    let cgra = Cgra::new(3, 3).unwrap();
    let engines: Vec<Box<dyn Mapper>> = vec![
        Box::new(DecoupledMapper::new(&cgra)),
        Box::new(CoupledMapper::new(&cgra)),
        Box::new(AnnealingMapper::new(&cgra)),
    ];
    let dfg = stream_scale();
    for engine in &engines {
        let report = engine.map(&MapRequest::new(engine.engine_id(), dfg.clone()));
        assert_eq!(report.engine, engine.engine_id());
        assert!(
            report.outcome.is_mapped(),
            "{}: {:?}",
            engine.engine_id(),
            report.outcome
        );
        validate_report(&dfg, &cgra, &report).unwrap();
    }
}

#[test]
fn decoupled_service_path_is_byte_identical_to_direct_path() {
    // The golden guarantee of the redesign: the serial decoupled
    // mapper produces byte-for-byte the same mapping whether called
    // directly (the pre-service constructor path) or through the
    // request/report envelope — over the full 17-kernel suite.
    let cgra = Cgra::new(5, 5).unwrap();
    let service = standard_service(&cgra);
    for name in suite::names() {
        let dfg = suite::generate(name);
        let direct = DecoupledMapper::new(&cgra).map(&dfg).unwrap();
        let report = service.map(&MapRequest::new(EngineId::Decoupled, dfg.clone()));
        let served = report
            .mapping
            .as_ref()
            .unwrap_or_else(|| panic!("{name}: service path failed: {:?}", report.outcome));
        assert_eq!(
            serde_json::to_string(&direct.mapping).unwrap(),
            serde_json::to_string(served).unwrap(),
            "{name}: service path must be byte-identical"
        );
        assert_eq!(report.stats.achieved_ii, direct.stats.achieved_ii);
        assert_eq!(report.stats.time_solutions, direct.stats.time_solutions);
        assert_eq!(report.stats.mono_steps, direct.stats.mono_steps);
    }
}

#[test]
fn decoupled_and_coupled_agree_on_ii_through_the_service() {
    // Engine parity (the paper's quality claim) through the unified
    // surface: both exact engines reach the same II on a small grid.
    let cgra = Cgra::new(2, 2).unwrap();
    let service = standard_service(&cgra);
    for dfg in [running_example(), accumulator()] {
        let mono = service.map(&MapRequest::new(EngineId::Decoupled, dfg.clone()));
        let sat = service.map(&MapRequest::new(EngineId::Coupled, dfg.clone()));
        assert_eq!(
            mono.outcome.ii().unwrap(),
            sat.outcome.ii().unwrap(),
            "{}",
            dfg.name()
        );
    }
}

// ---------------------------------------------------------------------
// Observer protocol
// ---------------------------------------------------------------------

#[test]
fn serial_observer_stream_is_deterministic_and_well_formed() {
    let cgra = Cgra::new(5, 5).unwrap();
    let service = standard_service(&cgra);
    let dfg = suite::generate("gsm");
    let run = |engine: EngineId| {
        let collector = Arc::new(EventCollector::new());
        let report =
            service.map(&MapRequest::new(engine, dfg.clone()).with_observer(collector.clone()));
        (report, collector.events())
    };
    for engine in [EngineId::Decoupled, EngineId::Coupled, EngineId::Annealing] {
        let (report_a, events_a) = run(engine);
        let (_, events_b) = run(engine);
        assert_eq!(events_a, events_b, "{engine}: serial events deterministic");
        // Well-formedness: starts with IiStarted at mII, ends with a
        // Finished matching the report.
        assert!(
            matches!(events_a.first(), Some(MapEvent::IiStarted { ii }) if *ii == report_a.stats.mii),
            "{engine}: {:?}",
            events_a.first()
        );
        match events_a.last() {
            Some(MapEvent::Finished { mapped, ii }) => {
                assert_eq!(*mapped, report_a.outcome.is_mapped(), "{engine}");
                assert_eq!(*ii, report_a.outcome.ii(), "{engine}");
            }
            other => panic!("{engine}: last event {other:?}"),
        }
        // Exactly one Finished per map.
        assert_eq!(
            events_a
                .iter()
                .filter(|e| matches!(e, MapEvent::Finished { .. }))
                .count(),
            1,
            "{engine}"
        );
    }
}

#[test]
fn observer_events_serialize() {
    // Events are structured data: they serialize for shipping to a
    // monitoring pipeline.
    let events = [
        MapEvent::IiStarted { ii: 4 },
        MapEvent::TimeSolutionFound { ii: 4, slack: 0 },
        MapEvent::SpaceAttempt {
            ii: 4,
            slack: 0,
            outcome: SpaceAttemptOutcome::Found,
        },
        MapEvent::Escalated { ii: 4, slack: 2 },
        MapEvent::Finished {
            mapped: true,
            ii: Some(4),
        },
    ];
    for e in events {
        let json = serde_json::to_string(&e).unwrap();
        let back: MapEvent = serde_json::from_str(&json).unwrap();
        assert_eq!(back, e);
    }
}

// ---------------------------------------------------------------------
// Batch service
// ---------------------------------------------------------------------

#[test]
fn parallel_batch_preserves_input_order_across_engines() {
    // A mixed-engine, mixed-kernel batch under a 4-worker pool: the
    // reports must come back in input order with the right engine
    // stamped on each, and every mapping must validate.
    let cgra = Cgra::new(4, 4).unwrap();
    let service = standard_service(&cgra).with_parallelism(4);
    let mut requests = Vec::new();
    for name in ["susan", "bitcount", "gsm", "sha1", "fft"] {
        for engine in [EngineId::Decoupled, EngineId::Annealing] {
            requests.push(MapRequest::new(engine, suite::generate(name)));
        }
    }
    let reports = service.map_batch(&requests);
    assert_eq!(reports.len(), requests.len());
    for (req, rep) in requests.iter().zip(&reports) {
        assert_eq!(rep.engine, req.engine, "engine preserved in order");
        assert_eq!(rep.dfg_name, req.dfg.name(), "kernel preserved in order");
        assert!(
            rep.outcome.is_mapped(),
            "{}: {:?}",
            rep.dfg_name,
            rep.outcome
        );
        validate_report(&req.dfg, &cgra, rep).unwrap();
    }
}

#[test]
fn parallel_batch_matches_serial_batch() {
    // Both engines in the batch are deterministic per request, so the
    // 4-worker batch must produce exactly the serial batch's reports.
    let cgra = Cgra::new(5, 5).unwrap();
    let requests: Vec<MapRequest> = ["susan", "gsm", "bitcount", "crc32"]
        .iter()
        .map(|n| MapRequest::new(EngineId::Decoupled, suite::generate(n)))
        .collect();
    let serial = standard_service(&cgra).map_batch(&requests);
    let parallel = standard_service(&cgra)
        .with_parallelism(4)
        .map_batch(&requests);
    for (a, b) in serial.iter().zip(&parallel) {
        assert_eq!(a.mapping, b.mapping, "{}", a.dfg_name);
        assert_eq!(a.outcome, b.outcome, "{}", a.dfg_name);
    }
}

#[test]
fn batch_deadline_releases_every_cell() {
    // A batch of hard cells with millisecond deadlines must resolve
    // promptly (timeout or success), never wedge the pool.
    let cgra = Cgra::new(10, 10).unwrap();
    let service = standard_service(&cgra).with_parallelism(2);
    let dfg = suite::generate("hotspot3D");
    let requests: Vec<MapRequest> = [EngineId::Coupled, EngineId::Annealing]
        .into_iter()
        .map(|engine| MapRequest::new(engine, dfg.clone()).with_deadline(Duration::from_millis(50)))
        .collect();
    let started = std::time::Instant::now();
    let reports = service.map_batch(&requests);
    assert!(
        started.elapsed() < Duration::from_secs(60),
        "deadlines must release the batch, took {:?}",
        started.elapsed()
    );
    for rep in &reports {
        assert!(
            rep.outcome.is_mapped()
                || matches!(rep.outcome.error(), Some(MapError::Timeout { .. })),
            "{:?}",
            rep.outcome
        );
    }
}

#[test]
fn service_cancel_releases_a_whole_batch() {
    // A service-level flag raised mid-flight releases every queued
    // request (none carries its own flag).
    let cgra = Cgra::new(8, 8).unwrap();
    let flag = CancelFlag::new();
    let service = standard_service(&cgra)
        .with_parallelism(2)
        .with_cancel(flag.clone());
    let dfg = suite::generate("hotspot3D");
    let requests: Vec<MapRequest> = (0..4)
        .map(|_| MapRequest::new(EngineId::Coupled, dfg.clone()))
        .collect();
    let started = std::time::Instant::now();
    let reports = std::thread::scope(|scope| {
        let watchdog = flag.clone();
        scope.spawn(move || {
            std::thread::sleep(Duration::from_millis(100));
            watchdog.cancel();
        });
        service.map_batch(&requests)
    });
    assert!(
        started.elapsed() < Duration::from_secs(60),
        "cancelled batch must return promptly, took {:?}",
        started.elapsed()
    );
    assert_eq!(reports.len(), 4);
    for rep in &reports {
        assert!(
            rep.outcome.is_mapped()
                || matches!(rep.outcome.error(), Some(MapError::Timeout { .. })),
            "{:?}",
            rep.outcome
        );
    }
}
