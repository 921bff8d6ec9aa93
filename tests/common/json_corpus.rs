//! The JSON corpus of the decode batteries: every kind of text that
//! crosses the daemon's wire or its disk log, and hostile megabyte
//! inputs. Reports carry wall-clock stats, so their `*_seconds` fields
//! are pinned to one value: the corpus, and every mutant drawn from
//! it, is the same bytes on every run.
#![allow(dead_code)] // only the JSON batteries read the corpus

use std::fs;
use std::path::PathBuf;

use monomap::base::Budget;
use monomap::prelude::*;
use monomap::service::{DiskLog, TieredCache};

/// What a corpus entry is decoded as.
#[derive(Clone, Copy, Debug)]
pub enum Kind {
    Request,
    Batch,
    Report,
}

/// The value every `*_seconds` stat of a corpus report is pinned to.
const PINNED_SECONDS: f64 = 0.015625;

/// `stats` with every wall-clock field set to [`PINNED_SECONDS`].
fn pin_stats(stats: &mut MapStats) {
    for field in [
        &mut stats.total_seconds,
        &mut stats.time_phase_seconds,
        &mut stats.time_encode_seconds,
        &mut stats.time_solve_seconds,
        &mut stats.space_phase_seconds,
    ] {
        *field = PINNED_SECONDS;
    }
}

/// `json` with the number after every `_seconds":` key replaced by
/// [`PINNED_SECONDS`]: [`pin_stats`] for report text.
fn pin_seconds_text(json: &str) -> String {
    let mut out = String::with_capacity(json.len());
    let mut rest = json;
    while let Some(at) = rest.find("_seconds\":") {
        let (head, tail) = rest.split_at(at + "_seconds\":".len());
        out.push_str(head);
        let end = tail
            .find(|c: char| !matches!(c, '0'..='9' | '.' | 'e' | 'E' | '+' | '-'))
            .unwrap_or(tail.len());
        out.push_str(&PINNED_SECONDS.to_string());
        rest = &tail[end..];
    }
    out.push_str(rest);
    out
}

/// A suite `/map` body as the benchmark sends it.
pub fn dfg_body(dfg: &Dfg) -> String {
    let mut req = MapRequest::new(EngineId::Decoupled, dfg.clone());
    req.deadline_seconds = Some(30.0);
    serde_json::to_string(&req).unwrap()
}

pub fn source_body(name: &str) -> String {
    let mut req = MapRequest::from_source(EngineId::Decoupled, kernel_source(name)).unwrap();
    req.deadline_seconds = Some(30.0);
    serde_json::to_string(&req).unwrap()
}

/// The committed `.mk` source of a suite kernel.
pub fn kernel_source(name: &str) -> String {
    let path = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join(format!("kernels/{name}.mk"));
    fs::read_to_string(path).unwrap()
}

/// A report of each outcome kind: mapped with and without route hops,
/// failed, rejected.
pub fn reports() -> Vec<MapReport> {
    let cgra = Cgra::new(2, 2).unwrap();
    let service = standard_service(&cgra);
    let mut mapped = service.map(&MapRequest::new(EngineId::Decoupled, running_example()));
    let mut routed = service.map(
        &MapRequest::new(EngineId::Decoupled, suite::generate("bitcount"))
            .with_cgra(Cgra::new(4, 4).unwrap())
            .with_config(MapperConfig::new().with_max_route_hops(2)),
    );
    assert!(mapped.outcome.is_mapped() && routed.outcome.is_mapped());
    assert!(!routed.mapping.as_ref().unwrap().route_hops().is_empty());
    pin_stats(&mut mapped.stats);
    pin_stats(&mut routed.stats);
    let failed = MapReport::from_error(
        EngineId::Coupled,
        &accumulator(),
        MapError::NoSolution { mii: 2, max_ii: 5 },
        MapStats::default(),
    );
    let rejected = MapReport {
        outcome: MapOutcome::Rejected {
            reason: "engine \"annealing\" is not registered\n".into(),
        },
        ..failed.clone()
    };
    vec![mapped, routed, failed, rejected]
}

/// The report JSON of the one record a disk log holds after one miss,
/// cut out of the log file along its documented record layout.
pub fn disk_log_record() -> String {
    let dir = std::env::temp_dir().join(format!("monomap-json-corpus-{}", std::process::id()));
    let _ = fs::remove_dir_all(&dir);
    {
        let mut tiers = TieredCache::new(MapCache::new(4));
        tiers.push_store(Box::new(DiskLog::open(&dir, 16).unwrap()));
        let cgra = Cgra::new(2, 2).unwrap();
        let service = CachedMappingService::with_tiers(standard_service(&cgra), tiers);
        let (report, _) = service.map(&MapRequest::new(EngineId::Decoupled, accumulator()));
        assert!(report.outcome.is_mapped());
    }
    let log = fs::read(dir.join(monomap::service::disklog::LOG_FILE)).unwrap();
    fs::remove_dir_all(&dir).unwrap();
    let u32_at = |at: usize| u32::from_le_bytes(log[at..at + 4].try_into().unwrap()) as usize;
    // magic 8, payload_len 4, checksum 8, digest 16, engine 1, two
    // fingerprints 16: then the canonical bytes and the report.
    let canon_at = 8 + 4 + 8 + 16 + 1 + 16;
    let report_at = canon_at + 4 + u32_at(canon_at);
    let report_len = u32_at(report_at);
    let record = std::str::from_utf8(&log[report_at + 4..report_at + 4 + report_len]).unwrap();
    pin_seconds_text(record)
}

/// A mapped report as an older format wrote it, with the retired
/// `space_parallelism` echo in its stats, and the report it must decode
/// to: a disk log written by an older build replays.
pub fn parent_format_report() -> (String, MapReport) {
    let report = reports().swap_remove(0);
    let text = serde_json::to_string(&report).unwrap().replacen(
        ",\"sat_vars\":",
        ",\"space_parallelism\":1,\"sat_vars\":",
        1,
    );
    assert!(text.contains("\"space_parallelism\":1"), "{text}");
    (text, report)
}

/// Every seed: the 17 suite `/map` bodies in both forms, the bodies of
/// `tests/wire_golden.rs`, one report per outcome kind, an older-format
/// report and a disk-log record.
pub fn corpus() -> Vec<(Kind, String)> {
    let mut seeds = Vec::new();
    for name in suite::names() {
        seeds.push((Kind::Request, dfg_body(&suite::generate(name))));
        seeds.push((Kind::Request, source_body(name)));
    }
    let golden =
        serde_json::to_string(&MapRequest::new(EngineId::Decoupled, accumulator())).unwrap();
    seeds.push((Kind::Batch, format!("[{golden},{golden}]")));
    seeds.push((Kind::Request, golden));
    let example = MapRequest::new(EngineId::Decoupled, running_example())
        .with_cgra(
            Cgra::with_topology(3, 3, Topology::Mesh)
                .unwrap()
                .with_capability_profile(CapabilityProfile::MemLeftMulCheckerboard),
        )
        .with_config(
            MapperConfig::new()
                .with_max_ii(9)
                .with_time_budget(Budget::conflicts(1000))
                .with_max_route_hops(3),
        );
    seeds.push((Kind::Request, serde_json::to_string(&example).unwrap()));
    seeds.push((Kind::Request, "{\"engine\":\"decoupled\"}".into()));
    seeds.push((Kind::Batch, "[{\"engine\":\"decoupled\"}]".into()));
    for report in reports() {
        seeds.push((Kind::Report, serde_json::to_string(&report).unwrap()));
    }
    seeds.push((Kind::Report, parent_format_report().0));
    seeds.push((Kind::Report, disk_log_record()));
    seeds
}

/// Megabyte inputs built to cost a decoder the most: deep nesting,
/// run-on numbers, strings and escapes, a sequence where a map belongs.
pub fn hostile_inputs() -> Vec<String> {
    const MB: usize = 1 << 20;
    let body = dfg_body(&suite::generate("cfd"));
    vec![
        "[".repeat(MB),
        "{\"a\":".repeat(MB / 5),
        format!("{}{}", "[".repeat(128), "]".repeat(128)),
        format!("{}{}", "[".repeat(129), "]".repeat(129)),
        body.replace(
            "\"deadline_seconds\":30.0",
            &format!("\"deadline_seconds\":{}", "7".repeat(MB)),
        ),
        body.replace(
            "\"deadline_seconds\":30.0",
            &format!("\"deadline_seconds\":0.{}", "1".repeat(MB)),
        ),
        body.replace(
            "\"engine\":\"Decoupled\"",
            &format!("\"engine\":{}", "9".repeat(MB)),
        ),
        body.replace(
            "\"name\":\"cfd\"",
            &format!("\"name\":\"{}\"", "s".repeat(MB)),
        ),
        body.replace(
            "\"name\":\"cfd\"",
            &format!("\"name\":\"{}\"", "\\u0041".repeat(MB / 6)),
        ),
        body.replace(
            "\"cgra\":null",
            &format!("\"cgra\":{}", "[1,".repeat(MB / 3)),
        ),
        body.replace(
            "\"cgra\":null",
            &format!("\"unknown\":\"{}\",\"cgra\":null", "\\n".repeat(MB / 2)),
        ),
    ]
}
