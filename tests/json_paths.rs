//! The two JSON paths of the vendored serde stub held to each other on
//! every type that crosses the daemon's wire or its disk log.
//!
//! * Writing: `write_json` (what `serde_json::to_string` runs) must
//!   produce exactly the text `serde::ser::emit` makes of `to_value()`.
//! * Reading: a direct decoder (`Deserialize::from_json`) that succeeds
//!   must return what the `Value` path returns, and
//!   `serde_json::from_str` must answer exactly as the `Value` path
//!   does — the same value, or an error with the same words.
//!
//! The reading half runs on the unmutated corpus (where the direct
//! decoders must succeed, or the fast path is dead), on the six byte
//! mutations of `frontend_fuzz` and the `wire` battery, and on hostile
//! megabyte inputs, each under a bound on time and allocation. A
//! counting allocator pins what decoding a `/map` body costs.
//!
//! Iteration counts are capped in debug builds; CI runs the full count
//! (`cargo test --release -q --test json_paths`).

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::fs;
use std::path::PathBuf;
use std::time::{Duration, Instant};

use monomap::base::Budget;
use monomap::prelude::*;
use monomap::service::{DiskLog, TieredCache};
use serde::de::Reader;
use serde::{Deserialize, Serialize, Value};

mod common;
use common::{mutate, XorShift};

#[cfg(debug_assertions)]
const ITERATIONS: u64 = 600;
#[cfg(not(debug_assertions))]
const ITERATIONS: u64 = 40_000;

// ---------------------------------------------------------------------
// Allocation accounting
// ---------------------------------------------------------------------

/// Counts the allocations (and bytes asked for) of the current thread,
/// so that tests running side by side do not see each other's.
struct Counting;

thread_local! {
    static ALLOCATED: Cell<(u64, u64)> = const { Cell::new((0, 0)) };
}

fn note(bytes: usize) {
    let _ = ALLOCATED.try_with(|c| {
        let (n, b) = c.get();
        c.set((n + 1, b + bytes as u64));
    });
}

unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        note(layout.size());
        System.alloc(layout)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        note(new_size);
        System.realloc(ptr, layout, new_size)
    }
}

#[global_allocator]
static COUNTING: Counting = Counting;

/// What `f` cost on this thread: its result, then allocations, bytes
/// allocated and wall time.
fn metered<T>(f: impl FnOnce() -> T) -> (T, (u64, u64, Duration)) {
    let (n0, b0) = ALLOCATED.with(Cell::get);
    let start = Instant::now();
    let out = f();
    let elapsed = start.elapsed();
    let (n1, b1) = ALLOCATED.with(Cell::get);
    (out, (n1 - n0, b1 - b0, elapsed))
}

// ---------------------------------------------------------------------
// The two paths
// ---------------------------------------------------------------------

/// The reference: parse the tree, then `from_value`.
fn tree_path<T: Deserialize>(text: &str) -> Result<T, String> {
    let mut r = Reader::new(text);
    let tree = r.parse_value().map_err(|e| e.to_string())?;
    r.finish().map_err(|e| e.to_string())?;
    T::from_value(&tree).map_err(|e| e.to_string())
}

/// The direct decoder alone, without the fallback.
fn direct_path<T: Deserialize>(text: &str) -> Option<T> {
    let mut r = Reader::new(text);
    let value = T::from_json(&mut r).ok()?;
    r.finish().ok()?;
    Some(value)
}

/// Largest cost one decode of `len` bytes may have: linear in the
/// input, with room for debug builds and a busy machine. Requests may
/// carry `.mk` source, which their decoders compile; the compiler's
/// allocations are not JSON's to bound, so their decodes are held to
/// the time bound only (and their text is also decoded as a `Value`).
fn within_bounds(what: &str, len: usize, cost: (u64, u64, Duration), compiles: bool) {
    let (len, (allocs, bytes, elapsed)) = (len as u64, cost);
    if !compiles {
        assert!(
            allocs <= len + 64,
            "{what}: {allocs} allocations for {len} bytes"
        );
        assert!(
            bytes <= 64 * len + (64 << 10),
            "{what}: {bytes} bytes allocated for {len} bytes"
        );
    }
    let per_byte = if cfg!(debug_assertions) {
        20_000
    } else {
        1_000
    };
    let limit = Duration::from_nanos(per_byte * len) + Duration::from_millis(200);
    assert!(elapsed <= limit, "{what}: {elapsed:?} for {len} bytes");
}

/// Decodes `text` as `T` on every path and checks that they agree and
/// stay within bounds (`compiles`: see [`within_bounds`]). Returns
/// whether the direct decoder succeeded and whether the tree path did.
fn agree<T: Deserialize + Serialize>(text: &str, compiles: bool) -> (bool, bool) {
    let (tree, cost) = metered(|| tree_path::<T>(text));
    within_bounds("tree path", text.len(), cost, compiles);
    let (direct, cost) = metered(|| direct_path::<T>(text));
    within_bounds("direct path", text.len(), cost, compiles);
    let (public, cost) = metered(|| serde_json::from_str::<T>(text));
    within_bounds("from_str", text.len(), cost, compiles);

    let shown = |t: &T| t.to_value();
    // Megabyte inputs would drown a failure message.
    let text: String = text.chars().take(400).collect();
    if let Some(direct) = &direct {
        let tree = tree.as_ref().unwrap_or_else(|e| {
            panic!("the direct decoder took text the tree path refuses ({e}): {text:?}")
        });
        assert_eq!(shown(direct), shown(tree), "paths disagree on {text:?}");
    }
    match (&public, &tree) {
        (Ok(public), Ok(tree)) => assert_eq!(shown(public), shown(tree), "on {text:?}"),
        (Err(public), Err(tree)) => assert_eq!(&public.to_string(), tree, "on {text:?}"),
        _ => panic!(
            "from_str answered {:?}, the tree path {:?}, on {text:?}",
            public.as_ref().map(shown),
            tree.as_ref().map(shown)
        ),
    }
    (direct.is_some(), tree.is_ok())
}

// ---------------------------------------------------------------------
// The corpus
// ---------------------------------------------------------------------

/// What a corpus entry is decoded as.
#[derive(Clone, Copy, Debug)]
enum Kind {
    Request,
    Batch,
    Report,
}

fn decode_as(kind: Kind, text: &str) -> (bool, bool) {
    agree::<Value>(text, false);
    match kind {
        Kind::Request => agree::<MapRequest>(text, true),
        Kind::Batch => agree::<Vec<MapRequest>>(text, true),
        Kind::Report => agree::<MapReport>(text, false),
    }
}

/// A suite `/map` body as the benchmark sends it.
fn dfg_body(dfg: &Dfg) -> String {
    let mut req = MapRequest::new(EngineId::Decoupled, dfg.clone());
    req.deadline_seconds = Some(30.0);
    serde_json::to_string(&req).unwrap()
}

fn source_body(name: &str) -> String {
    let path = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join(format!("kernels/{name}.mk"));
    let source = fs::read_to_string(path).unwrap();
    let mut req = MapRequest::from_source(EngineId::Decoupled, source).unwrap();
    req.deadline_seconds = Some(30.0);
    serde_json::to_string(&req).unwrap()
}

/// A report of each outcome kind: mapped with and without route hops,
/// failed, rejected.
fn reports() -> Vec<MapReport> {
    let cgra = Cgra::new(2, 2).unwrap();
    let service = standard_service(&cgra);
    let mapped = service.map(&MapRequest::new(EngineId::Decoupled, running_example()));
    let routed = service.map(
        &MapRequest::new(EngineId::Decoupled, suite::generate("bitcount"))
            .with_cgra(Cgra::new(4, 4).unwrap())
            .with_config(MapperConfig::new().with_max_route_hops(2)),
    );
    assert!(mapped.outcome.is_mapped() && routed.outcome.is_mapped());
    assert!(!routed.mapping.as_ref().unwrap().route_hops().is_empty());
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
fn disk_log_record() -> String {
    let dir = std::env::temp_dir().join(format!("monomap-json-paths-{}", std::process::id()));
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
    String::from_utf8(log[report_at + 4..report_at + 4 + report_len].to_vec()).unwrap()
}

/// A mapped report as the parent format wrote it, with the retired
/// `space_parallelism` echo in its stats, and the report it must decode
/// to: a disk log written by an older build replays.
fn parent_format_report() -> (String, MapReport) {
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
/// `tests/wire_golden.rs`, one report per outcome kind, a parent-format
/// report and a disk-log record.
fn corpus() -> Vec<(Kind, String)> {
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

// ---------------------------------------------------------------------
// Tests
// ---------------------------------------------------------------------

fn assert_written_as_emitted<T: Serialize>(what: &str, value: &T) {
    let mut emitted = String::new();
    serde::ser::emit(&value.to_value(), &mut emitted, None);
    assert_eq!(serde_json::to_string(value).unwrap(), emitted, "{what}");
}

#[test]
fn write_json_is_emit_of_to_value_for_every_wire_type() {
    let bitcount = suite::generate("bitcount");
    let hetero = Cgra::new(4, 4)
        .unwrap()
        .with_capability_profile(CapabilityProfile::MemLeftMulCheckerboard);
    let budgeted = MapperConfig::new()
        .with_max_ii(12)
        .with_time_budget(Budget {
            max_conflicts: Some(500),
            max_propagations: Some(1 << 40),
        })
        .with_max_route_hops(2);
    let dfg_request = MapRequest::new(EngineId::Decoupled, bitcount.clone())
        .with_cgra(hetero.clone())
        .with_config(budgeted.clone())
        .with_deadline(Duration::from_millis(2500));
    let source =
        fs::read_to_string(PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("kernels/bitcount.mk"))
            .unwrap();
    let source_request = MapRequest::from_source(EngineId::Annealing, source).unwrap();
    assert_written_as_emitted("MapRequest with a dfg", &dfg_request);
    assert_written_as_emitted("MapRequest with a source", &source_request);
    assert_written_as_emitted("a batch", &vec![dfg_request, source_request]);
    assert_written_as_emitted("heterogeneous Cgra", &hetero);
    assert_written_as_emitted("homogeneous Cgra", &Cgra::new(2, 3).unwrap());
    assert_written_as_emitted("MapperConfig with budgets", &budgeted);
    assert_written_as_emitted("default MapperConfig", &MapperConfig::default());
    assert_written_as_emitted("Dfg", &bitcount);
    for report in reports() {
        assert_written_as_emitted(&format!("MapReport {:?}", report.outcome), &report);
        assert_written_as_emitted("MapStats", &report.stats);
        assert_written_as_emitted("Mapping", &report.mapping);
    }
    let floats = vec![
        0.0,
        -0.0,
        1.5,
        1e21,
        1e-7,
        f64::NAN,
        f64::INFINITY,
        123456789.0,
    ];
    assert_written_as_emitted("floats", &floats);
    let strings = vec!["", "\"\\\n\r\t\u{1}\u{1f}", "π ≈ 3.14 — ok", "a/b"];
    assert_written_as_emitted("strings", &strings);
    assert_written_as_emitted("extreme integers", &(i64::MIN, u64::MAX));
    assert_written_as_emitted(
        "a tree",
        &serde_json::from_str::<Value>(&disk_log_record()).unwrap(),
    );
}

#[test]
fn direct_decoders_take_every_seed_and_agree_with_the_tree() {
    let mut valid = 0;
    for (kind, text) in corpus() {
        let (direct, tree) = decode_as(kind, &text);
        assert_eq!(direct, tree, "the direct {kind:?} decoder on {text}");
        valid += usize::from(tree);
    }
    assert!(valid >= 40, "only {valid} valid seeds");
}

#[test]
fn parent_format_report_decodes_to_the_same_report_on_both_paths() {
    let (text, report) = parent_format_report();
    assert_eq!(direct_path::<MapReport>(&text), Some(report.clone()));
    assert_eq!(tree_path::<MapReport>(&text), Ok(report));
}

#[test]
fn mutants_decode_the_same_on_both_paths() {
    let corpus = corpus();
    let seeds: Vec<Vec<u8>> = corpus.iter().map(|(_, t)| t.clone().into_bytes()).collect();
    let mut rng = XorShift(0x4a50_4e5f_5041_5448);
    let (mut direct, mut fallback) = (0u64, 0u64);
    for _ in 0..ITERATIONS {
        // Pick the seed here so the mutant keeps its seed's kind.
        let at = rng.below(seeds.len() as u64);
        let mut bytes = mutate(&mut rng, &seeds[at..=at]);
        if rng.below(2) == 0 {
            bytes = mutate(&mut rng, &[bytes]);
        }
        let text = String::from_utf8_lossy(&bytes);
        if decode_as(corpus[at].0, &text).0 {
            direct += 1;
        } else {
            fallback += 1;
        }
    }
    // The mutations must reach both outcomes.
    assert!(
        direct > 0 && fallback > 0,
        "{direct} direct, {fallback} fallback"
    );
}

#[test]
fn hostile_inputs_stay_bounded() {
    const MB: usize = 1 << 20;
    let body = dfg_body(&suite::generate("cfd"));
    let cases = [
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
    ];
    for text in &cases {
        agree::<MapRequest>(text, true);
        agree::<Value>(text, false);
    }
}

/// Decoding the `hotspot3D` `/map` body costs one allocation per node
/// name, the growth of the node and edge vectors, and the kernel name:
/// nothing per key, per number or per operation.
#[test]
fn decoding_a_map_body_allocates_at_most_two_per_node() {
    let dfg = suite::generate("hotspot3D");
    let body = dfg_body(&dfg);
    let (request, (allocs, _, _)) = metered(|| serde_json::from_str::<MapRequest>(&body).unwrap());
    assert_eq!(request.dfg.num_nodes(), dfg.num_nodes());
    let bound = 2 * dfg.num_nodes() as u64 + 16;
    assert!(allocs <= bound, "{allocs} allocations, bound {bound}");
}
