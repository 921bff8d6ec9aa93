//! What the one JSON path of the vendored serde stub costs, and what
//! it must still read, on every type that crosses the daemon's wire or
//! its disk log. (Its answers are pinned by `tests/json_decode.rs`.)
//!
//! * `serde_json::from_str` stays within a bound on time and
//!   allocation on hostile megabyte inputs and on the byte mutants of
//!   the corpus (the six mutations of `frontend_fuzz` and the `wire`
//!   battery).
//! * A counting allocator pins what decoding a `/map` body costs.
//! * A report in an older format still decodes.
//! * Every seed of the corpus decodes directly (`from_json`, no second
//!   try), and to the same value as the `Value` tree's re-emission of
//!   its text; `write_json` writes what `emit` makes of the tree of
//!   its own text, on every wire type.
//!
//! Iteration counts are capped in debug builds; CI runs the full count
//! (`cargo test --release -q --test json_paths`).

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::time::{Duration, Instant};

use monomap::base::Budget;
use monomap::prelude::*;
use serde::de::Reader;
use serde::{Deserialize, Serialize, Value};

mod common;
use common::json_corpus::{
    corpus, dfg_body, disk_log_record, hostile_inputs, kernel_source, parent_format_report,
    reports, Kind,
};
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
// Bounds
// ---------------------------------------------------------------------

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

/// Decodes `text` as `T` and checks the cost against
/// [`within_bounds`].
fn bounded<T: Deserialize>(text: &str, compiles: bool) {
    let (_, cost) = metered(|| serde_json::from_str::<T>(text));
    within_bounds(std::any::type_name::<T>(), text.len(), cost, compiles);
}

// ---------------------------------------------------------------------
// Tests
// ---------------------------------------------------------------------

/// Decodes `text` as a `Value` and as `kind`'s type, each within
/// bounds.
fn decode_as(kind: Kind, text: &str) {
    bounded::<Value>(text, false);
    match kind {
        Kind::Request => bounded::<MapRequest>(text, true),
        Kind::Batch => bounded::<Vec<MapRequest>>(text, true),
        Kind::Report => bounded::<MapReport>(text, false),
    }
}

/// `text` parsed as a `Value` tree (the whole text), or the error.
fn tree_of(text: &str) -> Result<Value, String> {
    let mut r = Reader::new(text);
    let tree = r.parse_value().map_err(|e| e.to_string())?;
    r.finish().map_err(|e| e.to_string())?;
    Ok(tree)
}

/// The direct decoder alone, without `from_str`'s rescan.
fn direct_path<T: Deserialize>(text: &str) -> Option<T> {
    let mut r = Reader::new(text);
    let value = T::from_json(&mut r).ok()?;
    r.finish().ok()?;
    Some(value)
}

/// Whether the direct `T` decoder takes `text`. When it does, the text
/// must parse as a tree, and decoding the tree's compact re-emission
/// must give the same value (compared through `write_json`) as
/// decoding the text itself and as `from_str`.
fn agrees_with_tree<T: Deserialize + Serialize>(text: &str) -> bool {
    let Some(direct) = direct_path::<T>(text) else {
        return false;
    };
    let tree = tree_of(text)
        .unwrap_or_else(|e| panic!("the direct decoder took text the tree refuses ({e})"));
    let mut emitted = String::new();
    serde::ser::emit(&tree, &mut emitted, None);
    let shown = |t: &T| serde_json::to_string(t).unwrap();
    let from_tree = direct_path::<T>(&emitted)
        .unwrap_or_else(|| panic!("the direct decoder refuses the tree's re-emission"));
    assert_eq!(shown(&direct), shown(&from_tree), "text and tree disagree");
    let public = serde_json::from_str::<T>(text).expect("from_str refuses what from_json took");
    assert_eq!(
        shown(&direct),
        shown(&public),
        "from_json and from_str disagree"
    );
    true
}

/// `value` writes as `emit` writes the tree of its own text.
fn assert_written_as_emitted<T: Serialize>(what: &str, value: &T) {
    let written = serde_json::to_string(value).unwrap();
    let tree = tree_of(&written).unwrap_or_else(|e| panic!("{what}: wrote invalid JSON ({e})"));
    let mut emitted = String::new();
    serde::ser::emit(&tree, &mut emitted, None);
    assert_eq!(written, emitted, "{what}");
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
    let source_request =
        MapRequest::from_source(EngineId::Annealing, kernel_source("bitcount")).unwrap();
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
        assert!(tree_of(&text).is_ok(), "a seed is not JSON: {text}");
        let direct = match kind {
            Kind::Request => agrees_with_tree::<MapRequest>(&text),
            Kind::Batch => agrees_with_tree::<Vec<MapRequest>>(&text),
            Kind::Report => agrees_with_tree::<MapReport>(&text),
        };
        // A seed the type refuses must be refused by `from_str` too.
        let public = match kind {
            Kind::Request => serde_json::from_str::<MapRequest>(&text).is_ok(),
            Kind::Batch => serde_json::from_str::<Vec<MapRequest>>(&text).is_ok(),
            Kind::Report => serde_json::from_str::<MapReport>(&text).is_ok(),
        };
        assert_eq!(direct, public, "the direct {kind:?} decoder on {text}");
        valid += usize::from(direct);
    }
    assert!(valid >= 40, "only {valid} valid seeds");
}

#[test]
fn parent_format_report_decodes_to_the_same_report() {
    let (text, report) = parent_format_report();
    assert_eq!(serde_json::from_str::<MapReport>(&text), Ok(report));
}

#[test]
fn mutants_stay_bounded() {
    let corpus = corpus();
    let seeds: Vec<Vec<u8>> = corpus.iter().map(|(_, t)| t.clone().into_bytes()).collect();
    let mut rng = XorShift(0x4a50_4e5f_5041_5448);
    for _ in 0..ITERATIONS {
        // Pick the seed here so the mutant keeps its seed's kind.
        let at = rng.below(seeds.len() as u64);
        let mut bytes = mutate(&mut rng, &seeds[at..=at]);
        if rng.below(2) == 0 {
            bytes = mutate(&mut rng, &[bytes]);
        }
        decode_as(corpus[at].0, &String::from_utf8_lossy(&bytes));
    }
}

#[test]
fn hostile_inputs_stay_bounded() {
    for text in &hostile_inputs() {
        decode_as(Kind::Request, text);
    }
}

/// Decoding the `hotspot3D` `/map` body costs one allocation per node
/// name, the growth of the node and edge vectors, and the kernel name:
/// nothing per key, per number or per operation. A heterogeneous 4x4
/// `cgra` adds the grid's own adjacency tables (its JSON costs only the
/// capability vector's growth). The counts are exact, so a decoder that
/// starts to allocate more shows here; through the `Value` tree the
/// second body cost 220.
#[test]
fn decoding_a_map_body_allocates_at_most_two_per_node() {
    let dfg = suite::generate("hotspot3D");
    let hetero = Cgra::new(4, 4)
        .unwrap()
        .with_capability_profile(CapabilityProfile::MemLeftMulCheckerboard);
    let mut with_cgra = MapRequest::new(EngineId::Decoupled, dfg.clone()).with_cgra(hetero);
    with_cgra.deadline_seconds = Some(30.0);
    let cases = [
        ("no cgra", dfg_body(&dfg), 69),
        (
            "heterogeneous 4x4 cgra",
            serde_json::to_string(&with_cgra).unwrap(),
            209,
        ),
    ];
    for (what, body, want) in cases {
        let (request, (allocs, _, _)) =
            metered(|| serde_json::from_str::<MapRequest>(&body).unwrap());
        assert_eq!(request.dfg.num_nodes(), dfg.num_nodes());
        assert_eq!(allocs, want, "{what}: allocations");
    }
}
