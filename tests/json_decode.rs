//! What `serde_json::from_str` answers for every text in the JSON
//! corpus, pinned in `tests/golden/json_decode.tsv`: the seeds, the
//! hostile inputs and the first 600 byte mutants, each decoded as a
//! `Value` and as its own type. A row holds the verdict and, for a
//! value, the FNV-64 of its re-serialization, for an error, the FNV-64
//! of its words and their first 120 bytes. A release build also
//! checks one rolling FNV-64 over the rows of all 40 000 mutants, and
//! the table pins `to_string` of every wire type.
//!
//! The golden was captured before the decoders lost their fallback
//! through a `Value` tree, so it holds the wording and the precedence
//! of errors (a text error anywhere beats a type error; the first
//! declared field names a type error) to what that path answered.
//! `cargo test --release --test json_decode -- --nocapture` prints the
//! table as the test computes it.

use std::fmt::Write as _;
use std::fs;
use std::path::PathBuf;
use std::time::Duration;

use monomap::base::{fnv64, Budget, FNV64_OFFSET};
use monomap::prelude::*;
use serde::{Deserialize, Serialize, Value};

mod common;
use common::json_corpus::{corpus, disk_log_record, hostile_inputs, kernel_source, reports, Kind};
use common::{mutate, XorShift};

/// Mutants with a row of their own, in debug and release builds alike.
const PINNED_MUTANTS: u64 = 600;
/// Mutants behind the release build's rolling row.
const ALL_MUTANTS: u64 = 40_000;

/// Longest prefix of an error's words a row quotes.
const QUOTED: usize = 120;

/// One decode as a row: `from_str::<T>`'s verdict, then the FNV-64 of
/// the value's `to_string`, or of the error's words and their first
/// [`QUOTED`] bytes.
fn decoded<T: Deserialize + Serialize>(text: &str) -> String {
    match serde_json::from_str::<T>(text) {
        Ok(value) => {
            let json = serde_json::to_string(&value).unwrap();
            format!("ok\t{:016x}", fnv64(FNV64_OFFSET, json.as_bytes()))
        }
        Err(e) => {
            let words = e.to_string();
            let mut cut = QUOTED.min(words.len());
            while !words.is_char_boundary(cut) {
                cut -= 1;
            }
            let hash = fnv64(FNV64_OFFSET, words.as_bytes());
            format!("err\t{hash:016x}\t{:?}", &words[..cut])
        }
    }
}

/// The rows of one text: decoded as a `Value`, then as its kind's type.
fn rows_of(source: &str, index: u64, kind: Kind, text: &str) -> [String; 2] {
    let (name, typed) = match kind {
        Kind::Request => ("MapRequest", decoded::<MapRequest>(text)),
        Kind::Batch => ("Vec<MapRequest>", decoded::<Vec<MapRequest>>(text)),
        Kind::Report => ("MapReport", decoded::<MapReport>(text)),
    };
    [
        format!("{source}\t{index}\tValue\t{}", decoded::<Value>(text)),
        format!("{source}\t{index}\t{name}\t{typed}"),
    ]
}

/// The `to_string` of every wire type, as `write`, name, length and
/// FNV-64.
fn written_rows() -> Vec<String> {
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
    let mut rows = Vec::new();
    let mut row = |name: &str, json: String| {
        let hash = fnv64(FNV64_OFFSET, json.as_bytes());
        rows.push(format!("write\t{name}\t{}\t{hash:016x}", json.len()));
    };
    fn json<T: Serialize>(value: &T) -> String {
        serde_json::to_string(value).unwrap()
    }
    row("MapRequest with a dfg", json(&dfg_request));
    row("MapRequest with a source", json(&source_request));
    row(
        "a batch",
        json(&vec![dfg_request.clone(), source_request.clone()]),
    );
    row("heterogeneous Cgra", json(&hetero));
    row("homogeneous Cgra", json(&Cgra::new(2, 3).unwrap()));
    row("MapperConfig with budgets", json(&budgeted));
    row("default MapperConfig", json(&MapperConfig::default()));
    row("Dfg", json(&bitcount));
    for report in reports() {
        let outcome = format!("{:?}", report.outcome);
        row(&format!("MapReport {outcome}"), json(&report));
        row(&format!("MapStats {outcome}"), json(&report.stats));
        row(&format!("Mapping {outcome}"), json(&report.mapping));
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
    row("floats", json(&floats));
    let strings = vec!["", "\"\\\n\r\t\u{1}\u{1f}", "π ≈ 3.14 — ok", "a/b"];
    row("strings", json(&strings));
    row("extreme integers", json(&(i64::MIN, u64::MAX)));
    let tree = serde_json::from_str::<Value>(&disk_log_record()).unwrap();
    row("a tree", json(&tree));
    rows
}

fn golden() -> Vec<String> {
    let path = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("tests/golden/json_decode.tsv");
    fs::read_to_string(path)
        .unwrap()
        .lines()
        .filter(|l| !l.starts_with('#'))
        .map(str::to_string)
        .collect()
}

#[test]
fn every_decode_and_write_answers_as_captured() {
    let corpus = corpus();
    let mut rows = written_rows();
    for (i, (kind, text)) in corpus.iter().enumerate() {
        rows.extend(rows_of("seed", i as u64, *kind, text));
    }
    for (i, text) in hostile_inputs().iter().enumerate() {
        rows.extend(rows_of("hostile", i as u64, Kind::Request, text));
    }

    // The mutants of the old two-path battery: same seed, each mutant
    // decoded as its seed's kind.
    let seeds: Vec<Vec<u8>> = corpus.iter().map(|(_, t)| t.clone().into_bytes()).collect();
    let mut rng = XorShift(0x4a50_4e5f_5041_5448);
    let mutants = if cfg!(debug_assertions) {
        PINNED_MUTANTS
    } else {
        ALL_MUTANTS
    };
    let (mut rolling, mut ok, mut err) = (FNV64_OFFSET, 0u64, 0u64);
    for i in 0..mutants {
        let at = rng.below(seeds.len() as u64);
        let mut bytes = mutate(&mut rng, &seeds[at..=at]);
        if rng.below(2) == 0 {
            bytes = mutate(&mut rng, &[bytes]);
        }
        let text = String::from_utf8_lossy(&bytes);
        for row in rows_of("mutant", i, corpus[at].0, &text) {
            rolling = fnv64(fnv64(rolling, row.as_bytes()), b"\n");
            if row.contains("\tok\t") {
                ok += 1;
            } else {
                err += 1;
            }
            if i < PINNED_MUTANTS {
                rows.push(row);
            }
        }
    }
    if !cfg!(debug_assertions) {
        rows.push(format!(
            "mutants\t{ALL_MUTANTS}\t{rolling:016x}\tok={ok}\terr={err}"
        ));
    }

    let mut table = String::new();
    for row in &rows {
        let _ = writeln!(table, "{row}");
    }
    print!("{table}");

    let mut want = golden();
    if cfg!(debug_assertions) {
        want.retain(|row| !row.starts_with("mutants\t"));
    }
    for (i, (got, want)) in rows.iter().zip(&want).enumerate() {
        assert_eq!(got, want, "row {i} of tests/golden/json_decode.tsv");
    }
    assert_eq!(
        rows.len(),
        want.len(),
        "rows computed vs rows in the golden"
    );
    assert!(ok > 0 && err > 0, "{ok} mutant decodes succeed, {err} fail");
}
