//! Byte-level mutation fuzz over the `.mk` frontend: truncations,
//! splices, bit flips, slice deletions/duplications and raw byte soup
//! derived from the committed corpus must always come back as a
//! `Result` — the compiler never panics, never aborts, never loops.
//!
//! Iteration counts are capped in debug builds so `cargo test -q`
//! stays fast; CI additionally runs the full battery under
//! `--release` (`cargo test --release -q --test frontend_fuzz`).

use std::fs;
use std::path::PathBuf;

use monomap_frontend::compile_one;

mod common;
use common::{mutate, XorShift};

#[cfg(debug_assertions)]
const ITERATIONS: u64 = 1_500;
#[cfg(not(debug_assertions))]
const ITERATIONS: u64 = 40_000;

/// Every committed `.mk` file — valid kernels and invalid corpus both
/// make good mutation seeds.
fn corpus() -> Vec<Vec<u8>> {
    let root = PathBuf::from(env!("CARGO_MANIFEST_DIR"));
    let mut files = Vec::new();
    for dir in ["kernels", "corpus/invalid"] {
        for entry in fs::read_dir(root.join(dir)).expect("corpus dir exists") {
            let path = entry.unwrap().path();
            if path.extension().is_some_and(|e| e == "mk") {
                files.push(fs::read(&path).unwrap());
            }
        }
    }
    assert!(files.len() >= 30, "corpus shrank to {}", files.len());
    files
}

#[test]
fn mutated_corpus_never_panics_the_compiler() {
    let corpus = corpus();
    let mut rng = XorShift(0x5eed_5eed_5eed_5eed);
    let mut accepted = 0u64;
    let mut rejected = 0u64;
    for _ in 0..ITERATIONS {
        let mut bytes = mutate(&mut rng, &corpus);
        // Stack a second mutation on half the mutants.
        if rng.below(2) == 0 {
            let one = vec![bytes];
            bytes = mutate(&mut rng, &one);
        }
        let source = String::from_utf8_lossy(&bytes);
        match compile_one(&source) {
            Ok(_) => accepted += 1,
            Err(e) => {
                // Diagnostics stay anchored to real positions.
                assert!(e.line >= 1 && e.col >= 1, "unanchored diagnostic: {e}");
                rejected += 1;
            }
        }
    }
    // The mutation engine must actually be producing both outcomes —
    // all-accept means it stopped mutating, all-reject at this volume
    // would mean the seeds themselves went stale.
    assert!(rejected > 0, "no mutant was rejected in {ITERATIONS} runs");
    assert!(
        accepted + rejected == ITERATIONS,
        "accounting drift: {accepted} + {rejected} != {ITERATIONS}"
    );
}

#[test]
fn random_byte_soup_never_panics_the_compiler() {
    let mut rng = XorShift(0xdead_beef_cafe_f00d);
    for _ in 0..ITERATIONS / 4 {
        let len = rng.below(512);
        let bytes: Vec<u8> = (0..len)
            .map(|_| {
                // Bias toward the DSL's alphabet so the lexer gets past
                // the first byte often enough to matter.
                match rng.below(4) {
                    0 => b"kernl i32recoutabsminaxselect"[rng.below(29)],
                    1 => b"{}()[];,@=+-*/&|^<>~_0123456789 \n"[rng.below(33)],
                    _ => rng.next() as u8,
                }
            })
            .collect();
        let source = String::from_utf8_lossy(&bytes);
        let _ = compile_one(&source);
    }
}

#[test]
fn every_prefix_and_suffix_of_a_valid_kernel_is_handled() {
    // Exhaustive truncation (not sampled): every prefix and every
    // suffix of a real kernel must come back as a clean Result.
    let source =
        fs::read_to_string(PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("kernels/bitcount.mk"))
            .unwrap();
    for end in 0..=source.len() {
        if source.is_char_boundary(end) {
            let _ = compile_one(&source[..end]);
        }
    }
    for start in 0..=source.len() {
        if source.is_char_boundary(start) {
            let _ = compile_one(&source[start..]);
        }
    }
}
