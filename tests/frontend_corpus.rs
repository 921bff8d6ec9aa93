//! Corpus tests for the `.mk` frontend.
//!
//! `kernels/*.mk` is the one definition of the 17 suite kernels: each
//! file must compile to the canonical digest pinned in `EXPECTED`
//! below, read from disk and through `monomap_frontend::suite` alike,
//! so drift in a kernel file, the frontend or the canonicalizer fails
//! loudly; `COMPILED_GRAPHS` pins the compiled graphs themselves.
//!
//! `corpus/invalid/*.mk` files carry a `// expect: L:C message` first
//! line; compilation must fail with exactly that position and message.

use std::fs;
use std::path::PathBuf;

use cgra_arch::Cgra;
use cgra_base::hash::fnv128;
use monomap_core::DecoupledMapper;
use monomap_frontend::{class_counts, compile_one, emit, suite};

/// Canonical digests of the 17 suite kernels, and the II each compiled
/// kernel reaches on the homogeneous 4×4 with the default decoupled
/// mapper.
const EXPECTED: [(&str, &str, usize); 17] = [
    ("aes", "b699bfeffed615b3b2e03eee22be90d5", 14),
    ("backprop", "6dac77f00e3e90730549b7108d1077c4", 5),
    ("basicmath", "d9646cf29caf969ef3ce45af998034dd", 7),
    ("bitcount", "382f2bd5b9c8b149ee6776de23b54912", 3),
    ("cfd", "79ded41987bb395f833fe4a7714c370a", 4),
    ("crc32", "dde15849d48f1a48aaf5e9ae2c5f123b", 8),
    ("fft", "53790559ccba7bc78d0ddb3954c6af03", 7),
    ("gsm", "440eac73c7ec60f25f07bf5a613bc40d", 4),
    ("heartwall", "403dfd47207fd9edb19f2efe416c27a6", 3),
    ("hotspot3D", "9b1fe8d5153f8f3a0720359350745af8", 4),
    ("lud", "4835d04387bb8ba423b077e011c7a19d", 3),
    ("nw", "90a99f0e80ca79268b86da928bf76bef", 3),
    ("particlefilter", "2af8e7647f4d3169fbf193857fbd54c9", 9),
    ("sha1", "246ad119c52e430df80e974d0da9059d", 2),
    ("sha2", "007053fea9f6d53ca82695c78685b8ff", 7),
    ("stringsearch", "20f8f21cf6ac1144ae7cada77d51b7d4", 3),
    ("susan", "5af99dc9c09007f2e935efce101b900e", 3),
];

/// FNV-128 of each compiled kernel's JSON (`serde_json::to_string` of
/// what `compile_one` returns, the `/compile` body's `dfg`): the graph
/// itself — node order, operations, names, edge order. The digests
/// above are blind to numbering and names, but the mapper searches in
/// the compiled order, so a frontend change must keep this too.
const COMPILED_GRAPHS: [(&str, &str); 17] = [
    ("aes", "671cbae1003a04bf9fd37be612ddfd15"),
    ("backprop", "1730e576f7374605a15f2ba76b41db0e"),
    ("basicmath", "492e0f5be32d610fac8acdd0cf396fb8"),
    ("bitcount", "3dd90ab7e4efb8e109b5680bb4500051"),
    ("cfd", "c9090529a362f6ca3c585108882032eb"),
    ("crc32", "ea630a5f56605c06a8a9c343fe197c30"),
    ("fft", "dc95e186715eb6d9cf00660d02aa2857"),
    ("gsm", "74bd77ac67b9668f251d8221b81cf3be"),
    ("heartwall", "b50cca636e34ec1a286514b80b28413c"),
    ("hotspot3D", "37f48122f2653aab2633e5b55be05bd8"),
    ("lud", "0aab647dde628dd8861946b66dddea09"),
    ("nw", "bd7a9106b07433ee99631664288ab44d"),
    ("particlefilter", "24e5c889c15d91877591fd5c387d9de6"),
    ("sha1", "7bae5b52cd789f9f06015b2a855754e7"),
    ("sha2", "019d286f2c09d9d3204611068b487d9e"),
    ("stringsearch", "21e5adddce6f12cb609d855cb5dd62f9"),
    ("susan", "04f2c975205c90452aa6848eb9a5b1e5"),
];

fn repo_path(rel: &str) -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join(rel)
}

#[test]
fn every_suite_kernel_compiles_to_its_generated_digest() {
    for (name, expected_hex, _) in EXPECTED {
        let path = repo_path(&format!("kernels/{name}.mk"));
        let source =
            fs::read_to_string(&path).unwrap_or_else(|e| panic!("{}: {e}", path.display()));
        let compiled =
            compile_one(&source).unwrap_or_else(|e| panic!("{name}.mk does not compile: {e}"));
        assert_eq!(compiled.name(), name);
        for dfg in [compiled, suite::generate(name)] {
            assert_eq!(
                dfg.digest().to_hex(),
                expected_hex,
                "{name}: canonical digest drifted from the pinned value"
            );
        }
    }
}

#[test]
fn every_suite_kernel_compiles_to_its_pinned_graph() {
    for (name, expected_hex) in COMPILED_GRAPHS {
        let source = fs::read_to_string(repo_path(&format!("kernels/{name}.mk"))).unwrap();
        let compiled = compile_one(&source).expect("compiles");
        let json = serde_json::to_string(&compiled).expect("DFGs serialize");
        assert_eq!(
            format!("{:032x}", fnv128(json.as_bytes())),
            expected_hex,
            "{name}: the compiled graph drifted (node order, names or edge order)"
        );
    }
}

#[test]
fn compiled_corpus_maps_on_4x4_at_the_pinned_iis() {
    // What the text front door hands the mapper must map, in the
    // numbering the compiler emits, at the suite's known IIs.
    let cgra = Cgra::new(4, 4).unwrap();
    for (name, _, ii) in EXPECTED {
        let source = fs::read_to_string(repo_path(&format!("kernels/{name}.mk"))).unwrap();
        let compiled = compile_one(&source).expect("compiles");
        let result = DecoupledMapper::new(&cgra)
            .map(&compiled)
            .unwrap_or_else(|e| panic!("{name}.mk does not map on 4x4: {e}"));
        assert_eq!(result.mapping.ii(), ii, "{name}: II drift");
        result.mapping.validate(&compiled, &cgra).unwrap();
    }
}

#[test]
fn corpus_covers_the_whole_suite() {
    // The benchmark maps every `.mk` in `kernels/`, so a stray or
    // missing file would change what it measures.
    let mut on_disk: Vec<String> = fs::read_dir(repo_path("kernels"))
        .expect("kernels/ exists")
        .map(|e| {
            let path = e.unwrap().path();
            assert_eq!(path.extension().unwrap(), "mk", "{}", path.display());
            path.file_stem().unwrap().to_string_lossy().into_owned()
        })
        .collect();
    on_disk.sort();
    let mut expected = suite::names();
    expected.sort();
    assert_eq!(on_disk, expected, "kernels/ and the suite disagree");
    assert_eq!(on_disk.len(), 17);
}

#[test]
fn class_demand_matches_the_generated_graphs() {
    // Op-class inference must survive the text round trip: a kernel
    // emitted back to source and recompiled has the same ALU/MUL/MEM
    // demand and digest.
    for dfg in suite::generate_all() {
        let text = emit(&dfg).expect("suite kernels emit");
        let recompiled = compile_one(&text).expect("emitted source compiles");
        assert_eq!(
            class_counts(&recompiled),
            class_counts(&dfg),
            "{}: class demand drift",
            dfg.name()
        );
        assert_eq!(recompiled.digest(), dfg.digest(), "{}", dfg.name());
    }
}

#[test]
fn invalid_corpus_diagnostics_are_exact() {
    let dir = repo_path("corpus/invalid");
    let mut checked = 0;
    let mut entries: Vec<PathBuf> = fs::read_dir(&dir)
        .expect("corpus/invalid exists")
        .map(|e| e.unwrap().path())
        .collect();
    entries.sort();
    for path in entries {
        let source = fs::read_to_string(&path).unwrap();
        let header = source
            .lines()
            .next()
            .unwrap_or_else(|| panic!("{}: empty file", path.display()));
        let spec = header.strip_prefix("// expect: ").unwrap_or_else(|| {
            panic!(
                "{}: first line must be `// expect: L:C message`",
                path.display()
            )
        });
        let (pos, message) = spec.split_once(' ').expect("expect header has a message");
        let (line, col) = pos.split_once(':').expect("position is L:C");
        let line: u32 = line.parse().expect("line is a number");
        let col: u32 = col.parse().expect("col is a number");
        let err = compile_one(&source)
            .err()
            .unwrap_or_else(|| panic!("{}: unexpectedly compiled", path.display()));
        assert_eq!(
            (err.line, err.col, err.message.as_str()),
            (line, col, message),
            "{}: wrong diagnostic",
            path.display()
        );
        checked += 1;
    }
    assert!(checked >= 13, "invalid corpus shrank to {checked} files");
}
