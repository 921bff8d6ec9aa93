//! Captures the k=1 golden mapping battery for the routing-parity
//! tests: every suite kernel through all three engines on the
//! homogeneous and the heterogeneous 4×4, serialized one case per
//! line as stable tab-separated records.
//!
//! Usage:
//!   routing_goldens [--out FILE]
//!
//! Line format (no tabs or newlines occur inside any field):
//!
//! ```text
//! engine \t grid \t kernel \t OK  \t <mapping JSON>
//! engine \t grid \t kernel \t ERR \t <MapError debug>
//! ```
//!
//! The captured file is committed as `tests/golden/routing_parity.tsv`
//! and asserted byte-identical by `tests/routing_parity.rs`: the
//! routing-aware space phase at its default `max_route_hops = 1` must
//! reproduce the committed serial mappings bit for bit, for the
//! decoupled, coupled and annealing engines alike.

use cgra_arch::{CapabilityProfile, Cgra};
use monomap_bench::routing_golden_lines;
use monomap_frontend::suite;

/// Prints the usage line and exits 2: the answer to an unknown flag and
/// a flag without its value.
fn usage(problem: &str) -> ! {
    eprintln!("{problem}");
    eprintln!("usage: routing_goldens [--out FILE]");
    std::process::exit(2)
}

fn main() {
    let mut args = std::env::args().skip(1);
    let mut out: Option<String> = None;
    while let Some(flag) = args.next() {
        match flag.as_str() {
            "--out" => {
                out = Some(args.next().unwrap_or_else(|| usage("--out needs a value")));
            }
            other => usage(&format!("unknown argument {other}")),
        }
    }

    let hom = Cgra::new(4, 4).expect("4x4");
    let het = Cgra::new(4, 4)
        .expect("4x4")
        .with_capability_profile(CapabilityProfile::MemLeftMulCheckerboard);

    let mut lines = Vec::new();
    for name in suite::names() {
        eprintln!("{name}...");
        lines.extend(routing_golden_lines(&hom, "hom4", name));
        lines.extend(routing_golden_lines(&het, "het4", name));
    }
    let body = lines.join("\n") + "\n";
    match out {
        Some(path) => {
            std::fs::write(&path, body).expect("write --out file");
            eprintln!("wrote {path}");
        }
        None => print!("{body}"),
    }
}
