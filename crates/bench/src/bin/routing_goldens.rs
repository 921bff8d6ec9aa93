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
use cgra_dfg::suite;
use monomap_bench::routing_golden_lines;

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut out: Option<String> = None;
    let mut i = 0;
    while i < args.len() {
        match args[i].as_str() {
            "--out" => {
                i += 1;
                out = Some(args[i].clone());
            }
            other => {
                eprintln!("unknown argument {other}");
                std::process::exit(2);
            }
        }
        i += 1;
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
