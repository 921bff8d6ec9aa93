//! Regenerates the paper's Fig. 5: compilation time (seconds, log
//! scale in the paper) vs CGRA size for the `aes` benchmark, decoupled
//! mapper vs SAT-MapIt baseline.
//!
//! Usage: fig5 [--timeout SECS] [--sizes 2,5,10,20] [--bench NAME]

use std::time::Duration;

use monomap_bench::{report, run_cell, CellResult, MapperKind};
use monomap_frontend::suite;

/// Prints the usage line and exits 2: the answer to an unknown flag, a
/// flag without its value, and a value that does not parse.
fn usage(problem: &str) -> ! {
    eprintln!("{problem}");
    eprintln!("usage: fig5 [--timeout SECS] [--sizes 2,5,10,20] [--bench NAME]");
    std::process::exit(2)
}

fn main() {
    let mut args = std::env::args().skip(1);
    let mut sizes: Vec<usize> = vec![2, 5, 10, 20];
    let mut timeout = 8.0f64;
    let mut bench = String::from("aes");
    while let Some(flag) = args.next() {
        let mut value = || {
            args.next()
                .unwrap_or_else(|| usage(&format!("{flag} needs a value")))
        };
        match flag.as_str() {
            "--timeout" => {
                timeout = value()
                    .parse()
                    .ok()
                    .filter(|&t| Duration::try_from_secs_f64(t).is_ok())
                    .unwrap_or_else(|| usage("--timeout takes a number of seconds"));
            }
            "--sizes" => {
                sizes = value()
                    .split(',')
                    .map(|s| s.parse().ok().filter(|&n| n > 0))
                    .collect::<Option<_>>()
                    .unwrap_or_else(|| usage("--sizes takes grid sizes, as in 2,5,10"));
            }
            "--bench" => {
                bench = value();
                if !suite::names().contains(&bench.as_str()) {
                    usage(&format!(
                        "--bench takes a suite kernel: {}",
                        suite::names().join(", ")
                    ));
                }
            }
            other => usage(&format!("unknown argument {other}")),
        }
    }

    let dfg = suite::generate(&bench);
    let mut cells: Vec<CellResult> = Vec::new();
    for &size in &sizes {
        for kind in [MapperKind::Monomorphism, MapperKind::SatMapIt] {
            eprintln!("running {bench} {size}x{size} {kind:?}...");
            cells.push(run_cell(&dfg, size, kind, Duration::from_secs_f64(timeout)));
        }
    }

    println!("# Fig. 5 — compilation time vs CGRA size, benchmark {bench}");
    print!("{}", report::render_fig5_csv(&cells));

    // ASCII sketch of the two series (log10 seconds).
    println!("\n# sketch (each column one size; M = monomorphism, S = sat-mapit, ! = timeout)");
    for kind in [MapperKind::Monomorphism, MapperKind::SatMapIt] {
        let tag = match kind {
            MapperKind::Monomorphism => 'M',
            _ => 'S',
        };
        let series: Vec<String> = cells
            .iter()
            .filter(|c| c.mapper == kind)
            .map(|c| {
                if c.timed_out() {
                    format!("{}x{}:{tag}=!", c.size, c.size)
                } else {
                    format!("{}x{}:{tag}={:.2}s", c.size, c.size, c.total_seconds)
                }
            })
            .collect();
        println!("{}", series.join("  "));
    }

    let _ = std::fs::create_dir_all("results");
    let csv = report::render_fig5_csv(&cells);
    if std::fs::write("results/fig5.csv", csv).is_ok() {
        eprintln!("wrote results/fig5.csv");
    }
}
