//! Regenerates the paper's Table III: II and compilation time for the
//! 17-kernel suite on 2×2, 5×5, 10×10 and 20×20 CGRAs, decoupled
//! monomorphism mapper vs the SAT-MapIt-style coupled baseline.
//!
//! Usage:
//!   table3 [--quick] [--timeout SECS] [--sizes 2,5,10,20] [--out DIR]
//!
//! `--quick` restricts to 2×2 and 5×5 with a short timeout (CI-sized).
//! Absolute times are machine-dependent; the paper's *shape* — flat
//! decoupled times, steeply growing coupled times, matching IIs — is
//! what this reproduces.

use std::time::Duration;

use monomap_bench as bench_lib;
use monomap_bench::{run_cell, CellResult, MapperKind};
use monomap_frontend::suite;

/// Prints the usage line and exits 2: the answer to an unknown flag, a
/// flag without its value, and a value that does not parse.
fn usage(problem: &str) -> ! {
    eprintln!("{problem}");
    eprintln!("usage: table3 [--quick] [--timeout SECS] [--sizes 2,5,10,20] [--out DIR]");
    std::process::exit(2)
}

fn main() {
    let mut args = std::env::args().skip(1);
    let mut sizes: Vec<usize> = vec![2, 5, 10, 20];
    let mut timeout = 8.0f64;
    let mut out_dir = String::from("results");
    while let Some(flag) = args.next() {
        let mut value = || {
            args.next()
                .unwrap_or_else(|| usage(&format!("{flag} needs a value")))
        };
        match flag.as_str() {
            "--quick" => {
                sizes = vec![2, 5];
                timeout = 4.0;
            }
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
            "--out" => out_dir = value(),
            other => usage(&format!("unknown argument {other}")),
        }
    }

    let dfgs = suite::generate_all();
    let mut cells: Vec<CellResult> = Vec::new();
    for &size in &sizes {
        for dfg in &dfgs {
            for kind in [MapperKind::Monomorphism, MapperKind::SatMapIt] {
                eprintln!("running {:>14} {}x{} {:?}...", dfg.name(), size, size, kind);
                let cell = run_cell(dfg, size, kind, Duration::from_secs_f64(timeout));
                eprintln!("    -> {:?} in {:.2}s", cell.outcome, cell.total_seconds);
                cells.push(cell);
            }
        }
    }

    for &size in &sizes {
        println!(
            "{}",
            bench_lib::report::render_size_table(size, &cells, timeout)
        );
    }

    // Paper-style headline: average speedup per size (CTR mean over
    // rows where both tools finished).
    println!("=== headline: average compile-time ratio (SAT-MapIt / monomorphism) ===");
    for &size in &sizes {
        let rows: Vec<(f64, f64)> = dfgs
            .iter()
            .filter_map(|dfg| {
                let m = cells.iter().find(|c| {
                    c.size == size
                        && c.benchmark == dfg.name()
                        && c.mapper == MapperKind::Monomorphism
                })?;
                let s = cells.iter().find(|c| {
                    c.size == size && c.benchmark == dfg.name() && c.mapper == MapperKind::SatMapIt
                })?;
                if m.timed_out() || s.timed_out() {
                    None
                } else {
                    Some((m.total_seconds, s.total_seconds))
                }
            })
            .collect();
        if rows.is_empty() {
            println!("{size:>3}x{size:<3}: no rows where both mappers finished");
            continue;
        }
        let avg_ctr: f64 =
            rows.iter().map(|(m, s)| s / m.max(1e-9)).sum::<f64>() / rows.len() as f64;
        println!(
            "{size:>3}x{size:<3}: {avg_ctr:>10.2}x over {} benchmarks",
            rows.len()
        );
    }

    // II agreement summary (the paper's quality claim).
    let mut same = 0;
    let mut differ = 0;
    let mut mono_only = 0;
    let mut sat_only = 0;
    for &size in &sizes {
        for dfg in &dfgs {
            let m = cells
                .iter()
                .find(|c| {
                    c.size == size
                        && c.benchmark == dfg.name()
                        && c.mapper == MapperKind::Monomorphism
                })
                .and_then(|c| c.ii());
            let s = cells
                .iter()
                .find(|c| {
                    c.size == size && c.benchmark == dfg.name() && c.mapper == MapperKind::SatMapIt
                })
                .and_then(|c| c.ii());
            match (m, s) {
                (Some(a), Some(b)) if a == b => same += 1,
                (Some(_), Some(_)) => differ += 1,
                (Some(_), None) => mono_only += 1,
                (None, Some(_)) => sat_only += 1,
                (None, None) => {}
            }
        }
    }
    println!("\n=== II quality (cells where both / one mapper finished) ===");
    println!("same II: {same}   different II: {differ}   only monomorphism finished: {mono_only}   only sat-mapit finished: {sat_only}");

    if let Err(e) = std::fs::create_dir_all(&out_dir) {
        eprintln!("cannot create {out_dir}: {e}");
        return;
    }
    let json = serde_json::to_string_pretty(&cells).expect("serialisable results");
    let path = format!("{out_dir}/table3.json");
    if std::fs::write(&path, json).is_ok() {
        eprintln!("wrote {path}");
    }
}
