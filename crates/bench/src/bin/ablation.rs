//! Ablation studies for the design decisions described in
//! docs/ARCHITECTURE.md ("The time phase"):
//!
//! 1. **Constraint families** — are the paper's capacity/connectivity
//!    additions (§IV-B2/3) actually what makes the first time solution
//!    spatially mappable (§IV-D)?
//! 2. **Strict vs paper connectivity bound** — does tightening the
//!    same-slot bound change II or compile time?
//! 3. **Mesh vs torus topology** — cost of non-uniform degree.
//! 4. **Simulated annealing** — the classic heuristic as a quality and
//!    runtime reference.
//! 5. **SMT vs IMS-heuristic time phase** — the same space phase fed by
//!    either schedule source.
//!
//! Usage: ablation [--timeout SECS]
//!
//! `--timeout` (default 8 s) bounds every mapper cell of ablations 2–5;
//! ablation 1 runs solver calls directly and is bounded by its step
//! limit instead.

use std::time::{Duration, Instant};

use cgra_arch::{Cgra, Topology};
use cgra_dfg::Dfg;
use cgra_sched::{min_ii, SolveOutcome, TimeSolver, TimeSolverConfig};
use monomap_bench::{run_cell, MapperKind};
use monomap_core::api::{EngineId, MapRequest, MappingService};
use monomap_core::{space_search, MapperConfig, SpaceOutcome};
use monomap_frontend::suite;

/// Runs one decoupled request through a service under a `timeout`
/// deadline and reports `(II, wall-clock seconds)`, with no II when the
/// deadline fires — the shared cell of the mapper-level ablations (all
/// of them vary only the request's configuration).
fn service_cell(
    service: &MappingService,
    dfg: &Dfg,
    config: MapperConfig,
    timeout: f64,
) -> (Option<usize>, f64) {
    let t0 = Instant::now();
    let request = MapRequest::new(EngineId::Decoupled, dfg.clone())
        .with_config(config)
        .with_deadline(Duration::from_secs_f64(timeout));
    let report = service.map(&request);
    (report.outcome.ii(), t0.elapsed().as_secs_f64())
}

/// Prints the usage line and exits 2: the answer to an unknown flag, a
/// flag without its value, and a value that does not parse.
fn usage(problem: &str) -> ! {
    eprintln!("{problem}");
    eprintln!(
        "usage: ablation [--timeout SECS]  (bounds every mapper cell; ablation 1 is step-bounded)"
    );
    std::process::exit(2)
}

fn main() {
    let mut args = std::env::args().skip(1);
    let mut timeout = 8.0f64;
    while let Some(flag) = args.next() {
        match flag.as_str() {
            "--timeout" => {
                timeout = args
                    .next()
                    .unwrap_or_else(|| usage("--timeout needs a value"))
                    .parse()
                    .ok()
                    .filter(|&t| Duration::try_from_secs_f64(t).is_ok())
                    .unwrap_or_else(|| usage("--timeout takes a number of seconds"));
            }
            other => usage(&format!("unknown argument {other}")),
        }
    }

    constraint_families();
    strictness(timeout);
    topology(timeout);
    annealing(timeout);
    time_strategy(timeout);
}

/// SMT vs IMS-heuristic time phase (both feeding the same monomorphism
/// space phase) — an extension beyond the paper in the spirit of its
/// CRIMSON/PathSeeker related work.
fn time_strategy(timeout: f64) {
    use monomap_core::TimeStrategy;
    println!("=== ablation 5: SMT vs IMS-heuristic time phase (5x5) ===");
    println!(
        "{:<16} | {:>8} {:>9} | {:>8} {:>9}",
        "benchmark", "II smt", "t smt", "II ims", "t ims"
    );
    let cgra = Cgra::new(5, 5).unwrap();
    let service = MappingService::new(&cgra);
    for dfg in suite::generate_all() {
        let run = |strategy: TimeStrategy| {
            service_cell(
                &service,
                &dfg,
                MapperConfig::new().with_time_strategy(strategy),
                timeout,
            )
        };
        let (ii_s, t_s) = run(TimeStrategy::Smt);
        let (ii_h, t_h) = run(TimeStrategy::Heuristic);
        println!(
            "{:<16} | {:>8} {:>9.3} | {:>8} {:>9.3}",
            dfg.name(),
            ii_s.map_or("-".into(), |i| i.to_string()),
            t_s,
            ii_h.map_or("-".into(), |i| i.to_string()),
            t_h
        );
    }
    println!();
}

/// For each kernel on a 2×2 CGRA: find the first time solution with
/// the paper's capacity+connectivity constraints and without them, and
/// check whether it admits a monomorphism. Reproduces the motivation
/// for §IV-D: without the added constraint families, time solutions
/// routinely fail in space.
fn constraint_families() {
    println!("=== ablation 1: capacity/connectivity constraint families (2x2) ===");
    println!(
        "{:<16} | {:>22} | {:>22}",
        "benchmark", "families ON: space ok?", "families OFF: space ok?"
    );
    let cgra = Cgra::new(2, 2).unwrap();
    let mut on_ok = 0;
    let mut off_ok = 0;
    let mut rows = 0;
    for dfg in suite::generate_all() {
        let verdict = |enable: bool| -> &'static str {
            let mii = min_ii(&dfg, &cgra);
            for ii in mii..=mii + 8 {
                for slack in 0..=2 {
                    let cfg = TimeSolverConfig::for_cgra(&cgra)
                        .with_window_slack(slack)
                        .with_capacity_constraints(enable)
                        .with_connectivity_constraints(enable);
                    let mut solver = match TimeSolver::new(&dfg, ii, cfg) {
                        Ok(s) => s,
                        Err(_) => return "error",
                    };
                    match solver.next() {
                        SolveOutcome::Solution(sol) => {
                            let (space, _) = space_search(&dfg, &cgra, &sol, 2_000_000, None);
                            return match space {
                                SpaceOutcome::Found(_) => "yes",
                                SpaceOutcome::Exhausted => "no",
                                SpaceOutcome::LimitReached => "limit",
                                SpaceOutcome::Cancelled => "timeout",
                            };
                        }
                        SolveOutcome::Unsat => continue,
                        SolveOutcome::Timeout => return "timeout",
                    }
                }
            }
            "no time sol"
        };
        let on = verdict(true);
        let off = verdict(false);
        if on == "yes" {
            on_ok += 1;
        }
        if off == "yes" {
            off_ok += 1;
        }
        rows += 1;
        println!("{:<16} | {:>22} | {:>22}", dfg.name(), on, off);
    }
    println!(
        "first time solution spatially mappable: {on_ok}/{rows} with families, {off_ok}/{rows} without\n"
    );
}

/// Strict (`D_M − 1` same-slot) vs paper (`D_M`) connectivity bound on
/// a 5×5 CGRA.
fn strictness(timeout: f64) {
    println!("=== ablation 2: strict vs paper connectivity bound (5x5) ===");
    println!(
        "{:<16} | {:>8} {:>9} | {:>8} {:>9}",
        "benchmark", "II paper", "t paper", "II strict", "t strict"
    );
    let cgra = Cgra::new(5, 5).unwrap();
    let service = MappingService::new(&cgra);
    for dfg in suite::generate_all() {
        let run = |strict: bool| {
            service_cell(
                &service,
                &dfg,
                MapperConfig::new().with_strict_connectivity(strict),
                timeout,
            )
        };
        let (ii_p, t_p) = run(false);
        let (ii_s, t_s) = run(true);
        println!(
            "{:<16} | {:>8} {:>9.3} | {:>8} {:>9.3}",
            dfg.name(),
            ii_p.map_or("-".into(), |i| i.to_string()),
            t_p,
            ii_s.map_or("-".into(), |i| i.to_string()),
            t_s
        );
    }
    println!();
}

/// Mesh vs torus (5×5): the mesh's non-uniform degree forces the
/// conservative `D_M = min degree + 1` bound, which can cost II.
fn topology(timeout: f64) {
    println!("=== ablation 3: mesh vs torus topology (5x5) ===");
    println!(
        "{:<16} | {:>9} {:>9} | {:>9} {:>9}",
        "benchmark", "II torus", "t torus", "II mesh", "t mesh"
    );
    // One service per topology: requests share each service's CGRA.
    let torus = MappingService::new(&Cgra::with_topology(5, 5, Topology::Torus).unwrap());
    let mesh = MappingService::new(&Cgra::with_topology(5, 5, Topology::Mesh).unwrap());
    for dfg in suite::generate_all() {
        let run =
            |service: &MappingService| service_cell(service, &dfg, MapperConfig::new(), timeout);
        let (ii_t, t_t) = run(&torus);
        let (ii_m, t_m) = run(&mesh);
        println!(
            "{:<16} | {:>9} {:>9.3} | {:>9} {:>9.3}",
            dfg.name(),
            ii_t.map_or("-".into(), |i| i.to_string()),
            t_t,
            ii_m.map_or("-".into(), |i| i.to_string()),
            t_m
        );
    }
    println!();
}

/// Simulated annealing (DRESC-style) vs the decoupled mapper on a 4×4
/// CGRA, small kernels.
fn annealing(timeout: f64) {
    println!("=== ablation 4: simulated annealing vs decoupled mapper (4x4) ===");
    println!(
        "{:<16} | {:>8} {:>9} | {:>8} {:>9}",
        "benchmark", "II mono", "t mono", "II SA", "t SA"
    );
    for name in ["bitcount", "susan", "sha1", "fft", "basicmath", "gsm"] {
        let dfg = suite::generate(name);
        let mono = run_cell(
            &dfg,
            4,
            MapperKind::Monomorphism,
            Duration::from_secs_f64(timeout),
        );
        let sa = run_cell(
            &dfg,
            4,
            MapperKind::Annealing,
            Duration::from_secs_f64(timeout),
        );
        let show = |c: &monomap_bench::CellResult| {
            (
                c.ii().map_or("-".to_string(), |i| i.to_string()),
                c.total_seconds,
            )
        };
        let (ii_m, t_m) = show(&mono);
        let (ii_a, t_a) = show(&sa);
        println!(
            "{:<16} | {:>8} {:>9.3} | {:>8} {:>9.3}",
            name, ii_m, t_m, ii_a, t_a
        );
    }
    println!();
}
