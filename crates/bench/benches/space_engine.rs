//! Criterion benchmarks for the space phase.
//!
//! * `portfolio` — end-to-end mapping of the 5×5 suite kernels with the
//!   serial path vs the racing portfolio; the achieved II is asserted
//!   identical.
//! * `capability_domains` — monomorphism search over several enumerated
//!   schedules on one [`SpaceEngine`], homogeneous vs the heterogeneous
//!   mem-left/mul-checkerboard grid: compatibility filtering must not
//!   regress the search (the filtered candidate domains are strictly
//!   smaller, so hard instances tend to get faster per attempt).
//!
//! Both groups run a heterogeneous variant of every kernel alongside
//! the homogeneous rows. (A `target_reuse` group used to time the
//! per-II target cache against per-attempt rebuilds; the engine's
//! target no longer depends on the II and costs microseconds to build,
//! so there is no rebuild left to compare against.)

use std::time::Duration;

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};

use cgra_arch::{CapabilityProfile, Cgra};
use cgra_dfg::suite;
use cgra_sched::{TimeSolution, TimeSolver, TimeSolverConfig};
use monomap_core::{DecoupledMapper, MapperConfig, SpaceEngine, SpaceOutcome};

const KERNELS: [&str; 3] = ["susan", "gsm", "bitcount"];
const ATTEMPTS: usize = 8;

/// The two grids every group covers: the paper's homogeneous 5×5 and
/// the standard heterogeneous profile on the same dimensions.
fn grids() -> [(&'static str, Cgra); 2] {
    let homo = Cgra::new(5, 5).unwrap();
    let het = Cgra::new(5, 5)
        .unwrap()
        .with_capability_profile(CapabilityProfile::MemLeftMulCheckerboard);
    [("5x5", homo), ("5x5-het", het)]
}

/// Enumerates up to `ATTEMPTS` schedules of `name` at its smallest
/// feasible II on the 5×5 CGRA (widening the window slack until the
/// level is feasible).
fn schedules(cgra: &Cgra, name: &str) -> (cgra_dfg::Dfg, Vec<TimeSolution>) {
    let dfg = suite::generate(name);
    let mii = cgra_sched::min_ii(&dfg, cgra);
    for ii in mii..mii + 8 {
        for slack in 0..=2 {
            let cfg = TimeSolverConfig::for_cgra(cgra).with_window_slack(slack);
            let mut solver = TimeSolver::new(&dfg, ii, cfg).expect("valid suite kernel");
            let (sols, _) = solver.enumerate_solutions(ATTEMPTS);
            if !sols.is_empty() {
                return (dfg, sols);
            }
        }
    }
    panic!("{name} has no schedule near mII on 5x5");
}

fn bench_portfolio(c: &mut Criterion) {
    let mut g = c.benchmark_group("portfolio");
    g.measurement_time(Duration::from_secs(3)).sample_size(10);
    for (grid, cgra) in grids() {
        for name in KERNELS {
            let dfg = suite::generate(name);
            let serial_ii = DecoupledMapper::new(&cgra)
                .map(&dfg)
                .expect("suite kernel maps")
                .mapping
                .ii();
            let id = format!("{name}/{grid}");
            g.bench_with_input(BenchmarkId::new("serial", &id), &dfg, |b, dfg| {
                b.iter(|| {
                    let r = DecoupledMapper::new(&cgra).map(dfg).unwrap();
                    assert_eq!(r.mapping.ii(), serial_ii);
                    r.mapping.ii()
                })
            });
            g.bench_with_input(BenchmarkId::new("race4", &id), &dfg, |b, dfg| {
                b.iter(|| {
                    let cfg = MapperConfig::new().with_space_parallelism(4);
                    let r = DecoupledMapper::with_config(&cgra, cfg).map(dfg).unwrap();
                    assert_eq!(r.mapping.ii(), serial_ii, "portfolio II matches serial");
                    r.mapping.ii()
                })
            });
        }
    }
    g.finish();
}

/// The heterogeneity acceptance bench: per-attempt monomorphism search
/// over the same number of enumerated schedules, homogeneous vs the
/// compatibility-filtered heterogeneous grid. Filtering only removes
/// candidates, so the `het` rows must not regress against `homo` —
/// they search strictly smaller domains (the schedules themselves
/// differ, as the heterogeneous time phase respects per-class
/// capacities).
fn bench_capability_domains(c: &mut Criterion) {
    let mut g = c.benchmark_group("capability_domains");
    g.measurement_time(Duration::from_secs(3)).sample_size(10);
    for (grid, cgra) in grids() {
        for name in KERNELS {
            let (dfg, sols) = schedules(&cgra, name);
            g.bench_with_input(BenchmarkId::new(grid, name), &sols, |b, sols| {
                b.iter(|| {
                    let engine = SpaceEngine::new(&cgra);
                    let mut found = 0usize;
                    let mut steps = 0u64;
                    for sol in sols {
                        let (outcome, s) = engine.search(&dfg, sol, 2_000_000, None);
                        steps += s;
                        if matches!(outcome, SpaceOutcome::Found(_)) {
                            found += 1;
                        }
                    }
                    (found, steps)
                })
            });
        }
    }
    g.finish();
}

criterion_group!(benches, bench_portfolio, bench_capability_domains);
criterion_main!(benches);
