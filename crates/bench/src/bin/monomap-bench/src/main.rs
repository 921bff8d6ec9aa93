//! `monomap-bench` — one benchmark, wire to word.
//!
//! Launches the real `monomapd` on a loopback port, plays five seeded
//! workloads against it, checks every answer and prints every metric by
//! name with its unit. A traced run replays the same inputs in-process
//! for the per-layer numbers. See `README.md` next to this package.

mod affinity;
mod daemon;
mod gen;
mod http;
mod stats;
mod trace;
mod wire;

use std::path::{Path, PathBuf};
use std::process::ExitCode;

use serde::Value;

use wire::{Budget, Ctx, Metric, Workload, WORKLOADS};

const USAGE: &str = "monomap-bench — wire-to-word benchmark for monomapd

USAGE (from the repository root, next to a built monomapd; see run.sh):
    monomap-bench --workload <name> --seed <n> --seconds <s> --trace <0|1>
    monomap-bench [--seed <n>] [--seconds <s>] [--out <file>] [--smoke] [--agree]

OPTIONS:
    --workload <name>   cold_2x2 | cold_4x4 | cold_20x20 | warm_4x4 | mixed_4x4;
                        without it all five run, untraced then traced
    --seed <n>          input seed (default 1)
    --seconds <s>       measured time per run (default 10)
    --trace <0|1>       0: end-to-end metrics over the wire (default);
                        1: per-layer metrics from the in-process replay
    --trace-out <file>  with --trace 1, write the spans there as JSON
    --out <file>        write every result of the run as JSON
    --smoke             cold_2x2 and warm_4x4, one renumbering, one pass (< 5 s)
    --check             exit 1 unless every answer was correct and every
                        count repeated
    --agree             run everything twice and compare against the
                        bounds in BENCHMARK.json; exit 1 on any excess

The last line on stdout of a --workload run is one JSON object:
    {\"correct\":…,\"attempted\":…,\"failed\":…,\"metrics\":{name:{\"value\":…,\"unit\":…}}}
";

struct Args {
    workload: Option<String>,
    seed: u64,
    seconds: f64,
    trace: bool,
    trace_out: Option<PathBuf>,
    out: Option<PathBuf>,
    smoke: bool,
    check: bool,
    agree: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        workload: None,
        seed: 1,
        seconds: 10.0,
        trace: false,
        trace_out: None,
        out: None,
        smoke: false,
        check: false,
        agree: false,
    };
    let mut argv = std::env::args().skip(1);
    while let Some(flag) = argv.next() {
        let mut value = || argv.next().ok_or(format!("{flag} requires a value"));
        match flag.as_str() {
            "--help" | "-h" => {
                print!("{USAGE}");
                std::process::exit(0);
            }
            "--workload" => args.workload = Some(value()?),
            "--seed" => args.seed = value()?.parse().map_err(|_| "--seed: not a number")?,
            "--seconds" => {
                args.seconds = value()?.parse().map_err(|_| "--seconds: not a number")?;
                if args.seconds.is_nan() || args.seconds < 0.0 {
                    return Err("--seconds must not be negative".into());
                }
            }
            "--trace" => {
                args.trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not `{other}`")),
                }
            }
            "--trace-out" => args.trace_out = Some(value()?.into()),
            "--out" => args.out = Some(value()?.into()),
            "--smoke" => args.smoke = true,
            "--check" => args.check = true,
            "--agree" => args.agree = true,
            other => return Err(format!("unknown flag `{other}` (try --help)")),
        }
    }
    Ok(args)
}

/// One run of one workload in one mode.
struct Row {
    workload: &'static str,
    traced: bool,
    correct: bool,
    attempted: u64,
    failed: u64,
    first_failure: Option<String>,
    metrics: Vec<Metric>,
    /// Sample counts behind the metrics, and the traced run's self times.
    notes: Vec<(String, f64)>,
}

fn run_row(
    ctx: &Ctx,
    workload: &'static Workload,
    args: &Args,
    traced: bool,
) -> Result<Row, String> {
    if !traced {
        let wire = wire::run(ctx, workload)?;
        let misses = wire::miss_percentiles(&wire.miss_s).map_or(0, |m| m.2);
        let hits: usize = wire.passes.iter().map(|p| p.hit_s.len()).sum();
        let ii_repeats = wire.ii_repeats();
        return Ok(Row {
            workload: workload.name,
            traced,
            correct: wire.tally.failed == 0 && ii_repeats,
            attempted: wire.tally.attempted,
            failed: wire.tally.failed,
            metrics: wire::end_to_end(&wire)?,
            notes: vec![
                ("passes".into(), wire.passes.len() as f64),
                ("setups".into(), wire.setup_s.len() as f64),
                ("hit_samples".into(), hits as f64),
                ("miss_samples".into(), wire.miss_s.len() as f64),
                ("miss_distinct_requests".into(), misses as f64),
                ("ii_sums_repeat".into(), f64::from(u8::from(ii_repeats))),
            ],
            first_failure: wire.tally.first_failure,
        });
    }
    // The traced run's wire pass is there for the daemon's counters:
    // one measured pass, no warm-up.
    let ctx = Ctx {
        budget: Budget {
            seconds: 0.0,
            min_passes: 1,
            warm_up: false,
            ..ctx.budget
        },
        ..ctx.clone()
    };
    let traced_run = trace::run(&ctx, workload)?;
    if let Some(path) = &args.trace_out {
        traced_run
            .recorder
            .write(path)
            .map_err(|e| format!("{}: {e}", path.display()))?;
    }
    let mut notes = vec![
        ("spans".into(), traced_run.recorder.spans.len() as f64),
        (
            "counts_repeat".into(),
            f64::from(u8::from(traced_run.repeats)),
        ),
    ];
    for (name, (spans, total_s, self_s)) in traced_run.recorder.by_name() {
        notes.push((format!("span.{name}.count"), spans as f64));
        notes.push((format!("span.{name}.total_s"), total_s));
        notes.push((format!("span.{name}.self_s"), self_s));
    }
    Ok(Row {
        workload: workload.name,
        traced: true,
        correct: traced_run.failed == 0 && traced_run.repeats,
        attempted: traced_run.attempted,
        failed: traced_run.failed,
        first_failure: traced_run.first_failure,
        metrics: traced_run.metrics,
        notes,
    })
}

fn metrics_json(metrics: &[Metric]) -> Result<Value, String> {
    let entries = metrics
        .iter()
        .map(|m| {
            if !m.value.is_finite() {
                return Err(format!("{} is {}", m.name, m.value));
            }
            let value = Value::Map(vec![
                ("value".into(), Value::Float(m.value)),
                ("unit".into(), Value::Str(m.unit.into())),
            ]);
            Ok((m.name.to_string(), value))
        })
        .collect::<Result<_, String>>()?;
    Ok(Value::Map(entries))
}

/// The one-line result the driver reads.
fn contract_line(row: &Row) -> Result<String, String> {
    let line = Value::Map(vec![
        ("correct".into(), Value::Bool(row.correct)),
        ("attempted".into(), Value::UInt(row.attempted)),
        ("failed".into(), Value::UInt(row.failed)),
        ("metrics".into(), metrics_json(&row.metrics)?),
    ]);
    serde_json::to_string(&line).map_err(|e| e.to_string())
}

fn print_row(row: &Row) {
    let mode = if row.traced {
        "traced, in-process"
    } else {
        "over the wire"
    };
    println!(
        "== {} ({mode}): {} attempted, {} failed, correct: {}",
        row.workload, row.attempted, row.failed, row.correct
    );
    if let Some(why) = &row.first_failure {
        println!("   first failure: {why}");
    }
    for m in &row.metrics {
        println!("   {:<32} {:>16.6} {}", m.name, m.value, m.unit);
    }
    for (name, value) in row.notes.iter().filter(|(n, _)| !n.starts_with("span.")) {
        println!("   ({name}: {value})");
    }
}

/// The box, as seen before the benchmark pinned itself.
#[derive(Clone, Copy)]
struct Host {
    nproc: usize,
    pinned_cpu: Option<usize>,
}

/// Where and when the numbers were taken: enough to tell a quiet run
/// from one that shared the box.
fn environment(seed: u64, host: Host) -> Value {
    let Host { nproc, pinned_cpu } = host;
    let loadavg = std::fs::read_to_string("/proc/loadavg").unwrap_or_default();
    let load1: f64 = loadavg
        .split_whitespace()
        .next()
        .and_then(|s| s.parse().ok())
        .unwrap_or(0.0);
    let commit = std::process::Command::new("git")
        .args(["rev-parse", "HEAD"])
        .stderr(std::process::Stdio::null())
        .output()
        .ok()
        .filter(|o| o.status.success())
        .map(|o| String::from_utf8_lossy(&o.stdout).trim().to_string())
        .unwrap_or_else(|| "unknown".into());
    Value::Map(vec![
        ("nproc".into(), Value::UInt(nproc as u64)),
        (
            "pinned_cpu".into(),
            pinned_cpu.map_or(Value::Null, |cpu| Value::UInt(cpu as u64)),
        ),
        ("seed".into(), Value::UInt(seed)),
        ("commit".into(), Value::Str(commit)),
        ("loadavg".into(), Value::Str(loadavg.trim().into())),
        // The probe behind this benchmark saw 1.6× swings when a
        // neighbour kept one of the two cores busy.
        ("noisy".into(), Value::Bool(load1 > nproc as f64 / 2.0)),
    ])
}

fn rows_json(rows: &[Row]) -> Result<Value, String> {
    rows.iter()
        .map(|row| {
            Ok(Value::Map(vec![
                ("workload".into(), Value::Str(row.workload.into())),
                ("traced".into(), Value::Bool(row.traced)),
                ("correct".into(), Value::Bool(row.correct)),
                ("attempted".into(), Value::UInt(row.attempted)),
                ("failed".into(), Value::UInt(row.failed)),
                ("metrics".into(), metrics_json(&row.metrics)?),
                (
                    "notes".into(),
                    Value::Map(
                        row.notes
                            .iter()
                            .map(|(k, v)| (k.clone(), Value::Float(*v)))
                            .collect(),
                    ),
                ),
            ]))
        })
        .collect::<Result<Vec<_>, String>>()
        .map(Value::Seq)
}

/// One full set: where it ran, and its rows.
type Set = (Value, Vec<Row>);

/// Every workload, untraced then traced.
fn run_set(ctx: &Ctx, args: &Args, host: Host) -> Result<Set, String> {
    let env = environment(args.seed, host);
    println!(
        "{}",
        serde_json::to_string(&env).map_err(|e| e.to_string())?
    );
    let mut rows = Vec::new();
    for workload in &WORKLOADS {
        if args.smoke && !matches!(workload.name, "cold_2x2" | "warm_4x4") {
            continue;
        }
        for traced in [false, true] {
            if args.smoke && traced {
                continue;
            }
            let row = run_row(ctx, workload, args, traced)?;
            print_row(&row);
            rows.push(row);
        }
    }
    Ok((env, rows))
}

/// `--agree`: two sets of the same code must agree within the bounds the
/// benchmark itself declares, and exactly on everything that is a count.
fn agree(first: &[Row], second: &[Row]) -> Result<bool, String> {
    let text =
        std::fs::read_to_string("BENCHMARK.json").map_err(|e| format!("BENCHMARK.json: {e}"))?;
    let declared: Value =
        serde_json::from_str(&text).map_err(|e| format!("BENCHMARK.json: {e}"))?;
    let bound = |name: &str| -> Result<f64, String> {
        declared
            .get("end_to_end")
            .and_then(Value::as_seq)
            .and_then(|all| {
                all.iter()
                    .find(|m| m.get("name").and_then(Value::as_str) == Some(name))
            })
            .and_then(|m| match m.get("bound") {
                Some(Value::Float(b)) => Some(*b),
                Some(Value::Int(b)) => Some(*b as f64),
                _ => None,
            })
            .ok_or(format!("BENCHMARK.json declares no bound for {name}"))
    };
    let mut ok = true;
    println!("== agreement of two runs");
    for (a, b) in first.iter().zip(second) {
        for (ma, mb) in a.metrics.iter().zip(&b.metrics) {
            // Counts and the II ratio are work, not time: they repeat
            // exactly or something is nondeterministic.
            let exact = ma.unit == "count" && ma.name.starts_with("core.") || ma.name == "ii_ratio";
            let limit = match (a.traced, exact) {
                (_, true) => 0.0,
                (false, false) => bound(ma.name)?,
                (true, false) => continue,
            };
            let diff = (mb.value - ma.value).abs() / ma.value.abs().max(f64::MIN_POSITIVE);
            let verdict = if diff <= limit { "ok" } else { "EXCEEDS" };
            ok &= diff <= limit;
            println!(
                "   {:<11} {:<24} {:>14.6} {:>14.6} {:>8.4} (bound {limit}) {verdict}",
                a.workload, ma.name, ma.value, mb.value, diff
            );
        }
    }
    Ok(ok)
}

fn write_out(path: &Path, sets: Vec<Set>) -> Result<(), String> {
    let runs = sets
        .into_iter()
        .map(|(env, rows)| {
            Ok(Value::Map(vec![
                ("env".into(), env),
                ("rows".into(), rows_json(&rows)?),
            ]))
        })
        .collect::<Result<Vec<_>, String>>()?;
    let doc = Value::Map(vec![
        // The benchmark defines the baseline; it claims no gain.
        ("claim".into(), Value::Null),
        ("runs".into(), Value::Seq(runs)),
    ]);
    let text = serde_json::to_string_pretty(&doc).map_err(|e| e.to_string())?;
    std::fs::write(path, text + "\n").map_err(|e| format!("{}: {e}", path.display()))
}

/// Runs what the arguments ask for; `Ok(false)` when an answer was
/// wrong, a count did not repeat or two runs disagreed.
fn real_main(args: &Args) -> Result<bool, String> {
    // Before any thread or daemon exists, so that all of them inherit
    // the pin; the CPU count has to be read before it narrows.
    let host = Host {
        nproc: std::thread::available_parallelism().map_or(1, |n| n.get()),
        pinned_cpu: affinity::pin_to_one_cpu(),
    };
    if host.pinned_cpu.is_none() {
        eprintln!("monomap-bench: could not pin to one CPU; timings will be noisier");
    }
    let exe = std::env::current_exe().map_err(|e| format!("current_exe: {e}"))?;
    let bin_dir = exe
        .parent()
        .ok_or("the benchmark binary has no directory")?;
    let daemon_bin = bin_dir.join("monomapd");
    if !daemon_bin.is_file() {
        return Err(format!(
            "{} not found: build it first (`cargo build --release --bin monomapd`, or use run.sh)",
            daemon_bin.display()
        ));
    }
    let scratch = wire::TempDir::create(bin_dir, "monomap-bench-scratch")?;
    let ctx = Ctx {
        kernels_dir: PathBuf::from("kernels"),
        daemon_bin,
        scratch: scratch.path().to_path_buf(),
        seed: args.seed,
        budget: Budget {
            seconds: if args.smoke { 0.0 } else { args.seconds },
            min_passes: if args.smoke { 1 } else { 3 },
            warm_up: !args.smoke,
            smoke: args.smoke,
        },
    };
    if let Some(name) = &args.workload {
        let env = environment(args.seed, host);
        let workload = WORKLOADS
            .iter()
            .find(|w| w.name == name)
            .ok_or(format!("unknown workload `{name}` (try --help)"))?;
        let row = run_row(&ctx, workload, args, args.trace)?;
        print_row(&row);
        let (correct, line) = (row.correct, contract_line(&row)?);
        if let Some(path) = &args.out {
            write_out(path, vec![(env, vec![row])])?;
        }
        println!("{line}");
        return Ok(correct);
    }

    let mut sets = vec![run_set(&ctx, args, host)?];
    let mut correct = true;
    if args.agree {
        sets.push(run_set(&ctx, args, host)?);
        correct &= agree(&sets[0].1, &sets[1].1)?;
    }
    correct &= sets.iter().flat_map(|(_, rows)| rows).all(|r| r.correct);
    if let Some(path) = &args.out {
        write_out(path, sets)?;
    }
    Ok(correct)
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(args) => args,
        Err(msg) => {
            eprintln!("monomap-bench: {msg}");
            return ExitCode::from(2);
        }
    };
    match real_main(&args) {
        Ok(correct) if correct || !(args.check || args.agree) => ExitCode::SUCCESS,
        Ok(_) => ExitCode::from(1),
        Err(msg) => {
            eprintln!("monomap-bench: {msg}");
            ExitCode::from(2)
        }
    }
}
