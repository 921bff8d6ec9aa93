//! `monomap-client` — a tiny CLI over [`monomap_service::Client`].
//!
//! Used by the CI smoke test and handy for poking a running
//! `monomapd` by hand:
//!
//! ```text
//! monomap-client --addr 127.0.0.1:8931 healthz
//! monomap-client --addr 127.0.0.1:8931 stats
//! monomap-client --addr 127.0.0.1:8931 map susan [--engine decoupled] [--max-ii 9]
//! ```
//!
//! `map` takes a kernel name from the built-in 17-kernel suite (plus
//! `running_example` and `accumulator`) — or, with `--source
//! <file.mk>`, a loop kernel written in the text DSL — prints the
//! `MapReport` JSON to stdout and finishes with a `cache:
//! hit|miss|bypass` line that scripts can grep. `compile <file.mk>`
//! compiles on the server without mapping and prints the DFG envelope
//! (name, canonical digest, node and class counts).

use std::process::ExitCode;

use cgra_arch::Cgra;
use cgra_dfg::{examples, Dfg};
use monomap_core::api::{EngineId, MapRequest};
use monomap_core::MapperConfig;
use monomap_frontend::suite;
use monomap_service::Client;

const USAGE: &str = "monomap-client — poke a running monomapd

USAGE:
    monomap-client --addr <host:port> healthz
    monomap-client --addr <host:port> stats [--json]
    monomap-client --addr <host:port> map <kernel> [--engine decoupled|coupled|annealing]
                                                   [--max-ii <n>] [--deadline <seconds>]
                                                   [--rows <n> --cols <n>]
    monomap-client --addr <host:port> map --source <file.mk> [same options]
    monomap-client --addr <host:port> compile <file.mk>

KERNELS:
    any suite name (see `monomap-client kernels`), running_example, accumulator
";

fn kernel_by_name(name: &str) -> Option<Dfg> {
    match name {
        "running_example" => Some(examples::running_example()),
        "accumulator" => Some(examples::accumulator()),
        _ => suite::names()
            .contains(&name)
            .then(|| suite::generate(name)),
    }
}

fn run() -> Result<(), String> {
    let mut addr: Option<String> = None;
    let mut command: Option<String> = None;
    let mut kernel: Option<String> = None;
    let mut source_file: Option<String> = None;
    let mut engine = EngineId::Decoupled;
    let mut config = MapperConfig::default();
    let mut deadline: Option<f64> = None;
    let mut rows: Option<usize> = None;
    let mut cols: Option<usize> = None;
    let mut json = false;

    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        let mut value = |name: &str| {
            args.next()
                .ok_or_else(|| format!("{name} requires a value"))
        };
        match arg.as_str() {
            "--help" | "-h" => {
                print!("{USAGE}");
                return Ok(());
            }
            "--addr" => addr = Some(value("--addr")?),
            "--json" => json = true,
            "--source" => source_file = Some(value("--source")?),
            "--engine" => {
                engine = match value("--engine")?.as_str() {
                    "decoupled" => EngineId::Decoupled,
                    "coupled" => EngineId::Coupled,
                    "annealing" => EngineId::Annealing,
                    other => return Err(format!("unknown engine `{other}`")),
                }
            }
            "--max-ii" => {
                let n: usize = value("--max-ii")?
                    .parse()
                    .map_err(|_| "--max-ii: not a number".to_string())?;
                config = config.with_max_ii(n);
            }
            "--deadline" => {
                let s: f64 = value("--deadline")?
                    .parse()
                    .map_err(|_| "--deadline: not a number".to_string())?;
                deadline = Some(s);
            }
            "--rows" => {
                rows = Some(
                    value("--rows")?
                        .parse()
                        .map_err(|_| "--rows: not a number".to_string())?,
                )
            }
            "--cols" => {
                cols = Some(
                    value("--cols")?
                        .parse()
                        .map_err(|_| "--cols: not a number".to_string())?,
                )
            }
            other if command.is_none() => command = Some(other.to_string()),
            other
                if matches!(command.as_deref(), Some("map") | Some("compile"))
                    && kernel.is_none() =>
            {
                kernel = Some(other.to_string())
            }
            other => return Err(format!("unexpected argument `{other}` (try --help)")),
        }
    }

    let command = command.ok_or("no command given (try --help)")?;
    if command == "kernels" {
        for name in suite::names() {
            println!("{name}");
        }
        println!("running_example");
        println!("accumulator");
        return Ok(());
    }
    let addr = addr.ok_or("--addr is required")?;
    let client = Client::new(addr.as_str()).map_err(|e| format!("cannot resolve {addr}: {e}"))?;
    match command.as_str() {
        "healthz" => {
            let body = client.healthz().map_err(|e| e.to_string())?;
            println!("{body}");
        }
        "stats" => {
            let stats = client.stats().map_err(|e| e.to_string())?;
            if json {
                println!(
                    "{}",
                    serde_json::to_string(&stats).map_err(|e| e.to_string())?
                );
            } else {
                print_stats(&stats);
            }
        }
        "compile" => {
            let file = kernel.ok_or("compile needs a .mk file path")?;
            let source =
                std::fs::read_to_string(&file).map_err(|e| format!("cannot read {file}: {e}"))?;
            let response = client.compile(&source).map_err(|e| e.to_string())?;
            println!("name:    {}", response.name);
            println!("digest:  {}", response.digest);
            println!("nodes:   {}", response.nodes);
            println!(
                "classes: alu={} mul={} mem={}",
                response.classes.alu, response.classes.mul, response.classes.mem
            );
            println!(
                "{}",
                serde_json::to_string(&response.dfg).map_err(|e| e.to_string())?
            );
        }
        "map" => {
            let mut request = match (&source_file, kernel) {
                (Some(file), None) => {
                    let source = std::fs::read_to_string(file)
                        .map_err(|e| format!("cannot read {file}: {e}"))?;
                    MapRequest::from_source(engine, source)
                        .map_err(|e| format!("{file}:{e}"))?
                        .with_config(config)
                }
                (None, Some(kernel)) => {
                    let dfg = kernel_by_name(&kernel)
                        .ok_or_else(|| format!("unknown kernel `{kernel}` (try `kernels`)"))?;
                    MapRequest::new(engine, dfg).with_config(config)
                }
                (Some(_), Some(_)) => {
                    return Err("give either a kernel name or --source, not both".into())
                }
                (None, None) => return Err("map needs a kernel name or --source <file>".into()),
            };
            request.deadline_seconds = deadline;
            match (rows, cols) {
                (None, None) => {}
                (Some(r), Some(c)) => {
                    let cgra =
                        Cgra::new(r, c).map_err(|e| format!("invalid CGRA override: {e}"))?;
                    request = request.with_cgra(cgra);
                }
                _ => return Err("--rows and --cols must be given together".into()),
            }
            let response = client.map(&request).map_err(|e| e.to_string())?;
            println!(
                "{}",
                serde_json::to_string(&response.report).map_err(|e| e.to_string())?
            );
            match response.cache {
                Some(d) => println!("cache: {d}"),
                None => println!("cache: unknown"),
            }
        }
        other => return Err(format!("unknown command `{other}` (try --help)")),
    }
    Ok(())
}

fn print_stats(stats: &monomap_service::StatsSnapshot) {
    let c = &stats.cache;
    let p = &stats.persistence;
    let s = &stats.server;
    println!("cache (memory)");
    println!("  hits:              {}", c.hits);
    println!("  misses:            {}", c.misses);
    println!("  insertions:        {}", c.insertions);
    println!("  evictions:         {}", c.evictions);
    println!("  collisions:        {}", c.collisions);
    println!("  entries:           {} / {}", c.entries, c.capacity);
    println!("persistence");
    println!("  disk_hits:         {}", p.disk_hits);
    println!("  disk_replayed:     {}", p.disk_replayed);
    println!("  disk_entries:      {}", p.disk_entries);
    println!("  log_bytes:         {}", p.log_bytes);
    println!("  compactions:       {}", p.compactions);
    println!("  peer_hits:         {}", p.peer_hits);
    println!("  peer_fill_errors:  {}", p.peer_fill_errors);
    println!("server");
    println!("  requests:          {}", s.requests);
    println!("  map_requests:      {}", s.map_requests);
    println!("  batch_requests:    {}", s.batch_requests);
    println!("  compile_requests:  {}", s.compile_requests);
    println!("  errors:            {}", s.errors);
    println!("  client_disconnects:{}", s.client_disconnects);
    println!("  queue_depth:       {}", s.queue_depth);
    println!("  queue_high_water:  {}", s.queue_high_watermark);
    println!("  shed_total:        {}", s.shed_total);
    println!("  solve_pool_busy:   {}", s.solve_pool_busy);
    println!("  uptime_seconds:    {:.1}", s.uptime_seconds);
}

fn main() -> ExitCode {
    match run() {
        Ok(()) => ExitCode::SUCCESS,
        Err(msg) => {
            eprintln!("monomap-client: {msg}");
            ExitCode::FAILURE
        }
    }
}
