//! `mpriv` — command-line metadata-privacy auditor.
//!
//! See `mpriv --help` (or [`commands::help`]) for usage. All heavy lifting
//! lives in the workspace libraries; this binary only parses arguments,
//! loads CSVs and prints reports.

mod args;
mod commands;

use mp_observe::Registry;
use mp_relation::csv;
use std::process::ExitCode;
use std::sync::Arc;

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    // `analyze` manages its own exit code: the report goes to stdout even
    // when violations make the exit non-zero (a lint hit is not a usage
    // error, so it must not be wrapped in the `mpriv: …` failure banner).
    if argv.first().map(String::as_str) == Some("analyze") {
        return match mp_analyze::run(&argv[1..]) {
            Ok(outcome) => {
                print!("{}", outcome.report);
                eprint!("{}", outcome.ratchet);
                if outcome.clean {
                    ExitCode::SUCCESS
                } else {
                    ExitCode::FAILURE
                }
            }
            Err(msg) => {
                eprintln!("mpriv: {msg}");
                ExitCode::from(2)
            }
        };
    }
    match run(&argv) {
        Ok(report) => {
            print!("{report}");
            ExitCode::SUCCESS
        }
        Err(msg) => {
            eprintln!("mpriv: {msg}");
            eprintln!("run `mpriv help` for usage");
            ExitCode::FAILURE
        }
    }
}

fn run(argv: &[String]) -> Result<String, String> {
    if argv.is_empty() {
        return Ok(commands::help());
    }
    let parsed = args::parse(argv)?;
    match parsed.command.as_str() {
        "help" | "--help" => {
            parsed.accept_only(&[], 0)?;
            Ok(commands::help())
        }
        "profile" => {
            parsed.accept_only(&["budget-mb", "metrics-json"], 1)?;
            let csv_path = parsed.positional(0, "csv")?;
            let budget_mb = parsed.get_or("budget-mb", 0usize)?;
            let budget = if budget_mb == 0 {
                mp_discovery::MemoryBudget::unlimited()
            } else {
                mp_discovery::MemoryBudget::from_mb(budget_mb)
            };
            match parsed.option("metrics-json") {
                // Sequential: under a byte budget that evicts, the shared
                // cache's hit/miss counts depend on the thread schedule,
                // and the snapshot must be byte-reproducible.
                Some(path) => {
                    let registry = Arc::new(Registry::new());
                    // Observed ingest: the streaming decoder's chunk/record
                    // counters land in the same snapshot as the discovery
                    // metrics.
                    let rel = csv::read_path_observed(
                        csv_path,
                        &csv::CsvOptions::default(),
                        registry.as_ref(),
                    )
                    .map_err(|e| format!("cannot read `{csv_path}`: {e}"))?;
                    let report = commands::profile(
                        &rel,
                        mp_discovery::ParallelConfig::sequential(),
                        budget,
                        registry.clone(),
                    )?;
                    write_metrics(&registry, path)?;
                    Ok(report)
                }
                None => {
                    let rel = load(csv_path)?;
                    commands::profile(
                        &rel,
                        mp_discovery::ParallelConfig::default(),
                        budget,
                        Arc::new(mp_observe::NoopRecorder),
                    )
                }
            }
        }
        "audit" if parsed.option("matrix").is_some() => {
            parsed.accept_only(
                &[
                    "matrix",
                    "datasets",
                    "adversaries",
                    "rounds",
                    "epsilon",
                    "threads",
                    "out",
                    "md",
                    "metrics-json",
                ],
                0,
            )?;
            let datasets = parsed.get_or("datasets", "echocardiogram,bank,car".to_owned())?;
            let adversaries = parsed.get_or(
                "adversaries",
                "baseline,partial50,collude2,noisy10".to_owned(),
            )?;
            let rounds = parsed.get_or("rounds", 40usize)?;
            let epsilon = parsed.get_or("epsilon", 0.5f64)?;
            let threads = parsed.get_or("threads", 0usize)?;
            let metrics_path = parsed.option("metrics-json");
            let registry = Registry::new();
            let recorder: &dyn mp_observe::Recorder = if metrics_path.is_some() {
                &registry
            } else {
                &mp_observe::NoopRecorder
            };
            let (matrix, markdown) = commands::audit_matrix(
                &datasets,
                &adversaries,
                rounds,
                epsilon,
                threads,
                recorder,
            )?;
            if let Some(path) = parsed.option("out") {
                std::fs::write(path, matrix.to_json())
                    .map_err(|e| format!("cannot write matrix JSON to `{path}`: {e}"))?;
            }
            if let Some(path) = parsed.option("md") {
                std::fs::write(path, &markdown)
                    .map_err(|e| format!("cannot write matrix markdown to `{path}`: {e}"))?;
            }
            if let Some(path) = metrics_path {
                write_metrics(&registry, path)?;
            }
            Ok(markdown)
        }
        "audit" => {
            parsed.accept_only(&["policy", "rounds", "epsilon"], 1)?;
            let rel = load(parsed.positional(0, "csv")?)?;
            let policy = commands::policy_by_name(&parsed.get_or("policy", "domains".to_owned())?)?;
            let rounds = parsed.get_or("rounds", 100usize)?;
            let epsilon = parsed.get_or("epsilon", 0.0f64)?;
            commands::audit(&rel, policy, rounds, epsilon)
        }
        "identifiability" => {
            parsed.accept_only(&["max-size", "qi"], 1)?;
            let rel = load(parsed.positional(0, "csv")?)?;
            let max_size = parsed.get_or("max-size", 2usize)?;
            let qi = parsed.usize_list("qi")?;
            commands::identifiability(&rel, max_size, &qi)
        }
        "compare" => {
            parsed.accept_only(&["rounds", "epsilon"], 1)?;
            let rel = load(parsed.positional(0, "csv")?)?;
            let rounds = parsed.get_or("rounds", 60usize)?;
            let epsilon = parsed.get_or("epsilon", 0.0f64)?;
            commands::compare_policies(&rel, rounds, epsilon)
        }
        "anonymize" => {
            parsed.accept_only(&["qi", "k", "out"], 1)?;
            let rel = load(parsed.positional(0, "csv")?)?;
            let qi = parsed.usize_list("qi")?;
            let k = parsed.get_or("k", 2usize)?;
            let (report, anon) = commands::anonymize(&rel, &qi, k)?;
            if let Some(out) = parsed.option("out") {
                csv::write_path(&anon, out).map_err(|e| e.to_string())?;
                Ok(format!("{report}written to {out}\n"))
            } else {
                Ok(format!("{report}{}", csv::write_str(&anon)))
            }
        }
        "simulate" => {
            parsed.accept_only(&["seed", "faults", "rows", "metrics-json"], 0)?;
            let seed = parsed.get_or("seed", 0u64)?;
            let faults = parsed.option("faults").unwrap_or("drop,dup,reorder");
            let rows = parsed.get_or("rows", 120usize)?;
            match parsed.option("metrics-json") {
                Some(path) => {
                    let registry = Registry::new();
                    let result = commands::simulate(seed, faults, rows, &registry);
                    // Written even when the setup aborts: the wire metrics
                    // of a failed run are exactly what one wants to inspect.
                    write_metrics(&registry, path)?;
                    result
                }
                None => commands::simulate(seed, faults, rows, &mp_observe::NoopRecorder),
            }
        }
        "serve" => {
            parsed.accept_only(&["sessions", "rows", "listen", "metrics-json"], 0)?;
            let metrics_path = parsed.option("metrics-json");
            let registry = Arc::new(Registry::new());
            let recorder: Arc<dyn mp_observe::Recorder> = if metrics_path.is_some() {
                registry.clone()
            } else {
                Arc::new(mp_observe::NoopRecorder)
            };
            let result = match parsed.option("listen") {
                Some("true") => {
                    Err("--listen needs an address (host:port or unix:<path>)".to_owned())
                }
                Some(addr) => {
                    let server = commands::serve_bind(addr, recorder)?;
                    // The banner goes out before blocking so external
                    // clients learn the bound (possibly ephemeral) address.
                    println!("serve: listening on {} (EOF on stdin stops)", server.addr());
                    let mut sink = String::new();
                    use std::io::Read as _;
                    let _ = std::io::stdin().read_to_string(&mut sink);
                    Ok(commands::serve_report(&server.shutdown()))
                }
                None => {
                    let sessions = parsed.get_or("sessions", 4usize)?;
                    let rows = parsed.get_or("rows", 40usize)?;
                    commands::serve_drive(sessions, rows, recorder)
                }
            };
            if let Some(path) = metrics_path {
                write_metrics(&registry, path)?;
            }
            result
        }
        "check" => {
            parsed.accept_only(&["parties", "ticks", "budget", "delay", "crash-points"], 0)?;
            let parties = parsed.get_or("parties", 2usize)?;
            let ticks = parsed.get_or("ticks", 256u64)?;
            let budget = parsed.get_or("budget", 2usize)?;
            let delay = parsed.get_or("delay", 2u64)?;
            let crash_points = parsed.get_or("crash-points", 3u64)?;
            commands::check(parties, ticks, budget, delay, crash_points)
        }
        other => Err(format!("unknown subcommand `{other}`")),
    }
}

fn write_metrics(registry: &Registry, path: &str) -> Result<(), String> {
    std::fs::write(path, registry.snapshot().to_json())
        .map_err(|e| format!("cannot write metrics to `{path}`: {e}"))
}

fn load(path: &str) -> Result<mp_relation::Relation, String> {
    csv::read_path(path, &csv::CsvOptions::default())
        .map_err(|e| format!("cannot read `{path}`: {e}"))
}
