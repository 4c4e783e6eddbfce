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
        return match run_analyze(&argv) {
            Ok((report, clean)) => {
                print!("{report}");
                if clean {
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
    if argv.is_empty() || argv[0] == "help" || argv[0] == "--help" {
        return Ok(commands::help());
    }
    let parsed = args::parse(argv)?;
    match parsed.command.as_str() {
        "profile" => {
            let csv_path = parsed.positional(0, "csv")?;
            let budget_mb = parsed.get_or("budget-mb", 0usize)?;
            let budget = if budget_mb == 0 {
                mp_discovery::MemoryBudget::unlimited()
            } else {
                mp_discovery::MemoryBudget::from_mb(budget_mb)
            };
            match parsed.options.get("metrics-json") {
                // Sequential: shared-cache hit/miss order is racy under a
                // thread pool, and the snapshot must be byte-reproducible.
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
        "audit" if parsed.options.contains_key("matrix") => {
            let datasets = parsed.get_or("datasets", "echocardiogram,bank,car".to_owned())?;
            let adversaries = parsed.get_or(
                "adversaries",
                "baseline,partial50,collude2,noisy10".to_owned(),
            )?;
            let rounds = parsed.get_or("rounds", 40usize)?;
            let epsilon = parsed.get_or("epsilon", 0.5f64)?;
            let threads = parsed.get_or("threads", 0usize)?;
            let metrics_path = parsed.options.get("metrics-json").cloned();
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
            if let Some(path) = parsed.options.get("out") {
                std::fs::write(path, matrix.to_json())
                    .map_err(|e| format!("cannot write matrix JSON to `{path}`: {e}"))?;
            }
            if let Some(path) = parsed.options.get("md") {
                std::fs::write(path, &markdown)
                    .map_err(|e| format!("cannot write matrix markdown to `{path}`: {e}"))?;
            }
            if let Some(path) = metrics_path {
                write_metrics(&registry, &path)?;
            }
            Ok(markdown)
        }
        "audit" => {
            let rel = load(parsed.positional(0, "csv")?)?;
            let policy = commands::policy_by_name(&parsed.get_or("policy", "domains".to_owned())?)?;
            let rounds = parsed.get_or("rounds", 100usize)?;
            let epsilon = parsed.get_or("epsilon", 0.0f64)?;
            commands::audit(&rel, policy, rounds, epsilon)
        }
        "identifiability" => {
            let rel = load(parsed.positional(0, "csv")?)?;
            let max_size = parsed.get_or("max-size", 2usize)?;
            let qi = parsed.usize_list("qi")?;
            commands::identifiability(&rel, max_size, &qi)
        }
        "compare" => {
            let rel = load(parsed.positional(0, "csv")?)?;
            let rounds = parsed.get_or("rounds", 60usize)?;
            let epsilon = parsed.get_or("epsilon", 0.0f64)?;
            commands::compare_policies(&rel, rounds, epsilon)
        }
        "anonymize" => {
            let rel = load(parsed.positional(0, "csv")?)?;
            let qi = parsed.usize_list("qi")?;
            let k = parsed.get_or("k", 2usize)?;
            let (report, anon) = commands::anonymize(&rel, &qi, k)?;
            if let Some(out) = parsed.options.get("out") {
                csv::write_path(&anon, out).map_err(|e| e.to_string())?;
                Ok(format!("{report}written to {out}\n"))
            } else {
                Ok(format!("{report}{}", csv::write_str(&anon)))
            }
        }
        "simulate" => {
            let seed = parsed.get_or("seed", 0u64)?;
            let faults = parsed
                .options
                .get("faults")
                .cloned()
                .unwrap_or_else(|| "drop,dup,reorder".to_owned());
            let rows = parsed.get_or("rows", 120usize)?;
            match parsed.options.get("metrics-json") {
                Some(path) => {
                    let registry = Registry::new();
                    let result = commands::simulate(seed, &faults, rows, &registry);
                    // Written even when the setup aborts: the wire metrics
                    // of a failed run are exactly what one wants to inspect.
                    write_metrics(&registry, path)?;
                    result
                }
                None => commands::simulate(seed, &faults, rows, &mp_observe::NoopRecorder),
            }
        }
        "serve" => {
            let metrics_path = parsed.options.get("metrics-json").cloned();
            let registry = Arc::new(Registry::new());
            let recorder: Arc<dyn mp_observe::Recorder> = if metrics_path.is_some() {
                registry.clone()
            } else {
                Arc::new(mp_observe::NoopRecorder)
            };
            let result = match parsed.options.get("listen") {
                Some(flag) if flag == "true" => {
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
                write_metrics(&registry, &path)?;
            }
            result
        }
        "check" => {
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

/// `mpriv analyze`: run the workspace invariant linter. Returns the
/// rendered report plus whether the tree was clean.
fn run_analyze(argv: &[String]) -> Result<(String, bool), String> {
    let parsed = args::parse(argv)?;
    if parsed.options.contains_key("list-rules") {
        let mut out = String::new();
        for lint in mp_analyze::rules::registry() {
            out.push_str(&format!("{:<24} {}\n", lint.name(), lint.description()));
        }
        return Ok((out, true));
    }
    let root = match parsed.options.get("root") {
        Some(dir) => std::path::PathBuf::from(dir),
        None => {
            let cwd = std::env::current_dir().map_err(|e| format!("getting cwd: {e}"))?;
            mp_analyze::find_workspace_root(&cwd)
                .ok_or("no workspace root found above the current directory; pass --root")?
        }
    };
    let report = match parsed.options.get("config") {
        Some(path) => {
            let text =
                std::fs::read_to_string(path).map_err(|e| format!("cannot read `{path}`: {e}"))?;
            let config =
                mp_analyze::config::Config::parse(&text).map_err(|e| format!("{path}: {e}"))?;
            mp_analyze::analyze(&root, &config)?
        }
        None => mp_analyze::analyze_with_default_config(&root)?,
    };
    let mut clean = report.is_clean();
    let write_baseline = parsed.options.contains_key("write-baseline");
    if parsed.options.contains_key("ratchet") || write_baseline {
        let baseline = match parsed.options.get("baseline") {
            Some(p) => std::path::PathBuf::from(p),
            None => root.join("analyze-baseline.toml"),
        };
        let (outcome, summary) =
            mp_analyze::ratchet::apply(&report.facts, &baseline, write_baseline)?;
        // Ratchet chatter goes to stderr so stdout stays byte-stable.
        eprintln!("{}", summary.trim_end());
        clean &= outcome.passed();
    }
    let format = parsed.get_or("format", "human".to_owned())?;
    let rendered = match format.as_str() {
        "json" => report.render_json(),
        "human" => report.render_human(),
        other => return Err(format!("unknown format `{other}` (expected human|json)")),
    };
    Ok((rendered, clean))
}

fn write_metrics(registry: &Registry, path: &str) -> Result<(), String> {
    std::fs::write(path, registry.snapshot().to_json())
        .map_err(|e| format!("cannot write metrics to `{path}`: {e}"))
}

fn load(path: &str) -> Result<mp_relation::Relation, String> {
    csv::read_path(path, &csv::CsvOptions::default())
        .map_err(|e| format!("cannot read `{path}`: {e}"))
}
