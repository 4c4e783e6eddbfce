//! The repository benchmark.
//!
//! ```text
//! perfbench --workload <profile|scale|matrix|serve|check> --seed <n>
//!           --seconds <n> --trace <0|1>
//! ```
//!
//! `--trace 0` measures the end-to-end metrics from untraced runs;
//! `--trace 1` runs the workload's layer calls one by one inside spans
//! and reports per-layer metrics. The last line of standard output is
//! one JSON object with `correct`, `attempted`, `failed` and `metrics`;
//! the line before it is the full report (schema version, revision,
//! host, seed, sizes, and each metric with its unit and sample count).
//! See README.md in this directory.

mod check;
mod matrix;
mod profile;
mod run;
mod scale;
mod serve;
mod stats;
mod sys;
mod trace;

use run::{Ctx, Measured, Metric, Traced};
use stats::{mean, median, quartiles, Outcomes};
use std::path::{Path, PathBuf};
use sys::ChildSample;

/// Version of the report line's layout.
const SCHEMA_VERSION: u64 = 1;

/// Where inputs, sample outputs, spans and reports go, relative to the
/// directory the benchmark runs in.
const WORK_ROOT: &str = ".bench_work";

/// A workload's entry points: the untraced run, the traced run, and one
/// sample in a child process.
struct Workload {
    name: &'static str,
    measure: fn(&Ctx) -> Result<Measured, String>,
    trace: fn(&Ctx) -> Result<Traced, String>,
    child: fn(&Ctx, &Path, &[String]) -> Result<ChildSample, String>,
}

const WORKLOADS: [Workload; 5] = [
    Workload {
        name: "profile",
        measure: profile::measure,
        trace: profile::trace,
        child: profile::child,
    },
    Workload {
        name: "scale",
        measure: scale::measure,
        trace: scale::trace,
        child: scale::child,
    },
    Workload {
        name: "matrix",
        measure: matrix::measure,
        trace: matrix::trace,
        child: matrix::child,
    },
    Workload {
        name: "serve",
        measure: serve::measure,
        trace: serve::trace,
        child: serve::child,
    },
    Workload {
        name: "check",
        measure: check::measure,
        trace: check::trace,
        child: check::child,
    },
];

/// Every per-layer metric a traced run reports, with its unit. A
/// workload that does not reach a layer reports 0 for it.
const PER_LAYER: [(&str, &str); 56] = [
    ("csv.ingest_s", "s"),
    ("csv.mb_per_s", "MB/s"),
    ("csv.records", "count"),
    ("csv.chunks", "count"),
    ("pli.single_build_s", "s"),
    ("pli.builds", "count"),
    ("pli.sharded_builds", "count"),
    ("pli_cache.hit_rate", "fraction"),
    ("pli_cache.budget_evictions", "count"),
    ("pli_cache.resident_mb", "MB"),
    ("tane.fd_s", "s"),
    ("tane.candidates", "count"),
    ("discovery.fds_s", "s"),
    ("discovery.afds_s", "s"),
    ("discovery.ods_s", "s"),
    ("discovery.nds_s", "s"),
    ("discovery.dds_s", "s"),
    ("discovery.ofds_s", "s"),
    ("discovery.cfds_s", "s"),
    ("discovery.mfds_s", "s"),
    ("discovery.deps.fds", "count"),
    ("discovery.deps.afds", "count"),
    ("discovery.deps.ods", "count"),
    ("discovery.deps.nds", "count"),
    ("discovery.deps.dds", "count"),
    ("discovery.deps.ofds", "count"),
    ("discovery.deps.cfds", "count"),
    ("discovery.deps.mfds", "count"),
    ("metadata.describe_s", "s"),
    ("metadata.redact_s", "s"),
    ("metadata.view_s", "s"),
    ("synth.synthesize_s", "s"),
    ("synth.rows_per_s", "rows/s"),
    ("leakage.score_s", "s"),
    ("leakage.cells_compared", "count"),
    ("matrix.synth_rounds", "count"),
    ("psi.submit_ms", "ms"),
    ("party.share_ms", "ms"),
    ("protocol.inproc_ms", "ms"),
    ("protocol.ticks_per_session", "count"),
    ("protocol.retransmits_per_session", "count"),
    ("net.codec_ms", "ms"),
    ("net.bytes_per_session", "bytes"),
    ("serve.wait_ms", "ms"),
    ("serve.frames_in_per_session", "count"),
    ("serve.frames_routed_per_session", "count"),
    ("serve.max_queue_depth", "count"),
    ("check.total_states", "count"),
    ("check.distinct_states", "count"),
    ("check.runs", "count"),
    ("check.pruned_subtrees", "count"),
    ("check.us_per_state", "us"),
    ("protocol.run_setup_us", "us"),
    ("process.cpu_per_wall", "ratio"),
    ("trace.coverage", "fraction"),
    ("trace.overhead_pct", "%"),
];

struct Args {
    workload: &'static Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
    /// Set in a one-sample child: where it writes its output.
    child: Option<PathBuf>,
    /// Arguments after `--child <path>`, passed to the workload's child.
    child_extra: Vec<String>,
}

const USAGE: &str = "usage: perfbench --workload <profile|scale|matrix|serve|check> --seed <n> --seconds <n> --trace <0|1>";

fn parse_args(mut args: impl Iterator<Item = String>) -> Result<Args, String> {
    let (mut workload, mut seed, mut seconds, mut trace) = (None, 0, 10.0, false);
    let mut child = None;
    let mut child_extra = Vec::new();
    while let Some(flag) = args.next() {
        if child.is_some() {
            child_extra.push(flag);
            continue;
        }
        let mut value = || args.next().ok_or(format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => {
                let name = value()?;
                workload = Some(
                    WORKLOADS
                        .iter()
                        .find(|w| w.name == name)
                        .ok_or(format!("unknown workload `{name}`"))?,
                );
            }
            "--seed" => seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => {
                seconds = value()?.parse().map_err(|e| format!("--seconds: {e}"))?;
            }
            "--trace" => {
                trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace must be 0 or 1, got `{other}`")),
                }
            }
            "--child" => child = Some(PathBuf::from(value()?)),
            other => return Err(format!("unknown argument `{other}`")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed,
        seconds,
        trace,
        child,
        child_extra,
    })
}

fn main() {
    let args = match parse_args(std::env::args().skip(1)) {
        Ok(args) => args,
        Err(e) => {
            eprintln!("perfbench: {e}\n{USAGE}");
            std::process::exit(2);
        }
    };
    let ctx = Ctx {
        workload: args.workload.name,
        seed: args.seed,
        seconds: args.seconds,
        threads: sys::nproc(),
        work: PathBuf::from(WORK_ROOT).join(format!(
            "{}-seed{}-{}",
            args.workload.name,
            args.seed,
            std::process::id()
        )),
    };
    if let Some(artifact) = &args.child {
        match (args.workload.child)(&ctx, artifact, &args.child_extra) {
            Ok(sample) => println!("{}", sample.to_line()),
            Err(e) => {
                eprintln!("perfbench child: {e}");
                std::process::exit(1);
            }
        }
        return;
    }
    let result = std::fs::create_dir_all(&ctx.work)
        .map_err(|e| format!("cannot create {}: {e}", ctx.work.display()))
        .and_then(|()| match args.trace {
            false => end_to_end_lines(&ctx, (args.workload.measure)(&ctx)?),
            true => per_layer_lines(&ctx, (args.workload.trace)(&ctx)?),
        });
    let _ = std::fs::remove_dir_all(&ctx.work);
    match result {
        Ok((report, last)) => {
            let path = PathBuf::from(WORK_ROOT).join(format!(
                "report-{}-seed{}-trace{}.json",
                ctx.workload,
                ctx.seed,
                u8::from(args.trace)
            ));
            if let Err(e) = std::fs::write(&path, format!("{report}\n")) {
                eprintln!("perfbench: cannot write {}: {e}", path.display());
            }
            println!("{report}");
            println!("{last}");
        }
        Err(e) => {
            eprintln!("perfbench {}: {e}", ctx.workload);
            std::process::exit(1);
        }
    }
}

/// A JSON number; non-finite values (which no metric should produce)
/// become 0 so the line stays parseable.
fn num(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "0".to_owned()
    }
}

/// The report's JSON object of `metrics`, each with value, unit and
/// sample count.
fn metrics_json(metrics: &[Metric]) -> String {
    let body: Vec<String> = metrics
        .iter()
        .map(|m| {
            format!(
                "\"{}\": {{\"value\": {}, \"unit\": \"{}\", \"samples\": {}}}",
                m.name,
                num(m.value),
                m.unit,
                m.samples
            )
        })
        .collect();
    format!("{{{}}}", body.join(", "))
}

/// The full report line: run envelope plus every metric.
fn report_json(
    ctx: &Ctx,
    trace: bool,
    sizes: &[(&str, u64)],
    outcomes: Outcomes,
    metrics: &[Metric],
) -> String {
    let sizes: Vec<String> = sizes.iter().map(|(k, v)| format!("\"{k}\": {v}")).collect();
    format!(
        "{{\"schema_version\": {SCHEMA_VERSION}, \"workload\": \"{}\", \"trace\": {trace}, \"git_revision\": \"{}\", \"nproc\": {}, \"threads\": {}, \"seed\": {}, \"seconds\": {}, \"sizes\": {{{}}}, \"attempted\": {}, \"failed\": {}, \"metrics\": {}}}",
        ctx.workload,
        sys::git_revision(),
        sys::nproc(),
        ctx.threads,
        ctx.seed,
        num(ctx.seconds),
        sizes.join(", "),
        outcomes.attempted,
        outcomes.failed,
        metrics_json(metrics)
    )
}

/// The contract line: `correct`, `attempted`, `failed` and the named
/// metrics as `{"value", "unit"}`.
fn last_line(outcomes: Outcomes, metrics: &[Metric]) -> String {
    let body: Vec<String> = metrics
        .iter()
        .map(|m| {
            format!(
                "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                m.name,
                num(m.value),
                m.unit
            )
        })
        .collect();
    format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        outcomes.failed == 0,
        outcomes.attempted,
        outcomes.failed,
        body.join(", ")
    )
}

/// The report and result lines of an untraced run: the end-to-end
/// metrics every workload reports, then in the report the workload's own
/// (throughputs, session latencies) and `error_rate`.
fn end_to_end_lines(ctx: &Ctx, m: Measured) -> Result<(String, String), String> {
    let med = |v: &[f64], what: &str| median(v).ok_or(format!("no {what} measured"));
    let end_to_end = vec![
        Metric {
            name: "setup_s",
            value: med(&m.setup_s, "set-up")?,
            unit: "s",
            samples: m.setup_s.len(),
        },
        Metric {
            name: "op_p50_ms",
            value: med(&m.op_s, "operation")? * 1e3,
            unit: "ms",
            samples: m.op_s.len(),
        },
        Metric {
            name: "peak_rss_mb",
            value: mean(&m.rss_mb).ok_or("no resident set measured")?,
            unit: "MB",
            samples: m.rss_mb.len(),
        },
    ];
    let mut all = end_to_end.clone();
    all.push(Metric {
        name: "peak_rss_p50_mb",
        value: med(&m.rss_mb, "resident set")?,
        unit: "MB",
        samples: m.rss_mb.len(),
    });
    if let Some((q1, q3)) = quartiles(&m.op_s) {
        all.extend(
            [("op_q1_ms", q1), ("op_q3_ms", q3)].map(|(name, q)| Metric {
                name,
                value: q * 1e3,
                unit: "ms",
                samples: m.op_s.len(),
            }),
        );
    }
    all.extend(m.named);
    all.push(Metric {
        name: "error_rate",
        value: m.outcomes.error_rate(),
        unit: "fraction",
        samples: m.outcomes.attempted as usize,
    });
    Ok((
        report_json(ctx, false, &m.sizes, m.outcomes, &all),
        last_line(m.outcomes, &end_to_end),
    ))
}

/// The report and result lines of a traced run: every per-layer metric,
/// 0 for layers the workload does not reach.
fn per_layer_lines(ctx: &Ctx, t: Traced) -> Result<(String, String), String> {
    let mut values = t.layers;
    values.extend([
        ("process.cpu_per_wall", t.run.cpu_per_wall),
        ("trace.coverage", t.run.coverage),
        ("trace.overhead_pct", t.run.overhead_pct),
    ]);
    for (name, _) in &values {
        if !PER_LAYER.iter().any(|(n, _)| n == name) {
            return Err(format!(
                "layer metric `{name}` is not in the per-layer list"
            ));
        }
    }
    let metrics: Vec<Metric> = PER_LAYER
        .iter()
        .map(|&(name, unit)| Metric {
            name,
            value: values
                .iter()
                .find(|(n, _)| *n == name)
                .map_or(0.0, |(_, v)| *v),
            unit,
            samples: t.run.traced,
        })
        .collect();
    Ok((
        report_json(ctx, true, &t.sizes, t.run.outcomes, &metrics),
        last_line(t.run.outcomes, &metrics),
    ))
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The per-layer list here and in BENCHMARK.json must agree, names
    /// and units, so every traced run prints exactly what it declares.
    #[test]
    fn per_layer_list_matches_benchmark_json() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("BENCHMARK.json readable");
        let section = text
            .split("\"per_layer\"")
            .nth(1)
            .expect("per_layer section");
        let declared: Vec<(String, String)> = section
            .split("{\"name\": \"")
            .skip(1)
            .map(|entry| {
                let name = entry.split('"').next().unwrap().to_owned();
                let unit = entry
                    .split("\"unit\": \"")
                    .nth(1)
                    .and_then(|u| u.split('"').next())
                    .unwrap()
                    .to_owned();
                (name, unit)
            })
            .collect();
        let ours: Vec<(String, String)> = PER_LAYER
            .iter()
            .map(|(n, u)| (n.to_string(), u.to_string()))
            .collect();
        assert_eq!(declared, ours);
    }

    #[test]
    fn args_parse_and_reject() {
        let parse = |s: &str| parse_args(s.split_whitespace().map(str::to_owned));
        let a = parse("--workload serve --seed 7 --seconds 3 --trace 1").unwrap();
        assert_eq!(
            (a.workload.name, a.seed, a.seconds, a.trace),
            ("serve", 7, 3.0, true)
        );
        let c = parse("--workload scale --child out --input in.csv").unwrap();
        assert_eq!(c.child_extra, vec!["--input", "in.csv"]);
        assert!(parse("--workload nope").is_err());
        assert!(parse("--seed 1").is_err());
        assert!(parse("--workload check --trace 2").is_err());
    }

    #[test]
    fn last_line_has_exactly_the_contract_keys() {
        let outcomes = Outcomes {
            attempted: 4,
            failed: 1,
        };
        let metrics = [Metric {
            name: "setup_s",
            value: 0.5,
            unit: "s",
            samples: 3,
        }];
        assert_eq!(
            last_line(outcomes, &metrics),
            "{\"correct\": false, \"attempted\": 4, \"failed\": 1, \"metrics\": {\"setup_s\": {\"value\": 0.5, \"unit\": \"s\"}}}"
        );
    }
}
