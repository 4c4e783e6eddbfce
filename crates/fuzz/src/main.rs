//! `mp-fuzz` — the offline fuzz runner.
//!
//! ```text
//! mp-fuzz [--target csv|exchange|envelope|frame|all] [--seed N] [--iters N]
//!         [--emit-seeds]
//! ```
//!
//! Replays the on-disk corpus (`fuzz/corpus/<target>/` plus
//! `fuzz/corpus/regressions/<target>/`), then runs `--iters` seeded
//! mutations per target. Any contract violation (panic, round-trip
//! divergence) is written to `fuzz/corpus/regressions/<target>/` under a
//! content-hash name — commit the file and the regression replays in CI
//! forever — and the process exits non-zero. `--emit-seeds` refreshes the
//! built-in seed files under `fuzz/corpus/<target>/` and exits.

use mp_fuzz::{
    corpus_root, fuzz_target, load_corpus_dir, registry, Finding, FindingKind, FuzzConfig,
};
use std::collections::hash_map::DefaultHasher;
use std::hash::{Hash, Hasher};
use std::process::ExitCode;

fn main() -> ExitCode {
    match run(&std::env::args().skip(1).collect::<Vec<_>>()) {
        Ok(clean) => {
            if clean {
                ExitCode::SUCCESS
            } else {
                ExitCode::FAILURE
            }
        }
        Err(msg) => {
            eprintln!("mp-fuzz: {msg}");
            ExitCode::FAILURE
        }
    }
}

fn run(argv: &[String]) -> Result<bool, String> {
    let mut target_filter = "all".to_owned();
    let mut seed: u64 = 0x5EED;
    let mut iters: u64 = 2_000;
    let mut emit_seeds = false;
    let mut replay: Option<String> = None;
    let mut args = argv.iter();
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--target" => target_filter = take(&mut args, "--target")?,
            "--seed" => seed = parse(&take(&mut args, "--seed")?)?,
            "--iters" => iters = parse(&take(&mut args, "--iters")?)?,
            "--emit-seeds" => emit_seeds = true,
            "--replay" => replay = Some(take(&mut args, "--replay")?),
            "--help" | "-h" => {
                println!(
                    "usage: mp-fuzz [--target csv|exchange|envelope|frame|all] [--seed N] [--iters N] [--emit-seeds]"
                );
                return Ok(true);
            }
            other => return Err(format!("unknown argument `{other}`")),
        }
    }

    let targets: Vec<_> = registry()
        .into_iter()
        .filter(|t| target_filter == "all" || t.name() == target_filter)
        .collect();
    if targets.is_empty() {
        return Err(format!(
            "unknown target `{target_filter}` (expected csv, exchange, envelope, frame or all)"
        ));
    }

    if let Some(path) = replay {
        if target_filter == "all" {
            return Err("--replay needs an explicit --target".to_owned());
        }
        let target = targets.first().ok_or("no target")?;
        let input = std::fs::read(&path).map_err(|e| format!("{path}: {e}"))?;
        println!(
            "replaying {} bytes against `{}`",
            input.len(),
            target.name()
        );
        std::panic::set_hook(Box::new(|_| {}));
        let verdict = mp_fuzz::check_input(target.as_ref(), &input);
        let _ = std::panic::take_hook();
        match verdict {
            Ok(outcome) => {
                println!("contract holds: {outcome:?}");
                return Ok(true);
            }
            Err(finding) => {
                println!("finding: {finding:?}");
                return Ok(false);
            }
        }
    }

    if emit_seeds {
        for target in &targets {
            let dir = corpus_root().join(target.name());
            std::fs::create_dir_all(&dir).map_err(|e| e.to_string())?;
            for (i, bytes) in target.seeds().iter().enumerate() {
                let path = dir.join(format!("seed-{i:02}.bin"));
                std::fs::write(&path, bytes).map_err(|e| e.to_string())?;
                println!("wrote {}", path.display());
            }
        }
        return Ok(true);
    }

    // A panicking decoder is a *finding*, not console noise: silence the
    // default hook while fuzzing so reports stay readable.
    std::panic::set_hook(Box::new(|_| {}));
    let mut clean = true;
    for target in &targets {
        let mut extra = Vec::new();
        for dir in [
            corpus_root().join(target.name()),
            corpus_root().join("regressions").join(target.name()),
        ] {
            for (_, bytes) in load_corpus_dir(&dir).map_err(|e| e.to_string())? {
                extra.push(bytes);
            }
        }
        let cfg = FuzzConfig {
            seed,
            iterations: iters,
            ..FuzzConfig::default()
        };
        let report = fuzz_target(target.as_ref(), &extra, &cfg);
        let _ = std::panic::take_hook();
        println!(
            "{:>9}: {} execs (seed {seed}), {} accepted, {} rejected, corpus {}, {} signatures, {} findings",
            report.target,
            report.executions,
            report.accepted,
            report.rejected,
            report.corpus_size,
            report.distinct_signatures,
            report.findings.len()
        );
        std::panic::set_hook(Box::new(|_| {}));
        for finding in &report.findings {
            clean = false;
            report_finding(finding)?;
        }
    }
    let _ = std::panic::take_hook();
    if !clean {
        eprintln!("contract violations found; inputs saved under fuzz/corpus/regressions/");
    }
    Ok(clean)
}

fn report_finding(finding: &Finding) -> Result<(), String> {
    let dir = corpus_root().join("regressions").join(finding.target);
    std::fs::create_dir_all(&dir).map_err(|e| e.to_string())?;
    let mut h = DefaultHasher::new();
    finding.input.hash(&mut h);
    let path = dir.join(format!("{:016x}.bin", h.finish()));
    std::fs::write(&path, &finding.input).map_err(|e| e.to_string())?;
    match &finding.kind {
        FindingKind::Panic { message } => {
            eprintln!(
                "[{}] PANIC `{message}` on {} bytes -> {}",
                finding.target,
                finding.input.len(),
                path.display()
            );
        }
        FindingKind::PathDivergence { detail } => {
            eprintln!(
                "[{}] PATH divergence on {} bytes -> {}\n{detail}",
                finding.target,
                finding.input.len(),
                path.display()
            );
        }
        FindingKind::RoundTripDivergence { first, second } => {
            eprintln!(
                "[{}] ROUND-TRIP divergence ({} -> {} vs {} bytes) -> {}",
                finding.target,
                finding.input.len(),
                first.len(),
                second.len(),
                path.display()
            );
        }
    }
    Ok(())
}

fn take(args: &mut std::slice::Iter<'_, String>, flag: &str) -> Result<String, String> {
    args.next()
        .cloned()
        .ok_or_else(|| format!("{flag} needs a value"))
}

fn parse(value: &str) -> Result<u64, String> {
    value
        .parse()
        .map_err(|_| format!("`{value}` is not a number"))
}
