//! `check`: `model_check` over `small_world_session(3)` with fault budget
//! 2 and the other bounds at their defaults (65,878 schedules).
//!
//! The protocol engine and the in-memory transport run here without
//! socket waits, so engine cost shows here and not in `serve`. The input
//! is fixed; the seed does not change it.

use crate::run::{self, Ctx, Measured, Metric, SampleInput, Traced};
use crate::stats::median;
use crate::sys::{self, ChildSample};
use mp_federated::{model_check, small_world_session, CheckConfig, CheckReport};
use std::path::Path;
use std::time::Instant;

const PARTIES: usize = 3;
const FAULT_BUDGET: usize = 2;

fn config() -> CheckConfig {
    CheckConfig {
        fault_budget: FAULT_BUDGET,
        ..CheckConfig::default()
    }
}

/// What a sample writes; a correct one finds no violations.
fn artifact(report: &CheckReport) -> String {
    format!("violations {}", report.violations.len())
}

fn sizes() -> Vec<(&'static str, u64)> {
    vec![
        ("parties", PARTIES as u64),
        ("fault_budget", FAULT_BUDGET as u64),
    ]
}

/// Untraced run: every timed sample is one exhaustive check in its own
/// process, which must find zero violations.
pub fn measure(ctx: &Ctx) -> Result<Measured, String> {
    let (setup_s, _) = run::timed_setups(1, |_| small_world_session(PARTIES))?;
    let input = SampleInput {
        seed: ctx.seed,
        args: Vec::new(),
        expected: b"violations 0".to_vec(),
    };
    let run = run::child_samples(ctx, ctx.seconds, &[input])?;
    let op_s = run.op_s();
    let named = Metric {
        name: "verify_s",
        value: median(&op_s).unwrap_or(0.0),
        unit: "s",
        samples: op_s.len(),
    };
    Ok(run.into_measured(setup_s, sizes(), vec![named]))
}

/// One timed sample: one exhaustive check.
pub fn child(_ctx: &Ctx, artifact_path: &Path, _extra: &[String]) -> Result<ChildSample, String> {
    let (session, policies) = small_world_session(PARTIES)?;
    let t = Instant::now();
    let report = model_check(&session, &policies, &config())?;
    let op_s = sys::secs(t);
    std::fs::write(artifact_path, artifact(&report)).map_err(|e| e.to_string())?;
    Ok(ChildSample {
        op_s,
        rss_mb: sys::peak_rss_mb(),
    })
}

/// Traced run: one fault-free setup of the small world, then the check.
pub fn trace(ctx: &Ctx) -> Result<Traced, String> {
    let (session, policies) = small_world_session(PARTIES)?;
    let mut last: Option<CheckReport> = None;
    let run = run::alternate(ctx, |tracer| {
        let setup = tracer.span("protocol.run_setup", || session.run_setup(&policies));
        let report = tracer.span("check.model_check", || {
            model_check(&session, &policies, &config())
        })?;
        let ok = setup.is_ok() && report.violations.is_empty();
        last = Some(report);
        Ok((ok, Vec::new()))
    })?;
    let report = last.ok_or("check: no traced pass ran")?;
    let check_s = run.secs("check.model_check");
    let layers = vec![
        ("check.total_states", report.total_states as f64),
        ("check.distinct_states", report.distinct_states as f64),
        ("check.runs", report.runs as f64),
        ("check.pruned_subtrees", report.pruned_subtrees as f64),
        (
            "check.us_per_state",
            check_s * 1e6 / report.total_states.max(1) as f64,
        ),
        (
            "protocol.run_setup_us",
            run.secs("protocol.run_setup") * 1e6,
        ),
    ];
    Ok(Traced {
        layers,
        run,
        sizes: sizes(),
    })
}
