//! Exhaustive small-world model check of the VFL setup protocol:
//! enumerates *every* fault interleaving (drop / duplicate / delay /
//! crash schedules) the bounded world admits via
//! [`mp_federated::model_check`], then writes `BENCH_check.json` at the
//! repo root. Every field except the `timing` block is deterministic,
//! and CI fails unless each of them equals the committed file and
//! `"violations"` is 0. Exits non-zero on any violation, or if the
//! outcome counters do not add up to the schedules run.
//!
//! Usage: `model_check [parties] [fault_budget]` (defaults 3 and 2).

use mp_federated::{model_check, small_world_session, CheckConfig};
use std::time::Instant;

fn main() {
    let parties: usize = std::env::args()
        .nth(1)
        .and_then(|a| a.parse().ok())
        .unwrap_or(3);
    let fault_budget: usize = std::env::args()
        .nth(2)
        .and_then(|a| a.parse().ok())
        .unwrap_or(2);
    let cfg = CheckConfig {
        fault_budget,
        ..CheckConfig::default()
    };
    let (session, policies) = small_world_session(parties).expect("session bounds");

    let start = Instant::now();
    let report = model_check(&session, &policies, &cfg).expect("model check setup");
    let elapsed = start.elapsed().as_secs_f64();
    let states_per_sec = report.total_states as f64 / elapsed.max(1e-9);

    println!(
        "{} parties, budget {}: {} schedules, {} states ({} distinct), {} violations",
        report.parties,
        cfg.fault_budget,
        report.runs,
        report.total_states,
        report.distinct_states,
        report.violations.len()
    );
    println!(
        "{:.2} s, {:.0} states/s, {:.0} schedules/s",
        elapsed,
        states_per_sec,
        report.runs as f64 / elapsed.max(1e-9)
    );
    for v in &report.violations {
        eprintln!("VIOLATION [{}]: {}", v.schedule, v.violation);
    }

    let json = format!(
        "{{\n  \"bench\": \"check\",\n  \"config\": {{ \"parties\": {}, \"max_ticks\": {}, \
         \"fault_budget\": {}, \"max_delay\": {}, \"crash_points\": {} }},\n  \
         \"runs\": {},\n  \"completed\": {},\n  \"aborted_crashed\": {},\n  \
         \"aborted_retries\": {},\n  \"aborted_stalled\": {},\n  \"crash_schedules\": {},\n  \
         \"faults_injected\": {{ \"drops\": {}, \"duplicates\": {}, \"delays\": {} }},\n  \
         \"max_depth\": {},\n  \"total_states\": {},\n  \"distinct_states\": {},\n  \
         \"distinct_outcomes\": {},\n  \"pruned_subtrees\": {},\n  \
         \"timing\": {{ \"elapsed_s\": {elapsed:.3}, \"states_per_sec\": {states_per_sec:.0} }},\n  \
         \"violations\": {}\n}}\n",
        report.parties,
        cfg.max_ticks,
        cfg.fault_budget,
        cfg.max_delay,
        cfg.crash_points,
        report.runs,
        report.completed,
        report.aborted_crashed,
        report.aborted_retries,
        report.aborted_stalled,
        report.crash_schedules,
        report.faults_injected[0],
        report.faults_injected[1],
        report.faults_injected[2],
        report.max_depth,
        report.total_states,
        report.distinct_states,
        report.distinct_outcomes,
        report.pruned_subtrees,
        report.violations.len()
    );
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_check.json");
    std::fs::write(path, &json).expect("write BENCH_check.json");
    println!("wrote {path}");

    let outcomes =
        report.completed + report.aborted_crashed + report.aborted_retries + report.aborted_stalled;
    if outcomes != report.runs {
        eprintln!(
            "outcome counters add up to {outcomes}, not the {} schedules run",
            report.runs
        );
        std::process::exit(1);
    }
    if !report.violations.is_empty() {
        eprintln!("{} invariant violation(s)", report.violations.len());
        std::process::exit(1);
    }
}
