//! The `mpriv` subcommand implementations, as library functions returning
//! report strings so they are directly testable.

use mp_core::{
    identifiability_rate, k_anonymity, run_attack, uniqueness_profile, ExperimentConfig, TextTable,
};
use mp_discovery::{
    DependencyProfile, DiscoveryContext, MemoryBudget, ParallelConfig, ProfileConfig,
};
use mp_federated::{
    check_invariants, model_check, outcome_matches, run_client_session, simulate_setup,
    small_world_session, CheckConfig, ClientConfig, FaultPlan, MultiPartySession, Party,
    RetryConfig, ServeConfig, Server,
};
use mp_metadata::{MetadataPackage, SharePolicy};
use mp_observe::{NoopRecorder, Recorder};
use mp_relation::Relation;
use std::sync::Arc;

/// Resolves a policy name (`names`, `domains`, `full`, `recommended`).
pub fn policy_by_name(name: &str) -> Result<SharePolicy, String> {
    match name {
        "names" => Ok(SharePolicy::NAMES_ONLY),
        "domains" => Ok(SharePolicy::NAMES_AND_DOMAINS),
        "full" => Ok(SharePolicy::FULL),
        "recommended" => Ok(SharePolicy::PAPER_RECOMMENDED),
        other => Err(format!(
            "unknown policy `{other}` (expected names|domains|full|recommended)"
        )),
    }
}

/// `mpriv profile <csv> [--budget-mb N]` — dependency discovery report,
/// including the shared PLI-cache statistics of the discovery engine. A
/// limited [`MemoryBudget`] bounds the partition cache by estimated
/// retained heap bytes (partitions spill and rebuild on demand).
///
/// Discovery metrics go to `recorder` ([`NoopRecorder`] for none).
/// Callers that collect metrics should pass
/// [`ParallelConfig::sequential`]: the shared PLI cache is consulted in
/// nondeterministic order under a thread pool, so hit/miss counts are
/// only byte-reproducible sequentially.
pub fn profile(
    relation: &Relation,
    parallel: ParallelConfig,
    budget: MemoryBudget,
    recorder: Arc<dyn Recorder>,
) -> Result<String, String> {
    let ctx = DiscoveryContext::instrumented_with_budget(relation, parallel, budget, recorder);
    let profile = DependencyProfile::discover_with(&ctx, &ProfileConfig::paper())
        .map_err(|e| e.to_string())?;
    let stats = ctx.cache_stats();
    let mut out = format!(
        "{} rows × {} attributes\n{} FDs, {} AFDs, {} ODs, {} NDs, {} DDs, {} OFDs\nPLI cache: {} ({} threads)\n\n",
        relation.n_rows(),
        relation.arity(),
        profile.fds.len(),
        profile.afds.len(),
        profile.ods.len(),
        profile.nds.len(),
        profile.dds.len(),
        profile.ofds.len(),
        stats,
        ctx.threads(),
    );
    let names: Vec<String> = relation
        .schema()
        .attributes()
        .iter()
        .map(|a| a.name.clone())
        .collect();
    out.push_str("columns:\n");
    for (i, name) in names.iter().enumerate() {
        let col = relation.column(i).map_err(|e| e.to_string())?;
        out.push_str(&format!(
            "  {name}: {} ({} distinct, {} null)\n",
            col.repr_name(),
            col.distinct_count(),
            col.null_count()
        ));
    }
    out.push('\n');
    for dep in profile.to_dependencies() {
        out.push_str(&format!(
            "  {dep}    [{} -> {}]\n",
            dep.lhs().display_with(&names),
            names.get(dep.rhs()).cloned().unwrap_or_default()
        ));
    }
    Ok(out)
}

/// `mpriv audit <csv> --policy P --rounds N --epsilon E` — measures the
/// synthesis attack the chosen policy would enable.
pub fn audit(
    relation: &Relation,
    policy: SharePolicy,
    rounds: usize,
    epsilon: f64,
) -> Result<String, String> {
    let profile = DependencyProfile::discover(relation, &ProfileConfig::paper())
        .map_err(|e| e.to_string())?;
    let package = MetadataPackage::describe("me", relation, profile.to_dependencies())
        .map_err(|e| e.to_string())?;
    let shared = policy.apply(&package);
    let config = ExperimentConfig {
        rounds,
        base_seed: 0xC11,
        epsilon,
    };
    let result = run_attack(relation, &shared, true, &config).map_err(|e| e.to_string())?;

    let mut t = TextTable::new(vec![
        "attribute".into(),
        "mean matches".into(),
        "of N".into(),
        "MSE".into(),
    ]);
    for s in &result.per_attr {
        t.push_row(vec![
            s.name.clone(),
            format!("{:.2}", s.mean_matches),
            format!(
                "{:.1}%",
                100.0 * s.mean_matches / relation.n_rows().max(1) as f64
            ),
            s.mean_mse.map_or("—".into(), |m| format!("{m:.3}")),
        ]);
    }
    Ok(format!(
        "Attack simulation: {} rounds, ε = {epsilon}, policy shares domains: {}\n{}",
        rounds,
        shared.shares_domains(),
        t.render()
    ))
}

/// Resolves a matrix dataset name. The registry is fixed: the three
/// tables the leakage matrix ships with (ISSUE 9) — the paper's
/// echocardiogram reconstruction with its verified dependency inventory,
/// the Figure 1 bank table scaled to 500 customers, and the UCI-style
/// car-evaluation cross product.
pub fn matrix_dataset(name: &str) -> Result<mp_core::MatrixDataset, String> {
    match name {
        "echocardiogram" => Ok(mp_core::MatrixDataset {
            name: name.to_owned(),
            relation: mp_datasets::echocardiogram(),
            dependencies: mp_datasets::verified_dependencies(),
        }),
        "bank" => {
            let party = mp_datasets::bank_table(500);
            Ok(mp_core::MatrixDataset {
                name: name.to_owned(),
                relation: party.relation,
                dependencies: party.dependencies,
            })
        }
        "car" => {
            let (relation, dependencies) = mp_datasets::car_table();
            Ok(mp_core::MatrixDataset {
                name: name.to_owned(),
                relation,
                dependencies,
            })
        }
        other => Err(format!(
            "unknown dataset `{other}` (expected echocardiogram|bank|car)"
        )),
    }
}

/// `mpriv audit --matrix [--datasets a,b] [--adversaries m,n] [--rounds N]
/// [--epsilon E] [--threads T]` — the full leakage matrix: metadata class
/// × share policy × adversary model over the named datasets. Returns the
/// evaluated matrix plus its rendered markdown; the binary decides where
/// the JSON and markdown go. Byte-reproducible for any thread count.
pub fn audit_matrix(
    datasets: &str,
    adversaries: &str,
    rounds: usize,
    epsilon: f64,
    threads: usize,
    recorder: &dyn Recorder,
) -> Result<(mp_core::LeakageMatrix, String), String> {
    let datasets = datasets
        .split(',')
        .map(|name| matrix_dataset(name.trim()))
        .collect::<Result<Vec<_>, _>>()?;
    if datasets.is_empty() {
        return Err("--datasets must name at least one dataset".to_owned());
    }
    let adversaries = adversaries
        .split(',')
        .map(|label| mp_synth::AdversaryModel::parse(label.trim()))
        .collect::<Result<Vec<_>, _>>()?;
    if adversaries.is_empty() {
        return Err("--adversaries must name at least one model".to_owned());
    }
    let config = mp_core::MatrixConfig {
        rounds,
        epsilon,
        threads,
        adversaries,
    };
    let matrix =
        mp_core::LeakageMatrix::run(&datasets, &config, recorder).map_err(|e| e.to_string())?;
    let markdown = matrix.render_markdown();
    Ok((matrix, markdown))
}

/// `mpriv identifiability <csv> --max-size K --qi a,b,c`.
pub fn identifiability(
    relation: &Relation,
    max_size: usize,
    qi: &[usize],
) -> Result<String, String> {
    let mut out = String::new();
    for size in 1..=max_size.max(1) {
        let rate = identifiability_rate(relation, size).map_err(|e| e.to_string())?;
        out.push_str(&format!(
            "subsets of size ≤ {size}: {:.1}% of tuples identifiable\n",
            rate * 100.0
        ));
    }
    let unique = uniqueness_profile(relation).map_err(|e| e.to_string())?;
    out.push_str(&format!("tuples unique per single attribute: {unique:?}\n"));
    if !qi.is_empty() {
        let k = k_anonymity(relation, qi).map_err(|e| e.to_string())?;
        out.push_str(&format!("k-anonymity over QI {qi:?}: k = {k}\n"));
    }
    Ok(out)
}

/// `mpriv anonymize <csv> --qi a,b --k K` — generalises continuous QIs
/// until k-anonymous; returns (report, transformed relation).
pub fn anonymize(
    relation: &Relation,
    qi: &[usize],
    k: usize,
) -> Result<(String, Relation), String> {
    if qi.is_empty() {
        return Err("--qi must list at least one attribute index".into());
    }
    let before = k_anonymity(relation, qi).map_err(|e| e.to_string())?;
    let (anon, widths) =
        mp_core::generalize_to_k(relation, qi, k, 1.0, 16).map_err(|e| e.to_string())?;
    let after = k_anonymity(&anon, qi).map_err(|e| e.to_string())?;
    let report = format!(
        "k-anonymity over {qi:?}: {before} → {after} (target {k})\nbucket widths: {widths:?}\n"
    );
    Ok((report, anon))
}

/// `mpriv compare <csv>` — the policy matrix: leakage per attribute under
/// every preset policy, side by side.
pub fn compare_policies(
    relation: &Relation,
    rounds: usize,
    epsilon: f64,
) -> Result<String, String> {
    let profile = DependencyProfile::discover(relation, &ProfileConfig::paper())
        .map_err(|e| e.to_string())?;
    let package = MetadataPackage::describe("me", relation, profile.to_dependencies())
        .map_err(|e| e.to_string())?;
    let config = ExperimentConfig {
        rounds,
        base_seed: 0xC12,
        epsilon,
    };

    let presets = [
        ("names", SharePolicy::NAMES_ONLY),
        ("domains", SharePolicy::NAMES_AND_DOMAINS),
        ("full", SharePolicy::FULL),
        ("recommended", SharePolicy::PAPER_RECOMMENDED),
    ];
    let mut results = Vec::new();
    for (_, policy) in &presets {
        let shared = policy.apply(&package);
        results.push(run_attack(relation, &shared, true, &config).map_err(|e| e.to_string())?);
    }
    let mut header = vec!["attribute".to_owned()];
    header.extend(presets.iter().map(|(n, _)| n.to_string()));
    let mut t = TextTable::new(header);
    for attr in 0..relation.arity() {
        let mut row = vec![relation
            .schema()
            .attribute(attr)
            .map_err(|e| e.to_string())?
            .name
            .clone()];
        for r in &results {
            row.push(format!("{:.2}", r.attr(attr).unwrap().mean_matches));
        }
        t.push_row(row);
    }
    Ok(format!(
        "Mean index-aligned matches per policy ({} rounds, ε = {epsilon}):\n{}",
        rounds,
        t.render()
    ))
}

/// `mpriv simulate --seed N --faults drop,dup,reorder,crash` — replays
/// the VFL setup protocol of the paper's Figure 1 scenario under a
/// seeded fault schedule and reports the message trace plus the
/// invariant verdict. The scenario data is built from a *fixed* internal
/// seed, so the output depends only on `--seed` and `--faults`; aborted
/// setups surface as an `Err` (non-zero exit).
///
/// The primary simulation run records wire and protocol metrics on
/// `recorder` ([`NoopRecorder`] for none); the invariant re-runs stay
/// unobserved so counters describe exactly one run.
pub fn simulate(
    seed: u64,
    faults: &str,
    rows: usize,
    recorder: &dyn Recorder,
) -> Result<String, String> {
    // Fixed data seed: `--seed` drives the fault schedule, never the data.
    let data = mp_datasets::fintech_scenario(rows, 42);
    let bank = Party::new("bank", data.bank.relation, 0, data.bank.dependencies)
        .map_err(|e| e.to_string())?;
    let ecom = Party::new(
        "ecommerce",
        data.ecommerce.relation,
        0,
        data.ecommerce.dependencies,
    )
    .map_err(|e| e.to_string())?;
    let session = MultiPartySession::new(vec![bank, ecom], 0xF1A7);
    let policies = vec![SharePolicy::PAPER_RECOMMENDED, SharePolicy::FULL];

    let plan = FaultPlan::from_names(faults, seed, session.parties.len())?;
    let retry = RetryConfig::default();
    let sim = simulate_setup(&session, &policies, &plan, &retry, recorder);

    let mut out = format!("fault simulation: seed {seed}, faults [{faults}], {rows} rows/party\n");
    out.push_str(&format!(
        "plan: drop {:.2}, duplicate {:.2}, max delay {}, scheduled crashes {}\n",
        plan.drop_rate,
        plan.duplicate_rate,
        plan.max_delay,
        plan.crashes.len()
    ));
    out.push_str(&format!("trace: {}\n", sim.summary));

    if let Err(violation) = check_invariants(&session, &policies, &plan, &retry) {
        return Err(format!("invariant violated: {violation}\n{out}"));
    }
    out.push_str("invariants: hold (bit-identical outcome, redaction audit, typed aborts)\n");

    match sim.result {
        Ok(outcome) => {
            out.push_str(&format!(
                "outcome: completed in {} ticks, {} aligned entities\n",
                sim.ticks,
                outcome.alignment.len()
            ));
            Ok(out)
        }
        Err(e) => Err(format!(
            "setup aborted after {} ticks: {e}\n{out}",
            sim.ticks
        )),
    }
}

/// The bank × e-commerce party pair every serve session runs, built from
/// a fixed data seed (same data as `mpriv simulate`).
fn serve_parties(rows: usize) -> Result<Vec<Party>, String> {
    let data = mp_datasets::fintech_scenario(rows, 42);
    Ok(vec![
        Party::new("bank", data.bank.relation, 0, data.bank.dependencies)
            .map_err(|e| e.to_string())?,
        Party::new(
            "ecommerce",
            data.ecommerce.relation,
            0,
            data.ecommerce.dependencies,
        )
        .map_err(|e| e.to_string())?,
    ])
}

/// `mpriv serve [--sessions N] [--rows N] [--metrics-json out.json]` —
/// self-drive mode: start the session-multiplexing relay daemon on an
/// ephemeral local port, run N concurrent two-party VFL setup sessions
/// against it over real TCP sockets, and verify every completed outcome
/// bit-identical to the same seeds through the in-process
/// fault-free [`mp_federated::Network`] oracle. Non-zero exit on any abort
/// or oracle divergence. The report prints only schedule-independent
/// facts, so it is byte-stable across runs.
pub fn serve_drive(
    sessions: usize,
    rows: usize,
    recorder: Arc<dyn Recorder>,
) -> Result<String, String> {
    if sessions == 0 {
        return Err("--sessions must be at least 1".to_owned());
    }
    let parties = serve_parties(rows)?;
    let policies = [SharePolicy::PAPER_RECOMMENDED, SharePolicy::FULL];
    let salt = 0xF1A7;
    let reference = MultiPartySession::new(parties.clone(), salt)
        .run_setup(&policies)
        .map_err(|e| format!("in-process reference setup failed: {e}"))?;

    let retry = RetryConfig::default();
    let server = Server::start("127.0.0.1:0", ServeConfig::from_retry(&retry), recorder)
        .map_err(|e| format!("cannot bind serve socket: {e}"))?;
    let addr = server.addr().to_owned();

    let handles: Vec<_> = (0..sessions)
        .flat_map(|s| {
            parties.iter().zip(policies).enumerate().map({
                let addr = addr.clone();
                move |(p, (party, policy))| {
                    let addr = addr.clone();
                    let party = party.clone();
                    let cfg = ClientConfig::new(s as u64 + 1, p, 2, RetryConfig::default());
                    std::thread::spawn(move || {
                        run_client_session(&addr, &cfg, &party, &policy, salt, &NoopRecorder)
                            .map(|outcome| (p, outcome))
                    })
                }
            })
        })
        .collect();

    let mut completed = 0usize;
    let mut divergent = 0usize;
    let mut aborts: Vec<String> = Vec::new();
    for handle in handles {
        match handle.join() {
            Ok(Ok((p, outcome))) => {
                completed += 1;
                if !outcome_matches(&outcome, p, &reference) {
                    divergent += 1;
                }
            }
            Ok(Err(e)) => aborts.push(e.to_string()),
            Err(_) => aborts.push("client thread panicked".to_owned()),
        }
    }
    let report = server.shutdown();

    let mut out = format!("serve: TCP relay, {sessions} sessions × 2 parties, {rows} rows/party\n");
    out.push_str(&format!(
        "sessions: {} completed, {} aborted\n",
        report.sessions_completed, report.sessions_aborted
    ));
    let cap = ServeConfig::from_retry(&retry).queue_cap as u64;
    out.push_str(&format!(
        "backpressure: max queue depth within cap {cap}: {}\n",
        report.max_queue_depth <= cap
    ));
    if !aborts.is_empty() {
        return Err(format!(
            "{} client sessions aborted: {}\n{out}",
            aborts.len(),
            aborts[0]
        ));
    }
    if divergent > 0 {
        return Err(format!(
            "{divergent} outcomes diverged from the in-process oracle\n{out}"
        ));
    }
    out.push_str(&format!(
        "oracle: all {completed} outcomes bit-identical to the in-process reference\n"
    ));
    Ok(out)
}

/// Binds the relay daemon for `mpriv serve --listen <addr>`. The caller
/// (the binary) owns the returned [`Server`]: it prints the bound
/// address, decides when to stop, and renders the final report with
/// [`serve_report`].
pub fn serve_bind(addr: &str, recorder: Arc<dyn Recorder>) -> Result<Server, String> {
    let retry = RetryConfig::default();
    Server::start(addr, ServeConfig::from_retry(&retry), recorder)
        .map_err(|e| format!("cannot bind `{addr}`: {e}"))
}

/// Renders a daemon's lifetime [`mp_federated::ServeReport`].
pub fn serve_report(report: &mp_federated::ServeReport) -> String {
    format!(
        "sessions: {} started, {} completed, {} aborted\nframes: {} in, {} routed, {} spoof-rejected\nmax queue depth: {}\n",
        report.sessions_started,
        report.sessions_completed,
        report.sessions_aborted,
        report.frames_in,
        report.frames_routed,
        report.spoof_rejected,
        report.max_queue_depth
    )
}

/// `mpriv check --parties N --ticks K --budget B --delay D --crash-points C`
/// — exhaustively enumerates every fault interleaving of the VFL setup
/// protocol within the bounded small world and asserts the simulator's
/// invariants over all of them. Where `simulate` samples one seeded
/// schedule, `check` runs *every* schedule the bounds admit; any
/// violation surfaces as an `Err` (non-zero exit) with the replayable
/// schedule that produced it. The report is fully deterministic.
pub fn check(
    parties: usize,
    ticks: u64,
    budget: usize,
    delay: u64,
    crash_points: u64,
) -> Result<String, String> {
    let (session, policies) = small_world_session(parties)?;
    let cfg = CheckConfig {
        max_ticks: ticks,
        fault_budget: budget,
        max_delay: delay,
        crash_points,
    };
    let report = model_check(&session, &policies, &cfg)?;

    let mut out = format!(
        "exhaustive model check: {} parties, ticks ≤ {}, fault budget {}, delay ≤ {}, crash points {}\n",
        report.parties, cfg.max_ticks, cfg.fault_budget, cfg.max_delay, cfg.crash_points
    );
    out.push_str(&format!(
        "schedules executed: {} ({} crash schedules, decision depth ≤ {})\n",
        report.runs, report.crash_schedules, report.max_depth
    ));
    out.push_str(&format!(
        "outcomes: {} completed, {} crashed aborts, {} retry aborts, {} stalled aborts ({} distinct)\n",
        report.completed,
        report.aborted_crashed,
        report.aborted_retries,
        report.aborted_stalled,
        report.distinct_outcomes
    ));
    out.push_str(&format!(
        "faults injected: {} drops, {} duplicates, {} delays\n",
        report.faults_injected[0], report.faults_injected[1], report.faults_injected[2]
    ));
    out.push_str(&format!(
        "states: {} visited, {} distinct, {} subtrees pruned\n",
        report.total_states, report.distinct_states, report.pruned_subtrees
    ));
    out.push_str(&format!("violations: {}\n", report.violations.len()));
    if report.violations.is_empty() {
        out.push_str("invariants: hold over the entire bounded schedule space\n");
        Ok(out)
    } else {
        for v in &report.violations {
            out.push_str(&format!("  [{}] {}\n", v.schedule, v.violation));
        }
        Err(format!("invariant violated under enumeration:\n{out}"))
    }
}

/// The help text.
pub fn help() -> String {
    "mpriv — metadata-privacy auditor (reproduction of 'Will Sharing Metadata Leak Privacy?', ICDE 2024)

USAGE:
  mpriv profile <csv> [--budget-mb N] [--metrics-json out.json]
      Discover FDs/AFDs/ODs/NDs/DDs/OFDs in the file. --budget-mb caps
      the PLI cache at N MiB of estimated partition heap (0 = unlimited;
      partitions spill and rebuild on demand). With --metrics-json, also
      write a deterministic metrics snapshot (streaming-ingest chunks,
      PLI builds, cache traffic, per-pass spans) to the path.
  mpriv audit <csv> [--policy names|domains|full|recommended] [--rounds N] [--epsilon E]
      Simulate the metadata synthesis attack the policy would enable.
  mpriv audit --matrix [--datasets echocardiogram,bank,car] [--adversaries baseline,partial50,collude2,noisy10]
              [--rounds N] [--epsilon E] [--threads T] [--out matrix.json] [--md matrix.md] [--metrics-json out.json]
      Leakage-audit matrix over the built-in datasets: metadata class
      (domains-only, +FD, +OD, +ND, +DD, +OFD, +CFD) × share policy
      (names|domains|full|recommended|redact-odd) × adversary model
      (baseline, partialNN alignment, colludeK pooling, noisyNN domains).
      Prints markdown; --out writes schema-versioned sorted-key JSON,
      --md writes the markdown. Byte-reproducible across runs and
      thread counts.
  mpriv identifiability <csv> [--max-size K] [--qi i,j,k]
      GDPR-style identifiability (Definition 2.1) and optional k-anonymity.
  mpriv anonymize <csv> --qi i,j [--k K] [--out out.csv]
      Generalise continuous quasi-identifiers until k-anonymous.
  mpriv compare <csv> [--rounds N] [--epsilon E]
      Leakage matrix: every preset policy side by side.
  mpriv simulate [--seed N] [--faults drop,dup,reorder,crash] [--rows N] [--metrics-json out.json]
      Replay VFL setup under a seeded fault schedule; non-zero exit on
      abort. With --metrics-json, also write a deterministic metrics
      snapshot (wire counters, tick latencies, retransmits) to the path.
  mpriv serve [--sessions N] [--rows N] [--listen ADDR] [--metrics-json out.json]
      Session-multiplexing relay daemon for VFL setup over real sockets.
      Default drive mode: bind an ephemeral port, run N concurrent
      two-party sessions against it, and verify every outcome
      bit-identical to the in-process fault-free reference; non-zero
      exit on abort or divergence. With --listen (host:port or
      unix:<path>), serve external clients until stdin closes. With
      --metrics-json, write the serve.* counters/gauges to the path.
  mpriv check [--parties N] [--ticks K] [--budget B] [--delay D] [--crash-points C]
      Exhaustively enumerate every fault interleaving (drop/duplicate/
      delay/crash schedules, up to B non-default decisions) of the VFL
      setup protocol in a bounded small world of N ≤ 3 parties, and
      assert the simulator's invariants over the full space; non-zero
      exit with a replayable schedule on any violation.
  mpriv analyze [--root DIR] [--config analyze.toml] [--format human|json] [--list-rules]
                [--ratchet] [--baseline PATH] [--write-baseline]
      Run the workspace invariant linter (determinism, panic-safety,
      crate layering, I/O hygiene); non-zero exit on violations. The
      JSON report is byte-stable across runs, call chains included.
      --ratchet additionally compares per-crate debt counters against
      analyze-baseline.toml and fails if any counter rose; after burning
      debt down, --write-baseline locks the lower counts in.

CSV parsing: first row is the header; `?`, `NA` and empty fields are missing.
"
    .to_owned()
}

#[cfg(test)]
mod tests {
    use super::*;
    use mp_relation::{csv, Attribute, Schema, Value};

    fn sample() -> Relation {
        let schema = Schema::new(vec![
            Attribute::categorical("name"),
            Attribute::continuous("age"),
            Attribute::categorical("dept"),
        ])
        .unwrap();
        Relation::from_rows(
            schema,
            vec![
                vec!["alice".into(), 18.0.into(), "sales".into()],
                vec!["bob".into(), 22.0.into(), "cs".into()],
                vec!["carol".into(), 22.0.into(), "sales".into()],
                vec!["dan".into(), 26.0.into(), "mgmt".into()],
            ],
        )
        .unwrap()
    }

    #[test]
    fn policy_names_resolve() {
        assert_eq!(policy_by_name("full").unwrap(), SharePolicy::FULL);
        assert_eq!(
            policy_by_name("recommended").unwrap(),
            SharePolicy::PAPER_RECOMMENDED
        );
        assert!(policy_by_name("nope").is_err());
    }

    #[test]
    fn profile_reports_dependencies() {
        let out = profile(
            &sample(),
            ParallelConfig::default(),
            MemoryBudget::unlimited(),
            Arc::new(NoopRecorder),
        )
        .unwrap();
        assert!(out.contains("4 rows × 3 attributes"));
        assert!(out.contains("FD"));
        assert!(out.contains("name"));
        assert!(
            out.contains("PLI cache:"),
            "cache stats line missing: {out}"
        );
        assert!(out.contains("hit rate"), "hit rate missing: {out}");
        assert!(
            out.contains("columns:"),
            "columnar repr section missing: {out}"
        );
        assert!(out.contains("dict"), "dictionary repr missing: {out}");
    }

    #[test]
    fn profile_budget_caps_cache_without_changing_dependencies() {
        let unlimited = profile(
            &sample(),
            ParallelConfig::default(),
            MemoryBudget::unlimited(),
            Arc::new(NoopRecorder),
        )
        .unwrap();
        let budgeted = profile(
            &sample(),
            ParallelConfig::default(),
            MemoryBudget::from_bytes(1),
            Arc::new(NoopRecorder),
        )
        .unwrap();
        assert!(unlimited.contains("budget unlimited"), "{unlimited}");
        assert!(budgeted.contains("budget 1 B"), "{budgeted}");
        let deps = |report: &str| -> Vec<String> {
            report
                .lines()
                .filter(|l| l.contains("->"))
                .map(str::to_owned)
                .collect()
        };
        assert_eq!(
            deps(&budgeted),
            deps(&unlimited),
            "a starved budget may cost rebuilds, never dependencies"
        );
    }

    #[test]
    fn audit_reports_leakage() {
        let out = audit(&sample(), SharePolicy::NAMES_AND_DOMAINS, 30, 1.0).unwrap();
        assert!(out.contains("dept"));
        assert!(out.contains("%"));
        // The recommended policy zeroes everything.
        let safe = audit(&sample(), SharePolicy::PAPER_RECOMMENDED, 5, 1.0).unwrap();
        assert!(safe.contains("shares domains: false"));
    }

    #[test]
    fn identifiability_reports() {
        let out = identifiability(&sample(), 2, &[1]).unwrap();
        assert!(out.contains("size ≤ 1"));
        assert!(out.contains("k-anonymity"));
    }

    #[test]
    fn anonymize_transforms() {
        let (report, anon) = anonymize(&sample(), &[1], 2).unwrap();
        assert!(report.contains("→"));
        assert!(mp_core::k_anonymity(&anon, &[1]).unwrap() >= 2);
        assert!(anonymize(&sample(), &[], 2).is_err());
    }

    #[test]
    fn csv_roundtrip_through_commands() {
        let text = "a,b\nx,1\ny,2\nx,1\n";
        let rel = csv::read_str(text, &csv::CsvOptions::default()).unwrap();
        assert!(profile(
            &rel,
            ParallelConfig::default(),
            MemoryBudget::unlimited(),
            Arc::new(NoopRecorder)
        )
        .is_ok());
        assert!(identifiability(&rel, 2, &[]).is_ok());
        let _ = Value::Null; // silence unused import in some cfgs
    }

    #[test]
    fn help_mentions_every_subcommand() {
        let h = help();
        for cmd in [
            "profile",
            "audit",
            "identifiability",
            "anonymize",
            "compare",
            "simulate",
            "serve",
            "check",
            "analyze",
        ] {
            assert!(h.contains(cmd), "help missing {cmd}");
        }
    }

    #[test]
    fn check_is_deterministic_and_clean() {
        let a = check(2, 256, 1, 1, 1).unwrap();
        let b = check(2, 256, 1, 1, 1).unwrap();
        assert_eq!(a, b, "exhaustive check must be byte-reproducible");
        assert!(a.contains("violations: 0"), "{a}");
        assert!(check(5, 256, 1, 1, 1).is_err(), "party bound must hold");
    }

    #[test]
    fn check_counts_every_outcome() {
        // 12 ticks cannot fit a retransmission ladder: the stalled runs
        // are violations, and the outcomes line still accounts for them.
        let err = check(3, 12, 2, 2, 3).unwrap_err();
        assert!(err.contains("schedules executed: 16678 "), "{err}");
        assert!(
            err.contains(
                "outcomes: 3391 completed, 11303 crashed aborts, 0 retry aborts, \
                 1984 stalled aborts (16648 distinct)"
            ),
            "{err}"
        );
        assert!(err.contains("violations: 1984"), "{err}");
    }

    #[test]
    fn simulate_is_seed_deterministic() {
        let a = simulate(7, "drop,dup", 60, &NoopRecorder).unwrap();
        let b = simulate(7, "drop,dup", 60, &NoopRecorder).unwrap();
        assert_eq!(a, b, "same seed must reproduce the same report");
        assert!(a.contains("trace:"));
        assert!(a.contains("invariants: hold"));
        assert!(a.contains("completed"));
    }

    #[test]
    fn simulate_crash_aborts_with_error() {
        let err = simulate(3, "crash", 60, &NoopRecorder).unwrap_err();
        assert!(err.contains("aborted"), "expected abort report: {err}");
        assert!(err.contains("crashed"), "typed crash missing: {err}");
    }

    #[test]
    fn simulate_rejects_unknown_fault() {
        assert!(simulate(0, "gremlins", 60, &NoopRecorder).is_err());
    }

    #[test]
    fn matrix_dataset_registry() {
        for name in ["echocardiogram", "bank", "car"] {
            let ds = matrix_dataset(name).unwrap();
            assert_eq!(ds.name, name);
            assert!(ds.relation.n_rows() > 0);
            assert!(!ds.dependencies.is_empty());
        }
        assert!(matrix_dataset("nope").is_err());
    }

    #[test]
    fn audit_matrix_runs_and_rejects_bad_input() {
        let (matrix, md) = audit_matrix("car", "baseline", 3, 0.5, 1, &NoopRecorder).unwrap();
        // 1 dataset × 1 adversary × 7 classes × 5 policies.
        assert_eq!(matrix.cells.len(), 35);
        assert!(md.contains("## car — adversary: baseline"));
        assert!(matrix.to_json().contains("\"schema_version\": 1"));
        assert!(audit_matrix("nope", "baseline", 3, 0.5, 1, &NoopRecorder).is_err());
        assert!(audit_matrix("car", "mallory", 3, 0.5, 1, &NoopRecorder).is_err());
    }

    #[test]
    fn compare_policies_matrix() {
        let out = compare_policies(&sample(), 20, 0.5).unwrap();
        for policy in ["names", "domains", "full", "recommended"] {
            assert!(out.contains(policy), "missing column {policy}");
        }
        assert!(out.contains("dept"));
    }
}
