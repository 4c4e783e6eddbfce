//! CI overhead guard for the mp-observe instrumentation.
//!
//! The observability layer promises to be effectively free when nobody is
//! listening *and* cheap when a [`mp_observe::Registry`] is attached:
//! handles are resolved once per component and updates are single relaxed
//! atomic operations. This binary measures depth-2 FD discovery over the
//! all-classes synthetic relation (warm shared cache) with the default
//! no-op recorder and with a live registry, and exits non-zero if the
//! observed run is more than `OBSERVE_OVERHEAD_PCT` percent slower
//! (default 5).
//!
//! Medians over interleaved repetitions keep the guard stable on noisy
//! CI machines; raise the threshold via the environment if a runner is
//! pathological, e.g. `OBSERVE_OVERHEAD_PCT=10 observe_overhead`.
//!
//! Usage: `observe_overhead [rows] [reps]` (defaults: 10000, 7).

use mp_datasets::all_classes_spec;
use mp_discovery::{discover_fds_with, DiscoveryContext, MemoryBudget, ParallelConfig, TaneConfig};
use mp_observe::{Recorder, Registry};
use mp_relation::csv::{read_stream, read_stream_observed, write_str, CsvOptions};
use mp_relation::Relation;
use std::sync::Arc;
use std::time::Instant;

/// One warm discovery pass: a cold pass fills the shared PLI cache, then
/// the timed pass measures the steady state the 5% promise is about.
/// Sequential contexts on both sides — the guard measures recorder cost,
/// not scheduler jitter.
fn timed_pass(rel: &Relation, config: &TaneConfig, recorder: Option<Arc<dyn Recorder>>) -> u128 {
    let ctx = match recorder {
        None => DiscoveryContext::new(rel, ParallelConfig::sequential()),
        Some(r) => DiscoveryContext::instrumented_with_budget(
            rel,
            ParallelConfig::sequential(),
            MemoryBudget::unlimited(),
            r,
        ),
    };
    discover_fds_with(&ctx, config).expect("warm-up pass");
    let start = Instant::now();
    discover_fds_with(&ctx, config).expect("timed pass");
    start.elapsed().as_nanos()
}

fn median(mut samples: Vec<u128>) -> u128 {
    samples.sort_unstable();
    samples[samples.len() / 2]
}

/// One chunked-ingest pass over in-memory CSV bytes, with or without a
/// live recorder. Returns elapsed nanos; asserts observation passivity —
/// the observed parse must produce a bit-identical relation.
fn timed_ingest(text: &str, baseline: &Relation, recorder: Option<Arc<dyn Recorder>>) -> u128 {
    let opts = CsvOptions::default();
    let start = Instant::now();
    let rel = match &recorder {
        None => read_stream(text.as_bytes(), &opts),
        Some(r) => read_stream_observed(text.as_bytes(), &opts, r.as_ref()),
    }
    .expect("ingest pass");
    let elapsed = start.elapsed().as_nanos();
    assert_eq!(
        &rel, baseline,
        "observed ingest must be passive (bit-identical relation)"
    );
    elapsed
}

fn main() {
    let mut args = std::env::args().skip(1);
    let rows: usize = args.next().and_then(|a| a.parse().ok()).unwrap_or(10_000);
    let reps: usize = args.next().and_then(|a| a.parse().ok()).unwrap_or(7).max(1);
    let threshold_pct: f64 = std::env::var("OBSERVE_OVERHEAD_PCT")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(5.0);

    let rel = all_classes_spec(rows, 7)
        .generate()
        .expect("generation")
        .relation;
    let config = TaneConfig {
        max_lhs: 2,
        g3_threshold: 0.0,
    };

    // Interleaved sampling so drift (thermal, noisy neighbours) hits both
    // sides equally.
    let mut noop_ns = Vec::with_capacity(reps);
    let mut live_ns = Vec::with_capacity(reps);
    for _ in 0..reps {
        noop_ns.push(timed_pass(&rel, &config, None));
        live_ns.push(timed_pass(
            &rel,
            &config,
            Some(Arc::new(Registry::new()) as Arc<dyn Recorder>),
        ));
    }
    let base = median(noop_ns);
    let live = median(live_ns);

    let overhead_pct = 100.0 * (live as f64 - base as f64) / base as f64;
    println!(
        "observe overhead guard: {rows} rows, {reps} reps (median of warm passes)\n\
         noop recorder:  {base:>12} ns\n\
         live registry:  {live:>12} ns\n\
         overhead:       {overhead_pct:>11.2} % (threshold {threshold_pct} %)"
    );

    // Ingest passivity: the chunked CSV decoder with a live registry must
    // stay within the same envelope, and (asserted inside the pass) must
    // produce a bit-identical relation to the unobserved decoder.
    let text = write_str(&rel);
    let baseline = read_stream(text.as_bytes(), &CsvOptions::default()).expect("baseline parse");
    let mut ingest_noop_ns = Vec::with_capacity(reps);
    let mut ingest_live_ns = Vec::with_capacity(reps);
    for _ in 0..reps {
        ingest_noop_ns.push(timed_ingest(&text, &baseline, None));
        ingest_live_ns.push(timed_ingest(
            &text,
            &baseline,
            Some(Arc::new(Registry::new()) as Arc<dyn Recorder>),
        ));
    }
    let ingest_base = median(ingest_noop_ns);
    let ingest_live = median(ingest_live_ns);
    let ingest_pct = 100.0 * (ingest_live as f64 - ingest_base as f64) / ingest_base as f64;
    println!(
        "ingest passivity guard: {} CSV bytes\n\
         noop ingest:    {ingest_base:>12} ns\n\
         live ingest:    {ingest_live:>12} ns\n\
         overhead:       {ingest_pct:>11.2} % (threshold {threshold_pct} %)",
        text.len()
    );

    let mut failed = false;
    if overhead_pct > threshold_pct {
        eprintln!("FAIL: live metrics slow discovery by {overhead_pct:.2}% (> {threshold_pct}%)");
        failed = true;
    }
    if ingest_pct > threshold_pct {
        eprintln!("FAIL: live metrics slow ingest by {ingest_pct:.2}% (> {threshold_pct}%)");
        failed = true;
    }
    if failed {
        std::process::exit(1);
    }
    println!("OK");
}
