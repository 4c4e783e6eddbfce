//! End-to-end million-row scale check: streaming ingest → memory-bounded
//! depth-2 discovery.
//!
//! Generates the planted 7-column scale relation, round-trips it through
//! the streaming CSV path (asserting bit-identical ingest), then runs a
//! depth-2 TANE pass under a fixed [`MemoryBudget`] (cached) and uncached,
//! asserting both produce the same FDs and that every planted dependency
//! holds. Writes `BENCH_scale.json` at the repo root with deterministic
//! fields only; perfbench's `scale` workload times this path.
//!
//! Usage: `discovery_1m [rows] [budget_mb]` (defaults: 1000000, 256).

use mp_discovery::{discover_fds_with, DiscoveryContext, MemoryBudget, ParallelConfig, TaneConfig};
use mp_relation::csv::{read_path, write_str_with, CsvOptions};

fn canon(fds: &[mp_metadata::Fd]) -> Vec<(Vec<usize>, usize)> {
    let mut v: Vec<(Vec<usize>, usize)> = fds
        .iter()
        .map(|f| (f.lhs.indices().to_vec(), f.rhs))
        .collect();
    v.sort();
    v
}

fn main() {
    let mut args = std::env::args().skip(1);
    let rows: usize = args
        .next()
        .and_then(|a| a.parse().ok())
        .unwrap_or(1_000_000);
    let budget_mb: usize = args.next().and_then(|a| a.parse().ok()).unwrap_or(256);

    let out = mp_datasets::scale_relation(rows, 7).expect("scale relation generates");
    let rel = out.relation;
    println!(
        "scale relation: {} rows x {} columns",
        rel.n_rows(),
        rel.arity()
    );

    // Streaming ingest: write the relation out with its kind row and read
    // it back through the chunked file path; the round trip must be
    // bit-identical (dictionaries in first-occurrence order, shortest
    // round-trip float formatting).
    let opts = CsvOptions::with_kind_row();
    let text = write_str_with(&rel, &opts);
    let csv_bytes = text.len();
    let csv_path = std::env::temp_dir().join(format!("mpriv_discovery_1m_{rows}.csv"));
    std::fs::write(&csv_path, &text).expect("write temp CSV");
    let back = read_path(&csv_path, &opts).expect("streaming ingest");
    std::fs::remove_file(&csv_path).ok();
    assert_eq!(
        rel, back,
        "streaming ingest must round-trip bit-identically"
    );
    println!("ingest: {csv_bytes} bytes, round trip bit-identical");

    // Depth-2 discovery under a fixed memory budget (cached) vs uncached.
    let config = TaneConfig {
        max_lhs: 2,
        g3_threshold: 0.0,
    };
    let budget = MemoryBudget::from_mb(budget_mb);
    let ctx = DiscoveryContext::with_budget(&rel, ParallelConfig::default(), budget);
    let cached = discover_fds_with(&ctx, &config).expect("budgeted discovery");
    println!("budgeted discovery: {}", ctx.cache_stats());

    let uncached_ctx = DiscoveryContext::new(&rel, ParallelConfig::uncached(0));
    let uncached = discover_fds_with(&uncached_ctx, &config).expect("uncached discovery");
    assert_eq!(
        canon(&cached),
        canon(&uncached),
        "budgeted discovery must find the same FDs as the uncached engine"
    );
    println!("uncached discovery: same {} FDs", cached.len());

    // Every planted dependency must be visible in the generated relation.
    for dep in &out.planted {
        assert!(
            dep.holds(&rel).expect("dependency check"),
            "planted {dep} must hold"
        );
    }

    let json = format!(
        "{{\n  \"bench\": \"scale\",\n  \"rows\": {rows},\n  \"csv_bytes\": {csv_bytes},\n  \"budget_mb\": {budget_mb},\n  \"fds\": {}\n}}\n",
        cached.len()
    );
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_scale.json");
    std::fs::write(path, &json).expect("write BENCH_scale.json");
    println!("wrote {path}:\n{json}");
}
