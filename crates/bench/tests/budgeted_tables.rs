//! Byte-budgeted discovery at the reproduction surface: running the
//! discovery engine under a starved [`MemoryBudget`] on several threads
//! must find exactly the FDs the sequential engine finds and leave the
//! paper-table outputs byte-identical.

use mp_bench::tables::{table3, table4};
use mp_discovery::{discover_fds_with, DiscoveryContext, MemoryBudget, ParallelConfig, TaneConfig};
use mp_metadata::Fd;

const ROUNDS: usize = 3;

fn canon(fds: &[Fd]) -> Vec<(Vec<usize>, usize)> {
    let mut v: Vec<(Vec<usize>, usize)> = fds
        .iter()
        .map(|f| (f.lhs.indices().to_vec(), f.rhs))
        .collect();
    v.sort();
    v
}

#[test]
fn budgeted_discovery_matches_sequential_on_echocardiogram() {
    let rel = mp_datasets::echocardiogram();
    let config = TaneConfig {
        max_lhs: 2,
        g3_threshold: 0.0,
    };
    let sequential = discover_fds_with(
        &DiscoveryContext::new(&rel, ParallelConfig::sequential()),
        &config,
    )
    .unwrap();

    let ctx = DiscoveryContext::with_budget(
        &rel,
        ParallelConfig {
            threads: 2,
            cache_capacity: 4096,
        },
        MemoryBudget::from_bytes(4096),
    );
    let budgeted = discover_fds_with(&ctx, &config).unwrap();
    assert_eq!(
        canon(&budgeted),
        canon(&sequential),
        "budgeted discovery diverged from the sequential engine"
    );
}

#[test]
fn table_reproduction_is_byte_identical_around_budgeted_discovery() {
    // The rendered Table III/IV strings are pure functions of the dataset
    // and round count; interleaving parallel, byte-budgeted discovery runs
    // must not perturb a single byte of them.
    let t3_before = table3(ROUNDS);
    let t4_before = table4(ROUNDS);

    let rel = mp_datasets::echocardiogram();
    let parallel = ParallelConfig {
        threads: 4,
        cache_capacity: 4096,
    };
    let config = TaneConfig {
        max_lhs: 2,
        g3_threshold: 0.0,
    };
    let ctx = DiscoveryContext::with_budget(&rel, parallel, MemoryBudget::from_bytes(8192));
    discover_fds_with(&ctx, &config).unwrap();

    assert_eq!(
        table3(ROUNDS),
        t3_before,
        "table3 output drifted across budgeted discovery"
    );
    assert_eq!(
        table4(ROUNDS),
        t4_before,
        "table4 output drifted across budgeted discovery"
    );
}
