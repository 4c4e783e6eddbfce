//! Fault-simulator benchmarks: VFL setup wall-clock as a function of the
//! injected fault rate. The companion CI binary (`sim_matrix`) runs the
//! full 32-seed invariant matrix and writes `BENCH_sim.json`; this bench
//! tracks the per-run cost of the simulator itself.

use criterion::{criterion_group, BenchmarkId, Criterion};
use mp_federated::{simulate_setup, FaultPlan, MultiPartySession, Network, Party, RetryConfig};
use mp_metadata::SharePolicy;
use mp_observe::NoopRecorder;
use std::hint::black_box;

fn session(rows: usize) -> MultiPartySession {
    let data = mp_datasets::fintech_scenario(rows, 42);
    let bank = Party::new("bank", data.bank.relation, 0, data.bank.dependencies).unwrap();
    let ecom = Party::new(
        "ecommerce",
        data.ecommerce.relation,
        0,
        data.ecommerce.dependencies,
    )
    .unwrap();
    MultiPartySession::new(vec![bank, ecom], 0xF1A7)
}

fn policies() -> Vec<SharePolicy> {
    vec![SharePolicy::PAPER_RECOMMENDED, SharePolicy::FULL]
}

/// Setup wall-clock vs drop rate: retransmissions and back-off stretch
/// the virtual run, and this measures what that costs in real time.
fn bench_setup_vs_fault_rate(c: &mut Criterion) {
    let sess = session(120);
    let pols = policies();
    let retry = RetryConfig::default();
    let mut group = c.benchmark_group("sim_setup_vs_drop_rate");
    for drop_pct in [0u32, 10, 25, 40] {
        group.bench_with_input(
            BenchmarkId::from_parameter(drop_pct),
            &drop_pct,
            |b, &pct| {
                b.iter(|| {
                    let plan = FaultPlan {
                        drop_rate: f64::from(pct) / 100.0,
                        ..FaultPlan::fault_free(7)
                    };
                    simulate_setup(black_box(&sess), &pols, &plan, &retry, &NoopRecorder)
                })
            },
        );
    }
    group.finish();
}

/// The simulator's overhead over the direct (non-transport) setup path:
/// perfect-transport simulation vs `MultiPartySession::run_setup`.
fn bench_sim_overhead(c: &mut Criterion) {
    let sess = session(120);
    let pols = policies();
    let retry = RetryConfig::default();
    let mut group = c.benchmark_group("sim_overhead");
    group.bench_function("direct_setup", |b| {
        b.iter(|| black_box(&sess).run_setup(&pols).unwrap())
    });
    group.bench_function("perfect_transport", |b| {
        b.iter(|| {
            let mut t = Network::new(2);
            black_box(&sess)
                .run_setup_over(&pols, &mut t, &retry)
                .unwrap()
        })
    });
    group.bench_function("fault_free_sim", |b| {
        b.iter(|| {
            let plan = FaultPlan::fault_free(7);
            simulate_setup(black_box(&sess), &pols, &plan, &retry, &NoopRecorder)
        })
    });
    group.finish();
}

criterion_group!(
    name = benches;
    config = Criterion::default()
        .sample_size(10)
        .warm_up_time(std::time::Duration::from_millis(300))
        .measurement_time(std::time::Duration::from_millis(700));
    targets = bench_setup_vs_fault_rate, bench_sim_overhead
);

fn main() {
    benches();
}
