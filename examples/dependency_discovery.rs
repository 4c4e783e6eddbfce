//! Dependency discovery walkthrough: plant known FD/AFD/OD/ND/DD structure
//! in a synthetic relation, rediscover it with every algorithm in
//! `mp-discovery`, and cross-check TANE against the exhaustive baseline.
//!
//! Run with: `cargo run --release --example dependency_discovery`

use metadata_privacy::datasets::{all_classes_spec, echocardiogram};
use metadata_privacy::discovery::{
    discover_fds_naive, discover_fds_with, DependencyProfile, DiscoveryContext, ParallelConfig,
    ProfileConfig, TaneConfig,
};
use metadata_privacy::metadata::Dependency;

fn main() {
    // ── Planted ground truth ────────────────────────────────────────────
    let spec = all_classes_spec(400, 99);
    let out = spec.generate().expect("generation succeeds");
    println!(
        "Synthetic relation: {} rows × {} attrs, planted dependencies:",
        out.relation.n_rows(),
        out.relation.arity()
    );
    for dep in &out.planted {
        let holds = dep.holds(&out.relation).unwrap();
        println!("  {dep}   (holds: {holds})");
        assert!(holds);
    }

    // ── Full profile ────────────────────────────────────────────────────
    let profile = DependencyProfile::discover(&out.relation, &ProfileConfig::paper())
        .expect("profiling succeeds");
    println!(
        "\nDiscovered: {} FDs, {} AFDs, {} ODs, {} NDs, {} DDs, {} OFDs",
        profile.fds.len(),
        profile.afds.len(),
        profile.ods.len(),
        profile.nds.len(),
        profile.dds.len(),
        profile.ofds.len()
    );
    for dep in profile.to_dependencies() {
        println!("  {dep}");
    }

    // ── Every planted dependency is implied by the discovery output ─────
    for planted in &out.planted {
        let found = match planted {
            Dependency::Fd(fd) => profile
                .fds
                .iter()
                .any(|f| f.rhs == fd.rhs && f.lhs.is_subset_of(&fd.lhs)),
            Dependency::Afd(afd) => {
                profile.afds.iter().any(|a| a.fd.rhs == afd.fd.rhs)
                    || profile.fds.iter().any(|f| f.rhs == afd.fd.rhs)
            }
            Dependency::Od(od) => profile.ods.contains(od),
            Dependency::Nd(nd) => profile
                .nds
                .iter()
                .any(|n| n.lhs == nd.lhs && n.rhs == nd.rhs && n.k <= nd.k),
            _ => true,
        };
        println!("planted {planted} rediscovered: {found}");
    }

    // ── TANE vs the exhaustive baseline ─────────────────────────────────
    let tane = discover_fds_with(
        &DiscoveryContext::new(&out.relation, ParallelConfig::default()),
        &TaneConfig {
            max_lhs: 2,
            g3_threshold: 0.0,
        },
    )
    .expect("TANE runs");
    let naive = discover_fds_naive(&out.relation, 2).expect("naive runs");
    let canon = |fds: &[metadata_privacy::metadata::Fd]| {
        let mut v: Vec<String> = fds.iter().map(|f| format!("{}→{}", f.lhs, f.rhs)).collect();
        v.sort();
        v
    };
    assert_eq!(
        canon(&tane),
        canon(&naive),
        "TANE must match the exhaustive baseline"
    );
    println!(
        "\nTANE and the exhaustive baseline agree on all {} minimal FDs (depth ≤ 2).",
        tane.len()
    );

    // ── The paper's dataset ─────────────────────────────────────────────
    let echo = echocardiogram();
    let profile =
        DependencyProfile::discover(&echo, &ProfileConfig::paper()).expect("echo profiling");
    println!(
        "\nEchocardiogram ({} rows): {} FDs, {} ODs, {} NDs discovered with the \
         paper's pairwise configuration.",
        echo.n_rows(),
        profile.fds.len(),
        profile.ods.len(),
        profile.nds.len()
    );
}
