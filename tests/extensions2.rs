//! Second integration suite for the extension features: metric
//! dependencies on the fintech scenario, the multi-party setup feeding
//! training and attack, and relation operations for HFL recombination.

use metadata_privacy::core::{run_attack, ExperimentConfig};
use metadata_privacy::datasets::fintech_scenario;
use metadata_privacy::discovery::{discover_mfds, MfdConfig};
use metadata_privacy::federated::{
    auc, labels_from_column, train, FeatureBlock, MultiPartySession, Party,
};
use metadata_privacy::metadata::MetricFd;
use metadata_privacy::prelude::*;

#[test]
fn mfd_and_variable_cfd_on_fintech_data() {
    let data = fintech_scenario(200, 77);
    let bank = &data.bank.relation;
    // tier → limit is exact (limit = 2000·(tier+1)): excluded from MFDs by
    // default, so every reported MFD is genuinely approximate and holds.
    for mfd in discover_mfds(bank, &MfdConfig::default()).unwrap() {
        assert!(mfd.holds(bank).unwrap(), "{mfd}");
        assert!(!MetricFd::new(mfd.lhs, mfd.rhs, 0.0).holds(bank).unwrap());
    }
}

#[test]
fn multiparty_setup_trains_and_audits() {
    let data = fintech_scenario(300, 21);
    let bank = Party::new("bank", data.bank.relation, 0, data.bank.dependencies).unwrap();
    let ecom = Party::new(
        "ecom",
        data.ecommerce.relation,
        0,
        data.ecommerce.dependencies,
    )
    .unwrap();
    let session = MultiPartySession::new(vec![bank, ecom], 5);
    let setup = session
        .run_setup(&[SharePolicy::FULL, SharePolicy::PAPER_RECOMMENDED])
        .unwrap();
    assert_eq!(setup.alignment.len(), 240);

    // Train on both slices.
    let labels = labels_from_column(&setup.aligned[0], 4).unwrap();
    let blocks = vec![
        FeatureBlock::encode(&setup.aligned[0], &[0, 1, 2, 3]).unwrap(),
        FeatureBlock::encode(&setup.aligned[1], &[0, 1, 2]).unwrap(),
    ];
    let model = train(blocks, &labels);
    assert!(auc(&model.predict(), &labels) > 0.8);

    // The e-commerce party followed the recommendation: its surface is
    // zero; the bank overshared: its surface is the domain-level leakage.
    let config = ExperimentConfig {
        rounds: 30,
        base_seed: 3,
        epsilon: 0.0,
    };
    let vs_ecom = run_attack(&setup.aligned[1], &setup.metadata[1], true, &config).unwrap();
    assert!(vs_ecom.per_attr.iter().all(|a| a.mean_matches == 0.0));
    let vs_bank = run_attack(&setup.aligned[0], &setup.metadata[0], true, &config).unwrap();
    assert!(vs_bank.per_attr.iter().any(|a| a.mean_matches > 1.0));
}

#[test]
fn relation_ops_support_hfl_recombination() {
    use metadata_privacy::federated::horizontal_split;
    let real = metadata_privacy::datasets::echocardiogram();
    let parts = horizontal_split(&real, 3).unwrap();
    assert!(parts.iter().all(|p| p.schema() == real.schema()));
    // Every row lands in exactly one part: pooled and sorted, the parts'
    // rows are the table's rows sorted.
    let mut pooled: Vec<Vec<Value>> = parts.iter().flat_map(|p| p.rows()).collect();
    let mut rows: Vec<Vec<Value>> = real.rows().collect();
    pooled.sort();
    rows.sort();
    assert_eq!(pooled, rows);
}
