//! Cross-crate integration: VFL setup (PSI + exchange) feeding both the
//! trainer and the adversary, over the fintech scenario.

use metadata_privacy::core::ExperimentConfig;
use metadata_privacy::datasets::fintech_scenario;
use metadata_privacy::federated::{
    labels_from_column, run_scenario, train, FeatureBlock, MultiPartySession, Party,
};
use metadata_privacy::metadata::SharePolicy;

fn parties(n: usize, seed: u64) -> (Party, Party) {
    let data = fintech_scenario(n, seed);
    (
        Party::new("bank", data.bank.relation, 0, data.bank.dependencies).unwrap(),
        Party::new(
            "ecom",
            data.ecommerce.relation,
            0,
            data.ecommerce.dependencies,
        )
        .unwrap(),
    )
}

#[test]
fn setup_then_train_from_aligned_slices() {
    let (bank, ecom) = parties(400, 9);
    let session = MultiPartySession::new(vec![bank, ecom], 7);
    let setup = session
        .run_setup(&[SharePolicy::FULL, SharePolicy::FULL])
        .unwrap();
    assert_eq!(setup.aligned[0].n_rows(), setup.aligned[1].n_rows());
    assert_eq!(setup.alignment.len(), 320);

    // Label: loan_approved is bank feature position 4 (column 5 of 0..=5
    // minus the id column).
    let labels = labels_from_column(&setup.aligned[0], 4).unwrap();
    let bank_block = FeatureBlock::encode(&setup.aligned[0], &[0, 1, 2, 3]).unwrap();
    let ecom_block = FeatureBlock::encode(
        &setup.aligned[1],
        &(0..setup.aligned[1].arity()).collect::<Vec<_>>(),
    )
    .unwrap();
    let model = train(vec![bank_block, ecom_block], &labels);
    assert!(
        model.accuracy(&labels) > 0.7,
        "accuracy {}",
        model.accuracy(&labels)
    );
    // Loss decreased monotonically-ish.
    assert!(model.loss_trace.last().unwrap() < model.loss_trace.first().unwrap());
}

#[test]
fn scenario_attack_respects_psi_alignment() {
    // The attack must be measured on the PSI-aligned rows, not the full
    // relation: per-attribute mean matches scale with the intersection
    // size, not the bank's table size.
    let (bank, ecom) = parties(300, 21);
    let experiment = ExperimentConfig {
        rounds: 40,
        base_seed: 1,
        epsilon: 0.0,
    };
    let out = run_scenario(bank, ecom, 5, &SharePolicy::FULL, &experiment).unwrap();
    let n_aligned = out.setup.alignment.len() as f64;
    for attr in &out.attack_random.per_attr {
        assert!(
            attr.mean_matches <= n_aligned,
            "attr {} matches {} exceed intersection {n_aligned}",
            attr.name,
            attr.mean_matches
        );
    }
}

#[test]
fn exchange_policies_propagate_into_scenario() {
    let (bank, ecom) = parties(200, 33);
    let experiment = ExperimentConfig {
        rounds: 10,
        base_seed: 2,
        epsilon: 0.0,
    };
    let out = run_scenario(bank, ecom, 5, &SharePolicy::NAMES_ONLY, &experiment).unwrap();
    assert!(!out.setup.metadata[0].shares_domains());
    assert!(!out.setup.metadata[0].shares_dependencies());
    // E-commerce still shared fully in the scenario harness.
    assert!(out.setup.metadata[1].shares_domains());
    // Utility is unaffected by the metadata policy (training uses aligned
    // data, not metadata).
    assert!(out.federated_accuracy > 0.6);
}

#[test]
fn psi_alignment_is_entity_consistent_end_to_end() {
    let data = fintech_scenario(150, 5);
    let bank_ids = data.bank.relation.column_values(0).unwrap();
    let ecom_ids = data.ecommerce.relation.column_values(0).unwrap();
    let bank = Party::new("bank", data.bank.relation, 0, vec![]).unwrap();
    let ecom = Party::new("ecom", data.ecommerce.relation, 0, vec![]).unwrap();
    let session = MultiPartySession::new(vec![bank, ecom], 1234);
    let setup = session
        .run_setup(&[SharePolicy::FULL, SharePolicy::FULL])
        .unwrap();
    for i in 0..setup.alignment.len() {
        assert_eq!(
            bank_ids[setup.alignment.rows[0][i]], ecom_ids[setup.alignment.rows[1][i]],
            "row {i} aligned to different entities"
        );
    }
}
