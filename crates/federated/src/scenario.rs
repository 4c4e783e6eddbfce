//! End-to-end realisation of the paper's Figure 1 scenario: a bank and an
//! e-commerce company run VFL setup, train a loan-approval model, and — on
//! the adversarial side — the e-commerce party attempts the metadata
//! synthesis attack against the bank under different share policies.

use crate::model::{labels_from_column, train, FeatureBlock};
use crate::multiparty::{MultiPartySession, MultiSetupOutcome};
use crate::party::Party;
use mp_core::{run_attack, AttackResult, ExperimentConfig};
use mp_metadata::SharePolicy;
use mp_relation::{RelationError, Result};

/// Outcome of the full scenario.
#[derive(Debug, Clone)]
pub struct ScenarioOutcome {
    /// Setup artefacts (alignment + exchanged metadata); party 0 is the
    /// bank, party 1 the e-commerce company.
    pub setup: MultiSetupOutcome,
    /// Accuracy of the federated model (both parties' features).
    pub federated_accuracy: f64,
    /// Accuracy of the bank training alone on the same rows.
    pub solo_accuracy: f64,
    /// Attack against the bank's aligned data using the exchanged
    /// metadata *with* dependencies.
    pub attack_with_deps: AttackResult,
    /// Same attack ignoring dependencies (random baseline).
    pub attack_random: AttackResult,
}

/// Runs the Figure 1 scenario end to end.
///
/// `label_column` is the index of the 0/1 label within the bank's
/// relation (e.g. `loan_approved`). The bank's policy governs what the
/// adversary (the e-commerce party) gets to attack with.
pub fn run_scenario(
    bank: Party,
    ecommerce: Party,
    label_column: usize,
    bank_policy: &SharePolicy,
    experiment: &ExperimentConfig,
) -> Result<ScenarioOutcome> {
    let bank_columns = bank.feature_columns();
    let session = MultiPartySession::new(vec![bank, ecommerce], 0xF1A7);
    let setup = session.run_setup(&[*bank_policy, SharePolicy::FULL])?;

    // --- Utility: train loan approval on the aligned intersection. ------
    // Label column in aligned (feature-projected) coordinates. The label is
    // caller-supplied, so a column outside the bank's feature set is a
    // typed error, not a panic.
    let label_pos = bank_columns
        .iter()
        .position(|&c| c == label_column)
        .ok_or_else(|| {
            RelationError::UnknownAttribute(format!(
                "label column {label_column} is not among the bank's feature columns"
            ))
        })?;
    let ([bank_rows, ecom_rows], Some(bank_metadata)) =
        (setup.aligned.as_slice(), setup.metadata.first())
    else {
        return Err(RelationError::Io(format!(
            "two-party setup returned {} aligned slices",
            setup.aligned.len()
        )));
    };
    let bank_features: Vec<usize> = (0..bank_rows.arity()).filter(|&c| c != label_pos).collect();
    let labels = labels_from_column(bank_rows, label_pos)?;
    let bank_block = FeatureBlock::encode(bank_rows, &bank_features)?;
    let ecom_features: Vec<usize> = (0..ecom_rows.arity()).collect();
    let ecom_block = FeatureBlock::encode(ecom_rows, &ecom_features)?;

    let federated = train(vec![bank_block.clone(), ecom_block], &labels);
    let solo = train(vec![bank_block], &labels);

    // --- Privacy: the e-commerce party attacks the bank's slice. --------
    let attack_with_deps = run_attack(bank_rows, bank_metadata, true, experiment)?;
    let attack_random = run_attack(bank_rows, bank_metadata, false, experiment)?;

    Ok(ScenarioOutcome {
        setup,
        federated_accuracy: federated.accuracy(&labels),
        solo_accuracy: solo.accuracy(&labels),
        attack_with_deps,
        attack_random,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use mp_datasets::fintech_scenario;

    fn build_parties() -> (Party, Party) {
        let data = fintech_scenario(300, 42);
        let bank = Party::new(
            "bank",
            data.bank.relation.clone(),
            0,
            data.bank.dependencies.clone(),
        )
        .unwrap();
        let ecom = Party::new(
            "ecommerce",
            data.ecommerce.relation.clone(),
            0,
            data.ecommerce.dependencies.clone(),
        )
        .unwrap();
        (bank, ecom)
    }

    fn fast_experiment() -> ExperimentConfig {
        ExperimentConfig {
            rounds: 20,
            base_seed: 3,
            epsilon: 500.0,
        }
    }

    #[test]
    fn scenario_runs_end_to_end() {
        let (bank, ecom) = build_parties();
        // loan_approved is bank column 5.
        let out = run_scenario(bank, ecom, 5, &SharePolicy::FULL, &fast_experiment()).unwrap();
        assert_eq!(out.setup.alignment.len(), 240);
        assert!(
            out.federated_accuracy > 0.6,
            "federated {}",
            out.federated_accuracy
        );
        assert!(out.federated_accuracy >= out.solo_accuracy - 0.05);
        assert_eq!(out.attack_with_deps.per_attr.len(), 5);
    }

    #[test]
    fn dependency_attack_no_worse_than_random_on_rhs() {
        // The paper's core claim, measured end to end in the scenario: the
        // mean exact-match leakage with dependencies stays within noise of
        // the random baseline.
        let (bank, ecom) = build_parties();
        let out = run_scenario(bank, ecom, 5, &SharePolicy::FULL, &fast_experiment()).unwrap();
        for (with_deps, random) in out
            .attack_with_deps
            .per_attr
            .iter()
            .zip(&out.attack_random.per_attr)
        {
            let n = out.setup.alignment.len() as f64;
            let diff = (with_deps.mean_matches - random.mean_matches).abs();
            assert!(
                diff <= 0.15 * n + 3.0,
                "attr {}: with {} vs random {}",
                with_deps.name,
                with_deps.mean_matches,
                random.mean_matches
            );
        }
    }

    #[test]
    fn recommended_policy_blocks_attack() {
        let (bank, ecom) = build_parties();
        let out = run_scenario(
            bank,
            ecom,
            5,
            &SharePolicy::PAPER_RECOMMENDED,
            &fast_experiment(),
        )
        .unwrap();
        // Without domains every generated cell is null: zero matches on
        // every non-null real column.
        for attr in &out.attack_with_deps.per_attr {
            let real_nulls = out.setup.aligned[0]
                .column(attr.attr)
                .unwrap()
                .iter()
                .filter(|v| v.is_null())
                .count();
            assert!(
                attr.mean_matches <= real_nulls as f64,
                "attr {} leaked {} matches without domains",
                attr.name,
                attr.mean_matches
            );
        }
    }
}
