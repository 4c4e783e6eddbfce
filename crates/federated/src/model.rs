//! Vertically federated logistic regression.
//!
//! The downstream task that motivates the metadata exchange: each party
//! holds a vertical feature slice of the PSI-aligned population; the label
//! lives with the *active* party. Training exchanges only scalar partial
//! scores and residuals — never raw features:
//!
//! 1. each party computes its partial logit `w_p · x_p` per row;
//! 2. the active party sums partial logits (+ bias), applies the sigmoid,
//!    and broadcasts the residual `σ(z) − y`;
//! 3. each party updates its own weights from the residual and its local
//!    features.
//!
//! This mirrors the linear VFL protocols the paper cites (SecureBoost/
//! BlindFL-style score aggregation) without their cryptographic layers —
//! enough to measure how shared metadata affects downstream utility.

use mp_relation::{AttrKind, Relation, Result, ValueRef};
use std::collections::HashMap;

/// A party-local feature matrix: standardised numeric encodings of the
/// party's feature columns.
#[derive(Debug, Clone)]
pub struct FeatureBlock {
    /// Row-major features, `rows × cols`.
    data: Vec<f64>,
    rows: usize,
    cols: usize,
}

impl FeatureBlock {
    /// Encodes the given columns of `relation`: continuous columns are
    /// z-standardised (nulls → 0 after centring), categorical columns are
    /// integer-coded by sorted value order then standardised.
    pub fn encode(relation: &Relation, columns: &[usize]) -> Result<Self> {
        let rows = relation.n_rows();
        let cols = columns.len();
        let mut data = vec![0.0; rows * cols];
        for (j, &c) in columns.iter().enumerate() {
            let col = relation.column(c)?;
            let kind = relation.schema().attribute(c)?.kind;
            let raw: Vec<f64> = match kind {
                AttrKind::Continuous => {
                    col.iter().map(|v| v.as_f64().unwrap_or(f64::NAN)).collect()
                }
                AttrKind::Categorical => {
                    let mut codes: Vec<ValueRef<'_>> = col.iter().collect();
                    codes.sort();
                    codes.dedup();
                    let index: HashMap<ValueRef<'_>, usize> =
                        codes.iter().enumerate().map(|(i, v)| (*v, i)).collect();
                    col.iter().map(|v| index[&v] as f64).collect()
                }
            };
            let finite: Vec<f64> = raw.iter().copied().filter(|x| x.is_finite()).collect();
            let mean = if finite.is_empty() {
                0.0
            } else {
                finite.iter().sum::<f64>() / finite.len() as f64
            };
            let var = if finite.is_empty() {
                1.0
            } else {
                finite.iter().map(|x| (x - mean).powi(2)).sum::<f64>() / finite.len() as f64
            };
            let sd = var.sqrt().max(1e-9);
            for (i, &x) in raw.iter().enumerate() {
                data[i * cols + j] = if x.is_finite() { (x - mean) / sd } else { 0.0 };
            }
        }
        Ok(Self { data, rows, cols })
    }

    /// Number of rows.
    pub(crate) fn rows(&self) -> usize {
        self.rows
    }

    /// Number of feature columns.
    pub(crate) fn cols(&self) -> usize {
        self.cols
    }

    fn row(&self, i: usize) -> &[f64] {
        &self.data[i * self.cols..(i + 1) * self.cols]
    }
}

/// One party's model slice: weights over its local features.
#[derive(Debug, Clone)]
pub(crate) struct PartyModel {
    /// Feature weights (one per local feature column).
    pub weights: Vec<f64>,
    features: FeatureBlock,
}

impl PartyModel {
    /// Initialises zero weights over a feature block.
    pub(crate) fn new(features: FeatureBlock) -> Self {
        Self {
            weights: vec![0.0; features.cols()],
            features,
        }
    }

    /// Partial logits `w_p · x_p` for every row — the only per-row value a
    /// passive party ever sends.
    pub(crate) fn partial_scores(&self) -> Vec<f64> {
        (0..self.features.rows())
            .map(|i| {
                self.features
                    .row(i)
                    .iter()
                    .zip(&self.weights)
                    .map(|(x, w)| x * w)
                    .sum()
            })
            .collect()
    }

    /// Gradient step from the broadcast residuals.
    pub(crate) fn apply_residuals(&mut self, residuals: &[f64]) {
        let n = self.features.rows().max(1) as f64;
        for j in 0..self.features.cols() {
            let mut g = 0.0;
            for (i, &res) in residuals.iter().enumerate() {
                g += res * self.features.row(i)[j];
            }
            g = g / n + L2 * self.weights[j];
            self.weights[j] -= LR * g;
        }
    }
}

/// Gradient-descent epochs.
const EPOCHS: usize = 200;
/// Learning rate.
const LR: f64 = 0.5;
/// L2 regularisation strength.
const L2: f64 = 1e-4;

/// The trained federated model: per-party slices plus the active party's
/// bias.
#[derive(Debug, Clone)]
pub struct FederatedModel {
    /// Per-party model slices, in the order the parties were given.
    pub(crate) parties: Vec<PartyModel>,
    /// Global bias term (held by the active party).
    pub bias: f64,
    /// Training-loss trace (one entry per epoch).
    pub loss_trace: Vec<f64>,
}

fn sigmoid(z: f64) -> f64 {
    1.0 / (1.0 + (-z).exp())
}

/// Trains a vertically federated logistic regression.
///
/// `blocks` are the parties' aligned feature blocks (equal row counts);
/// `labels` are the active party's 0/1 labels. Runs 200 epochs of
/// full-batch gradient descent at learning rate 0.5 with L2 strength
/// 1e-4.
pub fn train(blocks: Vec<FeatureBlock>, labels: &[f64]) -> FederatedModel {
    let n = labels.len();
    for b in &blocks {
        assert_eq!(
            b.rows(),
            n,
            "feature blocks must be PSI-aligned with the labels"
        );
    }
    let mut parties: Vec<PartyModel> = blocks.into_iter().map(PartyModel::new).collect();
    let mut bias = 0.0;
    let mut loss_trace = Vec::with_capacity(EPOCHS);

    for _ in 0..EPOCHS {
        // Round 1: passive parties send partial scores.
        let partials: Vec<Vec<f64>> = parties.iter().map(PartyModel::partial_scores).collect();
        // Active party aggregates, computes residuals and the loss.
        let mut residuals = vec![0.0; n];
        let mut loss = 0.0;
        for i in 0..n {
            let z: f64 = bias + partials.iter().map(|p| p[i]).sum::<f64>();
            let p = sigmoid(z).clamp(1e-12, 1.0 - 1e-12);
            residuals[i] = p - labels[i];
            loss -= labels[i] * p.ln() + (1.0 - labels[i]) * (1.0 - p).ln();
        }
        loss /= n.max(1) as f64;
        loss_trace.push(loss);
        // Round 2: residuals broadcast; every party updates locally.
        bias -= LR * residuals.iter().sum::<f64>() / n.max(1) as f64;
        for party in &mut parties {
            party.apply_residuals(&residuals);
        }
    }
    FederatedModel {
        parties,
        bias,
        loss_trace,
    }
}

impl FederatedModel {
    /// Predicted probabilities on the training alignment.
    pub fn predict(&self) -> Vec<f64> {
        let partials: Vec<Vec<f64>> = self
            .parties
            .iter()
            .map(PartyModel::partial_scores)
            .collect();
        let n = partials.first().map_or(0, Vec::len);
        (0..n)
            .map(|i| sigmoid(self.bias + partials.iter().map(|p| p[i]).sum::<f64>()))
            .collect()
    }

    /// 0/1 accuracy at threshold 0.5.
    pub fn accuracy(&self, labels: &[f64]) -> f64 {
        let preds = self.predict();
        if preds.is_empty() {
            return 0.0;
        }
        let correct = preds
            .iter()
            .zip(labels)
            .filter(|(p, y)| (**p >= 0.5) == (**y >= 0.5))
            .count();
        correct as f64 / preds.len() as f64
    }
}

/// Area under the ROC curve of scores against 0/1 labels, computed by the
/// rank statistic (ties get the midrank). Returns 0.5 when either class is
/// absent.
pub fn auc(scores: &[f64], labels: &[f64]) -> f64 {
    let n_pos = labels.iter().filter(|&&y| y >= 0.5).count();
    let n_neg = labels.len() - n_pos;
    if n_pos == 0 || n_neg == 0 {
        return 0.5;
    }
    let mut idx: Vec<usize> = (0..scores.len()).collect();
    idx.sort_by(|&a, &b| scores[a].total_cmp(&scores[b]));
    // Midranks over tied score groups.
    let mut ranks = vec![0.0f64; scores.len()];
    let mut i = 0;
    while i < idx.len() {
        let mut j = i;
        while j < idx.len() && scores[idx[j]] == scores[idx[i]] {
            j += 1;
        }
        let midrank = (i + j + 1) as f64 / 2.0; // 1-based average rank
        for &k in &idx[i..j] {
            ranks[k] = midrank;
        }
        i = j;
    }
    let rank_sum_pos: f64 = (0..labels.len())
        .filter(|&k| labels[k] >= 0.5)
        .map(|k| ranks[k])
        .sum();
    (rank_sum_pos - n_pos as f64 * (n_pos as f64 + 1.0) / 2.0) / (n_pos as f64 * n_neg as f64)
}

/// A deterministic train/holdout row split (every `holdout_every`-th row is
/// held out). Returns (train_rows, holdout_rows).
pub fn holdout_split(n_rows: usize, holdout_every: usize) -> (Vec<usize>, Vec<usize>) {
    assert!(holdout_every >= 2, "holdout_every must be at least 2");
    let mut train = Vec::with_capacity(n_rows);
    let mut held = Vec::with_capacity(n_rows / holdout_every + 1);
    for r in 0..n_rows {
        if r % holdout_every == 0 {
            held.push(r);
        } else {
            train.push(r);
        }
    }
    (train, held)
}

/// Extracts 0/1 labels from a relation column (ints/floats; nulls → 0).
pub fn labels_from_column(relation: &Relation, col: usize) -> Result<Vec<f64>> {
    Ok(relation
        .column(col)?
        .iter()
        .map(|v| {
            if v.as_f64().unwrap_or(0.0) >= 0.5 {
                1.0
            } else {
                0.0
            }
        })
        .collect())
}

#[cfg(test)]
mod tests {
    use super::*;
    use mp_relation::{Attribute, Schema, Value};
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    /// Two-party separable problem: y = 1 iff xa + xb > 0.
    fn toy(n: usize, seed: u64) -> (FeatureBlock, FeatureBlock, Vec<f64>) {
        let mut rng = StdRng::seed_from_u64(seed);
        let schema = Schema::new(vec![Attribute::continuous("x")]).unwrap();
        let xa: Vec<f64> = (0..n).map(|_| rng.gen_range(-1.0..1.0)).collect();
        let xb: Vec<f64> = (0..n).map(|_| rng.gen_range(-1.0..1.0)).collect();
        let labels: Vec<f64> = xa
            .iter()
            .zip(&xb)
            .map(|(a, b)| f64::from(a + b > 0.0))
            .collect();
        let rel_a = Relation::from_columns(
            schema.clone(),
            vec![xa.iter().map(|&x| Value::Float(x)).collect()],
        )
        .unwrap();
        let rel_b =
            Relation::from_columns(schema, vec![xb.iter().map(|&x| Value::Float(x)).collect()])
                .unwrap();
        (
            FeatureBlock::encode(&rel_a, &[0]).unwrap(),
            FeatureBlock::encode(&rel_b, &[0]).unwrap(),
            labels,
        )
    }

    #[test]
    fn federated_training_learns_separable_data() {
        let (a, b, labels) = toy(400, 1);
        let model = train(vec![a, b], &labels);
        let acc = model.accuracy(&labels);
        assert!(acc > 0.93, "accuracy {acc}");
        // Loss decreases.
        let first = model.loss_trace.first().unwrap();
        let last = model.loss_trace.last().unwrap();
        assert!(last < first);
    }

    #[test]
    fn two_parties_beat_one() {
        let (a, b, labels) = toy(400, 2);
        let both = train(vec![a.clone(), b], &labels);
        let solo = train(vec![a], &labels);
        assert!(
            both.accuracy(&labels) > solo.accuracy(&labels) + 0.05,
            "collaboration must add utility: both {} solo {}",
            both.accuracy(&labels),
            solo.accuracy(&labels)
        );
    }

    #[test]
    fn encoding_handles_categoricals_and_nulls() {
        let schema = Schema::new(vec![
            Attribute::categorical("c"),
            Attribute::continuous("x"),
        ])
        .unwrap();
        let rel = Relation::from_rows(
            schema,
            vec![
                vec!["a".into(), 1.0.into()],
                vec!["b".into(), Value::Null],
                vec!["a".into(), 3.0.into()],
            ],
        )
        .unwrap();
        let block = FeatureBlock::encode(&rel, &[0, 1]).unwrap();
        assert_eq!(block.rows(), 3);
        assert_eq!(block.cols(), 2);
        // Null became the centred default 0.
        assert_eq!(block.row(1)[1], 0.0);
        // Equal categorical values encode equally.
        assert_eq!(block.row(0)[0], block.row(2)[0]);
    }

    #[test]
    fn constant_column_is_harmless() {
        let schema = Schema::new(vec![Attribute::continuous("k")]).unwrap();
        let rel = Relation::from_rows(schema, vec![vec![5.0.into()], vec![5.0.into()]]).unwrap();
        let block = FeatureBlock::encode(&rel, &[0]).unwrap();
        let model = train(vec![block], &[0.0, 1.0]);
        assert!(model.accuracy(&[0.0, 1.0]).is_finite());
    }

    #[test]
    fn labels_extraction() {
        let schema = Schema::new(vec![Attribute::categorical("y")]).unwrap();
        let rel = Relation::from_rows(
            schema,
            vec![vec![Value::Int(1)], vec![Value::Int(0)], vec![Value::Null]],
        )
        .unwrap();
        assert_eq!(labels_from_column(&rel, 0).unwrap(), vec![1.0, 0.0, 0.0]);
    }

    #[test]
    fn auc_basics() {
        // Perfect separation.
        assert!((auc(&[0.1, 0.2, 0.8, 0.9], &[0.0, 0.0, 1.0, 1.0]) - 1.0).abs() < 1e-12);
        // Anti-separation.
        assert!((auc(&[0.9, 0.8, 0.2, 0.1], &[0.0, 0.0, 1.0, 1.0]) - 0.0).abs() < 1e-12);
        // All-tied scores: 0.5 by midrank.
        assert!((auc(&[0.5, 0.5, 0.5, 0.5], &[0.0, 1.0, 0.0, 1.0]) - 0.5).abs() < 1e-12);
        // Degenerate label sets.
        assert_eq!(auc(&[0.1, 0.9], &[1.0, 1.0]), 0.5);
        assert_eq!(auc(&[], &[]), 0.5);
    }

    #[test]
    fn auc_of_trained_model_beats_half() {
        let (a, b, labels) = toy(300, 9);
        let model = train(vec![a, b], &labels);
        let roc = auc(&model.predict(), &labels);
        assert!(roc > 0.95, "auc {roc}");
    }

    #[test]
    fn holdout_split_partitions() {
        let (train, held) = holdout_split(10, 3);
        assert_eq!(held, vec![0, 3, 6, 9]);
        assert_eq!(train.len() + held.len(), 10);
        assert!(train.iter().all(|r| !held.contains(r)));
    }

    #[test]
    #[should_panic(expected = "PSI-aligned")]
    fn misaligned_blocks_panic() {
        let (a, _, labels) = toy(10, 3);
        let (b, _, _) = toy(5, 4);
        let _ = train(vec![a, b], &labels);
    }
}
