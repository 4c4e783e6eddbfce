//! The leakage-audit matrix: metadata class × share policy × adversary.
//!
//! The matrix answers the paper's question systematically: every cell
//! fixes a coordinate
//!
//! * **metadata class** — which dependency class rides along with the
//!   domains (domains-only, +FD, +OD, +ND, +DD, +OFD, +CFD), isolating
//!   each class's *marginal* leakage the way Tables III/IV isolate the
//!   generators;
//! * **share policy** — the four presets plus a per-attribute redaction
//!   ([`MatrixPolicy::RedactOdd`]) that withholds every odd attribute's
//!   domain, the "redact the sensitive half" compromise;
//! * **adversary model** — the paper baseline plus partial alignment,
//!   collusion and noisy domains ([`mp_synth::AdversaryModel`]);
//!
//! and measures empirical cells-leaked (mean index-aligned matches per
//! round, Definitions 2.2/2.3, scored on the aligned rows by the same
//! [`crate::attr_matches`] kernel as Tables III/IV), the §III-A analytical
//! expectation `Σ N·θ_A`, and the delta against the same-seed
//! random-generation baseline — the number that operationalises "does
//! this dependency class add leakage *beyond* domains". Every cell is
//! independently reproducible: its RNG stream is derived from its
//! coordinate alone via [`crate::seed_for`], so the matrix is
//! byte-identical across runs and thread counts (cells are parallelised
//! with the order-preserving [`mp_relation::par::par_map`]).

use crate::leakage::{attr_matches_cached, RemapCache};
use mp_metadata::{Dependency, MetadataPackage, PlanStep, SharePolicy};
use mp_observe::Recorder;
use mp_relation::par::par_map;
use mp_relation::{Relation, RelationError, Result};
use mp_synth::{Adversary, AdversaryModel, SynthConfig};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// One table entering the matrix: a relation plus the dependency
/// inventory its owner is considering sharing. mp-core takes the
/// inventory as data (the CLI wires in `mp_datasets` inventories; tests
/// plant their own), keeping the engine dataset-agnostic.
#[derive(Debug, Clone)]
pub struct MatrixDataset {
    /// Dataset label, used in seeds, JSON and markdown.
    pub name: String,
    /// The real relation under attack.
    pub relation: Relation,
    /// The owner's full dependency inventory; each matrix row filters it
    /// down to one class.
    pub dependencies: Vec<Dependency>,
}

/// Which dependency class accompanies the domains in a matrix row.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MetadataClass {
    /// No dependencies at all — the §III-A random-generation floor.
    DomainsOnly,
    /// Strict functional dependencies (§III-B).
    Fd,
    /// Order dependencies (§IV-C).
    Od,
    /// Numerical dependencies (§IV-B).
    Nd,
    /// Differential dependencies (§IV-D).
    Dd,
    /// Ordered functional dependencies (§IV-E).
    Ofd,
    /// Conditional functional dependencies (value-carrying; paper ref 7).
    Cfd,
}

impl MetadataClass {
    /// Every class, in matrix row order.
    pub const ALL: [MetadataClass; 7] = [
        MetadataClass::DomainsOnly,
        MetadataClass::Fd,
        MetadataClass::Od,
        MetadataClass::Nd,
        MetadataClass::Dd,
        MetadataClass::Ofd,
        MetadataClass::Cfd,
    ];

    /// The row label used in JSON, markdown and seed derivation.
    pub fn label(&self) -> &'static str {
        match self {
            MetadataClass::DomainsOnly => "domains-only",
            MetadataClass::Fd => "fd",
            MetadataClass::Od => "od",
            MetadataClass::Nd => "nd",
            MetadataClass::Dd => "dd",
            MetadataClass::Ofd => "ofd",
            MetadataClass::Cfd => "cfd",
        }
    }

    /// Whether `dep` belongs to this row's class.
    fn keeps(&self, dep: &Dependency) -> bool {
        let class = dep.class();
        match self {
            MetadataClass::DomainsOnly => false,
            MetadataClass::Fd => class == "FD",
            MetadataClass::Od => class == "OD",
            MetadataClass::Nd => class == "ND",
            MetadataClass::Dd => class == "DD",
            MetadataClass::Ofd => class == "OFD",
            MetadataClass::Cfd => class == "CFD",
        }
    }
}

/// Which redaction policy the owner applies before sharing.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MatrixPolicy {
    /// [`SharePolicy::NAMES_ONLY`].
    Names,
    /// [`SharePolicy::NAMES_AND_DOMAINS`].
    Domains,
    /// [`SharePolicy::FULL`].
    Full,
    /// [`SharePolicy::PAPER_RECOMMENDED`].
    Recommended,
    /// Full disclosure for even-indexed attributes, names-only for
    /// odd-indexed ones — the per-attribute "redact the sensitive
    /// columns" compromise the presets cannot express.
    RedactOdd,
}

impl MatrixPolicy {
    /// Every policy, in matrix column order.
    pub const ALL: [MatrixPolicy; 5] = [
        MatrixPolicy::Names,
        MatrixPolicy::Domains,
        MatrixPolicy::Full,
        MatrixPolicy::Recommended,
        MatrixPolicy::RedactOdd,
    ];

    /// The column label used in JSON, markdown and seed derivation.
    pub fn label(&self) -> &'static str {
        match self {
            MatrixPolicy::Names => "names",
            MatrixPolicy::Domains => "domains",
            MatrixPolicy::Full => "full",
            MatrixPolicy::Recommended => "recommended",
            MatrixPolicy::RedactOdd => "redact-odd",
        }
    }

    /// Applies the redaction, producing what actually crosses the trust
    /// boundary.
    pub fn apply(&self, pkg: &MetadataPackage) -> MetadataPackage {
        match self {
            MatrixPolicy::Names => SharePolicy::NAMES_ONLY.apply(pkg),
            MatrixPolicy::Domains => SharePolicy::NAMES_AND_DOMAINS.apply(pkg),
            MatrixPolicy::Full => SharePolicy::FULL.apply(pkg),
            MatrixPolicy::Recommended => SharePolicy::PAPER_RECOMMENDED.apply(pkg),
            MatrixPolicy::RedactOdd => {
                let mut out = SharePolicy::FULL.apply(pkg);
                for (attr, meta) in out.attributes.iter_mut().enumerate() {
                    if attr % 2 == 1 {
                        meta.kind = None;
                        meta.domain = None;
                        meta.distribution = None;
                    }
                }
                out
            }
        }
    }
}

/// Matrix run parameters.
#[derive(Debug, Clone)]
pub struct MatrixConfig {
    /// Attack rounds averaged per cell (clamped to ≥ 1).
    pub rounds: usize,
    /// ε for continuous matching and for `θ = 2ε/range`.
    pub epsilon: f64,
    /// Worker threads for cell evaluation; `0` = available parallelism.
    /// Output is byte-identical for every value.
    pub threads: usize,
    /// The adversary models to sweep.
    pub adversaries: Vec<AdversaryModel>,
}

impl Default for MatrixConfig {
    fn default() -> Self {
        Self {
            rounds: 40,
            epsilon: 0.5,
            threads: 0,
            adversaries: vec![AdversaryModel::Baseline],
        }
    }
}

/// One evaluated matrix cell.
#[derive(Debug, Clone)]
pub struct MatrixCell {
    /// Dataset label.
    pub dataset: String,
    /// Metadata-class row label.
    pub class: &'static str,
    /// Share-policy column label.
    pub policy: &'static str,
    /// Adversary-model label.
    pub adversary: String,
    /// Dependencies the adversary's effective package carries.
    pub n_deps: usize,
    /// Rows the adversary can score (the PSI-aligned subset).
    pub rows_scored: usize,
    /// Mean cells leaked per round (Definitions 2.2/2.3, index-aligned).
    pub empirical: f64,
    /// Population standard deviation of the per-round leak count.
    pub std: f64,
    /// The §III-A analytical expectation `Σ_A N·θ_A` over shared domains.
    pub analytical: f64,
    /// Mean cells leaked by same-seed dependency-blind generation.
    pub random_baseline: f64,
    /// `empirical − random_baseline`: leakage *added* by the shared
    /// dependencies.
    pub delta_vs_random: f64,
    /// The §III-A predicate: at least one expected leaked cell per round.
    pub leaks: bool,
    /// Recommended mitigation for this cell.
    pub mitigation: &'static str,
}

/// The evaluated matrix.
#[derive(Debug, Clone)]
pub struct LeakageMatrix {
    /// Cells in deterministic sweep order:
    /// dataset → adversary → class → policy.
    pub cells: Vec<MatrixCell>,
    /// Rounds averaged per cell.
    pub rounds: usize,
    /// Matching tolerance ε.
    pub epsilon: f64,
}

/// Work order for one cell; self-contained so cells parallelise freely.
struct CellSpec<'a> {
    dataset: &'a MatrixDataset,
    /// The dataset's full-disclosure package without dependencies.
    described: &'a MetadataPackage,
    class: MetadataClass,
    policy: MatrixPolicy,
    adversary: AdversaryModel,
}

/// The fixed PSI-alignment permutation for a dataset: which victim rows
/// fall into the adversary's intersection, worst-case-shuffled once per
/// dataset (seeded by the dataset label only) so the aligned subsets of
/// different fractions are *nested* — the exact-monotonicity invariant.
fn alignment_permutation(dataset: &str, n: usize) -> Vec<usize> {
    let mut rng = StdRng::seed_from_u64(crate::seed_for(dataset, "psi-alignment", "", 0));
    let mut perm: Vec<usize> = (0..n).collect();
    // Fisher–Yates (the vendored rand has no shuffle adaptor).
    for i in (1..n).rev() {
        let j = rng.gen_range(0..=i);
        perm.swap(i, j);
    }
    perm
}

/// Evaluates one cell; also returns the synthesis draws it made.
fn evaluate_cell(spec: &CellSpec<'_>, rounds: usize, epsilon: f64) -> Result<(MatrixCell, usize)> {
    let relation = &spec.dataset.relation;
    let n = relation.n_rows();

    // Domains do not depend on the dependency list, so the described
    // package only takes this row's class.
    let mut package = spec.described.clone();
    package.dependencies = spec
        .dataset
        .dependencies
        .iter()
        .filter(|d| spec.class.keeps(d))
        .cloned()
        .collect();
    let shared = spec.policy.apply(&package);
    let effective = spec
        .adversary
        .shared_package(&shared)
        .map_err(RelationError::Io)?;

    // The PSI-aligned rows the adversary can score. Fractions share one
    // permutation per dataset, so smaller fractions are strict subsets.
    let aligned_pct = usize::from(spec.adversary.aligned_pct());
    let scored: Vec<usize> = if aligned_pct >= 100 {
        (0..n).collect()
    } else {
        let take = (n * aligned_pct).div_ceil(100);
        let mut rows = alignment_permutation(&spec.dataset.name, n);
        rows.truncate(take);
        rows
    };

    let policy_label = format!("{}/{}", spec.class.label(), spec.policy.label());
    let generation_label = spec.adversary.generation_label();
    let attacker = Adversary::new(effective.clone());
    let derives = attacker
        .plan()
        .iter()
        .enumerate()
        .any(|(attr, step)| *step != PlanStep::Free { attr });
    // One remap per categorical attribute for the whole cell: every round
    // draws from the same adversary's pools, so their dictionaries repeat.
    let mut remaps = vec![RemapCache::default(); relation.arity()];
    let mut leaked_by = |config: SynthConfig| -> Result<usize> {
        let syn = attacker.synthesize(&config)?;
        let mut leaked = 0usize;
        for ((attr, attribute), remap) in relation.schema().iter().zip(&mut remaps) {
            let (real, syn) = (relation.column(attr)?, syn.column(attr)?);
            let rows = scored.iter().copied();
            leaked += attr_matches_cached(real, syn, attribute.kind, epsilon, rows, remap);
        }
        Ok(leaked)
    };

    let mut per_round = Vec::with_capacity(rounds);
    let mut per_round_random = Vec::with_capacity(rounds);
    for round in 0..rounds {
        let seed = crate::seed_for(
            &spec.dataset.name,
            &policy_label,
            &generation_label,
            round as u64,
        );
        let leaked = leaked_by(SynthConfig::with_dependencies(n, seed))?;
        // Same seed, dependencies ignored: the §III-A baseline. Where the
        // plan derives nothing that draw would repeat this one, so its
        // count is reused and the delta is exactly zero.
        let leaked_random = if derives {
            leaked_by(SynthConfig::random_baseline(n, seed))?
        } else {
            leaked
        };
        per_round.push(leaked as f64);
        per_round_random.push(leaked_random as f64);
    }

    let count = per_round.len().max(1) as f64;
    let empirical = per_round.iter().sum::<f64>() / count;
    let random_baseline = per_round_random.iter().sum::<f64>() / count;
    let variance = per_round
        .iter()
        .map(|x| (x - empirical) * (x - empirical))
        .sum::<f64>()
        / count;
    let std = variance.sqrt();

    let analytical = effective
        .attributes
        .iter()
        .filter_map(|meta| meta.domain.as_ref())
        .map(|domain| {
            crate::analytical::random::expected_matches_for_domain(scored.len(), domain, epsilon)
        })
        .sum::<f64>();

    let delta_vs_random = empirical - random_baseline;
    let leaks = empirical >= 1.0;
    let mitigation = if !leaks {
        "none needed"
    } else if spec.class == MetadataClass::Cfd && delta_vs_random >= 1.0 {
        "strip CFD tableaux (value-carrying; paper ref 7)"
    } else {
        "withhold domains and types (paper §VI)"
    };

    let cell = MatrixCell {
        dataset: spec.dataset.name.clone(),
        class: spec.class.label(),
        policy: spec.policy.label(),
        adversary: spec.adversary.label(),
        n_deps: effective.dependencies.len(),
        rows_scored: scored.len(),
        empirical,
        std,
        analytical,
        random_baseline,
        delta_vs_random,
        leaks,
        mitigation,
    };
    Ok((cell, rounds * (1 + usize::from(derives))))
}

impl LeakageMatrix {
    /// Evaluates the full matrix over `datasets`.
    ///
    /// Cell order is the deterministic sweep
    /// dataset → adversary → class → policy; evaluation parallelises over
    /// cells with [`par_map`], which preserves that order, and every
    /// cell's RNG stream comes from its coordinate alone — so the result
    /// (and its serializations) are byte-identical for any
    /// `config.threads`.
    pub fn run(
        datasets: &[MatrixDataset],
        config: &MatrixConfig,
        recorder: &dyn Recorder,
    ) -> Result<LeakageMatrix> {
        let rounds = config.rounds.max(1);
        let described = datasets
            .iter()
            .map(|d| MetadataPackage::describe(d.name.clone(), &d.relation, Vec::new()))
            .collect::<Result<Vec<_>>>()?;
        let mut specs = Vec::new();
        for (dataset, described) in datasets.iter().zip(&described) {
            for adversary in &config.adversaries {
                for class in MetadataClass::ALL {
                    for policy in MatrixPolicy::ALL {
                        specs.push(CellSpec {
                            dataset,
                            described,
                            class,
                            policy,
                            adversary: *adversary,
                        });
                    }
                }
            }
        }

        let span = recorder.span("matrix.run");
        let guard = span.enter();
        let results = par_map(specs, config.threads, |spec| {
            evaluate_cell(&spec, rounds, config.epsilon)
        });
        let (cells, draws): (Vec<MatrixCell>, Vec<usize>) = results
            .into_iter()
            .collect::<Result<Vec<_>>>()?
            .into_iter()
            .unzip();
        drop(guard);

        recorder.counter("matrix.cells").add(cells.len() as u64);
        // `rounds` counts both arms each cell reports, `draws` the calls.
        recorder
            .counter("matrix.synth.rounds")
            .add((cells.len() * rounds * 2) as u64);
        recorder
            .counter("matrix.synth.draws")
            .add(draws.iter().sum::<usize>() as u64);
        for adversary in &config.adversaries {
            let label = adversary.label();
            let owned = cells.iter().filter(|c| c.adversary == label).count();
            recorder
                .counter(&format!("matrix.adversary.{label}.cells"))
                .add(owned as u64);
        }

        Ok(LeakageMatrix {
            cells,
            rounds,
            epsilon: config.epsilon,
        })
    }

    /// The cell at a coordinate, if evaluated.
    pub fn find(
        &self,
        dataset: &str,
        class: &str,
        policy: &str,
        adversary: &str,
    ) -> Option<&MatrixCell> {
        self.cells.iter().find(|c| {
            c.dataset == dataset
                && c.class == class
                && c.policy == policy
                && c.adversary == adversary
        })
    }

    /// Checks the paper's §III-B conclusion — *sharing FDs adds no extra
    /// leakage over sharing domains alone* — on every
    /// (dataset, policy, adversary) coordinate, returning a description
    /// of each violating coordinate (empty ⇔ the claim holds).
    ///
    /// The FD row may beat the domains-only row by sampling noise, so the
    /// tolerance is one cell plus four standard errors of the two means:
    /// `1 + 4·(σ_fd + σ_dom)/√rounds`.
    pub fn fd_adds_no_extra_leakage(&self) -> Vec<String> {
        let mut violations = Vec::new();
        for fd_cell in self.cells.iter().filter(|c| c.class == "fd") {
            let Some(base) = self.find(
                &fd_cell.dataset,
                "domains-only",
                fd_cell.policy,
                &fd_cell.adversary,
            ) else {
                continue;
            };
            let tolerance = 1.0 + 4.0 * (fd_cell.std + base.std) / (self.rounds as f64).sqrt();
            if fd_cell.empirical > base.empirical + tolerance {
                violations.push(format!(
                    "{}/{}/{}: fd {:.4} > domains-only {:.4} + {:.4}",
                    fd_cell.dataset,
                    fd_cell.policy,
                    fd_cell.adversary,
                    fd_cell.empirical,
                    base.empirical,
                    tolerance
                ));
            }
        }
        violations
    }

    /// Serialises the matrix as schema-versioned JSON with sorted keys
    /// and fixed-precision floats — byte-reproducible by construction.
    pub fn to_json(&self) -> String {
        let mut out = String::from("{\n  \"cells\": [");
        for (i, cell) in self.cells.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push_str("\n    {");
            out.push_str(&format!(
                "\"adversary\": \"{}\", ",
                escape_json(&cell.adversary)
            ));
            out.push_str(&format!(
                "\"analytical\": {}, ",
                format_float(cell.analytical)
            ));
            out.push_str(&format!("\"class\": \"{}\", ", cell.class));
            out.push_str(&format!(
                "\"dataset\": \"{}\", ",
                escape_json(&cell.dataset)
            ));
            out.push_str(&format!(
                "\"delta_vs_random\": {}, ",
                format_float(cell.delta_vs_random)
            ));
            out.push_str(&format!(
                "\"empirical\": {}, ",
                format_float(cell.empirical)
            ));
            out.push_str(&format!("\"leaks\": {}, ", cell.leaks));
            out.push_str(&format!(
                "\"mitigation\": \"{}\", ",
                escape_json(cell.mitigation)
            ));
            out.push_str(&format!("\"n_deps\": {}, ", cell.n_deps));
            out.push_str(&format!("\"policy\": \"{}\", ", cell.policy));
            out.push_str(&format!(
                "\"random_baseline\": {}, ",
                format_float(cell.random_baseline)
            ));
            out.push_str(&format!("\"rows_scored\": {}, ", cell.rows_scored));
            out.push_str(&format!("\"std\": {}}}", format_float(cell.std)));
        }
        out.push_str(&format!(
            "\n  ],\n  \"epsilon\": {},\n  \"rounds\": {},\n  \"schema_version\": 1\n}}\n",
            format_float(self.epsilon),
            self.rounds
        ));
        out
    }

    /// Renders the matrix as markdown: one table per dataset × adversary,
    /// rows = metadata classes, columns = share policies, `⚠` marking
    /// cells where the §III-A leakage predicate fires.
    pub fn render_markdown(&self) -> String {
        let mut out = format!(
            "# Leakage matrix\n\nMean cells leaked per round (empirical, {} rounds, ε = {}); \
             `⚠` = expected leakage ≥ 1 cell (§III-A predicate).\n",
            self.rounds,
            format_float(self.epsilon)
        );
        let mut groups: Vec<(String, String)> = Vec::new();
        for cell in &self.cells {
            let key = (cell.dataset.clone(), cell.adversary.clone());
            if !groups.contains(&key) {
                groups.push(key);
            }
        }
        for (dataset, adversary) in &groups {
            out.push_str(&format!("\n## {dataset} — adversary: {adversary}\n\n"));
            out.push_str("| class |");
            for policy in MatrixPolicy::ALL {
                out.push_str(&format!(" {} |", policy.label()));
            }
            out.push_str("\n|---|");
            for _ in MatrixPolicy::ALL {
                out.push_str("---:|");
            }
            out.push('\n');
            for class in MetadataClass::ALL {
                out.push_str(&format!("| {} |", class.label()));
                for policy in MatrixPolicy::ALL {
                    match self.find(dataset, class.label(), policy.label(), adversary) {
                        Some(cell) => {
                            let flag = if cell.leaks { " ⚠" } else { "" };
                            out.push_str(&format!(" {}{flag} |", format_float(cell.empirical)));
                        }
                        None => out.push_str(" — |"),
                    }
                }
                out.push('\n');
            }
        }
        out
    }
}

/// Fixed-precision float formatting with `-0.0000` normalised to
/// `0.0000`, so equal-by-value cells serialize identically.
fn format_float(x: f64) -> String {
    let s = format!("{x:.4}");
    if s == "-0.0000" {
        "0.0000".to_owned()
    } else {
        s
    }
}

/// Minimal JSON string escaping for the label/mitigation strings.
fn escape_json(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\t' => out.push_str("\\t"),
            '\r' => out.push_str("\\r"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use mp_metadata::{Fd, OrderDep};
    use mp_observe::NoopRecorder;
    use mp_relation::{Attribute, Schema, Value};

    fn tiny_dataset() -> MatrixDataset {
        let schema = Schema::new(vec![
            Attribute::categorical("dept"),
            Attribute::continuous("salary"),
            Attribute::categorical("grade"),
        ])
        .unwrap();
        let rows: Vec<Vec<Value>> = (0..30)
            .map(|i| {
                let dept = ["Sales", "CS", "Mgmt"][i % 3];
                vec![
                    dept.into(),
                    (20.0 + (i % 5) as f64).into(),
                    Value::Int((i % 3) as i64),
                ]
            })
            .collect();
        let relation = Relation::from_rows(schema, rows).unwrap();
        MatrixDataset {
            name: "tiny".to_owned(),
            relation,
            dependencies: vec![Fd::new(0usize, 2).into(), OrderDep::ascending(1, 1).into()],
        }
    }

    fn quick_config() -> MatrixConfig {
        MatrixConfig {
            rounds: 6,
            epsilon: 0.5,
            threads: 1,
            adversaries: vec![
                AdversaryModel::Baseline,
                AdversaryModel::PartialAlignment { aligned_pct: 50 },
            ],
        }
    }

    #[test]
    fn full_sweep_shape_and_order() {
        let ds = [tiny_dataset()];
        let m = LeakageMatrix::run(&ds, &quick_config(), &NoopRecorder).unwrap();
        // 1 dataset × 2 adversaries × 7 classes × 5 policies.
        assert_eq!(m.cells.len(), 70);
        // Sweep order: adversary-major over class → policy.
        assert_eq!(m.cells[0].adversary, "baseline");
        assert_eq!(m.cells[0].class, "domains-only");
        assert_eq!(m.cells[0].policy, "names");
        assert_eq!(m.cells[1].policy, "domains");
        assert_eq!(m.cells[35].adversary, "partial50");
    }

    #[test]
    fn thread_count_does_not_change_results() {
        let ds = [tiny_dataset()];
        let mut cfg = quick_config();
        let one = LeakageMatrix::run(&ds, &cfg, &NoopRecorder).unwrap();
        cfg.threads = 4;
        let four = LeakageMatrix::run(&ds, &cfg, &NoopRecorder).unwrap();
        assert_eq!(one.to_json(), four.to_json());
        assert_eq!(one.render_markdown(), four.render_markdown());
    }

    #[test]
    fn domains_only_delta_is_exactly_zero() {
        let ds = [tiny_dataset()];
        let m = LeakageMatrix::run(&ds, &quick_config(), &NoopRecorder).unwrap();
        for cell in m.cells.iter().filter(|c| c.class == "domains-only") {
            assert_eq!(
                cell.delta_vs_random, 0.0,
                "no dependencies ⇒ same plan, same seed, zero delta"
            );
            assert_eq!(cell.n_deps, 0);
        }
    }

    #[test]
    fn names_policy_blocks_generation() {
        let ds = [tiny_dataset()];
        let m = LeakageMatrix::run(&ds, &quick_config(), &NoopRecorder).unwrap();
        for cell in m.cells.iter().filter(|c| c.policy == "names") {
            assert_eq!(cell.analytical, 0.0, "no domains shared ⇒ θ undefined");
            assert_eq!(
                cell.empirical, 0.0,
                "all-null synthetic columns match nothing in a null-free table"
            );
            assert!(!cell.leaks);
            assert_eq!(cell.mitigation, "none needed");
        }
    }

    #[test]
    fn domains_policy_leaks_and_tracks_analytical() {
        let ds = [tiny_dataset()];
        let m = LeakageMatrix::run(&ds, &quick_config(), &NoopRecorder).unwrap();
        let cell = m
            .find("tiny", "domains-only", "domains", "baseline")
            .unwrap();
        // dept: 30/3 = 10, grade: 30/3 = 10, salary: 30·(2·0.5/4) = 7.5.
        assert!(cell.leaks);
        assert!(cell.empirical > 1.0);
        assert!(
            (cell.empirical - cell.analytical).abs() < 4.0 * cell.std.max(3.0),
            "empirical {} vs analytical {}",
            cell.empirical,
            cell.analytical
        );
        assert_eq!(cell.mitigation, "withhold domains and types (paper §VI)");
    }

    #[test]
    fn partial_alignment_scores_fewer_rows() {
        let ds = [tiny_dataset()];
        let m = LeakageMatrix::run(&ds, &quick_config(), &NoopRecorder).unwrap();
        let full = m
            .find("tiny", "domains-only", "domains", "baseline")
            .unwrap();
        let half = m
            .find("tiny", "domains-only", "domains", "partial50")
            .unwrap();
        assert_eq!(full.rows_scored, 30);
        assert_eq!(half.rows_scored, 15);
        assert!(half.empirical <= full.empirical);
    }

    #[test]
    fn fd_claim_holds_on_tiny() {
        let ds = [tiny_dataset()];
        let m = LeakageMatrix::run(&ds, &quick_config(), &NoopRecorder).unwrap();
        assert_eq!(m.fd_adds_no_extra_leakage(), Vec::<String>::new());
    }

    #[test]
    fn json_is_schema_versioned_and_sorted() {
        let ds = [tiny_dataset()];
        let mut cfg = quick_config();
        cfg.adversaries = vec![AdversaryModel::Baseline];
        let m = LeakageMatrix::run(&ds, &cfg, &NoopRecorder).unwrap();
        let json = m.to_json();
        assert!(json.contains("\"schema_version\": 1"));
        assert!(json.contains("\"cells\": ["));
        let adv = json.find("\"adversary\"").unwrap();
        let class = json.find("\"class\"").unwrap();
        let std = json.find("\"std\"").unwrap();
        assert!(adv < class && class < std, "keys must be sorted");
        assert!(
            !json.contains("-0.0000"),
            "negative zero must be normalised"
        );
    }

    #[test]
    fn markdown_renders_every_group() {
        let ds = [tiny_dataset()];
        let m = LeakageMatrix::run(&ds, &quick_config(), &NoopRecorder).unwrap();
        let md = m.render_markdown();
        assert!(md.contains("# Leakage matrix"));
        assert!(md.contains("## tiny — adversary: baseline"));
        assert!(md.contains("## tiny — adversary: partial50"));
        assert!(md.contains("| domains-only |"));
        assert!(md.contains("| cfd |"));
        assert!(md.contains("⚠"));
    }

    #[test]
    fn recorder_sees_the_sweep() {
        let ds = [tiny_dataset()];
        let registry = mp_observe::Registry::new();
        let m = LeakageMatrix::run(&ds, &quick_config(), &registry).unwrap();
        let snap = registry.snapshot();
        assert_eq!(snap.counters["matrix.cells"], m.cells.len() as u64);
        assert_eq!(snap.counters["matrix.adversary.baseline.cells"], 35);
        assert_eq!(snap.counters["matrix.adversary.partial50.cells"], 35);
        assert_eq!(
            snap.counters["matrix.synth.rounds"],
            (m.cells.len() * 6 * 2) as u64
        );
        // Only the fd row under full, recommended and redact-odd derives,
        // for both adversaries: `OrderDep::ascending(1, 1)` is trivial.
        let derives = m.cells.iter().filter(|c| c.class == "fd" && c.n_deps > 0);
        assert_eq!(derives.count(), 6);
        let draws = snap.counters["matrix.synth.draws"];
        assert_eq!(draws, (6 * (m.cells.len() + 6)) as u64);
        assert!(draws <= snap.counters["matrix.synth.rounds"]);
    }

    #[test]
    fn alignment_permutation_is_a_permutation() {
        let perm = alignment_permutation("tiny", 100);
        let mut sorted = perm.clone();
        sorted.sort_unstable();
        assert_eq!(sorted, (0..100).collect::<Vec<_>>());
        assert_ne!(perm, (0..100).collect::<Vec<_>>(), "shuffled, not identity");
        assert_eq!(perm, alignment_permutation("tiny", 100), "deterministic");
    }

    #[test]
    fn escape_json_handles_specials() {
        assert_eq!(escape_json("a\"b\\c"), "a\\\"b\\\\c");
        assert_eq!(escape_json("x\ny"), "x\\ny");
        assert_eq!(escape_json("plain"), "plain");
    }

    #[test]
    fn format_float_normalises_negative_zero() {
        assert_eq!(format_float(-0.000001), "0.0000");
        assert_eq!(format_float(1.25), "1.2500");
    }
}
