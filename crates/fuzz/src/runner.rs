//! The fuzzing loop: seeded mutation, crash capture, round-trip checking
//! and coverage-light corpus growth.

use crate::mutate::Mutator;
use crate::rng::XorShift64;
use crate::target::{FuzzTarget, TargetOutcome};
use std::collections::hash_map::DefaultHasher;
use std::collections::HashSet;
use std::hash::{Hash, Hasher};
use std::panic::{catch_unwind, AssertUnwindSafe};

/// Bounds of one fuzzing run. Everything is derived from `seed`, so a
/// run is replayable bit-for-bit.
#[derive(Debug, Clone, Copy)]
pub struct FuzzConfig {
    /// Master seed for the mutation stream.
    pub seed: u64,
    /// Mutated inputs to execute.
    pub iterations: u64,
    /// Upper bound on input size in bytes.
    pub max_len: usize,
    /// Upper bound on corpus growth (seeds always stay).
    pub max_corpus: usize,
}

impl Default for FuzzConfig {
    fn default() -> Self {
        Self {
            seed: 0x5EED,
            iterations: 2_000,
            max_len: 1 << 14,
            max_corpus: 512,
        }
    }
}

/// Why an input is a finding.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum FindingKind {
    /// The decoder unwound instead of returning a typed error.
    Panic {
        /// Rendered panic payload.
        message: String,
    },
    /// Decode→encode of an accepted input is not a fixed point: the
    /// canonical bytes re-decoded to something that re-encodes
    /// differently (or stopped decoding at all).
    RoundTripDivergence {
        /// Canonical bytes after the first decode/encode.
        first: Vec<u8>,
        /// What the second decode/encode produced (empty on rejection).
        second: Vec<u8>,
    },
    /// Two decode paths that must agree gave different results
    /// ([`TargetOutcome::Diverged`]).
    PathDivergence {
        /// Both paths' results.
        detail: String,
    },
}

/// One input that violated the target contract.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Finding {
    /// The offending target.
    pub target: &'static str,
    /// The exact input bytes (replayable).
    pub input: Vec<u8>,
    /// What went wrong.
    pub kind: FindingKind,
}

/// Aggregate statistics of one fuzzing run.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FuzzReport {
    /// Target fuzzed.
    pub target: &'static str,
    /// Inputs executed (corpus replays + mutated iterations).
    pub executions: u64,
    /// Inputs the decoder accepted.
    pub accepted: u64,
    /// Inputs the decoder rejected with a typed error.
    pub rejected: u64,
    /// Final corpus size.
    pub corpus_size: usize,
    /// Distinct outcome signatures (the coverage-light feedback signal).
    pub distinct_signatures: u64,
    /// Contract violations found (empty on a clean run).
    pub findings: Vec<Finding>,
}

fn signature(outcome: &TargetOutcome) -> u64 {
    let mut h = DefaultHasher::new();
    match outcome {
        TargetOutcome::Rejected { error } => (0u8, error).hash(&mut h),
        TargetOutcome::Accepted { canonical } => (1u8, canonical).hash(&mut h),
        TargetOutcome::Diverged { detail } => (2u8, detail).hash(&mut h),
    }
    h.finish()
}

/// Runs `input` through `target` with panic capture.
fn execute(target: &dyn FuzzTarget, input: &[u8]) -> Result<TargetOutcome, String> {
    catch_unwind(AssertUnwindSafe(|| target.run(input))).map_err(|payload| {
        if let Some(s) = payload.downcast_ref::<&str>() {
            (*s).to_owned()
        } else if let Some(s) = payload.downcast_ref::<String>() {
            s.clone()
        } else {
            "non-string panic payload".to_owned()
        }
    })
}

/// Checks the full target contract on one input: no panic, decode paths
/// that must agree do, and accepted inputs canonicalise to a
/// decode/encode fixed point. `Ok(outcome)` means the contract held, and
/// is then never [`TargetOutcome::Diverged`].
pub fn check_input(target: &dyn FuzzTarget, input: &[u8]) -> Result<TargetOutcome, Finding> {
    let diverged = |input: &[u8], detail: String| Finding {
        target: target.name(),
        input: input.to_vec(),
        kind: FindingKind::PathDivergence { detail },
    };
    let outcome = execute(target, input).map_err(|message| Finding {
        target: target.name(),
        input: input.to_vec(),
        kind: FindingKind::Panic { message },
    })?;
    if let TargetOutcome::Diverged { detail } = outcome {
        return Err(diverged(input, detail));
    }
    if let TargetOutcome::Accepted { canonical } = &outcome {
        match execute(target, canonical) {
            Err(message) => {
                return Err(Finding {
                    target: target.name(),
                    input: canonical.clone(),
                    kind: FindingKind::Panic { message },
                })
            }
            Ok(TargetOutcome::Rejected { error }) => {
                return Err(Finding {
                    target: target.name(),
                    input: input.to_vec(),
                    kind: FindingKind::RoundTripDivergence {
                        first: canonical.clone(),
                        second: error.into_bytes(),
                    },
                })
            }
            Ok(TargetOutcome::Accepted { canonical: again }) if again != *canonical => {
                return Err(Finding {
                    target: target.name(),
                    input: input.to_vec(),
                    kind: FindingKind::RoundTripDivergence {
                        first: canonical.clone(),
                        second: again,
                    },
                })
            }
            Ok(TargetOutcome::Diverged { detail }) => return Err(diverged(canonical, detail)),
            Ok(TargetOutcome::Accepted { .. }) => {}
        }
    }
    Ok(outcome)
}

/// Fuzzes one target: replays the corpus (built-in seeds plus
/// `extra_corpus`, e.g. loaded from `fuzz/corpus/`), then runs
/// `cfg.iterations` mutated inputs, growing the corpus whenever an input
/// produces an outcome signature not seen before.
pub fn fuzz_target(
    target: &dyn FuzzTarget,
    extra_corpus: &[Vec<u8>],
    cfg: &FuzzConfig,
) -> FuzzReport {
    let mut report = FuzzReport {
        target: target.name(),
        executions: 0,
        accepted: 0,
        rejected: 0,
        corpus_size: 0,
        distinct_signatures: 0,
        findings: Vec::new(),
    };
    let mut corpus: Vec<Vec<u8>> = target.seeds();
    corpus.extend(extra_corpus.iter().cloned());
    corpus.retain(|input| input.len() <= cfg.max_len);
    if corpus.is_empty() {
        corpus.push(Vec::new());
    }
    let mut signatures: HashSet<u64> = HashSet::new();

    // Replay the whole starting corpus first: regressions and seeds must
    // uphold the contract before mutation starts.
    for input in corpus.clone() {
        report.executions += 1;
        match check_input(target, &input) {
            Ok(outcome) => {
                signatures.insert(signature(&outcome));
                match outcome {
                    TargetOutcome::Accepted { .. } => report.accepted += 1,
                    _ => report.rejected += 1,
                }
            }
            Err(finding) => report.findings.push(finding),
        }
    }

    let mutator = Mutator::new(target.dictionary(), cfg.max_len);
    let mut rng = XorShift64::new(cfg.seed);
    for _ in 0..cfg.iterations {
        let input = if corpus.len() >= 2 && rng.chance(1, 8) {
            let a = rng.below(corpus.len());
            let b = rng.below(corpus.len());
            mutator.splice(&mut rng, &corpus[a], &corpus[b])
        } else {
            let base = rng.below(corpus.len());
            mutator.mutate(&mut rng, &corpus[base])
        };
        report.executions += 1;
        match check_input(target, &input) {
            Ok(outcome) => {
                match outcome {
                    TargetOutcome::Accepted { .. } => report.accepted += 1,
                    _ => report.rejected += 1,
                }
                // Coverage-light feedback: a never-seen outcome signature
                // marks an input that reached new decoder behaviour.
                if signatures.insert(signature(&outcome)) && corpus.len() < cfg.max_corpus {
                    corpus.push(input);
                }
            }
            Err(finding) => report.findings.push(finding),
        }
    }

    report.corpus_size = corpus.len();
    report.distinct_signatures = signatures.len() as u64;
    report
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::target::registry;

    /// A deliberately broken target: panics on `0xFF`, violates the
    /// fixed-point contract for inputs starting with `b'x'` by prepending
    /// another `b'x'` on every encode, and reports diverging decode paths
    /// for inputs starting with `b'd'`.
    struct BuggyTarget;

    impl FuzzTarget for BuggyTarget {
        fn name(&self) -> &'static str {
            "buggy"
        }
        fn dictionary(&self) -> &'static [&'static [u8]] {
            &[&[0xFF], b"x"]
        }
        fn seeds(&self) -> Vec<Vec<u8>> {
            vec![b"ok".to_vec()]
        }
        fn run(&self, input: &[u8]) -> TargetOutcome {
            if input.contains(&0xFF) {
                panic!("boom");
            }
            if input.first() == Some(&b'd') {
                return TargetOutcome::Diverged {
                    detail: "paths disagree".to_owned(),
                };
            }
            if input.first() == Some(&b'x') {
                let mut grown = input.to_vec();
                grown.insert(0, b'x');
                return TargetOutcome::Accepted { canonical: grown };
            }
            TargetOutcome::Accepted {
                canonical: input.to_vec(),
            }
        }
    }

    #[test]
    fn runner_catches_panics_and_roundtrip_divergence() {
        let report = fuzz_target(
            &BuggyTarget,
            &[],
            &FuzzConfig {
                seed: 1,
                iterations: 400,
                ..FuzzConfig::default()
            },
        );
        assert!(
            report
                .findings
                .iter()
                .any(|f| matches!(f.kind, FindingKind::Panic { .. })),
            "panic on 0xFF not caught"
        );
        assert!(
            report
                .findings
                .iter()
                .any(|f| matches!(f.kind, FindingKind::RoundTripDivergence { .. })),
            "fixed-point violation not caught"
        );
    }

    #[test]
    fn check_input_flags_the_exact_panic_input() {
        let finding = check_input(&BuggyTarget, &[b'a', 0xFF]).unwrap_err();
        assert_eq!(finding.input, vec![b'a', 0xFF]);
        assert!(matches!(finding.kind, FindingKind::Panic { ref message } if message == "boom"));
    }

    #[test]
    fn check_input_flags_diverging_paths() {
        let finding = check_input(&BuggyTarget, b"d1").unwrap_err();
        assert_eq!(finding.input, b"d1".to_vec());
        assert!(
            matches!(finding.kind, FindingKind::PathDivergence { ref detail } if detail == "paths disagree")
        );
    }

    #[test]
    fn fuzz_run_is_seed_deterministic() {
        let target = &registry()[0];
        let cfg = FuzzConfig {
            seed: 77,
            iterations: 300,
            ..FuzzConfig::default()
        };
        let a = fuzz_target(target.as_ref(), &[], &cfg);
        let b = fuzz_target(target.as_ref(), &[], &cfg);
        assert_eq!(a, b);
    }

    #[test]
    fn real_targets_smoke_clean() {
        for target in registry() {
            let report = fuzz_target(
                target.as_ref(),
                &[],
                &FuzzConfig {
                    seed: 0xF00D,
                    iterations: 500,
                    ..FuzzConfig::default()
                },
            );
            assert!(
                report.findings.is_empty(),
                "{}: {:?}",
                target.name(),
                report.findings
            );
            assert!(report.rejected > 0, "{} rejected nothing", target.name());
            assert!(
                report.distinct_signatures > 5,
                "{} explored almost nothing",
                target.name()
            );
        }
    }
}
