//! Cell-seed derivation for the audit matrix.
//!
//! Every experiment in this crate is seeded, and the seed must identify
//! *which* experiment: seeding round `r` of every policy with
//! `base_seed + round` makes round `r` of the `full` policy and round `r`
//! of the `domains` policy draw identical random streams — correlated
//! results, not independent measurements. [`seed_for`] is the one
//! derivation [`crate::matrix`] uses instead: the seed is a hash of the
//! full cell coordinate `(dataset, policy, adversary, round)`, so
//!
//! * every matrix cell is independently reproducible from its coordinate
//!   alone (no ambient base seed needed), and
//! * two distinct coordinates get uncorrelated streams (collision-tested
//!   below; within a fixed label triple, distinct rounds *provably* never
//!   collide — see [`seed_for`]).
//!
//! The per-*round* derivation inside one experiment
//! (`ExperimentConfig::round_seed`) intentionally stays
//! `base_seed + round`: the Tables III/IV reproductions are golden-pinned
//! on those streams, and within a single experiment consecutive seeds are
//! harmless.

/// The `splitmix64` finalizer: a bijection on `u64` with full avalanche,
/// so structured inputs (small round numbers, similar labels) come out
/// uncorrelated.
fn splitmix64(mut z: u64) -> u64 {
    z = z.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// FNV-1a over the three labels with an explicit separator fold between
/// them, so `("ab", "c")` and `("a", "bc")` hash differently.
fn fnv1a_labels(dataset: &str, policy: &str, adversary: &str) -> u64 {
    const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
    const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;
    let mut h = FNV_OFFSET;
    for part in [dataset, policy, adversary] {
        for b in part.as_bytes() {
            h = (h ^ u64::from(*b)).wrapping_mul(FNV_PRIME);
        }
        // Unit-separator fold: delimits the parts in the hash stream.
        h = (h ^ 0x1f).wrapping_mul(FNV_PRIME);
    }
    h
}

/// Derives the RNG seed for one experiment cell.
///
/// `dataset`, `policy` and `adversary` are free-form labels naming the
/// cell ([`crate::LeakageMatrix`] folds the metadata class into the policy
/// label); `round` is the repetition index. The derivation is
/// `splitmix64(fnv1a(labels) ^ round · φ64)` where `φ64` is the odd
/// golden-ratio constant: multiplication by an odd constant is a
/// bijection on `u64` and `splitmix64` is a bijection, so **for a fixed
/// label triple, distinct rounds can never collide** (proved as a
/// property test). Across label triples, collisions would require an
/// FNV-1a collision; the preset matrix label space is pinned
/// collision-free by the tests below.
pub fn seed_for(dataset: &str, policy: &str, adversary: &str, round: u64) -> u64 {
    let h = fnv1a_labels(dataset, policy, adversary);
    splitmix64(h ^ round.wrapping_mul(0x9E37_79B9_7F4A_7C15))
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn distinct_policies_no_longer_collide() {
        // The regression this helper exists for: under the old scheme
        // every policy's round r used `base_seed + r`, so all four
        // policies drew identical streams. With seed_for the same round
        // under different policies gets different seeds.
        let policies = ["names", "domains", "full", "recommended"];
        for r in 0..64u64 {
            let mut seeds: Vec<u64> = policies
                .iter()
                .map(|p| seed_for("echocardiogram", p, "baseline", r))
                .collect();
            seeds.sort_unstable();
            seeds.dedup();
            assert_eq!(seeds.len(), policies.len(), "collision at round {r}");
        }
    }

    #[test]
    fn old_scheme_collision_demonstrated() {
        // Documents the bug being fixed: `base_seed + r` is blind to the
        // policy, so (policy₁, r) and (policy₂, r) collide for every r.
        let base_seed = 0xA0D1u64;
        let old = |_policy: &str, r: u64| base_seed.wrapping_add(r);
        assert_eq!(old("full", 7), old("domains", 7));
        assert_ne!(
            seed_for("d", "full", "baseline", 7),
            seed_for("d", "domains", "baseline", 7)
        );
    }

    #[test]
    fn full_preset_label_space_is_collision_free() {
        // Every (dataset, class/policy, adversary, round) coordinate the
        // shipped matrix sweeps, pairwise distinct. Deterministic: if
        // this passes once it passes forever.
        let datasets = ["echocardiogram", "bank", "car"];
        let classes = ["domains-only", "fd", "od", "nd", "dd", "ofd", "cfd"];
        let policies = ["names", "domains", "full", "recommended", "redact-odd"];
        let adversaries = ["baseline", "partial50", "collude2", "noisy10"];
        let mut seeds = Vec::new();
        for d in datasets {
            for c in classes {
                for p in policies {
                    for a in adversaries {
                        for r in [0u64, 1, 63] {
                            seeds.push(seed_for(d, &format!("{c}/{p}"), a, r));
                        }
                    }
                }
            }
        }
        let n = seeds.len();
        seeds.sort_unstable();
        seeds.dedup();
        assert_eq!(seeds.len(), n, "seed collision in the preset label space");
    }

    #[test]
    fn label_boundaries_matter() {
        // The separator fold keeps concatenation ambiguity out.
        assert_ne!(seed_for("ab", "c", "x", 0), seed_for("a", "bc", "x", 0));
        assert_ne!(seed_for("a", "", "x", 0), seed_for("", "a", "x", 0));
    }

    #[test]
    fn deterministic() {
        assert_eq!(
            seed_for("d", "p", "a", 3),
            seed_for("d", "p", "a", 3),
            "same coordinate must reproduce the same seed"
        );
    }

    proptest! {
        #[test]
        fn distinct_rounds_never_collide(r1 in any::<u64>(), r2 in any::<u64>()) {
            // Bijectivity argument: odd-constant multiply and splitmix64
            // are both bijections, so within one label triple the map
            // round → seed is injective.
            prop_assume!(r1 != r2);
            prop_assert!(
                seed_for("d", "p", "a", r1) != seed_for("d", "p", "a", r2),
                "rounds {} and {} collided", r1, r2
            );
        }

        #[test]
        fn rounds_distinct_across_arbitrary_labels(
            d in "[a-z]{0,8}", p in "[a-z/]{0,8}", a in "[a-z0-9]{0,8}",
            r1 in any::<u64>(), r2 in any::<u64>(),
        ) {
            prop_assume!(r1 != r2);
            prop_assert!(
                seed_for(&d, &p, &a, r1) != seed_for(&d, &p, &a, r2),
                "rounds {} and {} collided under ({}, {}, {})", r1, r2, d, p, a
            );
        }
    }
}
