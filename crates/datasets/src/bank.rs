//! The Figure 1 bank table scaled for the leakage matrix.
//!
//! [`bank_table`] builds only the deterministic bank side of
//! [`crate::fintech_scenario`] (the same relation, without generating the
//! e-commerce side) and widens its dependency inventory so the
//! matrix's per-class rows all have something to gate: on top of the
//! planted FD/OD/ND structure it adds
//!
//! * a constant CFD `credit_tier = 1 ⇒ credit_limit = 4000` — true by the
//!   generator's `limit = 2000 · (tier + 1)` rule, and the value-carrying
//!   dependency class the paper flags as privacy-special;
//! * a differential dependency `income ±1000 ⇒ credit_limit ±6000` —
//!   incomes within 1000 straddle at most one tier boundary (bands are
//!   ≥ 30 000 wide), so limits differ by at most 2000.
//!
//! No OFD holds on this table, so the matrix's `ofd` row degenerates to
//! the domains-only row here — itself a useful fixed point.

use crate::fintech::{bank_side, FintechParty};
use mp_metadata::{ConditionalFd, DifferentialDep};
use rand::rngs::StdRng;
use rand::SeedableRng;

/// Seed pinning the bank table; the matrix goldens depend on it.
const BANK_SEED: u64 = 42;

/// The scaled Figure 1 bank table with its full dependency inventory.
///
/// Deterministic in `n_customers`: same input, same relation, same
/// dependencies — every planted dependency holds exactly (tested below).
pub fn bank_table(n_customers: usize) -> FintechParty {
    let mut party = bank_side(n_customers, &mut StdRng::seed_from_u64(BANK_SEED));
    party
        .dependencies
        .push(ConditionalFd::constant(2, 1i64, 3, 4000.0f64).into());
    party
        .dependencies
        .push(DifferentialDep::new(1, 3, 1000.0, 6000.0).into());
    party
}

#[cfg(test)]
mod tests {
    use super::*;
    use mp_metadata::Dependency;

    #[test]
    fn all_planted_dependencies_hold() {
        let party = bank_table(300);
        assert_eq!(party.relation.n_rows(), 300);
        assert_eq!(party.relation.arity(), 6);
        for dep in &party.dependencies {
            assert!(dep.holds(&party.relation).unwrap(), "{dep}");
        }
    }

    #[test]
    fn inventory_covers_the_expected_classes() {
        let party = bank_table(100);
        let classes: Vec<&str> = party.dependencies.iter().map(Dependency::class).collect();
        for class in ["FD", "OD", "ND", "CFD", "DD"] {
            assert!(classes.contains(&class), "missing {class}");
        }
        assert!(!classes.contains(&"OFD"), "no OFD is planted on purpose");
    }

    #[test]
    fn deterministic() {
        assert_eq!(bank_table(50).relation, bank_table(50).relation);
    }

    #[test]
    fn matches_the_bank_side_of_the_scenario() {
        for n in [0, 1, 50, 500] {
            let scenario = crate::fintech_scenario(n, BANK_SEED).bank;
            assert_eq!(bank_table(n).relation, scenario.relation, "n = {n}");
        }
    }
}
