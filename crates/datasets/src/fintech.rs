//! The paper's Figure 1 scenario: a bank and an e-commerce company hold
//! vertical slices of a common customer population.
//!
//! The bank holds credit features; the e-commerce company holds purchase
//! features. Both relations lead with a `customer_id` key column used for
//! (simulated) private set intersection. The bank's side carries planted
//! dependency structure so the scenario exercises metadata exchange with
//! FDs and RFDs, as the paper's introduction motivates.

use mp_metadata::{Dependency, Fd, NumericalDep, OrderDep};
use mp_relation::{Attribute, Relation, Schema, Value};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// One side of the fintech scenario.
#[derive(Debug, Clone)]
pub struct FintechParty {
    /// The party's relation, leading with `customer_id`.
    pub relation: Relation,
    /// Dependencies that hold on the relation by construction.
    pub dependencies: Vec<Dependency>,
}

/// Both parties of the Figure 1 scenario.
#[derive(Debug, Clone)]
pub struct FintechScenario {
    /// Party A: the bank.
    pub bank: FintechParty,
    /// Party B: the e-commerce company.
    pub ecommerce: FintechParty,
}

/// Builds the scenario: `n_customers` shared customers, of which the bank
/// sees all and the e-commerce company sees a deterministic ~80% subset
/// (so PSI has something to intersect), plus 10% e-commerce-only IDs.
pub fn fintech_scenario(n_customers: usize, seed: u64) -> FintechScenario {
    let mut rng = StdRng::seed_from_u64(seed);
    let bank = bank_side(n_customers, &mut rng);

    // ---- E-commerce side -------------------------------------------------
    let ecom_schema = Schema::new(vec![
        Attribute::categorical("customer_id"),
        Attribute::continuous("annual_spend"),
        Attribute::categorical("loyalty_level"),
        Attribute::continuous("orders_per_year"),
    ])
    .expect("ecom schema is valid");

    let mut ecom_rows = Vec::new();
    for i in 0..n_customers {
        if i % 5 == 4 {
            continue; // 20% of bank customers unseen by the e-commerce side
        }
        let spend = (100.0 + 20_000.0 * rng.gen::<f64>()).round();
        let loyalty: i64 = match spend {
            x if x < 2_000.0 => 0,
            x if x < 8_000.0 => 1,
            _ => 2,
        };
        let orders = (1.0 + spend / 400.0 + 5.0 * rng.gen::<f64>()).round();
        ecom_rows.push(vec![
            Value::Text(format!("C{i:05}")),
            Value::Float(spend),
            Value::Int(loyalty),
            Value::Float(orders),
        ]);
    }
    // E-commerce-only customers, invisible to the bank.
    for j in 0..n_customers / 10 {
        let spend = (100.0 + 20_000.0 * rng.gen::<f64>()).round();
        let loyalty: i64 = match spend {
            x if x < 2_000.0 => 0,
            x if x < 8_000.0 => 1,
            _ => 2,
        };
        ecom_rows.push(vec![
            Value::Text(format!("X{j:05}")),
            Value::Float(spend),
            Value::Int(loyalty),
            Value::Float((1.0 + spend / 400.0).round()),
        ]);
    }
    let ecom_rel = Relation::from_rows(ecom_schema, ecom_rows).expect("ecom rows valid");
    let ecom_deps: Vec<Dependency> = vec![
        Fd::new(1usize, 2).into(),        // spend → loyalty
        OrderDep::ascending(1, 2).into(), // spend ≤ → loyalty ≤
    ];

    FintechScenario {
        bank,
        ecommerce: FintechParty {
            relation: ecom_rel,
            dependencies: ecom_deps,
        },
    }
}

/// The bank side of the scenario: its rows are the first draws from
/// `rng`, so [`fintech_scenario`] and [`crate::bank_table`] build the
/// same relation from the same seed.
pub(crate) fn bank_side(n_customers: usize, rng: &mut StdRng) -> FintechParty {
    let bank_schema = Schema::new(vec![
        Attribute::categorical("customer_id"),
        Attribute::continuous("income"),
        Attribute::categorical("credit_tier"),
        Attribute::continuous("credit_limit"),
        Attribute::categorical("region"),
        Attribute::categorical("loan_approved"),
    ])
    .expect("bank schema is valid");

    let regions = ["north", "south", "east", "west"];
    let mut bank_rows = Vec::with_capacity(n_customers);
    for i in 0..n_customers {
        let income = (20_000.0 + 130_000.0 * rng.gen::<f64>()).round();
        // credit_tier is an income band: FD/OD income → tier.
        let tier: i64 = match income {
            x if x < 45_000.0 => 0,
            x if x < 90_000.0 => 1,
            x if x < 120_000.0 => 2,
            _ => 3,
        };
        // credit_limit is a deterministic multiple of the tier: FD tier →
        // limit with tiny fanout, and ND tier →≤1 limit.
        let limit = 2_000.0 * (tier + 1) as f64;
        let region = regions[rng.gen_range(0..regions.len())];
        // Approval depends on tier and region jointly.
        let approved = i64::from(tier >= 1 && region != "west");
        bank_rows.push(vec![
            Value::Text(format!("C{i:05}")),
            Value::Float(income),
            Value::Int(tier),
            Value::Float(limit),
            Value::Text(region.into()),
            Value::Int(approved),
        ]);
    }
    let bank_rel = Relation::from_rows(bank_schema, bank_rows).expect("bank rows valid");
    let bank_deps: Vec<Dependency> = vec![
        Fd::new(1usize, 2).into(),         // income → tier
        OrderDep::ascending(1, 2).into(),  // income ≤ → tier ≤
        Fd::new(2usize, 3).into(),         // tier → limit
        OrderDep::ascending(2, 3).into(),  // tier ≤ → limit ≤
        NumericalDep::new(2, 3, 1).into(), // tier →≤1 limit
        Fd::new(vec![2, 4], 5).into(),     // {tier, region} → approved
    ];
    FintechParty {
        relation: bank_rel,
        dependencies: bank_deps,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scenario_shapes() {
        let s = fintech_scenario(100, 7);
        assert_eq!(s.bank.relation.n_rows(), 100);
        // 80 shared + 10 e-commerce-only.
        assert_eq!(s.ecommerce.relation.n_rows(), 90);
        assert_eq!(s.bank.relation.arity(), 6);
        assert_eq!(s.ecommerce.relation.arity(), 4);
    }

    #[test]
    fn planted_dependencies_hold() {
        let s = fintech_scenario(200, 11);
        for d in &s.bank.dependencies {
            assert!(d.holds(&s.bank.relation).unwrap(), "bank: {d}");
        }
        for d in &s.ecommerce.dependencies {
            assert!(d.holds(&s.ecommerce.relation).unwrap(), "ecom: {d}");
        }
    }

    #[test]
    fn customer_ids_overlap_partially() {
        let s = fintech_scenario(50, 3);
        let bank_ids: Vec<_> = s.bank.relation.column_values(0).unwrap();
        let ecom_ids: Vec<_> = s.ecommerce.relation.column_values(0).unwrap();
        let shared = ecom_ids.iter().filter(|v| bank_ids.contains(v)).count();
        assert_eq!(shared, 40);
        assert!(ecom_ids.iter().any(|v| !bank_ids.contains(v)));
    }

    #[test]
    fn deterministic_per_seed() {
        assert_eq!(
            fintech_scenario(30, 5).bank.relation,
            fintech_scenario(30, 5).bank.relation
        );
        assert_ne!(
            fintech_scenario(30, 5).bank.relation,
            fintech_scenario(30, 6).bank.relation
        );
    }
}
