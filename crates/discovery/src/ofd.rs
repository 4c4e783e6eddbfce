//! Pairwise ordered-functional-dependency discovery (§IV-E).
//!
//! An OFD `X → Y` is the conjunction of the FD and the strict order
//! condition `t[X] < u[X] ⇒ t[Y] < u[Y]` — the ascending OD with a strict
//! `<` across distinct X values — so the OD pass's sweep decides it too
//! ([`OrderPass`]), with the exact semantics of [`OrderedFd::holds`].
//! Constant columns are excluded (an OFD onto a constant holds only for
//! constant X and says nothing).

use crate::engine::DiscoveryContext;
use crate::od::{OdConfig, OrderPass};
use mp_metadata::OrderedFd;
use mp_relation::Result;

/// Discovers all pairwise ordered functional dependencies of the
/// context's relation.
///
/// `exclude_constant` skips pairs where either side is constant over its
/// non-null rows. A view of one order pass (`OrderPass`) that skips
/// descending ODs.
pub fn discover_ofds_with(
    ctx: &DiscoveryContext<'_>,
    exclude_constant: bool,
) -> Result<Vec<OrderedFd>> {
    let config = OdConfig {
        exclude_constant,
        include_descending: false,
    };
    Ok(OrderPass::run(ctx, &config)?.ofds(exclude_constant))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::ParallelConfig;
    use mp_datasets::{echocardiogram, employee};
    use mp_relation::Relation;

    /// OFD discovery over a fresh context with the default budget.
    fn ofds_of(relation: &Relation, exclude_constant: bool) -> Vec<OrderedFd> {
        let ctx = DiscoveryContext::new(relation, ParallelConfig::default());
        discover_ofds_with(&ctx, exclude_constant).unwrap()
    }

    #[test]
    fn employee_ofds() {
        let ofds = ofds_of(&employee(), true);
        // Name → Salary: lexicographic names happen to order salaries.
        assert!(ofds.contains(&OrderedFd::new(0, 3)));
        // Salary → Age violated: ages repeat across distinct salaries.
        assert!(!ofds.contains(&OrderedFd::new(3, 1)));
    }

    #[test]
    fn echocardiogram_planted_ofd_found() {
        use mp_datasets::echocardiogram::attrs::*;
        let ofds = ofds_of(&echocardiogram(), true);
        assert!(ofds.contains(&OrderedFd::new(WALL_MOTION_SCORE, WALL_MOTION_INDEX)));
        assert!(ofds.contains(&OrderedFd::new(WALL_MOTION_INDEX, WALL_MOTION_SCORE)));
    }

    #[test]
    fn every_discovered_ofd_holds() {
        let out = mp_datasets::all_classes_spec(150, 40).generate().unwrap();
        for ofd in ofds_of(&out.relation, true) {
            assert!(ofd.holds(&out.relation).unwrap());
        }
    }

    #[test]
    fn ofd_implies_fd_and_od() {
        use mp_metadata::{Fd, OrderDep};
        let r = echocardiogram();
        for ofd in ofds_of(&r, true) {
            // The order part is implied unconditionally (nulls are skipped
            // by both validators).
            assert!(OrderDep::ascending(ofd.lhs, ofd.rhs).holds(&r).unwrap());
            // The FD part is implied on null-free column pairs; FD
            // validation treats nulls as values while OFD skips them.
            let null_free = |c: usize| r.column(c).unwrap().iter().all(|v| !v.is_null());
            if null_free(ofd.lhs) && null_free(ofd.rhs) {
                assert!(Fd::new(ofd.lhs, ofd.rhs).holds(&r).unwrap());
            }
        }
    }

    #[test]
    fn constant_exclusion() {
        use mp_datasets::echocardiogram::attrs::NAME;
        // attr 10 ("name") is constant: no OFDs may involve it when
        // exclusion is on.
        let ofds = ofds_of(&echocardiogram(), true);
        assert!(ofds.iter().all(|d| d.lhs != NAME && d.rhs != NAME));
    }
}
