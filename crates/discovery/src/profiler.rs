//! One-call dependency profiling: every class the paper analyses.

use crate::cfd::{discover_cfds, CfdConfig};
use crate::dd::{discover_dds_with, DdConfig};
use crate::engine::{DiscoveryContext, ParallelConfig};
use crate::mfd::{discover_mfds, MfdConfig};
use crate::nd::{discover_nds_with, NdConfig};
use crate::od::{discover_ods_with, OdConfig};
use crate::ofd::discover_ofds_with;
use crate::tane::{discover_fds_with, TaneConfig};
use mp_metadata::{
    Afd, ConditionalFd, Dependency, DifferentialDep, Fd, MetricFd, NumericalDep, OrderDep,
    OrderedFd,
};
use mp_relation::{Relation, Result};

/// Configuration for a full profiling pass.
#[derive(Debug, Clone, Default)]
pub struct ProfileConfig {
    /// FD discovery limits.
    pub fd: TaneConfig,
    /// AFD `g3` threshold; `None` skips AFD discovery.
    pub afd_threshold: Option<f64>,
    /// OD discovery options.
    pub od: OdConfig,
    /// ND discovery options.
    pub nd: NdConfig,
    /// DD discovery options; `None` skips DD discovery.
    pub dd: Option<DdConfig>,
    /// Whether to discover OFDs.
    pub ofds: bool,
    /// Constant-CFD discovery options; `None` skips it.
    pub cfd: Option<CfdConfig>,
    /// MFD discovery options; `None` skips it.
    pub mfd: Option<MfdConfig>,
}

impl ProfileConfig {
    /// The configuration used by the paper-reproduction binaries: pairwise
    /// dependencies only (`max_lhs = 1`), all classes on.
    pub fn paper() -> Self {
        Self {
            fd: TaneConfig {
                max_lhs: 1,
                g3_threshold: 0.0,
            },
            afd_threshold: Some(0.05),
            od: OdConfig::default(),
            nd: NdConfig::default(),
            dd: Some(DdConfig::default()),
            ofds: true,
            cfd: Some(CfdConfig::default()),
            mfd: Some(MfdConfig::default()),
        }
    }
}

/// The discovered dependency inventory of a relation.
#[derive(Debug, Clone, Default)]
pub struct DependencyProfile {
    /// Minimal exact FDs.
    pub fds: Vec<Fd>,
    /// Approximate FDs (at the configured threshold) that are not exact.
    pub afds: Vec<Afd>,
    /// Order dependencies.
    pub ods: Vec<OrderDep>,
    /// Numerical dependencies with tight bounds.
    pub nds: Vec<NumericalDep>,
    /// Differential dependencies with tight deltas.
    pub dds: Vec<DifferentialDep>,
    /// Ordered functional dependencies.
    pub ofds: Vec<OrderedFd>,
    /// Constant conditional FDs (value-carrying metadata — see
    /// `mp_metadata::ConditionalFd` for the privacy caveat).
    pub cfds: Vec<ConditionalFd>,
    /// Metric FDs.
    pub mfds: Vec<MetricFd>,
}

impl DependencyProfile {
    /// Runs every configured discovery pass.
    ///
    /// A [`DiscoveryContext`] with the default [`ParallelConfig`] is
    /// shared by every pass, so PLIs built during FD discovery are reused
    /// by the AFD, OD and ND passes. Use [`DependencyProfile::discover_with`]
    /// to choose the thread and cache budget (and inspect the context).
    pub fn discover(relation: &Relation, config: &ProfileConfig) -> Result<Self> {
        let ctx = DiscoveryContext::new(relation, ParallelConfig::default());
        Self::discover_with(&ctx, config)
    }

    /// [`DependencyProfile::discover`] against a caller-supplied
    /// [`DiscoveryContext`]. All passes draw single-attribute and lattice
    /// PLIs from the context's shared cache and fan out on its thread
    /// budget; afterwards `ctx.cache_stats()` reports the cross-pass hit
    /// rate.
    pub fn discover_with(ctx: &DiscoveryContext<'_>, config: &ProfileConfig) -> Result<Self> {
        let relation = ctx.relation();
        // One span per pass. Durations are logical units — one unit per
        // partition the context materialises — so they answer "which pass
        // did the partition work" deterministically, not wall time.
        let span = |pass: &str| ctx.recorder().span(&format!("discovery.pass.{pass}"));
        let fds = {
            let _g = span("fds").enter();
            discover_fds_with(ctx, &config.fd)?
        };
        let afds = match config.afd_threshold {
            Some(eps) if eps > 0.0 => {
                let _g = span("afds").enter();
                let approx = discover_fds_with(
                    ctx,
                    &TaneConfig {
                        g3_threshold: eps,
                        ..config.fd.clone()
                    },
                )?;
                approx
                    .into_iter()
                    // Keep only genuinely approximate ones: not implied by
                    // an exact minimal FD.
                    .filter(|f| {
                        !fds.iter()
                            .any(|e| e.rhs == f.rhs && e.lhs.is_subset_of(&f.lhs))
                    })
                    .map(|f| Afd {
                        fd: f,
                        g3_threshold: eps,
                    })
                    .collect()
            }
            _ => Vec::new(),
        };
        let ods = {
            let _g = span("ods").enter();
            discover_ods_with(ctx, &config.od)?
        };
        let nds = {
            let _g = span("nds").enter();
            discover_nds_with(ctx, &config.nd)?
        };
        let dds = match &config.dd {
            Some(cfg) => {
                let _g = span("dds").enter();
                discover_dds_with(ctx, cfg)?
            }
            None => Vec::new(),
        };
        let ofds = if config.ofds {
            let _g = span("ofds").enter();
            discover_ofds_with(ctx, true)?
        } else {
            Vec::new()
        };
        let cfds = match &config.cfd {
            Some(cfg) => {
                let _g = span("cfds").enter();
                discover_cfds(relation, cfg)?
            }
            None => Vec::new(),
        };
        let mfds = match &config.mfd {
            Some(cfg) => {
                let _g = span("mfds").enter();
                discover_mfds(relation, cfg)?
            }
            None => Vec::new(),
        };
        Ok(Self {
            fds,
            afds,
            ods,
            nds,
            dds,
            ofds,
            cfds,
            mfds,
        })
    }

    /// Total number of discovered dependencies.
    pub fn len(&self) -> usize {
        self.fds.len()
            + self.afds.len()
            + self.ods.len()
            + self.nds.len()
            + self.dds.len()
            + self.ofds.len()
            + self.cfds.len()
            + self.mfds.len()
    }

    /// `true` if nothing was discovered.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Flattens the profile into the unified [`Dependency`] enum, the form
    /// a [`mp_metadata::MetadataPackage`] carries.
    pub fn to_dependencies(&self) -> Vec<Dependency> {
        let mut out: Vec<Dependency> = Vec::with_capacity(self.len());
        out.extend(self.fds.iter().cloned().map(Dependency::from));
        out.extend(self.afds.iter().cloned().map(Dependency::from));
        out.extend(self.ods.iter().cloned().map(Dependency::from));
        out.extend(self.nds.iter().cloned().map(Dependency::from));
        out.extend(self.dds.iter().cloned().map(Dependency::from));
        out.extend(self.ofds.iter().cloned().map(Dependency::from));
        out.extend(self.cfds.iter().cloned().map(Dependency::from));
        // MFDs have no Dependency variant (their generation strategy is the
        // DD one); they are exported separately.
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mp_datasets::{all_classes_spec, employee};

    #[test]
    fn profile_finds_every_planted_class() {
        let out = all_classes_spec(500, 19).generate().unwrap();
        let profile = DependencyProfile::discover(&out.relation, &ProfileConfig::paper()).unwrap();
        assert!(!profile.fds.is_empty(), "FDs");
        assert!(!profile.afds.is_empty(), "AFDs");
        assert!(!profile.ods.is_empty(), "ODs");
        assert!(!profile.nds.is_empty(), "NDs");
        assert!(!profile.dds.is_empty(), "DDs");
        assert!(!profile.is_empty());
        // MFDs are exported separately (no Dependency variant).
        assert_eq!(
            profile.to_dependencies().len(),
            profile.len() - profile.mfds.len()
        );
    }

    #[test]
    fn afds_are_not_exact_fds() {
        let out = all_classes_spec(500, 23).generate().unwrap();
        let profile = DependencyProfile::discover(&out.relation, &ProfileConfig::paper()).unwrap();
        for afd in &profile.afds {
            assert!(
                !afd.fd.holds(&out.relation).unwrap(),
                "AFD {:?} should be genuinely approximate",
                afd.fd
            );
            assert!(afd.holds(&out.relation).unwrap());
        }
    }

    #[test]
    fn every_discovered_dependency_holds() {
        let profile = DependencyProfile::discover(&employee(), &ProfileConfig::paper()).unwrap();
        for dep in profile.to_dependencies() {
            assert!(dep.holds(&employee()).unwrap(), "{dep}");
        }
    }

    #[test]
    fn shared_context_profile_matches_and_hits_cache() {
        let out = all_classes_spec(300, 19).generate().unwrap();
        let config = ProfileConfig::paper();
        let baseline = DependencyProfile::discover(&out.relation, &config).unwrap();

        let ctx = DiscoveryContext::new(&out.relation, ParallelConfig::default());
        let shared = DependencyProfile::discover_with(&ctx, &config).unwrap();
        assert_eq!(format!("{:?}", baseline), format!("{:?}", shared));

        let stats = ctx.cache_stats();
        // The FD pass and the AFD pass walk the same lattice; the ND pass
        // re-reads single-attribute PLIs. Sharing one context must produce
        // cache hits.
        assert!(stats.hits > 0, "shared context should reuse PLIs: {stats}");
    }

    #[test]
    fn disabled_passes_stay_empty() {
        let config = ProfileConfig {
            afd_threshold: None,
            dd: None,
            ofds: false,
            cfd: None,
            mfd: None,
            ..ProfileConfig::paper()
        };
        let profile = DependencyProfile::discover(&employee(), &config).unwrap();
        assert!(profile.afds.is_empty());
        assert!(profile.dds.is_empty());
        assert!(profile.ofds.is_empty());
        assert!(profile.cfds.is_empty());
        assert!(profile.mfds.is_empty());
        assert!(!profile.fds.is_empty());
    }
}
