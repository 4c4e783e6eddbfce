//! The metadata package a VFL party shares before training.
//!
//! This is the wire artefact at the heart of the paper: *"Participating
//! parties exchange dataset-related information in the preliminary stage of
//! model training ... specifically metadata that describes the content of
//! their respective data."* A [`MetadataPackage`] carries exactly the
//! metadata kinds the paper analyses — attribute names, kinds (types),
//! domains, row count, and (relaxed) functional dependencies — each
//! individually omittable so redaction policies can be expressed.

use crate::dependency::Dependency;
use crate::distribution::Distribution;
use crate::graph::DependencyGraph;
use mp_relation::{AttrKind, Domain, Relation, Result};
use serde::{Deserialize, Serialize};

/// The wire-format version written by [`MetadataPackage::to_json`].
///
/// Decoding accepts packages carrying this version or none at all
/// (pre-versioning packages); anything else is an
/// [`ExchangeError::UnsupportedVersion`], so a future incompatible format
/// fails loudly instead of being half-parsed.
pub const FORMAT_VERSION: u32 = 1;

/// Errors decoding a metadata exchange package.
#[derive(Debug, Clone, PartialEq)]
pub enum ExchangeError {
    /// The JSON itself was malformed or did not match the package schema.
    Json(String),
    /// The package declares a wire-format version this build cannot read.
    UnsupportedVersion {
        /// Version declared by the package.
        found: u32,
        /// Version this build reads and writes.
        supported: u32,
    },
}

impl std::fmt::Display for ExchangeError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ExchangeError::Json(msg) => write!(f, "malformed metadata package: {msg}"),
            ExchangeError::UnsupportedVersion { found, supported } => write!(
                f,
                "unsupported package format version {found} (this build reads version {supported})"
            ),
        }
    }
}

impl std::error::Error for ExchangeError {}

/// Metadata shared about a single attribute.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct AttributeMeta {
    /// The feature name (always present — it is the minimum needed to refer
    /// to the attribute at all).
    pub name: String,
    /// The attribute kind (type), if shared.
    pub kind: Option<AttrKind>,
    /// The attribute domain, if shared.
    pub domain: Option<Domain>,
    /// The attribute's value distribution, if shared — a disclosure level
    /// above the domain (see [`Distribution`]). Absent in the paper's
    /// setting ("the distribution is not communicated").
    #[serde(default)]
    pub distribution: Option<Distribution>,
}

/// Everything one party shares about its relation.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct MetadataPackage {
    /// Wire-format version ([`FORMAT_VERSION`]); `None` on packages from
    /// builds that predate versioning, which decode identically.
    #[serde(default)]
    pub format_version: Option<u32>,
    /// Identifier of the sharing party (e.g. `"bank"`).
    pub party: String,
    /// Per-attribute metadata, in schema order.
    pub attributes: Vec<AttributeMeta>,
    /// Shared dependencies (possibly empty).
    pub dependencies: Vec<Dependency>,
    /// Number of tuples, if shared. After PSI alignment both parties know
    /// the intersection size, so this is usually shared implicitly.
    pub n_rows: Option<usize>,
}

impl MetadataPackage {
    /// Builds the *full-disclosure* package for a relation: names, kinds,
    /// inferred domains, row count and the given dependencies.
    ///
    /// Redaction policies ([`crate::SharePolicy`]) then strip fields.
    pub fn describe(
        party: impl Into<String>,
        relation: &Relation,
        dependencies: Vec<Dependency>,
    ) -> Result<Self> {
        let mut attributes = Vec::with_capacity(relation.arity());
        for (i, attr) in relation.schema().iter() {
            attributes.push(AttributeMeta {
                name: attr.name.clone(),
                kind: Some(attr.kind),
                domain: Some(Domain::infer(relation, i)?),
                distribution: None,
            });
        }
        Ok(Self {
            format_version: Some(FORMAT_VERSION),
            party: party.into(),
            attributes,
            dependencies,
            n_rows: Some(relation.n_rows()),
        })
    }

    /// Builds the package like [`MetadataPackage::describe`] but also
    /// attaches estimated value distributions (`buckets` histogram bins
    /// for continuous attributes) — the over-sharing scenario analysed in
    /// `mp-core::analytical::distribution`.
    pub fn describe_with_distributions(
        party: impl Into<String>,
        relation: &Relation,
        dependencies: Vec<Dependency>,
        buckets: usize,
    ) -> Result<Self> {
        let mut pkg = Self::describe(party, relation, dependencies)?;
        for (i, meta) in pkg.attributes.iter_mut().enumerate() {
            meta.distribution = Distribution::estimate(relation, i, buckets).ok();
        }
        Ok(pkg)
    }

    /// Number of attributes described.
    pub fn arity(&self) -> usize {
        self.attributes.len()
    }

    /// The dependency graph induced by the shared dependencies.
    pub fn dependency_graph(&self) -> std::result::Result<DependencyGraph, String> {
        DependencyGraph::new(self.arity(), self.dependencies.clone())
    }

    /// Serialises to JSON (the exchange wire format).
    pub fn to_json(&self) -> String {
        // The vendored serializer is total over the Content tree, so the
        // Err arm is unreachable; mapping it to the empty string keeps
        // this encoder panic-free (it is a fuzz target).
        serde_json::to_string_pretty(self).unwrap_or_default()
    }

    /// Deserialises from JSON, rejecting packages whose declared
    /// [`format_version`](Self::format_version) this build cannot read.
    pub fn from_json(json: &str) -> std::result::Result<Self, ExchangeError> {
        let pkg: Self =
            serde_json::from_str(json).map_err(|e| ExchangeError::Json(e.to_string()))?;
        match pkg.format_version {
            None | Some(FORMAT_VERSION) => Ok(pkg),
            Some(found) => Err(ExchangeError::UnsupportedVersion {
                found,
                supported: FORMAT_VERSION,
            }),
        }
    }

    /// `true` if any attribute's domain is shared — per the paper's
    /// conclusion, *this* is the field enabling random-generation leakage.
    pub fn shares_domains(&self) -> bool {
        self.attributes.iter().any(|a| a.domain.is_some())
    }

    /// `true` if any dependencies are shared.
    pub fn shares_dependencies(&self) -> bool {
        !self.dependencies.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dependency::Fd;
    use mp_relation::{Attribute, Schema, Value};

    fn rel() -> Relation {
        let schema = Schema::new(vec![
            Attribute::categorical("dept"),
            Attribute::continuous("salary"),
        ])
        .unwrap();
        Relation::from_rows(
            schema,
            vec![
                vec!["Sales".into(), 20.0.into()],
                vec!["CS".into(), 30.0.into()],
            ],
        )
        .unwrap()
    }

    #[test]
    fn describe_is_full_disclosure() {
        let pkg =
            MetadataPackage::describe("bank", &rel(), vec![Fd::new(0usize, 1).into()]).unwrap();
        assert_eq!(pkg.arity(), 2);
        assert_eq!(pkg.n_rows, Some(2));
        assert!(pkg.shares_domains());
        assert!(pkg.shares_dependencies());
        assert_eq!(pkg.attributes[0].kind, Some(AttrKind::Categorical));
        let dom = pkg.attributes[0].domain.as_ref().unwrap();
        assert!(dom.contains(&Value::Text("Sales".into())));
    }

    #[test]
    fn json_roundtrip() {
        let pkg =
            MetadataPackage::describe("bank", &rel(), vec![Fd::new(0usize, 1).into()]).unwrap();
        let json = pkg.to_json();
        let back = MetadataPackage::from_json(&json).unwrap();
        assert_eq!(back, pkg);
    }

    #[test]
    fn version_tagged_and_legacy_packages_decode() {
        let pkg =
            MetadataPackage::describe("bank", &rel(), vec![Fd::new(0usize, 1).into()]).unwrap();
        assert_eq!(pkg.format_version, Some(FORMAT_VERSION));
        // A pre-versioning package (no format_version key) still decodes.
        let legacy = r#"{"party": "old", "attributes": [], "dependencies": [], "n_rows": null}"#;
        let back = MetadataPackage::from_json(legacy).unwrap();
        assert_eq!(back.format_version, None);
        assert_eq!(back.party, "old");
    }

    #[test]
    fn unsupported_version_is_rejected() {
        let pkg =
            MetadataPackage::describe("bank", &rel(), vec![Fd::new(0usize, 1).into()]).unwrap();
        let json = pkg.to_json().replace(
            &format!("\"format_version\": {FORMAT_VERSION}"),
            "\"format_version\": 99",
        );
        match MetadataPackage::from_json(&json) {
            Err(ExchangeError::UnsupportedVersion { found: 99, .. }) => {}
            other => panic!("expected UnsupportedVersion, got {other:?}"),
        }
    }

    #[test]
    fn truncated_and_duplicate_key_packages_are_rejected() {
        let pkg =
            MetadataPackage::describe("bank", &rel(), vec![Fd::new(0usize, 1).into()]).unwrap();
        let json = pkg.to_json();
        // Truncation at any prefix must be a typed error, never a panic.
        for cut in [0, 1, json.len() / 2, json.len() - 1] {
            assert!(
                matches!(
                    MetadataPackage::from_json(&json[..cut]),
                    Err(ExchangeError::Json(_))
                ),
                "truncation at byte {cut} must be rejected"
            );
        }
        // A duplicated key cannot smuggle a second, conflicting value.
        let dup = json.replacen(
            "\"party\": \"bank\"",
            "\"party\": \"bank\", \"party\": \"evil\"",
            1,
        );
        match MetadataPackage::from_json(&dup) {
            Err(ExchangeError::Json(msg)) => assert!(msg.contains("duplicate")),
            other => panic!("expected duplicate-key rejection, got {other:?}"),
        }
    }

    #[test]
    fn graph_from_package() {
        let pkg =
            MetadataPackage::describe("bank", &rel(), vec![Fd::new(0usize, 1).into()]).unwrap();
        let g = pkg.dependency_graph().unwrap();
        assert_eq!(
            g.plan(),
            [
                crate::PlanStep::Free { attr: 0 },
                crate::PlanStep::Derive { attr: 1, dep: 0 }
            ]
        );
    }

    #[test]
    fn invalid_dependency_range_surfaces() {
        let pkg =
            MetadataPackage::describe("bank", &rel(), vec![Fd::new(0usize, 7).into()]).unwrap();
        assert!(pkg.dependency_graph().is_err());
    }
}
