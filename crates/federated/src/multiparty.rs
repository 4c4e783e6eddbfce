//! The VFL session: k parties, their PSI salt, and the setup protocol
//! run between them.
//!
//! The paper's exposition is two-party (Figure 1), but nothing in its
//! analysis depends on that: with `k` silos the setup phase runs a k-way
//! PSI and a full metadata broadcast, and every pairwise exchange carries
//! the same §III/§IV leakage surface. Two parties are the case `k = 2`.

use crate::party::Party;
use crate::protocol::{PreparedSetup, RetryConfig, SetupError};
use crate::psi::{intersect_all, submit, IdDigest};
use crate::sim::Network;
use crate::transport::Transport;
use mp_metadata::{MetadataPackage, SharePolicy};
use mp_observe::NoopRecorder;
use mp_relation::{Relation, Result};

/// Alignment of N parties over their common entities: `rows[p][i]` is the
/// row of party `p` holding the i-th common entity (same `i` ⇒ same
/// entity everywhere).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct MultiAlignment {
    /// Per-party row indices, all of equal length.
    pub rows: Vec<Vec<usize>>,
}

impl MultiAlignment {
    /// Number of common entities.
    pub fn len(&self) -> usize {
        self.rows.first().map_or(0, Vec::len)
    }

    /// `true` if no entity is shared by all parties.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

/// K-way PSI over salted digests: entities present in *every* party's id
/// column, in canonical (ascending digest) order. First occurrence wins
/// within a party, as in the two-party case.
pub fn multi_align(id_columns: &[&[mp_relation::Value]], salt: u64) -> MultiAlignment {
    let submissions: Vec<Vec<IdDigest>> = id_columns.iter().map(|ids| submit(ids, salt)).collect();
    let slices: Vec<&[IdDigest]> = submissions.iter().map(Vec::as_slice).collect();
    MultiAlignment {
        rows: intersect_all(&slices),
    }
}

/// Outcome of an N-party setup.
#[derive(Debug, Clone, PartialEq)]
pub struct MultiSetupOutcome {
    /// The k-way alignment.
    pub alignment: MultiAlignment,
    /// Each party's aligned feature slice (id columns removed).
    pub aligned: Vec<Relation>,
    /// Each party's disclosed metadata (same order as the parties).
    pub metadata: Vec<MetadataPackage>,
}

/// An N-party VFL session.
#[derive(Debug, Clone)]
pub struct MultiPartySession {
    /// The participants; by convention party 0 is the active (label) party.
    pub parties: Vec<Party>,
    /// Shared PSI salt.
    pub salt: u64,
}

impl MultiPartySession {
    /// Creates a session over at least one party.
    pub fn new(parties: Vec<Party>, salt: u64) -> Self {
        Self { parties, salt }
    }

    /// Runs k-way PSI and the metadata broadcast over a fault-free
    /// transport; `policies[p]` governs what party `p` discloses to the
    /// rest.
    pub fn run_setup(&self, policies: &[SharePolicy]) -> Result<MultiSetupOutcome> {
        let mut network = Network::new(self.parties.len());
        self.run_setup_over(policies, &mut network, &RetryConfig::default())
            .map_err(|e| match e {
                SetupError::Data(inner) => inner,
                other => mp_relation::RelationError::Io(other.to_string()),
            })
    }

    /// Runs the setup protocol over an arbitrary [`Transport`]. Fails
    /// closed with a typed [`SetupError`] when the transport defeats the
    /// retry budget. The outcome is assembled from what the parties
    /// received, so it genuinely flowed through the transport.
    pub fn run_setup_over(
        &self,
        policies: &[SharePolicy],
        transport: &mut dyn Transport,
        retry: &RetryConfig,
    ) -> std::result::Result<MultiSetupOutcome, SetupError> {
        PreparedSetup::new(&self.parties, policies, self.salt, &NoopRecorder)?.run(transport, retry)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mp_relation::{Attribute, Schema, Value};

    fn party(name: &str, ids: &[&str], feature: &str) -> Party {
        let schema = Schema::new(vec![
            Attribute::categorical("id"),
            Attribute::continuous(feature),
        ])
        .unwrap();
        let rel = Relation::from_rows(
            schema,
            ids.iter()
                .enumerate()
                .map(|(i, id)| vec![Value::Text((*id).into()), Value::Float(i as f64)])
                .collect(),
        )
        .unwrap();
        Party::new(name, rel, 0, vec![]).unwrap()
    }

    #[test]
    fn three_way_alignment_is_entity_consistent() {
        let a = party("a", &["u1", "u2", "u3", "u4"], "fa");
        let b = party("b", &["u4", "u2", "u9"], "fb");
        let c = party("c", &["u2", "u4", "u7"], "fc");
        let ids: Vec<Vec<Value>> = [&a, &b, &c].iter().map(|p| p.ids().unwrap()).collect();
        let session = MultiPartySession::new(vec![a, b, c], 42);
        let out = session
            .run_setup(&[
                SharePolicy::FULL,
                SharePolicy::FULL,
                SharePolicy::NAMES_ONLY,
            ])
            .unwrap();
        // Common entities: u2, u4.
        assert_eq!(out.alignment.len(), 2);
        for i in 0..out.alignment.len() {
            let e0 = &ids[0][out.alignment.rows[0][i]];
            for p in 1..3 {
                assert_eq!(e0, &ids[p][out.alignment.rows[p][i]]);
            }
        }
        // Aligned slices have feature columns only, equal length.
        for slice in &out.aligned {
            assert_eq!(slice.n_rows(), 2);
            assert_eq!(slice.arity(), 1);
        }
        // Per-party policies applied.
        assert!(out.metadata[0].shares_domains());
        assert!(!out.metadata[2].shares_domains());
    }

    #[test]
    fn disjoint_party_empties_intersection() {
        let a = party("a", &["u1"], "fa");
        let b = party("b", &["u2"], "fb");
        let ids: Vec<Vec<Value>> = [&a, &b].iter().map(|p| p.ids().unwrap()).collect();
        let al = multi_align(&[&ids[0], &ids[1]], 0);
        assert!(al.is_empty());
    }

    #[test]
    fn empty_party_list() {
        assert!(multi_align(&[], 0).is_empty());
    }

    #[test]
    #[should_panic(expected = "one policy per party")]
    fn policy_count_must_match() {
        let a = party("a", &["u1"], "fa");
        let session = MultiPartySession::new(vec![a], 0);
        let _ = session.run_setup(&[]);
    }
}
