//! The dependency generation graph.
//!
//! The paper's evaluation section: *"The dependencies form a directed graph
//! between the attributes which is used for generation."* Nodes are
//! attributes; an edge `X → Y` exists for every shared dependency with
//! determinant X and dependent Y. The adversary generates attribute values
//! in topological order so that every dependent attribute is produced by
//! its dependency's mapping rather than independently.

use crate::attrset::AttrSet;
use crate::dependency::Dependency;
use serde::{Deserialize, Serialize};
use std::collections::VecDeque;

/// A directed graph of dependencies over `n_attrs` attributes.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct DependencyGraph {
    n_attrs: usize,
    deps: Vec<Dependency>,
}

/// One step of a generation plan: produce attribute `attr` either freely
/// from its domain or through the mapping of a dependency.
#[derive(Debug, Clone, PartialEq)]
pub enum PlanStep {
    /// Generate the attribute independently from its shared domain.
    Free {
        /// The attribute to generate.
        attr: usize,
    },
    /// Generate the attribute through dependency `dep` (indexing into the
    /// dependency list the graph was built from), whose determinants have
    /// already been generated.
    Derive {
        /// The attribute to generate.
        attr: usize,
        /// Index of the driving dependency.
        dep: usize,
    },
}

impl PlanStep {
    /// The attribute this step produces.
    pub fn attr(&self) -> usize {
        match self {
            PlanStep::Free { attr } | PlanStep::Derive { attr, .. } => *attr,
        }
    }
}

impl DependencyGraph {
    /// Builds a graph over `n_attrs` attributes from shared dependencies.
    ///
    /// Dependencies referring to out-of-range attributes are rejected.
    pub(crate) fn new(n_attrs: usize, deps: Vec<Dependency>) -> Result<Self, String> {
        for d in &deps {
            if d.rhs() >= n_attrs || d.lhs().iter().any(|a| a >= n_attrs) {
                return Err(format!(
                    "dependency {d} references attribute out of range (n={n_attrs})"
                ));
            }
        }
        Ok(Self { n_attrs, deps })
    }

    /// Dependencies whose dependent attribute is `attr`.
    pub(crate) fn incoming(&self, attr: usize) -> Vec<usize> {
        self.deps
            .iter()
            .enumerate()
            .filter(|(_, d)| d.rhs() == attr)
            .map(|(i, _)| i)
            .collect()
    }

    /// Kahn topological order of the attributes under dependency edges, or
    /// `None` if the edges are cyclic. Attributes with no dependencies sort
    /// by index for determinism.
    fn topo_order(&self) -> Option<Vec<usize>> {
        let mut indegree = vec![0usize; self.n_attrs];
        let mut out_edges: Vec<Vec<usize>> = vec![Vec::new(); self.n_attrs];
        for d in &self.deps {
            let rhs = d.rhs();
            for l in d.lhs().iter() {
                if l != rhs {
                    out_edges[l].push(rhs);
                    indegree[rhs] += 1;
                }
            }
        }
        let mut queue: VecDeque<usize> = (0..self.n_attrs).filter(|&a| indegree[a] == 0).collect();
        let mut order = Vec::with_capacity(self.n_attrs);
        while let Some(a) = queue.pop_front() {
            order.push(a);
            for &b in &out_edges[a] {
                indegree[b] -= 1;
                if indegree[b] == 0 {
                    queue.push_back(b);
                }
            }
        }
        (order.len() == self.n_attrs).then_some(order)
    }

    /// Produces a generation plan: attributes in dependency order, each
    /// marked `Free` or `Derive`.
    ///
    /// * An attribute with at least one incoming dependency whose whole LHS
    ///   precedes it in the order is `Derive`d via the first such
    ///   dependency (FDs are preferred over RFDs when both are available,
    ///   matching the paper's "generation derives from the predefined
    ///   dependencies" methodology).
    /// * Cyclic dependency sets fall back to a deterministic order in which
    ///   cycle-breaking attributes become `Free`.
    pub fn plan(&self) -> Vec<PlanStep> {
        let order = self
            .topo_order()
            .unwrap_or_else(|| self.acyclic_fallback_order());
        let mut produced = AttrSet::empty();
        let mut plan = Vec::with_capacity(self.n_attrs);
        for &attr in &order {
            let candidates: Vec<usize> = self
                .incoming(attr)
                .into_iter()
                .filter(|&i| self.deps[i].lhs().is_subset_of(&produced))
                .filter(|&i| !self.deps[i].lhs().contains(attr))
                .collect();
            // Prefer strict FDs, then the declaration order.
            let chosen = candidates
                .iter()
                .copied()
                .find(|&i| matches!(self.deps[i], Dependency::Fd(_)))
                .or_else(|| candidates.first().copied());
            match chosen {
                Some(dep) => plan.push(PlanStep::Derive { attr, dep }),
                None => plan.push(PlanStep::Free { attr }),
            }
            produced = produced.with(attr);
        }
        plan
    }

    /// Deterministic order used when edges are cyclic: repeatedly emit the
    /// lowest-index attribute whose remaining in-edges all come from
    /// already-emitted attributes, breaking stalemates by emitting the
    /// lowest-index remaining attribute as free.
    fn acyclic_fallback_order(&self) -> Vec<usize> {
        let mut emitted = AttrSet::empty();
        let mut order = Vec::with_capacity(self.n_attrs);
        while order.len() < self.n_attrs {
            let next_ready = (0..self.n_attrs).find(|&a| {
                !emitted.contains(a)
                    && self.incoming(a).iter().all(|&i| {
                        self.deps[i]
                            .lhs()
                            .iter()
                            .all(|l| emitted.contains(l) || l == a)
                    })
            });
            let next = next_ready
                .or_else(|| (0..self.n_attrs).find(|&a| !emitted.contains(a)))
                // lint: allow(no-panic) reason="the loop guard guarantees an unemitted attribute exists for the fallback find"
                .expect("attributes remain");
            emitted = emitted.with(next);
            order.push(next);
        }
        order
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dependency::{Fd, NumericalDep, OrderDep};

    fn fd(lhs: usize, rhs: usize) -> Dependency {
        Fd::new(lhs, rhs).into()
    }

    #[test]
    fn rejects_out_of_range() {
        assert!(DependencyGraph::new(2, vec![fd(0, 5)]).is_err());
        assert!(DependencyGraph::new(2, vec![fd(5, 0)]).is_err());
        assert!(DependencyGraph::new(2, vec![fd(0, 1)]).is_ok());
    }

    #[test]
    fn plan_orders_chain() {
        // 0→1, 1→2: plan must be Free(0), Derive(1), Derive(2).
        let g = DependencyGraph::new(3, vec![fd(0, 1), fd(1, 2)]).unwrap();
        assert!(g.topo_order().is_some());
        let plan = g.plan();
        assert_eq!(plan[0], PlanStep::Free { attr: 0 });
        assert_eq!(plan[1], PlanStep::Derive { attr: 1, dep: 0 });
        assert_eq!(plan[2], PlanStep::Derive { attr: 2, dep: 1 });
    }

    #[test]
    fn plan_prefers_fd_over_rfd() {
        let g = DependencyGraph::new(2, vec![OrderDep::ascending(0, 1).into(), fd(0, 1)]).unwrap();
        let plan = g.plan();
        assert_eq!(plan[1], PlanStep::Derive { attr: 1, dep: 1 });
    }

    #[test]
    fn independent_attrs_are_free() {
        let g = DependencyGraph::new(3, vec![]).unwrap();
        let plan = g.plan();
        assert_eq!(plan.len(), 3);
        assert!(plan.iter().all(|s| matches!(s, PlanStep::Free { .. })));
    }

    #[test]
    fn cycle_detected_and_broken() {
        // 0→1 and 1→0: cyclic; the plan still covers both attributes,
        // deriving exactly one of them.
        let g = DependencyGraph::new(2, vec![fd(0, 1), fd(1, 0)]).unwrap();
        assert!(g.topo_order().is_none());
        let plan = g.plan();
        assert_eq!(plan.len(), 2);
        let derives = plan
            .iter()
            .filter(|s| matches!(s, PlanStep::Derive { .. }))
            .count();
        assert_eq!(derives, 1);
    }

    #[test]
    fn composite_lhs_waits_for_all_determinants() {
        // {0,1}→2: 2 derivable only after both 0 and 1.
        let dep: Dependency = Fd::new(vec![0, 1], 2).into();
        let g = DependencyGraph::new(3, vec![dep]).unwrap();
        let plan = g.plan();
        let pos = |a: usize| plan.iter().position(|s| s.attr() == a).unwrap();
        assert!(pos(2) > pos(0) && pos(2) > pos(1));
        assert_eq!(plan[pos(2)], PlanStep::Derive { attr: 2, dep: 0 });
    }

    #[test]
    fn incoming_indices() {
        let g = DependencyGraph::new(
            3,
            vec![fd(0, 2), NumericalDep::new(1, 2, 3).into(), fd(0, 1)],
        )
        .unwrap();
        assert_eq!(g.incoming(2), vec![0, 1]);
        assert_eq!(g.incoming(1), vec![2]);
        assert!(g.incoming(0).is_empty());
    }

    #[test]
    fn self_loop_is_not_a_cycle() {
        // Trivial dependency 0→0 must not deadlock planning.
        let g = DependencyGraph::new(1, vec![fd(0, 0)]).unwrap();
        assert!(g.topo_order().is_some());
        assert_eq!(g.plan(), vec![PlanStep::Free { attr: 0 }]);
    }

    #[test]
    fn plan_covers_every_attribute_once() {
        let g = DependencyGraph::new(5, vec![fd(0, 1), fd(1, 2), fd(3, 4), fd(0, 4)]).unwrap();
        let plan = g.plan();
        let mut attrs: Vec<usize> = plan.iter().map(PlanStep::attr).collect();
        attrs.sort_unstable();
        assert_eq!(attrs, vec![0, 1, 2, 3, 4]);
    }

    #[test]
    fn serde_roundtrip() {
        let g = DependencyGraph::new(3, vec![fd(0, 1)]).unwrap();
        let json = serde_json::to_string(&g).unwrap();
        let back: DependencyGraph = serde_json::from_str(&json).unwrap();
        assert_eq!(back, g);
    }
}
