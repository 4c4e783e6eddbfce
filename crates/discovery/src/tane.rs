//! TANE-style level-wise discovery of (approximate) functional
//! dependencies over stripped partitions.
//!
//! This is the algorithm the paper cites (\[13\], Huhtala et al.) for FD
//! discovery, extended with the `g3`-threshold validity test of \[14\]
//! (Kivinen & Mannila) for approximate FDs as in \[6\]. The lattice is
//! traversed level by level; candidate right-hand sides are pruned with
//! TANE's `C⁺` sets and key pruning.

use crate::engine::DiscoveryContext;
use mp_metadata::{AttrSet, Fd};
use mp_relation::{Pli, Relation, Result};
use std::collections::{HashMap, HashSet};

/// Limits and thresholds for FD discovery.
#[derive(Debug, Clone)]
pub struct TaneConfig {
    /// Maximum LHS size explored (lattice depth). The paper's evaluation
    /// uses pairwise dependencies, i.e. `max_lhs = 1`; the default explores
    /// composite determinants too.
    pub max_lhs: usize,
    /// `g3` validity threshold: `0.0` discovers exact FDs, a positive value
    /// discovers approximate FDs (AFDs) that hold after removing at most
    /// this fraction of tuples.
    pub g3_threshold: f64,
}

impl Default for TaneConfig {
    fn default() -> Self {
        Self {
            max_lhs: 3,
            g3_threshold: 0.0,
        }
    }
}

/// Bitset over attributes; schemas are capped at 64 attributes, far above
/// the paper-scale relations this workspace targets.
type Bits = u64;

fn bit(a: usize) -> Bits {
    1u64 << a
}

fn set_to_bits(s: &AttrSet) -> Bits {
    s.iter().fold(0, |acc, a| acc | bit(a))
}

/// One lattice node: its `C⁺` candidate set plus the only fact the
/// traversal needs from the set's partition — whether it is a superkey.
///
/// Deliberately does *not* pin an `Arc<Pli>`: partitions live solely in
/// the context's (byte-budgeted) cache, so a whole lattice level retains
/// a few machine words per node instead of `O(n_rows)` each. Under
/// memory pressure the cache spills partitions and the memoized
/// intersection chain rebuilds them on demand — that spill/rebuild is
/// what keeps million-row traversals inside a fixed [`MemoryBudget`]
/// (`crate::MemoryBudget`).
struct Node {
    is_key: bool,
    cplus: Bits,
}

/// Discovers the minimal non-trivial FDs of the context's relation with
/// LHS size up to `config.max_lhs`.
///
/// With `g3_threshold = 0` the result is exactly the set of minimal valid
/// FDs (every returned FD holds; every valid FD within the depth bound is
/// implied). With a positive threshold the result is the TANE-approximate
/// generalisation: returned FDs have `g3 ≤ threshold` and no strict subset
/// of their LHS does.
///
/// The context's PLI cache memoizes every LHS partition the lattice
/// touches (so a later pass — the approximate sweep, ND discovery, a
/// repeated run — reuses them), and each lattice level's candidate tests,
/// key minimality checks and child-PLI constructions are evaluated on the
/// context's thread budget. The result is identical to the sequential
/// traversal for every thread count and cache capacity: nodes are
/// processed in sorted attribute-set order and merged sequentially.
///
/// # Errors
/// Propagates column-access errors; relations wider than 64 attributes are
/// rejected via `RelationError::IndexOutOfBounds`.
pub fn discover_fds_with(ctx: &DiscoveryContext<'_>, config: &TaneConfig) -> Result<Vec<Fd>> {
    let relation = ctx.relation();
    let m = relation.arity();
    if m > 64 {
        return Err(mp_relation::RelationError::IndexOutOfBounds { index: m, len: 64 });
    }
    let n = relation.n_rows();
    let all: Bits = if m == 64 { !0 } else { bit(m) - 1 };
    let mut results: Vec<Fd> = Vec::new();
    if m == 0 || n == 0 {
        return Ok(results);
    }

    // Full signatures of single attributes, for g3 checks.
    let mut rhs_sigs: Vec<Vec<usize>> = Vec::with_capacity(m);
    // Level 1 nodes.
    // lint: allow(no-unordered-iteration) reason="level keys are collected and sorted before every traversal below"
    let mut level: HashMap<AttrSet, Node> = HashMap::new();
    for a in 0..m {
        let pli = ctx.pli_of_single(a)?;
        rhs_sigs.push(pli.full_signature());
        level.insert(
            AttrSet::single(a),
            Node {
                is_key: pli.is_key(),
                cplus: all,
            },
        );
    }
    let threshold_violations = (config.g3_threshold * n as f64).floor() as usize;

    // Lattice-shape metrics: width of each level and total candidate FD
    // tests. Both are functions of the input alone (independent of thread
    // count and cache capacity), so they are safe for golden snapshots.
    let level_width = ctx.recorder().histogram(
        "discovery.lattice.level_width",
        &[1, 2, 4, 8, 16, 32, 64, 128, 256, 512, 1024],
    );
    let candidates_tested = ctx.recorder().counter("discovery.candidates.tested");

    // Empty-set partition error, for level-1 validity checks (∅ → A).
    let unit = Pli::unit(n);
    // ∅ → A holds iff column A is constant; handle as level-0 so level-1
    // pruning is correct.
    let mut constant_attrs: Bits = 0;
    for (a, sig) in rhs_sigs.iter().enumerate() {
        if unit.g3_violations(sig) <= threshold_violations {
            results.push(Fd::new(AttrSet::empty(), a));
            constant_attrs |= bit(a);
        }
    }

    // Level ℓ holds attribute sets of size ℓ and tests FDs with LHS size
    // ℓ − 1, so discovering FDs with |LHS| ≤ max_lhs needs ℓ up to
    // max_lhs + 1.
    let mut depth = 1;
    while !level.is_empty() && depth <= config.max_lhs + 1 {
        // Nodes are processed in sorted order and merged sequentially, so
        // the discovered set (and its order) is independent of both hash
        // iteration order and the thread count.
        let mut keys: Vec<AttrSet> = level.keys().cloned().collect();
        keys.sort();
        level_width.record(keys.len() as u64);

        // Phase 1 — candidate tests, in parallel over lattice nodes. Each
        // node's test reads only its own `C⁺` and the shared PLI cache.
        let tested: Vec<Result<(Bits, Vec<Fd>)>> = ctx.par_map(keys.clone(), |x| {
            // C⁺(X) = ∩_{A∈X} C⁺(X \ {A}) was folded in during generation;
            // at level 1 it is `all` minus constants found at level 0.
            let x_bits = set_to_bits(&x);
            let mut cplus = level[&x].cplus;
            if depth == 1 {
                cplus &= !constant_attrs;
            }
            let mut found = Vec::new();
            // Candidates to test: A ∈ X ∩ C⁺(X).
            for a in x.iter() {
                if cplus & bit(a) == 0 {
                    continue;
                }
                candidates_tested.inc();
                let lhs = x.without(a);
                let violations = if lhs.is_empty() {
                    unit.g3_violations(&rhs_sigs[a])
                } else {
                    ctx.lhs_violations(&lhs, &rhs_sigs[a])?
                };
                if violations <= threshold_violations {
                    found.push(Fd::new(lhs, a));
                    // Prune: remove A and all attributes outside X from C⁺(X).
                    cplus &= !bit(a);
                    cplus &= x_bits;
                }
            }
            Ok((cplus, found))
        });
        for (x, outcome) in keys.iter().zip(tested) {
            let (cplus, found) = outcome?;
            results.extend(found);
            if let Some(node) = level.get_mut(x) {
                node.cplus = cplus;
            }
        }

        // Phase 2 — key pruning: a (super)key X determines every
        // attribute, so its lattice descendants carry no new minimal FDs.
        // Before dropping X, emit the minimal FDs X → A for outside
        // attributes A still in C⁺(X); X → A is minimal iff no immediate
        // subset of X determines A (monotonicity makes checking immediate
        // subsets sufficient). The per-key minimality checks are
        // independent, so they too run on the thread budget.
        let pruned: Vec<Result<Option<Vec<Fd>>>> = ctx.par_map(keys.clone(), |x| {
            let node = &level[&x];
            if !node.is_key {
                return Ok(None);
            }
            let x_bits = set_to_bits(&x);
            let cplus = node.cplus;
            let mut emitted = Vec::new();
            if x.len() <= config.max_lhs {
                let mut a_bits = cplus & !x_bits;
                while a_bits != 0 {
                    let a = a_bits.trailing_zeros() as usize;
                    a_bits &= a_bits - 1;
                    let mut minimal = true;
                    for b in x.iter() {
                        let sub = x.without(b);
                        let v = if sub.is_empty() {
                            unit.g3_violations(&rhs_sigs[a])
                        } else {
                            ctx.lhs_violations(&sub, &rhs_sigs[a])?
                        };
                        if v <= threshold_violations {
                            minimal = false;
                            break;
                        }
                    }
                    if minimal {
                        emitted.push(Fd::new(x.clone(), a));
                    }
                }
            }
            Ok(Some(emitted))
        });
        for (x, outcome) in keys.iter().zip(pruned) {
            if let Some(emitted) = outcome? {
                results.extend(emitted);
                level.remove(x);
            }
        }

        if depth == config.max_lhs + 1 {
            break;
        }

        // Phase 3 — generate the next level. The prefix joins and C⁺
        // intersections are cheap bit work (sequential); the child PLIs —
        // the expensive part — are built in parallel through the cache,
        // which turns each into a single intersection with the memoized
        // parent partition.
        let mut names: Vec<&AttrSet> = level.keys().collect();
        names.sort();
        let mut joins: Vec<(AttrSet, Bits)> = Vec::new();
        let mut seen: HashSet<AttrSet> = HashSet::new();
        for i in 0..names.len() {
            for j in (i + 1)..names.len() {
                let (a, b) = (names[i], names[j]);
                // Prefix join: sets must agree on all but their last element.
                if a.indices()[..depth - 1] != b.indices()[..depth - 1] {
                    continue;
                }
                let union = a.union(b);
                if seen.contains(&union) {
                    continue;
                }
                // All subsets of size `depth` must be present (apriori).
                let mut cplus = level[a].cplus & level[b].cplus;
                let mut ok = true;
                for attr in union.iter() {
                    let sub = union.without(attr);
                    match level.get(&sub) {
                        Some(node) => cplus &= node.cplus,
                        None => {
                            ok = false;
                            break;
                        }
                    }
                }
                if !ok || cplus == 0 {
                    continue;
                }
                seen.insert(union.clone());
                joins.push((union, cplus));
            }
        }
        let sets: Vec<AttrSet> = joins.iter().map(|(u, _)| u.clone()).collect();
        // Only keyness is kept; the partitions themselves stay behind in
        // the cache (or are dropped, if the memory budget spilled them).
        let keyness: Vec<Result<bool>> = ctx.par_map(sets, |u| ctx.pli_of(&u).map(|p| p.is_key()));
        let mut next: HashMap<AttrSet, Node> = HashMap::new();
        for ((union, cplus), is_key) in joins.into_iter().zip(keyness) {
            next.insert(
                union,
                Node {
                    is_key: is_key?,
                    cplus,
                },
            );
        }
        level = next;
        depth += 1;
    }

    Ok(results)
}

/// Reference implementation: exhaustive minimal-FD discovery by direct
/// validation of every LHS subset (ascending by size) for every RHS.
/// Exponential; used to cross-check TANE in tests and as the ablation
/// baseline in benches.
pub fn discover_fds_naive(relation: &Relation, max_lhs: usize) -> Result<Vec<Fd>> {
    let m = relation.arity();
    let mut results = Vec::new();
    if m == 0 || relation.n_rows() == 0 {
        return Ok(results);
    }
    let rhs_sigs: Vec<Vec<usize>> = (0..m)
        .map(|a| Ok(Pli::from_typed(relation.column(a)?).full_signature()))
        .collect::<Result<_>>()?;

    for (rhs, rhs_sig) in rhs_sigs.iter().enumerate() {
        let mut minimal: Vec<AttrSet> = Vec::new();
        // Enumerate subsets of attributes (excluding rhs) by ascending size.
        let others: Vec<usize> = (0..m).filter(|&a| a != rhs).collect();
        for size in 0..=max_lhs.min(others.len()) {
            for combo in combinations(&others, size) {
                let lhs = AttrSet::from_iter(combo.iter().copied());
                if minimal.iter().any(|s| s.is_subset_of(&lhs)) {
                    continue;
                }
                let pli = mp_metadata::pli_of_set(relation, &lhs)?;
                if pli.satisfies_fd(rhs_sig) {
                    minimal.push(lhs);
                }
            }
        }
        results.extend(minimal.into_iter().map(|lhs| Fd::new(lhs, rhs)));
    }
    Ok(results)
}

/// All `size`-element combinations of `items`.
fn combinations(items: &[usize], size: usize) -> Vec<Vec<usize>> {
    if size == 0 {
        return vec![Vec::new()];
    }
    if size > items.len() {
        return Vec::new();
    }
    let mut out = Vec::new();
    let mut idx: Vec<usize> = (0..size).collect();
    loop {
        out.push(idx.iter().map(|&i| items[i]).collect());
        // Advance the combination indices.
        let mut i = size;
        loop {
            if i == 0 {
                return out;
            }
            i -= 1;
            if idx[i] != i + items.len() - size {
                break;
            }
            if i == 0 {
                return out;
            }
        }
        idx[i] += 1;
        for j in (i + 1)..size {
            idx[j] = idx[j - 1] + 1;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::{MemoryBudget, ParallelConfig};
    use mp_datasets::{employee, employee_attrs as ea};
    use mp_relation::{Attribute, Schema, Value};

    fn exact(max_lhs: usize) -> TaneConfig {
        TaneConfig {
            max_lhs,
            g3_threshold: 0.0,
        }
    }

    /// FD discovery over a fresh context with the default budget.
    fn fds_of(relation: &Relation, config: &TaneConfig) -> Vec<Fd> {
        let ctx = DiscoveryContext::new(relation, ParallelConfig::default());
        discover_fds_with(&ctx, config).unwrap()
    }

    /// Canonical form for comparing FD sets.
    fn canon(mut fds: Vec<Fd>) -> Vec<(Vec<usize>, usize)> {
        let mut v: Vec<(Vec<usize>, usize)> = fds
            .drain(..)
            .map(|f| (f.lhs.indices().to_vec(), f.rhs))
            .collect();
        v.sort();
        v.dedup();
        v
    }

    #[test]
    fn employee_single_attr_fds() {
        let fds = fds_of(&employee(), &exact(1));
        // Name is a key: Name → everything.
        for rhs in [ea::AGE, ea::DEPARTMENT, ea::SALARY] {
            assert!(fds
                .iter()
                .any(|f| f.lhs == AttrSet::single(ea::NAME) && f.rhs == rhs));
        }
        // Salary is unique too: Salary → everything.
        assert!(fds
            .iter()
            .any(|f| f.lhs == AttrSet::single(ea::SALARY) && f.rhs == ea::AGE));
        // Age does NOT determine Salary.
        assert!(!fds
            .iter()
            .any(|f| f.lhs == AttrSet::single(ea::AGE) && f.rhs == ea::SALARY));
        // Every discovered FD actually holds.
        for f in &fds {
            assert!(f.holds(&employee()).unwrap(), "discovered FD must hold");
        }
    }

    #[test]
    fn tane_matches_naive_on_employee() {
        let r = employee();
        for depth in 1..=3 {
            let tane = canon(fds_of(&r, &exact(depth)));
            let naive = canon(discover_fds_naive(&r, depth).unwrap());
            assert_eq!(tane, naive, "depth {depth}");
        }
    }

    #[test]
    fn tane_matches_naive_on_synthetic() {
        for seed in [3u64, 17] {
            let out = mp_datasets::all_classes_spec(80, seed).generate().unwrap();
            let tane = canon(fds_of(&out.relation, &exact(2)));
            let naive = canon(discover_fds_naive(&out.relation, 2).unwrap());
            assert_eq!(tane, naive, "seed {seed}");
        }
    }

    #[test]
    fn discovers_planted_fd() {
        let out = mp_datasets::all_classes_spec(300, 9).generate().unwrap();
        let fds = fds_of(&out.relation, &exact(1));
        // Planted: base(0) → fd_child(1).
        assert!(fds
            .iter()
            .any(|f| f.lhs == AttrSet::single(0) && f.rhs == 1));
    }

    #[test]
    fn constant_column_yields_empty_lhs_fd() {
        let schema = Schema::new(vec![
            Attribute::categorical("k"),
            Attribute::categorical("c"),
        ])
        .unwrap();
        let r = Relation::from_rows(
            schema,
            vec![vec!["a".into(), "z".into()], vec!["b".into(), "z".into()]],
        )
        .unwrap();
        let fds = fds_of(&r, &exact(2));
        assert!(fds.iter().any(|f| f.lhs.is_empty() && f.rhs == 1));
        // And no non-minimal {0} → 1 is emitted.
        assert!(!fds
            .iter()
            .any(|f| f.lhs == AttrSet::single(0) && f.rhs == 1));
    }

    #[test]
    fn approximate_discovery_relaxes() {
        let out = mp_datasets::all_classes_spec(400, 21).generate().unwrap();
        // afd_child(5) is a 5%-perturbed function of base(0): exact TANE
        // must not find 0 → 5, approximate TANE (10%) must.
        let exact_fds = fds_of(&out.relation, &exact(1));
        assert!(!exact_fds
            .iter()
            .any(|f| f.lhs == AttrSet::single(0) && f.rhs == 5));
        let approx = fds_of(
            &out.relation,
            &TaneConfig {
                max_lhs: 1,
                g3_threshold: 0.10,
            },
        );
        assert!(approx
            .iter()
            .any(|f| f.lhs == AttrSet::single(0) && f.rhs == 5));
    }

    #[test]
    fn empty_and_degenerate_relations() {
        let schema = Schema::new(vec![Attribute::categorical("a")]).unwrap();
        let empty = Relation::empty(schema.clone());
        assert!(fds_of(&empty, &exact(2)).is_empty());

        let single = Relation::from_rows(schema, vec![vec![Value::Null]]).unwrap();
        let fds = fds_of(&single, &exact(1));
        // One row: the column is constant → ∅ → 0.
        assert!(fds.iter().any(|f| f.lhs.is_empty() && f.rhs == 0));
    }

    #[test]
    fn composite_lhs_found_when_needed() {
        // c = f(a, b) but neither a nor b alone determines c.
        let schema = Schema::new(vec![
            Attribute::categorical("a"),
            Attribute::categorical("b"),
            Attribute::categorical("c"),
        ])
        .unwrap();
        let rows = vec![
            vec!["a0".into(), "b0".into(), "x".into()],
            vec!["a0".into(), "b1".into(), "y".into()],
            vec!["a1".into(), "b0".into(), "y".into()],
            vec!["a1".into(), "b1".into(), "x".into()],
            // duplicates so nothing is spuriously a key
            vec!["a0".into(), "b0".into(), "x".into()],
            vec!["a1".into(), "b1".into(), "x".into()],
        ];
        let r = Relation::from_rows(schema, rows).unwrap();
        let fds = fds_of(&r, &exact(2));
        assert!(fds
            .iter()
            .any(|f| f.lhs == AttrSet::from_iter([0, 1]) && f.rhs == 2));
        assert!(!fds
            .iter()
            .any(|f| f.lhs == AttrSet::single(0) && f.rhs == 2));
        assert!(!fds
            .iter()
            .any(|f| f.lhs == AttrSet::single(1) && f.rhs == 2));
    }

    #[test]
    fn max_lhs_bounds_depth() {
        let out = mp_datasets::all_classes_spec(100, 2).generate().unwrap();
        let fds = fds_of(&out.relation, &exact(2));
        assert!(fds.iter().all(|f| f.lhs.len() <= 2));
    }

    #[test]
    fn output_is_identical_across_thread_and_cache_budgets() {
        let out = mp_datasets::all_classes_spec(150, 41).generate().unwrap();
        let sequential = DiscoveryContext::new(&out.relation, ParallelConfig::sequential());
        let reference = discover_fds_with(&sequential, &exact(2)).unwrap();
        let unlimited = MemoryBudget::unlimited();
        for (parallel, budget) in [
            (ParallelConfig::default(), unlimited),
            (
                ParallelConfig {
                    threads: 4,
                    cache_capacity: 4096,
                },
                unlimited,
            ),
            (
                ParallelConfig {
                    threads: 3,
                    cache_capacity: 8,
                },
                unlimited,
            ),
            (ParallelConfig::uncached(4), unlimited),
            (ParallelConfig::uncached(1), unlimited),
            // Starved byte budget: every level spills and rebuilds.
            (
                ParallelConfig {
                    threads: 2,
                    ..ParallelConfig::default()
                },
                MemoryBudget::from_bytes(512),
            ),
            // Byte budget of a single small partition.
            (ParallelConfig::sequential(), MemoryBudget::from_bytes(4096)),
        ] {
            let ctx = DiscoveryContext::with_budget(&out.relation, parallel, budget);
            let got = discover_fds_with(&ctx, &exact(2)).unwrap();
            // Not just the same set: the same Vec, element for element.
            assert_eq!(got, reference, "{parallel:?} {budget:?}");
        }
    }

    #[test]
    fn shared_context_reuses_partitions_across_calls() {
        let r = employee();
        let ctx = DiscoveryContext::new(&r, ParallelConfig::default());
        let first = discover_fds_with(&ctx, &exact(2)).unwrap();
        let misses_after_first = ctx.cache_stats().misses;
        let second = discover_fds_with(&ctx, &exact(2)).unwrap();
        assert_eq!(first, second);
        // The repeat run finds every partition it needs in the cache.
        assert_eq!(ctx.cache_stats().misses, misses_after_first);
        assert!(ctx.cache_stats().hits > 0);
    }

    #[test]
    fn combinations_enumerate_correctly() {
        let c = combinations(&[1, 2, 3, 4], 2);
        assert_eq!(c.len(), 6);
        assert!(c.contains(&vec![1, 4]));
        assert_eq!(combinations(&[1, 2], 3), Vec::<Vec<usize>>::new());
        assert_eq!(combinations(&[1, 2], 0), vec![Vec::<usize>::new()]);
    }
}
