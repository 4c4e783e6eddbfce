//! Interprocedural lints over the call graph and fact database:
//! panic-reachability, determinism taint and lock-order cycles.
//!
//! The lexical passes see one token window at a time; these passes see the
//! whole workspace. A `crates/relation` function that calls an
//! `mp-observe` helper which calls `.expect(…)` two hops down is invisible
//! to the lexical `no-panic` rule — the panic site is in an unscoped file —
//! but it still unwinds through the scoped caller. These rules close that
//! gap, and every diagnostic carries the full call chain down to the
//! originating fact so the finding is actionable without re-deriving it.

use super::{Context, Lint};
use crate::callgraph::{is_test_fn, Callee};
use crate::diagnostics::Diagnostic;
use crate::facts::{LOCK_EDGE_RULE, PANIC_EDGE_RULE, TAINT_EDGE_RULE};

/// `no-panic-reachable`: in the panic-free scopes (`no-panic` plus the
/// fuzzed decoder files), calls into functions that may *transitively*
/// panic are violations — wherever the panic site lives. An unresolved
/// workspace-rooted call is conservatively treated as may-panic. In
/// fuzzed-decoder files suppressions are not honoured, matching the
/// lexical `fuzzed-decoder-no-panic` contract.
pub struct NoPanicReachable;

impl Lint for NoPanicReachable {
    fn name(&self) -> &'static str {
        "no-panic-reachable"
    }

    fn description(&self) -> &'static str {
        "panic-free scopes must not call functions that transitively reach a panic site; diagnostics carry the call chain"
    }

    fn check(&self, cx: &Context<'_>, out: &mut Vec<Diagnostic>) {
        let scope = cx.config.scope("no-panic");
        let fuzzed = cx.config.scope("fuzzed-decoder-no-panic");
        for f in 0..cx.graph.fns.len() {
            if is_test_fn(cx.graph, cx.ws, f) {
                continue;
            }
            let file = &cx.ws.files[cx.graph.fns[f].file];
            let in_fuzzed = fuzzed.applies_to(&file.rel_path);
            if !in_fuzzed && !scope.applies_to(&file.rel_path) {
                continue;
            }
            for &si in &cx.graph.sites_by_caller[f] {
                let site = &cx.graph.sites[si];
                if !in_fuzzed && file.suppressed(self.name(), site.line) {
                    continue;
                }
                match &site.callee {
                    Callee::Unresolved(path) => {
                        out.push(Diagnostic::new(
                            self.name(),
                            &file.rel_path,
                            site.line,
                            site.col,
                            format!(
                                "call to `{path}` does not resolve in the workspace and is conservatively treated as may-panic; resolve it or suppress with a reason"
                            ),
                        ));
                    }
                    Callee::Fns(targets) => {
                        // Best target: the one with the shortest distance to
                        // a panic site (ties broken by index — deterministic
                        // because targets are sorted).
                        let best = targets
                            .iter()
                            .filter_map(|&t| cx.facts.panic_dist[t].map(|d| (d, t)))
                            .min();
                        let Some((_, t)) = best else {
                            continue;
                        };
                        let chain = cx.facts.panic_chain(cx.ws, cx.graph, t);
                        out.push(
                            Diagnostic::new(
                                self.name(),
                                &file.rel_path,
                                site.line,
                                site.col,
                                format!(
                                    "call to `{}` may reach a panic site in `{}`; return a typed error along the chain or suppress this call with a reason",
                                    site.display, cx.graph.fns[t].qual
                                ),
                            )
                            .with_chain(chain),
                        );
                    }
                }
            }
        }
    }
}

/// `determinism-taint`: the serialization sinks (the
/// `no-unordered-iteration` scope: snapshots, report/matrix renderers, the
/// CLI's JSON plumbing) must not call functions that transitively observe
/// hash-iteration order, unseeded randomness or wall-clock time — any of
/// those would leak nondeterminism into report bytes even when the sink
/// file itself is lexically clean.
pub struct DeterminismTaint;

impl Lint for DeterminismTaint {
    fn name(&self) -> &'static str {
        "determinism-taint"
    }

    fn description(&self) -> &'static str {
        "serialization sinks must not call functions that transitively observe hash order, unseeded RNG or wall-clock time"
    }

    fn check(&self, cx: &Context<'_>, out: &mut Vec<Diagnostic>) {
        let scope = cx.config.scope("no-unordered-iteration");
        for f in 0..cx.graph.fns.len() {
            if is_test_fn(cx.graph, cx.ws, f) {
                continue;
            }
            let file = &cx.ws.files[cx.graph.fns[f].file];
            if !scope.applies_to(&file.rel_path) {
                continue;
            }
            for &si in &cx.graph.sites_by_caller[f] {
                let site = &cx.graph.sites[si];
                if file.suppressed(self.name(), site.line) {
                    continue;
                }
                match &site.callee {
                    Callee::Unresolved(path) => {
                        out.push(Diagnostic::new(
                            self.name(),
                            &file.rel_path,
                            site.line,
                            site.col,
                            format!(
                                "call to `{path}` does not resolve in the workspace and is conservatively treated as nondeterministic; resolve it or suppress with a reason"
                            ),
                        ));
                    }
                    Callee::Fns(targets) => {
                        // Best (kind, target): shortest distance first, then
                        // kind order, then target index.
                        let best = targets
                            .iter()
                            .flat_map(|&t| {
                                cx.facts.taints_of(t).into_iter().filter_map(move |k| {
                                    cx.facts.taint_dist[t][k.idx()].map(|d| (d, k.idx(), k, t))
                                })
                            })
                            .min_by_key(|&(d, ki, _, t)| (d, ki, t));
                        let Some((_, _, kind, t)) = best else {
                            continue;
                        };
                        let all_kinds: Vec<&str> = {
                            let mut names: Vec<&str> = targets
                                .iter()
                                .flat_map(|&t| cx.facts.taints_of(t))
                                .map(|k| k.name())
                                .collect();
                            names.sort_unstable();
                            names.dedup();
                            names
                        };
                        let chain = cx.facts.taint_chain(cx.ws, cx.graph, t, kind);
                        out.push(
                            Diagnostic::new(
                                self.name(),
                                &file.rel_path,
                                site.line,
                                site.col,
                                format!(
                                    "call to `{}` taints this serialization path with {}; sort/seed/clock-inject along the chain or suppress with a reason",
                                    site.display,
                                    all_kinds.join(" + ")
                                ),
                            )
                            .with_chain(chain),
                        );
                    }
                }
            }
        }
    }
}

/// `lock-order`: joins each function's nested `Mutex`/`RwLock`
/// acquisitions with the transitive acquisitions of its callees; a cycle
/// in the resulting lock-order graph is a potential deadlock. One
/// diagnostic per strongly-connected component, anchored at the first
/// witnessing acquisition, with every edge of a representative cycle in
/// the chain.
pub struct LockOrder;

impl Lint for LockOrder {
    fn name(&self) -> &'static str {
        "lock-order"
    }

    fn description(&self) -> &'static str {
        "nested lock acquisitions (joined through callees) must form a consistent order; cycles are potential deadlocks"
    }

    fn check(&self, cx: &Context<'_>, out: &mut Vec<Diagnostic>) {
        let scope = cx.config.scope(self.name());
        for cycle in cx.facts.lock_cycles() {
            // A reasoned allow on any witnessing line releases the whole
            // cycle — the suppression names the edge the author vouches for.
            let suppressed = cycle.iter().any(|e| {
                file_by_path(cx, &e.path).is_some_and(|file| file.suppressed(self.name(), e.line))
            });
            if suppressed {
                continue;
            }
            let Some(first) = cycle.first() else {
                continue;
            };
            if !scope.applies_to(&first.path) {
                continue;
            }
            let order: Vec<&str> = {
                let mut v: Vec<&str> = cycle.iter().map(|e| e.from.as_str()).collect();
                v.push(cycle[0].from.as_str());
                v
            };
            let chain = cycle
                .iter()
                .map(|e| format!("{}:{}: {}: {} -> {}", e.path, e.line, e.via, e.from, e.to))
                .collect();
            out.push(
                Diagnostic::new(
                    self.name(),
                    &first.path,
                    first.line,
                    1,
                    format!(
                        "potential deadlock: lock-order cycle {} (acquisition edges joined through callees)",
                        order.join(" -> ")
                    ),
                )
                .with_chain(chain),
            );
        }
    }
}

/// Looks a file up by workspace-relative path (files are sorted).
fn file_by_path<'a>(cx: &Context<'a>, rel_path: &str) -> Option<&'a crate::source::SourceFile> {
    cx.ws
        .files
        .binary_search_by(|f| f.rel_path.as_str().cmp(rel_path))
        .ok()
        .map(|i| &cx.ws.files[i])
}

const _: () = {
    // The rule names used for edge suppressions in `facts` must match the
    // registered lint names — a mismatch would silently break burn-down.
    assert!(str_eq(PANIC_EDGE_RULE, "no-panic-reachable"));
    assert!(str_eq(TAINT_EDGE_RULE, "determinism-taint"));
    assert!(str_eq(LOCK_EDGE_RULE, "lock-order"));
};

/// Const string equality (stable-compatible).
const fn str_eq(a: &str, b: &str) -> bool {
    let (a, b) = (a.as_bytes(), b.as_bytes());
    if a.len() != b.len() {
        return false;
    }
    let mut i = 0;
    while i < a.len() {
        if a[i] != b[i] {
            return false;
        }
        i += 1;
    }
    true
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::callgraph::CallGraph;
    use crate::config::Config;
    use crate::facts::FactDb;
    use crate::rules::registry;
    use crate::source::SourceFile;
    use crate::workspace::{Manifest, Workspace};
    use std::path::PathBuf;

    fn ws(files: &[(&str, &str)]) -> Workspace {
        let mut fs: Vec<SourceFile> = files
            .iter()
            .map(|(p, s)| SourceFile::parse(p, (*s).to_owned()))
            .collect();
        fs.sort_by(|a, b| a.rel_path.cmp(&b.rel_path));
        let manifests = vec![
            Manifest::parse("crates/core/Cargo.toml", "[package]\nname = \"mp-core\"\n"),
            Manifest::parse(
                "crates/observe/Cargo.toml",
                "[package]\nname = \"mp-observe\"\n",
            ),
            Manifest::parse(
                "crates/relation/Cargo.toml",
                "[package]\nname = \"mp-relation\"\n",
            ),
        ];
        Workspace {
            root: PathBuf::from("/nonexistent"),
            files: fs,
            manifests,
        }
    }

    fn run_rule(rule: &str, ws: &Workspace) -> Vec<Diagnostic> {
        let config = Config::shipped();
        let graph = CallGraph::build(ws);
        let facts = FactDb::build(ws, &graph, &config);
        let cx = Context {
            ws,
            config: &config,
            graph: &graph,
            facts: &facts,
        };
        let mut out = Vec::new();
        for lint in registry() {
            if lint.name() == rule {
                lint.check(&cx, &mut out);
            }
        }
        out
    }

    #[test]
    fn indirect_panic_flagged_in_scope_with_chain() {
        // The motivating shape: a no-panic-scoped file calls an unscoped
        // helper whose panic site the lexical rule cannot see.
        let ws = ws(&[
            (
                "crates/core/src/lib.rs",
                "pub fn scoped() { mp_observe::helper(); }\n",
            ),
            (
                "crates/observe/src/lib.rs",
                "pub fn helper() { deep(); }\nfn deep() -> u8 { None::<u8>.expect(\"boom\") }\npub fn unscoped_caller() { helper(); }\n",
            ),
        ]);
        let out = run_rule("no-panic-reachable", &ws);
        assert_eq!(out.len(), 1, "{out:?}");
        let d = &out[0];
        assert_eq!(d.path, "crates/core/src/lib.rs");
        assert!(d.message.contains("mp_observe::helper"));
        assert_eq!(d.chain.len(), 3, "{:?}", d.chain);
        assert!(d.chain[0].contains("mp_observe::helper"));
        assert!(d.chain[1].contains("mp_observe::deep"));
        assert!(d.chain[2].contains("panic site: `expect()`"));
    }

    #[test]
    fn call_site_suppression_honoured_except_in_fuzzed_files() {
        let caller = "pub fn scoped() {\n    // lint: allow(no-panic-reachable) reason=\"caller guarantees Some\"\n    mp_observe::helper();\n}\n";
        let helper = (
            "crates/observe/src/lib.rs",
            "pub fn helper() -> u8 { None::<u8>.expect(\"boom\") }\n",
        );
        let out = run_rule(
            "no-panic-reachable",
            &ws(&[("crates/core/src/lib.rs", caller), helper]),
        );
        assert!(out.is_empty(), "{out:?}");
        // The same suppression in a fuzzed-decoder file is ignored.
        let out = run_rule(
            "no-panic-reachable",
            &ws(&[("crates/relation/src/csv.rs", caller), helper]),
        );
        assert_eq!(out.len(), 1, "{out:?}");
    }

    #[test]
    fn determinism_taint_reaches_across_modules() {
        // snapshot.rs is a serialization sink; the hash iteration lives in
        // an unscoped sibling file two hops away.
        let ws = ws(&[
            (
                "crates/observe/src/snapshot.rs",
                "pub fn render() -> Vec<u64> { crate::mid() }\n",
            ),
            (
                "crates/observe/src/lib.rs",
                "pub mod snapshot;\nuse std::collections::HashMap;\npub fn mid() -> Vec<u64> { unordered() }\nfn unordered() -> Vec<u64> {\n    let m: HashMap<u64, u64> = HashMap::new();\n    m.keys().copied().collect()\n}\n",
            ),
        ]);
        let out = run_rule("determinism-taint", &ws);
        assert_eq!(out.len(), 1, "{out:?}");
        let d = &out[0];
        assert_eq!(d.path, "crates/observe/src/snapshot.rs");
        assert!(d.message.contains("hash-order"), "{}", d.message);
        assert!(d.chain.last().expect("chain").contains("hash-order source"));
    }

    #[test]
    fn lock_order_cycle_reported_once_and_suppressible() {
        let cyclic = "use std::sync::Mutex;\npub struct S { a: Mutex<u8>, b: Mutex<u8> }\nimpl S {\n    pub fn ab(&self) { let _x = self.a.lock(); let _y = self.b.lock(); }\n    pub fn ba(&self) { let _y = self.b.lock(); let _x = self.a.lock(); }\n}\n";
        let out = run_rule("lock-order", &ws(&[("crates/core/src/lib.rs", cyclic)]));
        assert_eq!(out.len(), 1, "{out:?}");
        assert!(out[0].message.contains("potential deadlock"));
        assert_eq!(out[0].chain.len(), 2, "{:?}", out[0].chain);
        // An allow on one witnessing acquisition releases the cycle.
        let allowed = cyclic.replace(
            "    pub fn ba(&self) {",
            "    // lint: allow(lock-order) reason=\"ba only runs single-threaded at startup\"\n    pub fn ba(&self) {",
        );
        let out = run_rule("lock-order", &ws(&[("crates/core/src/lib.rs", &allowed)]));
        assert!(out.is_empty(), "{out:?}");
    }

    #[test]
    fn unresolved_call_in_scope_is_flagged() {
        let ws = ws(&[(
            "crates/core/src/lib.rs",
            "pub fn scoped() { crate::ghost::call(); }\n",
        )]);
        let out = run_rule("no-panic-reachable", &ws);
        assert_eq!(out.len(), 1, "{out:?}");
        assert!(out[0].message.contains("does not resolve"));
    }
}
