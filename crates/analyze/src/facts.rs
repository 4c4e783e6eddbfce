//! Interprocedural facts over the call graph: panic-reachability,
//! determinism taint and lock-order edges, plus the per-crate counts the
//! baseline ratchet pins.
//!
//! The fact lattice is deliberately small — per function, three boolean
//! families:
//!
//! * **may-panic** — the body contains an unsuppressed panic site, or any
//!   (unsuppressed) call edge reaches a function that does;
//! * **taint** (three kinds: hash-order, unseeded-rng, wall-clock) — the
//!   body contains a source, or a call edge reaches one;
//! * **lock summary** — the set of lock identities the function may
//!   acquire, transitively through callees.
//!
//! Propagation is a multi-source BFS over *reverse* call edges, which
//! yields both the boolean fact (distance finite) and a deterministic
//! shortest witness chain for diagnostics. A reasoned
//! `// lint: allow(<rule>)` on a call-site line severs that edge for the
//! corresponding fact family, so one suppression at a boundary stops the
//! cascade instead of requiring an allow at every transitive caller.
//! Suppressions never sever edges in `fuzzed-decoder-no-panic` files.

use crate::callgraph::{crate_map, is_test_fn, CallGraph, Callee};
use crate::config::Config;
use crate::rules::{is_literal_index, matches_at, PANIC_SEQS, RNG_SEQS, WALL_SEQS};
use crate::workspace::Workspace;
use std::collections::{BTreeMap, BTreeSet, VecDeque};

/// The three determinism taint families.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum TaintKind {
    /// HashMap/HashSet iteration order observed in the same function.
    HashOrder,
    /// OS-seeded randomness (`thread_rng`, `from_entropy`, `OsRng`, …).
    Rng,
    /// Wall-clock reads (`Instant::now`, `SystemTime`, `thread::sleep`).
    WallClock,
}

/// All kinds, in rendering order.
pub const TAINT_KINDS: [TaintKind; 3] =
    [TaintKind::HashOrder, TaintKind::Rng, TaintKind::WallClock];

impl TaintKind {
    /// Stable index into per-kind arrays.
    pub fn idx(self) -> usize {
        match self {
            TaintKind::HashOrder => 0,
            TaintKind::Rng => 1,
            TaintKind::WallClock => 2,
        }
    }

    /// Human name used in diagnostics.
    pub fn name(self) -> &'static str {
        match self {
            TaintKind::HashOrder => "hash-order",
            TaintKind::Rng => "unseeded-rng",
            TaintKind::WallClock => "wall-clock",
        }
    }

    /// The lexical rule whose suppressions silence a *source* of this kind.
    pub fn source_rule(self) -> &'static str {
        match self {
            TaintKind::HashOrder => "no-unordered-iteration",
            TaintKind::Rng => "no-unseeded-rng",
            TaintKind::WallClock => "no-wall-clock",
        }
    }
}

/// Rule name whose suppressions sever panic propagation edges.
pub const PANIC_EDGE_RULE: &str = "no-panic-reachable";
/// Rule name whose suppressions sever taint propagation edges.
pub const TAINT_EDGE_RULE: &str = "determinism-taint";
/// Rule name whose suppressions silence a lock-order cycle.
pub const LOCK_EDGE_RULE: &str = "lock-order";

/// A local panic site inside a function body.
#[derive(Debug, Clone)]
pub struct PanicSite {
    /// Code-token index in the file.
    pub token_idx: usize,
    /// 1-based line.
    pub line: usize,
    /// 1-based column.
    pub col: usize,
    /// Short label (`unwrap()`, `panic!`, `literal index`).
    pub label: String,
    /// True when a reasoned suppression keeps it from propagating.
    pub suppressed: bool,
}

/// A local determinism-taint source inside a function body.
#[derive(Debug, Clone)]
pub struct TaintSite {
    /// Which family.
    pub kind: TaintKind,
    /// 1-based line of the witnessing token.
    pub line: usize,
    /// 1-based column.
    pub col: usize,
    /// Short label (`HashMap`, `thread_rng`, `Instant::now`).
    pub label: String,
    /// True when suppressed at the source.
    pub suppressed: bool,
}

/// One lock acquisition inside a function body.
#[derive(Debug, Clone)]
pub struct LockSite {
    /// Code-token index of the receiver's last token (ordering key).
    pub token_idx: usize,
    /// 1-based line.
    pub line: usize,
    /// Lock identity (`Registry::metrics`, `<fn>::guard`, `param::…`).
    pub id: String,
    /// True when the lock is a parameter of the function — the mutex
    /// belongs to the caller, so the acquisition does not propagate.
    pub param: bool,
}

/// A nested-acquisition edge: `from` is held while `to` is acquired.
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord)]
pub struct LockEdge {
    /// Lock held.
    pub from: String,
    /// Lock acquired under it.
    pub to: String,
    /// File of the witnessing acquisition or call.
    pub path: String,
    /// 1-based line of the witness.
    pub line: usize,
    /// Qualified name of the function the nesting happens in.
    pub via: String,
}

/// Per-crate debt counters pinned by `analyze-baseline.toml`.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CrateCounts {
    /// Non-test lexical panic sites, *including* suppressed ones — a
    /// reasoned allow is recorded debt, and converting it to a typed error
    /// is what lowers the count.
    pub panic_sites: usize,
    /// Non-test functions containing at least one local taint source
    /// (suppressed or not).
    pub tainted_fns: usize,
    /// Non-test item declarations (`fn`, `struct`, `enum`, `trait`,
    /// `type`, `const`, `static`, `mod`) with bare `pub` visibility: the
    /// public surface. `pub(crate)`/`pub(super)` items, `pub use`
    /// re-exports and `pub` struct fields do not count.
    pub pub_items: usize,
}

impl CrateCounts {
    /// A debt-free counter pair. An associated const rather than
    /// `Default::default()` so callers on audited serialization paths
    /// don't route through a derive-generated method the call graph
    /// cannot resolve (and would pessimistically assume tainted).
    pub const ZERO: CrateCounts = CrateCounts {
        panic_sites: 0,
        tainted_fns: 0,
        pub_items: 0,
    };
}

/// How a propagation chain bottoms out.
#[derive(Debug, Clone)]
enum Terminal {
    /// A concrete local site.
    Site { line: usize, label: String },
    /// An unresolved workspace call, pessimistically assumed to carry the
    /// fact.
    Unresolved { line: usize, display: String },
}

/// The computed fact database.
pub struct FactDb {
    /// Per function: local panic sites (suppressed included, for counts).
    pub local_panics: Vec<Vec<PanicSite>>,
    /// Per function: local taint sources.
    pub local_taints: Vec<Vec<TaintSite>>,
    /// Per function: lock acquisitions.
    pub local_locks: Vec<Vec<LockSite>>,
    /// BFS distance to the nearest propagating panic site (`None` = cannot
    /// reach one = not may-panic).
    pub panic_dist: Vec<Option<u32>>,
    /// Per kind, BFS distance to the nearest propagating taint source.
    pub taint_dist: Vec<[Option<u32>; 3]>,
    /// Transitive (propagating) lock identities per function.
    pub lock_summary: Vec<BTreeSet<String>>,
    /// All nested-acquisition edges, sorted and deduplicated.
    pub lock_edges: Vec<LockEdge>,
    /// Per-crate ratchet counters, keyed by package name.
    pub counts: BTreeMap<String, CrateCounts>,
    panic_terminal: Vec<Option<Terminal>>,
    taint_terminal: Vec<[Option<Terminal>; 3]>,
}

impl FactDb {
    /// Computes all facts for the workspace. Deterministic: iteration is
    /// over sorted structures only, and the result is independent of
    /// propagation order (BFS from a fixed seed set).
    pub fn build(ws: &Workspace, graph: &CallGraph, config: &Config) -> FactDb {
        let n = graph.fns.len();
        let fuzzed = config.scope("fuzzed-decoder-no-panic");
        let mut db = FactDb {
            local_panics: vec![Vec::new(); n],
            local_taints: vec![Vec::new(); n],
            local_locks: vec![Vec::new(); n],
            panic_dist: vec![None; n],
            taint_dist: vec![[None; 3]; n],
            lock_summary: vec![BTreeSet::new(); n],
            lock_edges: Vec::new(),
            counts: BTreeMap::new(),
            panic_terminal: vec![None; n],
            taint_terminal: vec![std::array::from_fn(|_| None); n],
        };
        for fi in 0..ws.files.len() {
            extract_local_facts(
                ws,
                graph,
                fi,
                fuzzed.applies_to(&ws.files[fi].rel_path),
                &mut db,
            );
        }
        db.propagate_panic(ws, graph, &fuzzed);
        db.propagate_taints(ws, graph);
        db.propagate_locks(ws, graph);
        db.mark_used_edge_suppressions(ws, graph, &fuzzed);
        db.count_crates(ws, graph);
        db
    }

    /// True when calling `f` may panic.
    pub fn may_panic(&self, f: usize) -> bool {
        self.panic_dist[f].is_some()
    }

    /// Taint kinds calling `f` may introduce, in stable order.
    pub fn taints_of(&self, f: usize) -> Vec<TaintKind> {
        TAINT_KINDS
            .into_iter()
            .filter(|k| self.taint_dist[f][k.idx()].is_some())
            .collect()
    }

    /// Deterministic shortest call chain from `f` down to a panic site.
    /// Each element is `path:line: qualified-name`; the last element names
    /// the terminal site. Empty when `f` is not may-panic.
    pub fn panic_chain(&self, ws: &Workspace, graph: &CallGraph, f: usize) -> Vec<String> {
        self.chain(ws, graph, f, &|db, g| db.panic_dist[g], &|db, g| {
            db.panic_terminal[g].clone()
        })
    }

    /// Deterministic shortest call chain from `f` down to a taint source of
    /// `kind`. Empty when `f` does not carry that taint.
    pub fn taint_chain(
        &self,
        ws: &Workspace,
        graph: &CallGraph,
        f: usize,
        kind: TaintKind,
    ) -> Vec<String> {
        self.chain(
            ws,
            graph,
            f,
            &|db, g| db.taint_dist[g][kind.idx()],
            &|db, g| db.taint_terminal[g][kind.idx()].clone(),
        )
    }

    fn chain(
        &self,
        ws: &Workspace,
        graph: &CallGraph,
        start: usize,
        dist: &dyn Fn(&FactDb, usize) -> Option<u32>,
        terminal: &dyn Fn(&FactDb, usize) -> Option<Terminal>,
    ) -> Vec<String> {
        let mut out = Vec::new();
        let mut cur = start;
        let Some(mut d) = dist(self, cur) else {
            return out;
        };
        loop {
            let node = &graph.fns[cur];
            let path = &ws.files[node.file].rel_path;
            out.push(format!("{path}:{}: {}", node.item.line, node.qual));
            if d == 0 {
                match terminal(self, cur) {
                    Some(Terminal::Site { line, label }) => {
                        out.push(format!("{path}:{line}: {label}"));
                    }
                    Some(Terminal::Unresolved { line, display }) => {
                        out.push(format!(
                            "{path}:{line}: unresolved call `{display}` (conservatively assumed)"
                        ));
                    }
                    None => {}
                }
                return out;
            }
            // Next hop: first call site (token order) with a target one BFS
            // layer closer; smallest target index breaks remaining ties.
            let mut next: Option<usize> = None;
            'sites: for &si in &graph.sites_by_caller[cur] {
                if let Callee::Fns(targets) = &graph.sites[si].callee {
                    for &t in targets {
                        if dist(self, t) == Some(d - 1) {
                            next = Some(t);
                            break 'sites;
                        }
                    }
                }
            }
            match next {
                Some(t) => {
                    cur = t;
                    d -= 1;
                }
                None => return out, // unreachable for a consistent BFS
            }
        }
    }

    /// Representative lock-order cycles: one per strongly-connected
    /// component of the lock graph with at least one cycle, each as the
    /// edge list of a shortest cycle through the component's smallest
    /// node. Deterministic.
    pub fn lock_cycles(&self) -> Vec<Vec<LockEdge>> {
        // Adjacency over sorted, deduplicated edges.
        let mut adj: BTreeMap<&str, Vec<&LockEdge>> = BTreeMap::new();
        for e in &self.lock_edges {
            adj.entry(e.from.as_str()).or_default().push(e);
        }
        let sccs = tarjan_sccs(&adj);
        let mut cycles = Vec::new();
        for scc in sccs {
            if scc.len() < 2 {
                continue;
            }
            let inside: BTreeSet<&str> = scc.iter().copied().collect();
            let start = scc[0];
            // BFS from `start` back to `start` inside the component.
            let mut parent: BTreeMap<&str, &LockEdge> = BTreeMap::new();
            let mut queue = VecDeque::from([start]);
            let mut closing: Option<&LockEdge> = None;
            'bfs: while let Some(node) = queue.pop_front() {
                for e in adj.get(node).into_iter().flatten() {
                    if e.to == start {
                        closing = Some(e);
                        break 'bfs;
                    }
                    if inside.contains(e.to.as_str()) && !parent.contains_key(e.to.as_str()) {
                        parent.insert(e.to.as_str(), e);
                        queue.push_back(e.to.as_str());
                    }
                }
            }
            if let Some(close) = closing {
                let mut edges = vec![close.clone()];
                let mut at = close.from.as_str();
                while at != start {
                    let e = parent[at];
                    edges.push(e.clone());
                    at = e.from.as_str();
                }
                edges.reverse();
                cycles.push(edges);
            }
        }
        cycles
    }

    /// Seeds + reverse-BFS for may-panic.
    fn propagate_panic(
        &mut self,
        ws: &Workspace,
        graph: &CallGraph,
        fuzzed: &crate::config::RuleScope,
    ) {
        let seeds: Vec<(usize, Terminal)> = seed_list(graph, |f| {
            if let Some(site) = self.local_panics[f].iter().find(|s| !s.suppressed) {
                return Some(Terminal::Site {
                    line: site.line,
                    label: format!("panic site: `{}`", site.label),
                });
            }
            unresolved_terminal(ws, graph, f, PANIC_EDGE_RULE, Some(fuzzed))
        });
        let dist = reverse_bfs(ws, graph, &seeds, PANIC_EDGE_RULE, Some(fuzzed));
        for (f, t) in seeds {
            self.panic_terminal[f] = Some(t);
        }
        self.panic_dist = dist;
    }

    /// Seeds + reverse-BFS per taint kind.
    fn propagate_taints(&mut self, ws: &Workspace, graph: &CallGraph) {
        for kind in TAINT_KINDS {
            let seeds: Vec<(usize, Terminal)> = seed_list(graph, |f| {
                if let Some(site) = self.local_taints[f]
                    .iter()
                    .find(|s| s.kind == kind && !s.suppressed)
                {
                    return Some(Terminal::Site {
                        line: site.line,
                        label: format!("{} source: `{}`", kind.name(), site.label),
                    });
                }
                unresolved_terminal(ws, graph, f, TAINT_EDGE_RULE, None)
            });
            let dist = reverse_bfs(ws, graph, &seeds, TAINT_EDGE_RULE, None);
            for (f, t) in seeds {
                self.taint_terminal[f][kind.idx()] = Some(t);
            }
            for (f, d) in dist.iter().enumerate() {
                self.taint_dist[f][kind.idx()] = *d;
            }
        }
    }

    /// Transitive lock summaries (fixpoint) and nested-acquisition edges.
    fn propagate_locks(&mut self, ws: &Workspace, graph: &CallGraph) {
        let n = graph.fns.len();
        // Own propagating acquisitions.
        for f in 0..n {
            let own: BTreeSet<String> = self.local_locks[f]
                .iter()
                .filter(|l| !l.param)
                .map(|l| l.id.clone())
                .collect();
            self.lock_summary[f] = own;
        }
        // Fixpoint union through unsuppressed call edges.
        loop {
            let mut changed = false;
            for f in 0..n {
                if is_test_fn(graph, ws, f) {
                    continue;
                }
                let file = &ws.files[graph.fns[f].file];
                let mut add: BTreeSet<String> = BTreeSet::new();
                for &si in &graph.sites_by_caller[f] {
                    let site = &graph.sites[si];
                    if file.has_suppression(LOCK_EDGE_RULE, site.line) {
                        continue;
                    }
                    if let Callee::Fns(targets) = &site.callee {
                        for &t in targets {
                            for id in &self.lock_summary[t] {
                                if !self.lock_summary[f].contains(id) {
                                    add.insert(id.clone());
                                }
                            }
                        }
                    }
                }
                if !add.is_empty() {
                    self.lock_summary[f].extend(add);
                    changed = true;
                }
            }
            if !changed {
                break;
            }
        }
        // Edges: intra-function ordered pairs, plus held-lock × callee
        // summary at each call site.
        let mut edges: BTreeSet<LockEdge> = BTreeSet::new();
        for f in 0..n {
            if is_test_fn(graph, ws, f) {
                continue;
            }
            let node = &graph.fns[f];
            let file = &ws.files[node.file];
            let locks = &self.local_locks[f];
            for (i, a) in locks.iter().enumerate() {
                if a.param {
                    continue;
                }
                for b in locks.iter().skip(i + 1) {
                    if !b.param && a.id != b.id {
                        edges.insert(LockEdge {
                            from: a.id.clone(),
                            to: b.id.clone(),
                            path: file.rel_path.clone(),
                            line: b.line,
                            via: node.qual.clone(),
                        });
                    }
                }
            }
            for &si in &graph.sites_by_caller[f] {
                let site = &graph.sites[si];
                if file.has_suppression(LOCK_EDGE_RULE, site.line) {
                    continue;
                }
                let Callee::Fns(targets) = &site.callee else {
                    continue;
                };
                for a in locks
                    .iter()
                    .filter(|l| !l.param && l.token_idx < site.token_idx)
                {
                    for &t in targets {
                        for id in &self.lock_summary[t] {
                            if *id != a.id {
                                edges.insert(LockEdge {
                                    from: a.id.clone(),
                                    to: id.clone(),
                                    path: file.rel_path.clone(),
                                    line: site.line,
                                    via: node.qual.clone(),
                                });
                            }
                        }
                    }
                }
            }
        }
        self.lock_edges = edges.into_iter().collect();
    }

    /// Marks edge suppressions that actually severed a propagating fact as
    /// used, so `suppression-hygiene` does not flag them as dead.
    fn mark_used_edge_suppressions(
        &self,
        ws: &Workspace,
        graph: &CallGraph,
        fuzzed: &crate::config::RuleScope,
    ) {
        for f in 0..graph.fns.len() {
            if is_test_fn(graph, ws, f) {
                continue;
            }
            let file = &ws.files[graph.fns[f].file];
            let in_fuzzed = fuzzed.applies_to(&file.rel_path);
            for &si in &graph.sites_by_caller[f] {
                let site = &graph.sites[si];
                let (panics, taints, locks) = match &site.callee {
                    Callee::Unresolved(_) => (true, true, false),
                    Callee::Fns(targets) => (
                        targets.iter().any(|&t| self.may_panic(t)),
                        targets.iter().any(|&t| {
                            TAINT_KINDS
                                .iter()
                                .any(|k| self.taint_dist[t][k.idx()].is_some())
                        }),
                        targets.iter().any(|&t| !self.lock_summary[t].is_empty()),
                    ),
                };
                if panics && !in_fuzzed {
                    file.suppressed(PANIC_EDGE_RULE, site.line);
                }
                if taints {
                    file.suppressed(TAINT_EDGE_RULE, site.line);
                }
                if locks {
                    file.suppressed(LOCK_EDGE_RULE, site.line);
                }
            }
        }
    }

    /// Per-crate ratchet counters.
    fn count_crates(&mut self, ws: &Workspace, graph: &CallGraph) {
        // Every named crate appears, even at zero, so the ratchet sees
        // improvements as explicit count drops.
        for m in &ws.manifests {
            if let Some(name) = &m.package_name {
                self.counts.entry(name.clone()).or_default();
            }
        }
        for f in 0..graph.fns.len() {
            if is_test_fn(graph, ws, f) {
                continue;
            }
            let entry = self
                .counts
                .entry(graph.fns[f].crate_name.clone())
                .or_default();
            entry.panic_sites += self.local_panics[f].len();
            if !self.local_taints[f].is_empty() {
                entry.tainted_fns += 1;
            }
        }
        for (fi, (name, _)) in crate_map(ws) {
            self.counts.entry(name).or_default().pub_items += pub_items(&ws.files[fi]);
        }
    }
}

/// Keywords that open an item declaration after a visibility.
const ITEM_KEYWORDS: [&str; 8] = [
    "const", "enum", "fn", "mod", "static", "struct", "trait", "type",
];

/// Non-test item declarations in `file` with bare `pub` visibility: `pub`
/// directly followed by an item keyword, so `pub(crate)`, `pub use` and
/// `pub` fields (`pub name:`) fall out.
fn pub_items(file: &crate::source::SourceFile) -> usize {
    if file.role == crate::source::FileRole::Test {
        return 0;
    }
    let src = file.text.as_str();
    file.code_tokens()
        .zip(file.code_tokens().skip(1))
        .filter(|(vis, keyword)| {
            vis.text(src) == "pub"
                && ITEM_KEYWORDS.contains(&keyword.text(src))
                && !file.in_test_region(vis.start)
        })
        .count()
}

/// Seeds in ascending function order (determinism).
fn seed_list(
    graph: &CallGraph,
    mut seed_of: impl FnMut(usize) -> Option<Terminal>,
) -> Vec<(usize, Terminal)> {
    (0..graph.fns.len())
        .filter_map(|f| seed_of(f).map(|t| (f, t)))
        .collect()
}

/// Terminal for a function whose fact comes from an unresolved
/// workspace-rooted call (pessimism), honouring edge suppressions (except
/// in fuzzed files for the panic family).
fn unresolved_terminal(
    ws: &Workspace,
    graph: &CallGraph,
    f: usize,
    edge_rule: &str,
    fuzzed: Option<&crate::config::RuleScope>,
) -> Option<Terminal> {
    if is_test_fn(graph, ws, f) {
        return None;
    }
    let file = &ws.files[graph.fns[f].file];
    let in_fuzzed = fuzzed.is_some_and(|s| s.applies_to(&file.rel_path));
    for &si in &graph.sites_by_caller[f] {
        let site = &graph.sites[si];
        if let Callee::Unresolved(display) = &site.callee {
            if in_fuzzed || !file.has_suppression(edge_rule, site.line) {
                return Some(Terminal::Unresolved {
                    line: site.line,
                    display: display.clone(),
                });
            }
        }
    }
    None
}

/// Multi-source BFS over reverse call edges: distance from every function
/// to the nearest seed, following only unsuppressed edges. When
/// `fuzzed_override` is set, suppressions in files matching that scope are
/// ignored (fuzzed decoders cannot opt out).
fn reverse_bfs(
    ws: &Workspace,
    graph: &CallGraph,
    seeds: &[(usize, Terminal)],
    edge_rule: &str,
    fuzzed_override: Option<&crate::config::RuleScope>,
) -> Vec<Option<u32>> {
    let n = graph.fns.len();
    // callers_of[t] = sorted (caller, site line) pairs.
    let mut callers_of: Vec<Vec<(usize, usize)>> = vec![Vec::new(); n];
    for site in &graph.sites {
        if is_test_fn(graph, ws, site.caller) {
            continue;
        }
        if let Callee::Fns(targets) = &site.callee {
            for &t in targets {
                callers_of[t].push((site.caller, site.line));
            }
        }
    }
    for v in &mut callers_of {
        v.sort_unstable();
        v.dedup();
    }
    let mut dist: Vec<Option<u32>> = vec![None; n];
    let mut queue: VecDeque<usize> = VecDeque::new();
    for (f, _) in seeds {
        if dist[*f].is_none() {
            dist[*f] = Some(0);
            queue.push_back(*f);
        }
    }
    while let Some(t) = queue.pop_front() {
        let d = dist[t].unwrap_or(0);
        for &(caller, line) in &callers_of[t] {
            if dist[caller].is_some() {
                continue;
            }
            let file = &ws.files[graph.fns[caller].file];
            let exempt = fuzzed_override.is_some_and(|s| s.applies_to(&file.rel_path));
            if !exempt && file.has_suppression(edge_rule, line) {
                continue;
            }
            dist[caller] = Some(d + 1);
            queue.push_back(caller);
        }
    }
    dist
}

/// Iterative Tarjan SCC over a sorted string-keyed adjacency; returns the
/// components, each sorted, in a deterministic order.
fn tarjan_sccs<'a>(adj: &BTreeMap<&'a str, Vec<&'a LockEdge>>) -> Vec<Vec<&'a str>> {
    // Collect the node universe: sources and sinks.
    let mut nodes: BTreeSet<&str> = BTreeSet::new();
    for (n, es) in adj {
        nodes.insert(*n);
        for e in es {
            nodes.insert(e.to.as_str());
        }
    }
    let index_of: BTreeMap<&str, usize> = nodes.iter().enumerate().map(|(i, n)| (*n, i)).collect();
    let names: Vec<&str> = nodes.into_iter().collect();
    let n = names.len();
    let succs: Vec<Vec<usize>> = names
        .iter()
        .map(|name| {
            let mut v: Vec<usize> = adj
                .get(name)
                .into_iter()
                .flatten()
                .map(|e| index_of[e.to.as_str()])
                .collect();
            v.sort_unstable();
            v.dedup();
            v
        })
        .collect();
    let mut indices = vec![usize::MAX; n];
    let mut low = vec![0usize; n];
    let mut on_stack = vec![false; n];
    let mut stack: Vec<usize> = Vec::new();
    let mut next_index = 0usize;
    let mut out: Vec<Vec<&str>> = Vec::new();
    // Explicit DFS stack of (node, next-successor position).
    for start in 0..n {
        if indices[start] != usize::MAX {
            continue;
        }
        let mut dfs: Vec<(usize, usize)> = vec![(start, 0)];
        while let Some(&mut (v, ref mut pos)) = dfs.last_mut() {
            if *pos == 0 {
                indices[v] = next_index;
                low[v] = next_index;
                next_index += 1;
                stack.push(v);
                on_stack[v] = true;
            }
            if *pos < succs[v].len() {
                let w = succs[v][*pos];
                *pos += 1;
                if indices[w] == usize::MAX {
                    dfs.push((w, 0));
                } else if on_stack[w] {
                    low[v] = low[v].min(indices[w]);
                }
            } else {
                if low[v] == indices[v] {
                    let mut comp = Vec::new();
                    loop {
                        let w = stack.pop().unwrap_or(v);
                        on_stack[w] = false;
                        comp.push(names[w]);
                        if w == v {
                            break;
                        }
                    }
                    comp.sort_unstable();
                    out.push(comp);
                }
                dfs.pop();
                if let Some(&mut (u, _)) = dfs.last_mut() {
                    low[u] = low[u].min(low[v]);
                }
            }
        }
    }
    out.sort();
    out
}

/// Methods that observe a hash collection's iteration order when invoked
/// on it. Lookup-style access (`get`, `entry`, `contains_key`, `[]`) never
/// reveals order and is not evidence.
const HASH_ITER_METHODS: &[&str] = &[
    "drain",
    "into_iter",
    "into_keys",
    "into_values",
    "iter",
    "iter_mut",
    "keys",
    "retain",
    "values",
    "values_mut",
];

/// Extracts every local fact from one file's non-test functions.
fn extract_local_facts(
    ws: &Workspace,
    graph: &CallGraph,
    fi: usize,
    in_fuzzed: bool,
    db: &mut FactDb,
) {
    let file = &ws.files[fi];
    if file.role == crate::source::FileRole::Test {
        return;
    }
    let src = file.text.as_str();
    let code: Vec<&crate::lexer::Token> = file.code_tokens().collect();
    let pf = &graph.parsed[fi];
    for i in 0..code.len() {
        let Some(item_idx) = crate::parser::enclosing_fn(&pf.fns, i) else {
            continue;
        };
        if pf.fns[item_idx].in_test {
            continue;
        }
        let f = graph.fn_index(fi, item_idx);
        let tok = code[i];
        // Panic sites: the shared lexical patterns plus literal subscripts.
        for pattern in PANIC_SEQS {
            if matches_at(&code, i, pattern.seq, src) {
                let label = if pattern.seq[0] == "." {
                    format!("{}()", pattern.seq[1])
                } else {
                    format!("{}!", pattern.seq[0])
                };
                let suppressed = !in_fuzzed && file.suppressed("no-panic", tok.line);
                db.local_panics[f].push(PanicSite {
                    token_idx: i,
                    line: tok.line,
                    col: tok.col,
                    label,
                    suppressed,
                });
            }
        }
        if is_literal_index(&code, i, src) {
            let suppressed = !in_fuzzed && file.suppressed("no-literal-index", tok.line);
            db.local_panics[f].push(PanicSite {
                token_idx: i,
                line: tok.line,
                col: tok.col,
                label: format!("literal index `[{}]`", code[i + 1].text(src)),
                suppressed,
            });
        }
        // Wall-clock and RNG taint sources, labelled by the matched tokens.
        for (kind, patterns) in [
            (TaintKind::WallClock, WALL_SEQS),
            (TaintKind::Rng, RNG_SEQS),
        ] {
            for pattern in patterns {
                if matches_at(&code, i, pattern.seq, src) {
                    db.local_taints[f].push(TaintSite {
                        kind,
                        line: tok.line,
                        col: tok.col,
                        label: pattern.seq.concat(),
                        suppressed: file.suppressed(kind.source_rule(), tok.line),
                    });
                }
            }
        }
        // Lock acquisitions: `recv.lock()` / `.read()` / `.write()` with no
        // arguments, plus the `lock(&path)` accessor-helper idiom.
        if tok.text(src) == "."
            && matches!(
                code.get(i + 1).map(|t| t.text(src)),
                Some("lock" | "read" | "write")
            )
            && code.get(i + 2).map(|t| t.text(src)) == Some("(")
            && code.get(i + 3).map(|t| t.text(src)) == Some(")")
        {
            if let Some(site) = lock_site_from_receiver(&code, i, src, &graph.fns[f]) {
                db.local_locks[f].push(site);
            }
        }
        if matches!(tok.text(src), "lock" | "try_lock")
            && code.get(i + 1).map(|t| t.text(src)) == Some("(")
            && (i == 0 || code[i - 1].text(src) != ".")
            && (i == 0 || code[i - 1].text(src) != "fn")
        {
            if let Some(path) = lock_arg_path(&code, i + 2, src) {
                let id = lock_id(&path, &graph.fns[f]);
                db.local_locks[f].push(LockSite {
                    token_idx: i,
                    line: tok.line,
                    id: id.0,
                    param: id.1,
                });
            }
        }
    }
    // Hash-order taint needs per-function context: a hash collection bound
    // in the body *and* evidence that its iteration order is observed —
    // an order-revealing method on the *bound variable*, or a `for` loop
    // over it. A map only ever used for lookups is order-deterministic.
    for (item_idx, item) in pf.fns.iter().enumerate() {
        if item.in_test {
            continue;
        }
        let f = graph.fn_index(fi, item_idx);
        let body = item.body.clone();
        for i in body.start..body.end.min(code.len()) {
            let t = code[i].text(src);
            if t != "HashMap" && t != "HashSet" {
                continue;
            }
            let tok = code[i];
            let bound = hash_binding_name(&code, body.start, i, src);
            let iterated = match bound {
                // `let m = HashMap…`: evidence must mention `m`.
                Some(name) => hash_binding_iterated(&code, &body, src, name),
                // Unbound occurrence (struct literal, cast, nested type):
                // fall back to any order-revealing evidence in the body.
                None => (body.start..body.end.min(code.len())).any(|k| {
                    code[k].text(src) == "for"
                        || (code[k].text(src) == "."
                            && code
                                .get(k + 1)
                                .is_some_and(|m| HASH_ITER_METHODS.contains(&m.text(src)))
                            && code.get(k + 2).map(|p| p.text(src)) == Some("("))
                }),
            };
            if iterated {
                let suppressed = file.suppressed(TaintKind::HashOrder.source_rule(), tok.line);
                db.local_taints[f].push(TaintSite {
                    kind: TaintKind::HashOrder,
                    line: tok.line,
                    col: tok.col,
                    label: format!("{} iteration", tok.text(src)),
                    suppressed,
                });
                break; // one site per body is enough to seed the taint
            }
        }
    }
    // Keep site lists in token order (panic/taint pushes above interleave
    // pattern families at the same index).
    for item_idx in 0..pf.fns.len() {
        let f = graph.fn_index(fi, item_idx);
        db.local_panics[f].sort_by_key(|s| (s.token_idx, s.line, s.col));
        db.local_taints[f].sort_by_key(|s| (s.line, s.col, s.kind));
        db.local_locks[f].sort_by_key(|s| s.token_idx);
    }
}

/// Finds the `let`-bound variable name for a `HashMap`/`HashSet` token at
/// `at`: walks back to the start of the enclosing statement and, if it is
/// a `let` binding with a plain identifier pattern, returns that name.
fn hash_binding_name<'a>(
    code: &[&crate::lexer::Token],
    body_start: usize,
    at: usize,
    src: &'a str,
) -> Option<&'a str> {
    let mut j = at;
    while j > body_start {
        let t = code[j - 1].text(src);
        if matches!(t, ";" | "{" | "}") {
            return None;
        }
        if t == "let" {
            let mut k = j; // first token after `let`
            if code.get(k).map(|t| t.text(src)) == Some("mut") {
                k += 1;
            }
            let name_tok = code.get(k)?;
            return matches!(
                name_tok.kind,
                crate::lexer::TokenKind::Ident | crate::lexer::TokenKind::RawIdent
            )
            .then(|| name_tok.text(src));
        }
        j -= 1;
    }
    None
}

/// True when the body observes `name`'s iteration order: `name.<iter-ish>(`
/// or a `for … in … name … {` loop header naming it.
fn hash_binding_iterated(
    code: &[&crate::lexer::Token],
    body: &std::ops::Range<usize>,
    src: &str,
    name: &str,
) -> bool {
    let end = body.end.min(code.len());
    for k in body.start..end {
        let t = code[k].text(src);
        if t == name
            && code.get(k + 1).map(|t| t.text(src)) == Some(".")
            && code
                .get(k + 2)
                .is_some_and(|m| HASH_ITER_METHODS.contains(&m.text(src)))
            && code.get(k + 3).map(|p| p.text(src)) == Some("(")
        {
            return true;
        }
        if t == "for" && code.get(k + 1).map(|t| t.text(src)) != Some("<") {
            // Scan the loop header (`for pat in expr {`) for the name.
            let mut seen_in = false;
            for tok in &code[k + 1..end] {
                match tok.text(src) {
                    "{" => break,
                    "in" => seen_in = true,
                    t if seen_in && t == name => return true,
                    _ => {}
                }
            }
        }
    }
    false
}

/// Builds a [`LockSite`] from the receiver chain ending at the `.` token
/// `dot` (`self.metrics.lock()` → receiver `self.metrics`).
fn lock_site_from_receiver(
    code: &[&crate::lexer::Token],
    dot: usize,
    src: &str,
    node: &crate::callgraph::FnNode,
) -> Option<LockSite> {
    let mut segs: Vec<&str> = Vec::new();
    let mut j = dot;
    while j >= 1 {
        let prev = code[j - 1];
        match prev.kind {
            crate::lexer::TokenKind::Ident | crate::lexer::TokenKind::RawIdent => {
                segs.push(prev.text(src));
                if j >= 2 && code[j - 2].text(src) == "." {
                    j -= 2;
                } else {
                    break;
                }
            }
            _ => {
                // Complex receiver (call result, index). Identify by the
                // method token's position so distinct sites stay distinct.
                if segs.is_empty() {
                    segs.push("<expr>");
                }
                break;
            }
        }
    }
    if segs.is_empty() {
        return None;
    }
    segs.reverse();
    let path: Vec<String> = segs.iter().map(|s| (*s).to_owned()).collect();
    let (id, param) = lock_id(&path, node);
    Some(LockSite {
        token_idx: dot,
        line: code[dot].line,
        id,
        param,
    })
}

/// First argument of `lock(…)`/`try_lock(…)` as a field path, when it has
/// the shape `&?mut? ident(.ident)*` followed by `)` or `,`.
fn lock_arg_path(code: &[&crate::lexer::Token], at: usize, src: &str) -> Option<Vec<String>> {
    let mut j = at;
    while matches!(code.get(j).map(|t| t.text(src)), Some("&" | "mut")) {
        j += 1;
    }
    let mut path = Vec::new();
    loop {
        let t = code.get(j)?;
        if !matches!(
            t.kind,
            crate::lexer::TokenKind::Ident | crate::lexer::TokenKind::RawIdent
        ) {
            return None;
        }
        path.push(t.text(src).to_owned());
        match code.get(j + 1).map(|t| t.text(src)) {
            Some(".") => j += 2,
            Some(")") | Some(",") => return Some(path),
            _ => return None,
        }
    }
}

/// Lock identity for a receiver/argument path, qualified so that the same
/// shared mutex gets the same id across methods of one type: `self.x` in
/// `impl T` becomes `T::x`; a parameter becomes a non-propagating
/// `param::…` id; anything else is function-local.
fn lock_id(path: &[String], node: &crate::callgraph::FnNode) -> (String, bool) {
    if path.first().map(String::as_str) == Some("self") {
        let owner = node.item.owner.as_deref().unwrap_or("Self");
        let rest = path[1..].join(".");
        if rest.is_empty() {
            return (format!("{owner}::self"), false);
        }
        return (format!("{owner}::{rest}"), false);
    }
    if path.len() == 1 && node.item.params.iter().any(|p| p == &path[0]) {
        return (format!("param::{}::{}", node.qual, path[0]), true);
    }
    (format!("{}::{}", node.qual, path.join(".")), false)
}

#[cfg(test)]
mod tests {
    use super::*;
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
            Manifest::parse(
                "crates/alpha/Cargo.toml",
                "[package]\nname = \"mp-alpha\"\n",
            ),
            Manifest::parse("crates/beta/Cargo.toml", "[package]\nname = \"mp-beta\"\n"),
        ];
        Workspace {
            root: PathBuf::from("/nonexistent"),
            files: fs,
            manifests,
        }
    }

    fn build(files: &[(&str, &str)]) -> (Workspace, CallGraph, FactDb) {
        let ws = ws(files);
        let graph = CallGraph::build(&ws);
        let config = Config::shipped();
        let db = FactDb::build(&ws, &graph, &config);
        (ws, graph, db)
    }

    fn fn_idx(g: &CallGraph, qual: &str) -> usize {
        g.fns
            .iter()
            .position(|f| f.qual == qual)
            .unwrap_or_else(|| panic!("no fn {qual}"))
    }

    #[test]
    fn indirect_panic_two_hops() {
        let (ws, g, db) = build(&[
            (
                "crates/alpha/src/lib.rs",
                "pub fn top() { mp_beta::mid(); }\n",
            ),
            (
                "crates/beta/src/lib.rs",
                "pub fn mid() { deep(); }\nfn deep() { panic!(\"boom\"); }\n",
            ),
        ]);
        let top = fn_idx(&g, "mp_alpha::top");
        assert!(db.may_panic(top));
        assert_eq!(db.panic_dist[top], Some(2));
        let chain = db.panic_chain(&ws, &g, top);
        assert_eq!(chain.len(), 4, "top, mid, deep, site: {chain:?}");
        assert!(chain[0].contains("mp_alpha::top"));
        assert!(chain[1].contains("mp_beta::mid"));
        assert!(chain[2].contains("mp_beta::deep"));
        assert!(chain[3].contains("panic site: `panic!`"));
    }

    #[test]
    fn suppressed_local_site_does_not_propagate() {
        let (_, g, db) = build(&[(
            "crates/alpha/src/lib.rs",
            "pub fn safe() -> u8 {\n    // lint: allow(no-panic) reason=\"static input\"\n    \"7\".parse().unwrap()\n}\npub fn caller() -> u8 { safe() }\n",
        )]);
        assert!(!db.may_panic(fn_idx(&g, "mp_alpha::safe")));
        assert!(!db.may_panic(fn_idx(&g, "mp_alpha::caller")));
        // The suppressed site still counts as ratchet debt.
        assert_eq!(db.counts["mp-alpha"].panic_sites, 1);
    }

    #[test]
    fn edge_suppression_stops_the_cascade() {
        let (_, g, db) = build(&[(
            "crates/alpha/src/lib.rs",
            "pub fn deep() { panic!(\"x\"); }\npub fn mid() {\n    // lint: allow(no-panic-reachable) reason=\"guarded by caller invariant\"\n    deep();\n}\npub fn top() { mid(); }\n",
        )]);
        assert!(db.may_panic(fn_idx(&g, "mp_alpha::deep")));
        assert!(!db.may_panic(fn_idx(&g, "mp_alpha::mid")));
        assert!(!db.may_panic(fn_idx(&g, "mp_alpha::top")));
    }

    #[test]
    fn taint_propagates_by_kind() {
        let (ws, g, db) = build(&[(
            "crates/alpha/src/lib.rs",
            "use std::collections::HashMap;\npub fn source() -> Vec<u64> {\n    let m: HashMap<u64, u64> = HashMap::new();\n    m.keys().copied().collect()\n}\npub fn sink() -> Vec<u64> { source() }\npub fn clean() -> u8 { 1 }\n",
        )]);
        let sink = fn_idx(&g, "mp_alpha::sink");
        assert_eq!(db.taints_of(sink), vec![TaintKind::HashOrder]);
        assert!(db.taints_of(fn_idx(&g, "mp_alpha::clean")).is_empty());
        let chain = db.taint_chain(&ws, &g, sink, TaintKind::HashOrder);
        assert!(chain.last().expect("chain").contains("hash-order source"));
        assert_eq!(db.counts["mp-alpha"].tainted_fns, 1);
    }

    #[test]
    fn rng_and_wall_clock_sources() {
        let (_, g, db) = build(&[(
            "crates/alpha/src/lib.rs",
            "pub fn r() { let _ = rand::thread_rng(); }\npub fn w() { let _ = std::time::Instant::now(); }\npub fn both() { r(); w(); }\n",
        )]);
        let both = fn_idx(&g, "mp_alpha::both");
        assert_eq!(
            db.taints_of(both),
            vec![TaintKind::Rng, TaintKind::WallClock]
        );
    }

    #[test]
    fn unresolved_calls_are_pessimistic() {
        let (ws, g, db) = build(&[(
            "crates/alpha/src/lib.rs",
            "pub fn f() { crate::ghost::call(); }\n",
        )]);
        let f = fn_idx(&g, "mp_alpha::f");
        assert!(db.may_panic(f));
        assert!(!db.taints_of(f).is_empty());
        let chain = db.panic_chain(&ws, &g, f);
        assert!(chain.last().expect("chain").contains("unresolved call"));
    }

    #[test]
    fn lock_cycle_across_two_functions() {
        let (_, _, db) = build(&[(
            "crates/alpha/src/lib.rs",
            "use std::sync::Mutex;\npub struct S { a: Mutex<u8>, b: Mutex<u8> }\nimpl S {\n    pub fn ab(&self) { let _x = self.a.lock(); let _y = self.b.lock(); }\n    pub fn ba(&self) { let _y = self.b.lock(); let _x = self.a.lock(); }\n}\n",
        )]);
        let cycles = db.lock_cycles();
        assert_eq!(cycles.len(), 1, "edges: {:?}", db.lock_edges);
        let nodes: BTreeSet<&str> = cycles[0]
            .iter()
            .flat_map(|e| [e.from.as_str(), e.to.as_str()])
            .collect();
        assert_eq!(nodes, BTreeSet::from(["S::a", "S::b"]));
    }

    #[test]
    fn lock_summary_joins_through_callees() {
        let (_, g, db) = build(&[(
            "crates/alpha/src/lib.rs",
            "use std::sync::Mutex;\npub struct S { a: Mutex<u8>, b: Mutex<u8> }\nimpl S {\n    pub fn outer(&self) { let _g = self.a.lock(); self.inner(); }\n    fn inner(&self) { let _g = self.b.lock(); }\n}\n",
        )]);
        let outer = fn_idx(&g, "mp_alpha::S::outer");
        assert!(db.lock_summary[outer].contains("S::a"));
        assert!(db.lock_summary[outer].contains("S::b"));
        assert!(db
            .lock_edges
            .iter()
            .any(|e| e.from == "S::a" && e.to == "S::b"));
        // One direction only: no cycle.
        assert!(db.lock_cycles().is_empty());
    }

    #[test]
    fn helper_mediated_lock_acquisition() {
        // The serve.rs idiom: a free `lock(m)` helper; the caller passes
        // `&self.field`, which is the acquisition that matters.
        let (_, g, db) = build(&[(
            "crates/alpha/src/lib.rs",
            "use std::sync::{Mutex, MutexGuard, PoisonError};\nfn lock<'a, T>(m: &'a Mutex<T>) -> MutexGuard<'a, T> { m.lock().unwrap_or_else(PoisonError::into_inner) }\npub struct S { q: Mutex<u8>, r: Mutex<u8> }\nimpl S {\n    pub fn qr(&self) { let _a = lock(&self.q); let _b = lock(&self.r); }\n    pub fn rq(&self) { let _b = lock(&self.r); let _a = lock(&self.q); }\n}\n",
        )]);
        // The helper's own `m.lock()` is a parameter lock: non-propagating.
        let helper = fn_idx(&g, "mp_alpha::lock");
        assert!(db.lock_summary[helper].is_empty());
        let cycles = db.lock_cycles();
        assert_eq!(cycles.len(), 1, "edges: {:?}", db.lock_edges);
        let nodes: BTreeSet<&str> = cycles[0]
            .iter()
            .flat_map(|e| [e.from.as_str(), e.to.as_str()])
            .collect();
        assert_eq!(nodes, BTreeSet::from(["S::q", "S::r"]));
    }

    #[test]
    fn test_code_contributes_nothing() {
        let (_, g, db) = build(&[(
            "crates/alpha/src/lib.rs",
            "pub fn live() {}\n#[cfg(test)]\nmod tests {\n    #[test]\n    fn t() { None::<u8>.unwrap(); }\n}\n",
        )]);
        assert!(!db.may_panic(fn_idx(&g, "mp_alpha::live")));
        assert_eq!(db.counts["mp-alpha"].panic_sites, 0);
    }

    #[test]
    fn facts_are_independent_of_input_file_order() {
        let files_a: &[(&str, &str)] = &[
            (
                "crates/alpha/src/lib.rs",
                "pub fn top() { mp_beta::mid(); }\n",
            ),
            (
                "crates/beta/src/lib.rs",
                "pub fn mid() { deep(); }\nfn deep() { let _: u8 = \"1\".parse().unwrap(); }\n",
            ),
        ];
        let files_b: Vec<(&str, &str)> = files_a.iter().rev().copied().collect();
        let (ws_a, g_a, db_a) = build(files_a);
        let (ws_b, g_b, db_b) = build(&files_b);
        let top_a = fn_idx(&g_a, "mp_alpha::top");
        let top_b = fn_idx(&g_b, "mp_alpha::top");
        assert_eq!(db_a.panic_dist[top_a], db_b.panic_dist[top_b]);
        assert_eq!(
            db_a.panic_chain(&ws_a, &g_a, top_a),
            db_b.panic_chain(&ws_b, &g_b, top_b)
        );
        assert_eq!(db_a.counts, db_b.counts);
    }
}
