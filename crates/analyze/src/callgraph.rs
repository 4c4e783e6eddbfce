//! Workspace call graph: per-crate symbol tables and conservative,
//! `use`-aware call resolution over the parsed items of every file.
//!
//! Resolution is *textual* — there is no type information — so it is
//! deliberately asymmetric about failure:
//!
//! * A path call rooted in a **workspace crate** (`mp_observe::…`,
//!   `crate::…`, `Self::…`) that fails to resolve becomes
//!   [`Callee::Unresolved`], which downstream fact propagation treats as
//!   having *every* fact (pessimism: an edge we cannot follow into our own
//!   code must not launder facts away).
//! * A call into `std`/vendored crates, or a method call whose name is a
//!   ubiquitous std method ([`PRELUDE_METHODS`]), is treated as external
//!   and fact-free (optimism: linking `.len()` to every workspace `len`
//!   would drown the analysis; std panics are the lexical rules' job at
//!   the call site). The trade-off is documented in DESIGN.md §15.
//! * A method call with a workspace-meaningful name links to **all**
//!   workspace methods of that name (suffix match across impl types) —
//!   over-approximation, never under-approximation.

use crate::parser::{self, FnItem, ParsedFile};
use crate::source::FileRole;
use crate::workspace::Workspace;
use std::collections::{BTreeMap, BTreeSet};

/// One function node in the graph.
#[derive(Debug)]
pub struct FnNode {
    /// Index into `Workspace::files`.
    pub file: usize,
    /// The parsed item (name, owner, body range, params, …).
    pub item: FnItem,
    /// Package name of the crate the file belongs to (e.g. `mp-observe`).
    pub crate_name: String,
    /// Crate ident as it appears in paths (e.g. `mp_observe`).
    pub crate_ident: String,
    /// Module path inside the crate: file-derived segments plus inline
    /// `mod`s (e.g. `["recorder"]` for `crates/observe/src/recorder.rs`).
    pub module: Vec<String>,
    /// Display name for diagnostics:
    /// `mp_observe::recorder::Registry::counter`.
    pub qual: String,
}

/// Where a call site leads.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Callee {
    /// Resolved to one or more workspace functions (sorted indices into
    /// [`CallGraph::fns`]); more than one for cross-type method matches.
    Fns(Vec<usize>),
    /// Workspace-rooted path that did not resolve; carries the textual
    /// path. Fact propagation treats this as having every fact.
    Unresolved(String),
}

/// One call expression inside a function body.
#[derive(Debug)]
pub struct CallSite {
    /// Calling function (index into [`CallGraph::fns`]).
    pub caller: usize,
    /// Code-token index (within the caller's file) of the called name —
    /// used to order call sites against lock acquisitions.
    pub token_idx: usize,
    /// 1-based line of the called name.
    pub line: usize,
    /// 1-based column of the called name.
    pub col: usize,
    /// What the call looked like in source (`recorder.counter` or
    /// `mp_observe::Registry::counter`).
    pub display: String,
    /// Resolution result.
    pub callee: Callee,
}

/// The workspace call graph plus everything needed to walk bodies again.
pub struct CallGraph {
    /// All function nodes, ordered by (file index, body start) — a stable,
    /// path-sorted order because `Workspace::files` is sorted.
    pub fns: Vec<FnNode>,
    /// Parsed item structure per file (same indexing as `Workspace::files`).
    pub parsed: Vec<ParsedFile>,
    /// All call sites, ordered by (caller file, token index).
    pub sites: Vec<CallSite>,
    /// Call-site indices grouped per caller function.
    pub sites_by_caller: Vec<Vec<usize>>,
    /// First function index per file: `fns` index of file `fi`'s item 0.
    pub fn_base: Vec<usize>,
}

/// Method names so common in `std` that a bare `.name(` call is assumed
/// external; linking them to same-named workspace methods would connect
/// nearly every function to nearly every collection wrapper. Sorted for
/// binary search; a workspace method that shares one of these names is a
/// documented blind spot of the analysis.
pub const PRELUDE_METHODS: &[&str] = &[
    "abs",
    "all",
    "and_then",
    "any",
    "append",
    "as_bytes",
    "as_deref",
    "as_mut",
    "as_ref",
    "as_slice",
    "as_str",
    "binary_search",
    "borrow",
    "borrow_mut",
    "bytes",
    "ceil",
    "chain",
    "chars",
    "checked_add",
    "checked_div",
    "checked_mul",
    "checked_sub",
    "chunks",
    "clamp",
    "clear",
    "clone",
    "cloned",
    "cmp",
    "collect",
    "concat",
    "contains",
    "contains_key",
    "copied",
    "count",
    "dedup",
    "drain",
    "ends_with",
    "entry",
    "enumerate",
    "eq",
    "expect",
    "extend",
    "filter",
    "filter_map",
    "find",
    "find_map",
    "first",
    "flat_map",
    "flatten",
    "floor",
    "fmt",
    "fold",
    "get",
    "get_mut",
    "get_or_insert_with",
    "hash",
    "insert",
    "into",
    "into_iter",
    "is_empty",
    "is_err",
    "is_none",
    "is_ok",
    "is_some",
    "iter",
    "iter_mut",
    "join",
    "keys",
    "last",
    "len",
    "ln",
    "lock",
    "map",
    "map_err",
    "max",
    "max_by",
    "max_by_key",
    "min",
    "min_by",
    "min_by_key",
    "ne",
    "next",
    "next_back",
    "ok",
    "ok_or",
    "ok_or_else",
    "or_else",
    "or_insert",
    "or_insert_with",
    "parse",
    "partial_cmp",
    "partition",
    "peek",
    "peekable",
    "pop",
    "position",
    "pow",
    "powf",
    "powi",
    "push",
    "push_str",
    "read",
    "remove",
    "replace",
    "reserve",
    "resize",
    "retain",
    "rev",
    "round",
    "saturating_add",
    "saturating_sub",
    "skip",
    "skip_while",
    "sort",
    "sort_by",
    "sort_by_key",
    "sort_unstable",
    "split",
    "split_whitespace",
    "sqrt",
    "starts_with",
    "step_by",
    "sum",
    "swap",
    "take",
    "take_while",
    "then",
    "then_some",
    "to_ascii_lowercase",
    "to_ascii_uppercase",
    "to_owned",
    "to_string",
    "to_vec",
    "trim",
    "trim_end",
    "trim_start",
    "truncate",
    "try_into",
    "try_lock",
    "unwrap",
    "unwrap_or",
    "unwrap_or_default",
    "unwrap_or_else",
    "values",
    "values_mut",
    "windows",
    "wrapping_add",
    "write",
    "zip",
];

/// Path roots that always mean "outside the workspace": external crates
/// plus the primitive types (`u64::from_le_bytes` and friends).
const EXTERNAL_ROOTS: &[&str] = &[
    "alloc",
    "bool",
    "char",
    "core",
    "f32",
    "f64",
    "i128",
    "i16",
    "i32",
    "i64",
    "i8",
    "isize",
    "proptest",
    "rand",
    "serde",
    "serde_json",
    "std",
    "str",
    "u128",
    "u16",
    "u32",
    "u64",
    "u8",
    "usize",
];

/// Keywords and std constructors that look like bare calls but never are.
const NON_CALL_IDENTS: &[&str] = &[
    "Err", "None", "Ok", "Some", "box", "break", "continue", "else", "for", "if", "in", "let",
    "loop", "match", "move", "return", "unsafe", "while", "yield",
];

impl CallGraph {
    /// Builds the graph for `ws`. Pure over the already-lexed files.
    pub fn build(ws: &Workspace) -> CallGraph {
        let crate_of = crate_map(ws);
        let mut parsed = Vec::with_capacity(ws.files.len());
        let mut fns: Vec<FnNode> = Vec::new();
        let mut fn_of_item: Vec<BTreeMap<usize, usize>> = Vec::new();
        let crate_idents: Vec<String> = {
            let mut v: Vec<String> = ws
                .manifests
                .iter()
                .filter_map(|m| m.package_name.clone())
                .map(|n| n.replace('-', "_"))
                .collect();
            v.sort();
            v.dedup();
            v
        };
        let mut fn_base = Vec::with_capacity(ws.files.len());
        for (fi, file) in ws.files.iter().enumerate() {
            fn_base.push(fns.len());
            let pf = parser::parse(file);
            let (crate_name, crate_ident) = crate_of
                .get(&fi)
                .cloned()
                .unwrap_or_else(|| ("unknown".to_owned(), "unknown".to_owned()));
            let file_mod = file_module(&file.rel_path);
            let mut map = BTreeMap::new();
            for (ii, item) in pf.fns.iter().enumerate() {
                let mut module = file_mod.clone();
                module.extend(item.module.iter().cloned());
                let mut qual = crate_ident.clone();
                for m in &module {
                    qual.push_str("::");
                    qual.push_str(m);
                }
                if let Some(owner) = &item.owner {
                    qual.push_str("::");
                    qual.push_str(owner);
                }
                qual.push_str("::");
                qual.push_str(&item.name);
                map.insert(ii, fns.len());
                fns.push(FnNode {
                    file: fi,
                    item: item.clone(),
                    crate_name: crate_name.clone(),
                    crate_ident: crate_ident.clone(),
                    module,
                    qual,
                });
            }
            fn_of_item.push(map);
            parsed.push(pf);
        }
        // Symbol table: bare name → all function indices sharing it.
        let mut by_name: BTreeMap<&str, Vec<usize>> = BTreeMap::new();
        for (i, f) in fns.iter().enumerate() {
            by_name.entry(f.item.name.as_str()).or_default().push(i);
        }
        let reachable = reachable_crates(ws);
        let mut sites = Vec::new();
        for (fi, file) in ws.files.iter().enumerate() {
            extract_sites(
                file,
                &parsed[fi],
                &fn_of_item[fi],
                &fns,
                &by_name,
                &crate_idents,
                &reachable,
                &mut sites,
            );
        }
        let mut sites_by_caller = vec![Vec::new(); fns.len()];
        for (si, s) in sites.iter().enumerate() {
            sites_by_caller[s.caller].push(si);
        }
        CallGraph {
            fns,
            parsed,
            sites,
            sites_by_caller,
            fn_base,
        }
    }

    /// Global function index of item `item_idx` in file `file` (items are
    /// pushed in file order, then item order).
    pub fn fn_index(&self, file: usize, item_idx: usize) -> usize {
        self.fn_base[file] + item_idx
    }
}

/// Maps each file index to its crate's (package name, path ident) by the
/// longest manifest-directory prefix.
pub(crate) fn crate_map(ws: &Workspace) -> BTreeMap<usize, (String, String)> {
    // (dir, package) pairs; root manifest has dir "".
    let mut dirs: Vec<(String, String)> = ws
        .manifests
        .iter()
        .filter_map(|m| {
            let name = m.package_name.clone()?;
            let dir = m
                .rel_path
                .strip_suffix("Cargo.toml")
                .unwrap_or(&m.rel_path)
                .trim_end_matches('/')
                .to_owned();
            Some((dir, name))
        })
        .collect();
    // Longest prefix wins: sort by dir length descending (ties by name for
    // determinism).
    dirs.sort_by(|a, b| b.0.len().cmp(&a.0.len()).then(a.cmp(b)));
    let mut out = BTreeMap::new();
    for (fi, file) in ws.files.iter().enumerate() {
        let hit = dirs.iter().find(|(dir, _)| {
            dir.is_empty()
                || file
                    .rel_path
                    .strip_prefix(dir.as_str())
                    .is_some_and(|rest| rest.starts_with('/'))
        });
        if let Some((_, name)) = hit {
            out.insert(fi, (name.clone(), name.replace('-', "_")));
        }
    }
    out
}

/// Workspace crates each crate can reach through its (non-dev) manifest
/// dependencies, itself included — the only crates a method call in its
/// non-test code can land in. Keys and values are crate *idents*.
fn reachable_crates(ws: &Workspace) -> BTreeMap<String, BTreeSet<String>> {
    let packages: BTreeSet<&str> = ws
        .manifests
        .iter()
        .filter_map(|m| m.package_name.as_deref())
        .collect();
    let mut direct: BTreeMap<&str, Vec<&str>> = BTreeMap::new();
    for m in &ws.manifests {
        let Some(name) = m.package_name.as_deref() else {
            continue;
        };
        let deps: Vec<&str> = m
            .deps
            .iter()
            .filter(|d| !d.dev && packages.contains(d.name.as_str()))
            .map(|d| d.name.as_str())
            .collect();
        direct.insert(name, deps);
    }
    let mut out = BTreeMap::new();
    for name in direct.keys() {
        let mut seen: BTreeSet<&str> = BTreeSet::new();
        let mut stack = vec![*name];
        while let Some(n) = stack.pop() {
            if seen.insert(n) {
                if let Some(ds) = direct.get(n) {
                    stack.extend(ds.iter().copied());
                }
            }
        }
        out.insert(
            name.replace('-', "_"),
            seen.iter().map(|n| n.replace('-', "_")).collect(),
        );
    }
    out
}

/// Module path a file contributes by position: path segments after `src/`
/// minus the file stem for `lib.rs`/`main.rs`/`mod.rs`.
fn file_module(rel_path: &str) -> Vec<String> {
    let parts: Vec<&str> = rel_path.split('/').collect();
    let Some(src_at) = parts.iter().position(|p| *p == "src") else {
        return Vec::new();
    };
    let mut out: Vec<String> = Vec::new();
    for (i, part) in parts.iter().enumerate().skip(src_at + 1) {
        if i + 1 == parts.len() {
            let stem = part.strip_suffix(".rs").unwrap_or(part);
            if !matches!(stem, "lib" | "main" | "mod") {
                out.push(stem.to_owned());
            }
        } else if *part != "bin" {
            out.push((*part).to_owned());
        }
    }
    out
}

/// Scans one file's code tokens for call expressions, attributing each to
/// its innermost enclosing function and resolving the callee.
#[allow(clippy::too_many_arguments)]
fn extract_sites(
    file: &crate::source::SourceFile,
    pf: &ParsedFile,
    fn_of_item: &BTreeMap<usize, usize>,
    fns: &[FnNode],
    by_name: &BTreeMap<&str, Vec<usize>>,
    crate_idents: &[String],
    reachable: &BTreeMap<String, BTreeSet<String>>,
    sites: &mut Vec<CallSite>,
) {
    let src = file.text.as_str();
    let code: Vec<&crate::lexer::Token> = file.code_tokens().collect();
    for i in 0..code.len() {
        if code[i].text(src) != "(" || i == 0 {
            continue;
        }
        let prev = code[i - 1];
        if !matches!(
            prev.kind,
            crate::lexer::TokenKind::Ident | crate::lexer::TokenKind::RawIdent
        ) {
            continue;
        }
        let Some(item_idx) = parser::enclosing_fn(&pf.fns, i) else {
            continue;
        };
        let caller = fn_of_item[&item_idx];
        // Method call: `. name (`.
        if i >= 2 && code[i - 2].text(src) == "." {
            let name = prev.text(src).trim_start_matches("r#");
            if PRELUDE_METHODS.binary_search(&name).is_ok() {
                continue;
            }
            // Any workspace method with that name is a candidate, but only
            // in crates the caller's manifest can actually reach.
            let reach = reachable.get(&fns[caller].crate_ident);
            let mut targets: Vec<usize> = by_name
                .get(name)
                .into_iter()
                .flatten()
                .copied()
                .filter(|&t| fns[t].item.owner.is_some())
                .filter(|&t| match reach {
                    Some(r) => r.contains(&fns[t].crate_ident),
                    None => true,
                })
                .collect();
            targets.sort_unstable();
            if targets.is_empty() {
                continue; // external method, optimistically fact-free
            }
            sites.push(CallSite {
                caller,
                token_idx: i - 1,
                line: prev.line,
                col: prev.col,
                display: format!(".{name}"),
                callee: Callee::Fns(targets),
            });
            continue;
        }
        // Path or bare call: walk `ident (:: ident)*` backwards from `prev`.
        let mut segs: Vec<&str> = vec![prev.text(src)];
        let mut j = i - 1; // index of the first segment so far
        while j >= 3
            && code[j - 1].text(src) == ":"
            && code[j - 2].text(src) == ":"
            && matches!(
                code[j - 3].kind,
                crate::lexer::TokenKind::Ident | crate::lexer::TokenKind::RawIdent
            )
        {
            segs.push(code[j - 3].text(src));
            j -= 3;
        }
        segs.reverse();
        // `foo!(…)` is a macro, `fn foo(` a definition, `.foo(` handled
        // above, `use foo(` never happens; skip all non-call shapes.
        if j >= 1 {
            let before = code[j - 1].text(src);
            if before == "!" || before == "fn" || before == "." {
                continue;
            }
        }
        if segs.len() == 1 && NON_CALL_IDENTS.contains(&segs[0]) {
            continue;
        }
        let segs: Vec<String> = segs
            .iter()
            .map(|s| s.trim_start_matches("r#").to_owned())
            .collect();
        let caller_node = &fns[caller];
        match resolve_path(&segs, caller_node, pf, fns, by_name, crate_idents) {
            Resolution::External => {}
            Resolution::Fns(targets) => sites.push(CallSite {
                caller,
                token_idx: i - 1,
                line: prev.line,
                col: prev.col,
                display: segs.join("::"),
                callee: Callee::Fns(targets),
            }),
            Resolution::Unresolved(path) => sites.push(CallSite {
                caller,
                token_idx: i - 1,
                line: prev.line,
                col: prev.col,
                display: segs.join("::"),
                callee: Callee::Unresolved(path),
            }),
        }
    }
}

enum Resolution {
    /// Outside the workspace (std, vendored, locals, closures).
    External,
    /// Resolved workspace functions (sorted).
    Fns(Vec<usize>),
    /// Workspace-rooted but unmatched: pessimistic.
    Unresolved(String),
}

/// Resolves a (possibly `use`-aliased) call path seen inside `caller`.
fn resolve_path(
    segs: &[String],
    caller: &FnNode,
    pf: &ParsedFile,
    fns: &[FnNode],
    by_name: &BTreeMap<&str, Vec<usize>>,
    crate_idents: &[String],
) -> Resolution {
    // Expand the leading segment through the file's imports.
    let mut path: Vec<String> = Vec::new();
    if let Some(u) = pf
        .uses
        .iter()
        .find(|u| !u.glob && !u.alias.is_empty() && u.alias == segs[0])
    {
        path.extend(u.path.iter().cloned());
        path.extend(segs[1..].iter().cloned());
    } else {
        path.extend(segs.iter().cloned());
    }
    // Normalize workspace-internal roots to the caller's crate ident.
    let mut in_crate = false;
    while matches!(
        path.first().map(String::as_str),
        Some("crate" | "self" | "super")
    ) {
        path.remove(0);
        in_crate = true;
    }
    if path.is_empty() {
        return Resolution::External;
    }
    // A final segment with an uppercase initial is a tuple-struct or
    // enum-variant constructor, a type, or an associated const —
    // `Value::Int(3)` is data, not a call. Workspace `fn`s are snake_case,
    // so nothing resolvable is lost.
    if path
        .last()
        .is_some_and(|s| s.chars().next().is_some_and(char::is_uppercase))
    {
        return Resolution::External;
    }
    let root = path[0].clone();
    let display = path.join("::");
    if !in_crate {
        if EXTERNAL_ROOTS.contains(&root.as_str()) {
            return Resolution::External;
        }
        if crate_idents.contains(&root) {
            // Cross-crate (or explicit own-crate) path.
            let target_crate = root;
            let tail = &path[1..];
            if tail.is_empty() {
                return Resolution::External; // bare crate name is not a call
            }
            return resolve_in_crate(&target_crate, tail, fns, &display);
        }
        if root == "Self" {
            let tail: Vec<String> = {
                let mut t = vec![caller.owner_or_self()];
                t.extend(path[1..].iter().cloned());
                t
            };
            return resolve_in_crate(&caller.crate_ident, &tail, fns, &display);
        }
        if path.len() == 1 {
            // Bare call: same crate, same module, free function — otherwise
            // a local closure/function pointer (external).
            let name = path[0].as_str();
            let mut targets: Vec<usize> = by_name
                .get(name)
                .into_iter()
                .flatten()
                .copied()
                .filter(|&t| {
                    fns[t].crate_ident == caller.crate_ident
                        && fns[t].item.owner.is_none()
                        && fns[t].module == caller.module
                })
                .collect();
            targets.sort_unstable();
            if targets.is_empty() {
                return Resolution::External;
            }
            return Resolution::Fns(targets);
        }
        // Uppercase root: a type in the caller's crate (`Registry::new`) or
        // anywhere in the workspace; lowercase: a sibling module.
        if root.chars().next().is_some_and(char::is_uppercase) {
            let name = path.last().cloned().unwrap_or_default();
            let mut targets: Vec<usize> = (0..fns.len())
                .filter(|&t| {
                    fns[t].item.name == name
                        && fns[t].item.owner.as_deref() == Some(root.as_str())
                        && fns[t].crate_ident == caller.crate_ident
                })
                .collect();
            if targets.is_empty() {
                targets = (0..fns.len())
                    .filter(|&t| {
                        fns[t].item.name == name
                            && fns[t].item.owner.as_deref() == Some(root.as_str())
                    })
                    .collect();
            }
            if targets.is_empty() {
                return Resolution::External; // std/vendored type
            }
            return Resolution::Fns(targets);
        }
        // Lowercase multi-segment rooted at neither a crate nor an import:
        // try it as a module path in the caller's crate.
        return resolve_in_crate(&caller.crate_ident, &path, fns, &display);
    }
    resolve_in_crate(&caller.crate_ident, &path, fns, &display)
}

impl FnNode {
    fn owner_or_self(&self) -> String {
        self.item.owner.clone().unwrap_or_else(|| "Self".to_owned())
    }
}

/// Suffix-matches `tail` against the functions of `crate_ident`: the last
/// segment is the function name; an uppercase second-to-last segment must
/// match the impl owner, any remaining lowercase segments must be a
/// suffix-compatible module path. No match ⇒ pessimistic.
fn resolve_in_crate(
    crate_ident: &str,
    tail: &[String],
    fns: &[FnNode],
    display: &str,
) -> Resolution {
    let Some(name) = tail.last() else {
        return Resolution::External;
    };
    let owner = if tail.len() >= 2 {
        let prev = &tail[tail.len() - 2];
        if prev.chars().next().is_some_and(char::is_uppercase) {
            Some(prev.as_str())
        } else {
            None
        }
    } else {
        None
    };
    let mods: &[String] = match owner {
        Some(_) => &tail[..tail.len() - 2],
        None => &tail[..tail.len() - 1],
    };
    let targets: Vec<usize> = (0..fns.len())
        .filter(|&t| {
            let f = &fns[t];
            f.crate_ident == crate_ident
                && f.item.name == *name
                && match owner {
                    Some(o) => f.item.owner.as_deref() == Some(o),
                    None => f.item.owner.is_none(),
                }
                && mods.iter().all(|m| f.module.iter().any(|fm| fm == m))
        })
        .collect();
    if targets.is_empty() {
        // A `Self::name` fallback across owners: method with that name in
        // the crate (the owner segment may be a type alias we can't see).
        let loose: Vec<usize> = (0..fns.len())
            .filter(|&t| fns[t].crate_ident == crate_ident && fns[t].item.name == *name)
            .collect();
        if loose.is_empty() {
            return Resolution::Unresolved(display.to_owned());
        }
        return Resolution::Fns(loose);
    }
    Resolution::Fns(targets)
}

/// True when the file is test-only from the graph's point of view.
pub fn is_test_fn(graph: &CallGraph, ws: &Workspace, f: usize) -> bool {
    let node = &graph.fns[f];
    node.item.in_test || ws.files[node.file].role == FileRole::Test
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::source::SourceFile;
    use crate::workspace::{Manifest, Workspace};
    use std::path::PathBuf;

    fn ws(files: &[(&str, &str)], manifests: &[(&str, &str)]) -> Workspace {
        let mut files: Vec<SourceFile> = files
            .iter()
            .map(|(p, s)| SourceFile::parse(p, (*s).to_owned()))
            .collect();
        files.sort_by(|a, b| a.rel_path.cmp(&b.rel_path));
        let mut manifests: Vec<Manifest> = manifests
            .iter()
            .map(|(p, t)| Manifest::parse(p, t))
            .collect();
        manifests.sort_by(|a, b| a.rel_path.cmp(&b.rel_path));
        Workspace {
            root: PathBuf::from("/nonexistent"),
            files,
            manifests,
        }
    }

    fn manifest(dir: &str, name: &str) -> (String, String) {
        (
            format!("{dir}/Cargo.toml"),
            format!("[package]\nname = \"{name}\"\n"),
        )
    }

    fn two_crate_ws() -> Workspace {
        let (am_p, mut am_t) = manifest("crates/alpha", "mp-alpha");
        am_t.push_str("\n[dependencies]\nmp-beta = { path = \"../beta\" }\n");
        let (bm_p, bm_t) = manifest("crates/beta", "mp-beta");
        ws(
            &[
                (
                    "crates/alpha/src/lib.rs",
                    "use mp_beta::helper::boom;\npub fn caller() { boom(); }\npub fn cross() { mp_beta::helper::boom(); }\npub fn method_call(r: &mp_beta::Reg) { r.record(1); }\n",
                ),
                (
                    "crates/beta/src/helper.rs",
                    "pub fn boom() { inner(); }\nfn inner() {}\n",
                ),
                (
                    "crates/beta/src/lib.rs",
                    "pub mod helper;\npub struct Reg;\nimpl Reg {\n    pub fn record(&self, v: u64) { helper::boom(); }\n}\n",
                ),
            ],
            &[(&am_p, &am_t), (&bm_p, &bm_t)],
        )
    }

    fn find_fn(g: &CallGraph, qual: &str) -> usize {
        g.fns
            .iter()
            .position(|f| f.qual == qual)
            .unwrap_or_else(|| {
                panic!(
                    "no fn {qual}; have {:?}",
                    g.fns.iter().map(|f| &f.qual).collect::<Vec<_>>()
                )
            })
    }

    fn callees_of_fn(g: &CallGraph, caller: usize) -> Vec<String> {
        let mut out = Vec::new();
        for &si in &g.sites_by_caller[caller] {
            match &g.sites[si].callee {
                Callee::Fns(ts) => out.extend(ts.iter().map(|&t| g.fns[t].qual.clone())),
                Callee::Unresolved(p) => out.push(format!("?{p}")),
            }
        }
        out
    }

    #[test]
    fn use_import_resolves_cross_crate() {
        let g = CallGraph::build(&two_crate_ws());
        let caller = find_fn(&g, "mp_alpha::caller");
        assert_eq!(callees_of_fn(&g, caller), vec!["mp_beta::helper::boom"]);
    }

    #[test]
    fn full_path_resolves_cross_crate() {
        let g = CallGraph::build(&two_crate_ws());
        let caller = find_fn(&g, "mp_alpha::cross");
        assert_eq!(callees_of_fn(&g, caller), vec!["mp_beta::helper::boom"]);
    }

    #[test]
    fn method_call_links_to_workspace_impls() {
        let g = CallGraph::build(&two_crate_ws());
        let caller = find_fn(&g, "mp_alpha::method_call");
        assert_eq!(callees_of_fn(&g, caller), vec!["mp_beta::Reg::record"]);
    }

    #[test]
    fn method_fan_out_respects_manifest_deps() {
        // mp-beta does not depend on mp-alpha, so a `.probe()` call in beta
        // cannot land on alpha's `probe` method: it stays external.
        let (am_p, mut am_t) = manifest("crates/alpha", "mp-alpha");
        am_t.push_str("\n[dependencies]\nmp-beta = { path = \"../beta\" }\n");
        let (bm_p, bm_t) = manifest("crates/beta", "mp-beta");
        let g = CallGraph::build(&ws(
            &[
                (
                    "crates/alpha/src/lib.rs",
                    "pub struct Probe;\nimpl Probe {\n    pub fn probe(&self) {}\n}\n",
                ),
                (
                    "crates/beta/src/lib.rs",
                    "pub fn uses(x: &dyn std::fmt::Debug) { x.probe(); }\n",
                ),
            ],
            &[(&am_p, &am_t), (&bm_p, &bm_t)],
        ));
        let caller = find_fn(&g, "mp_beta::uses");
        assert_eq!(callees_of_fn(&g, caller), Vec::<String>::new());
    }

    #[test]
    fn module_local_bare_call_resolves() {
        let g = CallGraph::build(&two_crate_ws());
        let boom = find_fn(&g, "mp_beta::helper::boom");
        assert_eq!(callees_of_fn(&g, boom), vec!["mp_beta::helper::inner"]);
    }

    #[test]
    fn sibling_module_path_resolves_in_crate() {
        let g = CallGraph::build(&two_crate_ws());
        let record = find_fn(&g, "mp_beta::Reg::record");
        assert_eq!(callees_of_fn(&g, record), vec!["mp_beta::helper::boom"]);
    }

    #[test]
    fn prelude_methods_and_std_are_external() {
        let (m_p, m_t) = manifest("crates/alpha", "mp-alpha");
        let g = CallGraph::build(&ws(
            &[(
                "crates/alpha/src/lib.rs",
                "pub fn f(v: Vec<u8>) -> usize { let n = v.len(); std::mem::drop(v); n.max(3) }\n",
            )],
            &[(&m_p, &m_t)],
        ));
        let f = find_fn(&g, "mp_alpha::f");
        assert!(callees_of_fn(&g, f).is_empty());
    }

    #[test]
    fn unresolved_workspace_path_is_pessimistic() {
        let (m_p, m_t) = manifest("crates/alpha", "mp-alpha");
        let g = CallGraph::build(&ws(
            &[(
                "crates/alpha/src/lib.rs",
                "pub fn f() { crate::missing::ghost(); }\n",
            )],
            &[(&m_p, &m_t)],
        ));
        let f = find_fn(&g, "mp_alpha::f");
        assert_eq!(callees_of_fn(&g, f), vec!["?missing::ghost"]);
    }

    #[test]
    fn macros_and_keywords_are_not_calls() {
        let (m_p, m_t) = manifest("crates/alpha", "mp-alpha");
        let g = CallGraph::build(&ws(
            &[(
                "crates/alpha/src/lib.rs",
                "pub fn f(x: Option<u8>) -> String { if x.is_some() { return format!(\"y\"); } String::new() }\n",
            )],
            &[(&m_p, &m_t)],
        ));
        let f = find_fn(&g, "mp_alpha::f");
        assert!(callees_of_fn(&g, f).is_empty());
    }

    #[test]
    fn file_module_paths() {
        assert_eq!(
            file_module("crates/observe/src/lib.rs"),
            Vec::<String>::new()
        );
        assert_eq!(
            file_module("crates/observe/src/recorder.rs"),
            vec!["recorder"]
        );
        assert_eq!(
            file_module("crates/bench/src/bin/table3.rs"),
            vec!["table3"]
        );
        assert_eq!(file_module("tests/cli.rs"), Vec::<String>::new());
    }

    #[test]
    fn self_path_resolves_to_owner() {
        let (m_p, m_t) = manifest("crates/alpha", "mp-alpha");
        let g = CallGraph::build(&ws(
            &[(
                "crates/alpha/src/lib.rs",
                "pub struct S;\nimpl S {\n    pub fn a(&self) { Self::b(); }\n    pub fn b() {}\n}\n",
            )],
            &[(&m_p, &m_t)],
        ));
        let a = find_fn(&g, "mp_alpha::S::a");
        assert_eq!(callees_of_fn(&g, a), vec!["mp_alpha::S::b"]);
    }

    #[test]
    fn prelude_list_is_sorted_for_binary_search() {
        let mut sorted = PRELUDE_METHODS.to_vec();
        sorted.sort_unstable();
        assert_eq!(sorted, PRELUDE_METHODS);
    }
}
