//! The lint registry: every invariant the workspace enforces, as an object
//! behind a common [`Lint`] trait, plus the token-pattern machinery shared
//! by the lexical passes.
//!
//! Lexical passes read files token-by-token; the interprocedural passes
//! ([`interprocedural`]) additionally consume the call graph and fact
//! database built once per run and handed to every lint via [`Context`].

use crate::callgraph::CallGraph;
use crate::config::Config;
use crate::diagnostics::{Diagnostic, Report};
use crate::facts::FactDb;
use crate::lexer::{Token, TokenKind};
use crate::source::{FileRole, SourceFile};
use crate::workspace::Workspace;

mod determinism;
pub mod interprocedural;
mod io_hygiene;
mod layering;
mod panic_safety;
mod suppression;

pub(crate) use panic_safety::PANIC_SEQS;

/// Everything a lint pass may consume: the workspace, its configuration,
/// and the interprocedural analysis results (call graph + fact database),
/// built exactly once per run.
pub struct Context<'a> {
    /// The scanned workspace.
    pub ws: &'a Workspace,
    /// Scoping and layering configuration.
    pub config: &'a Config,
    /// Item-level parse + call resolution over every file.
    pub graph: &'a CallGraph,
    /// Propagated facts: may-panic, determinism taint, lock summaries.
    pub facts: &'a FactDb,
}

/// One invariant check over the workspace.
pub trait Lint {
    /// Kebab-case rule name used in diagnostics, config and suppressions.
    fn name(&self) -> &'static str;
    /// One-line description for `--list-rules` and docs.
    fn description(&self) -> &'static str;
    /// Appends violations to `out`.
    fn check(&self, cx: &Context<'_>, out: &mut Vec<Diagnostic>);
}

/// All lints, in execution order. `suppression` must stay last: it audits
/// which suppressions the other passes actually consumed.
pub fn registry() -> Vec<Box<dyn Lint>> {
    vec![
        Box::new(determinism::NoWallClock),
        Box::new(determinism::NoUnseededRng),
        Box::new(determinism::NoUnorderedIteration),
        Box::new(panic_safety::NoPanic),
        Box::new(panic_safety::NoLiteralIndex),
        Box::new(panic_safety::FuzzedDecoderNoPanic),
        Box::new(interprocedural::NoPanicReachable),
        Box::new(interprocedural::DeterminismTaint),
        Box::new(interprocedural::LockOrder),
        Box::new(io_hygiene::NoStdoutInLibs),
        Box::new(layering::NoUnsafe),
        Box::new(layering::CrateLayering),
        Box::new(suppression::LexicalIntegrity),
        Box::new(suppression::SuppressionHygiene),
    ]
}

/// Runs every registered lint over `ws` and returns the finished report.
/// Builds the call graph and fact database first — fact extraction also
/// performs the suppression-usage bookkeeping the hygiene pass audits.
pub fn run(ws: &Workspace, config: &Config) -> Report {
    let graph = CallGraph::build(ws);
    let facts = FactDb::build(ws, &graph, config);
    let cx = Context {
        ws,
        config,
        graph: &graph,
        facts: &facts,
    };
    let lints = registry();
    let mut diagnostics = Vec::new();
    for lint in &lints {
        lint.check(&cx, &mut diagnostics);
    }
    Report {
        diagnostics,
        files_scanned: ws.files.len(),
        manifests_scanned: ws.manifests.len(),
        rules: lints.iter().map(|l| l.name().to_owned()).collect(),
        facts: facts.counts.clone(),
    }
    .finish()
}

/// How a lexical rule treats test code and file roles.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum TestPolicy {
    /// The rule also fires inside tests (determinism rules).
    Strict,
    /// `tests/`/`benches/`/`examples/` files, `#[cfg(test)]` and `#[test]`
    /// regions are exempt (panic-safety).
    ExemptTests,
    /// Tests as above, plus binary sources (`src/main.rs`, `src/bin/`) —
    /// binaries are *supposed* to print (I/O hygiene).
    ExemptTestsAndBins,
}

/// A fixed token-text sequence, e.g. `[".", "unwrap", "("]`.
pub(crate) struct TokenSeq {
    /// Texts of consecutive code tokens that constitute a violation.
    pub seq: &'static [&'static str],
    /// Message emitted at the first token of the match.
    pub message: &'static str,
}

/// Matches every configured [`TokenSeq`] against a file's code tokens,
/// honouring scope, test policy and suppressions.
pub(crate) fn scan_token_seqs(
    rule: &str,
    seqs: &[TokenSeq],
    policy: TestPolicy,
    ws: &Workspace,
    config: &Config,
    out: &mut Vec<Diagnostic>,
) {
    let scope = config.scope(rule);
    for file in &ws.files {
        if !scope.applies_to(&file.rel_path) {
            continue;
        }
        let exempt_tests = matches!(
            policy,
            TestPolicy::ExemptTests | TestPolicy::ExemptTestsAndBins
        );
        if exempt_tests && file.role == FileRole::Test {
            continue;
        }
        if policy == TestPolicy::ExemptTestsAndBins && file.role == FileRole::Bin {
            continue;
        }
        let code: Vec<&Token> = file.code_tokens().collect();
        for i in 0..code.len() {
            for pattern in seqs {
                if !matches_at(&code, i, pattern.seq, &file.text) {
                    continue;
                }
                let tok = code[i];
                if exempt_tests && file.in_test_region(tok.start) {
                    continue;
                }
                if file.suppressed(rule, tok.line) {
                    continue;
                }
                out.push(Diagnostic::new(
                    rule,
                    &file.rel_path,
                    tok.line,
                    tok.col,
                    pattern.message,
                ));
            }
        }
    }
}

pub(crate) fn matches_at(code: &[&Token], at: usize, seq: &[&str], src: &str) -> bool {
    // Puncts are lexed one byte at a time, so a `"::"` element in a
    // pattern stands for two consecutive `:` tokens.
    let mut k = at;
    for want in seq {
        let parts: &[&str] = if *want == "::" { &[":", ":"] } else { &[want] };
        for part in parts {
            match code.get(k) {
                Some(t) if t.text(src) == *part => k += 1,
                _ => return false,
            }
        }
    }
    true
}

/// Shared predicate: is this code token an integer-literal subscript like
/// `xs[0]` (an `unwrap` in disguise), as opposed to an array type/literal?
pub(crate) fn is_literal_index(code: &[&Token], at: usize, src: &str) -> bool {
    // Shape: expression-ish token, `[`, integer literal, `]`.
    if at == 0 || at + 3 > code.len() {
        return false;
    }
    let prev = code[at - 1];
    let prev_is_expr = match prev.kind {
        TokenKind::Ident | TokenKind::RawIdent => {
            // `foo[0]` indexes; `& [0]`-style has no preceding expression.
            !matches!(prev.text(src), "in" | "return" | "break" | "as" | "mut")
        }
        TokenKind::Punct => matches!(prev.text(src), ")" | "]"),
        _ => false,
    };
    prev_is_expr
        && code[at].text(src) == "["
        && code[at + 1].kind == TokenKind::NumberLit
        && code[at + 2].text(src) == "]"
}

/// Re-borrow helper: code tokens of `file` as a slice-friendly `Vec`.
pub(crate) fn code_tokens(file: &SourceFile) -> Vec<&Token> {
    file.code_tokens().collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::path::PathBuf;

    fn ws_with(rel_path: &str, src: &str) -> Workspace {
        Workspace {
            root: PathBuf::from("/nonexistent"),
            files: vec![SourceFile::parse(rel_path, src.to_owned())],
            manifests: Vec::new(),
        }
    }

    fn rule_hits(rule_name: &str, ws: &Workspace) -> Vec<String> {
        let config = Config::workspace_default();
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
            if lint.name() == rule_name {
                lint.check(&cx, &mut out);
            }
        }
        out.iter()
            .map(|d| format!("{}:{}", d.line, d.col))
            .collect()
    }

    #[test]
    fn path_seqs_match_across_split_coloncolon() {
        // `::` lexes as two `:` puncts; the `"::"` pattern element must
        // still land on `Instant::now()` and `thread::sleep()`.
        let ws = ws_with(
            "crates/demo/src/lib.rs",
            "pub fn f() { let _ = std::time::Instant::now(); std::thread::sleep(d); }\n",
        );
        assert_eq!(rule_hits("no-wall-clock", &ws), vec!["1:33", "1:54"]);
    }

    #[test]
    fn wall_clock_allowed_only_in_the_overhead_guard_of_bench() {
        let src = "pub fn f() { let _ = std::time::Instant::now(); }\n";
        let guard = ws_with("crates/bench/src/bin/observe_overhead.rs", src);
        assert!(rule_hits("no-wall-clock", &guard).is_empty());
        let gate = ws_with("crates/bench/src/bin/model_check.rs", src);
        assert_eq!(rule_hits("no-wall-clock", &gate), vec!["1:33"]);
    }

    #[test]
    fn fuzzed_decoder_rule_ignores_suppressions() {
        // A reasoned suppression silences `no-panic` but not the fuzzing
        // surface rule: both unwraps below are flagged there.
        let src = "pub fn f(v: Option<u8>) -> u8 {\n    // lint: allow(no-panic) reason=\"demo\"\n    v.unwrap()\n}\npub fn g(v: Option<u8>) -> u8 {\n    v.unwrap()\n}\n";
        let ws = ws_with("crates/metadata/src/exchange.rs", src);
        assert_eq!(
            rule_hits("fuzzed-decoder-no-panic", &ws),
            vec!["3:6", "6:6"]
        );
        // Outside the scoped decoder files the rule stays silent.
        let ws = ws_with("crates/metadata/src/lib.rs", src);
        assert!(rule_hits("fuzzed-decoder-no-panic", &ws).is_empty());
    }

    #[test]
    fn unwrap_flagged_and_suppression_consumed() {
        let src = "pub fn f(v: Option<u8>) -> u8 {\n    // lint: allow(no-panic) reason=\"demo\"\n    v.unwrap()\n}\npub fn g(v: Option<u8>) -> u8 {\n    v.unwrap()\n}\n";
        let ws = ws_with("crates/core/src/lib.rs", src);
        assert_eq!(rule_hits("no-panic", &ws), vec!["6:6"]);
    }
}
