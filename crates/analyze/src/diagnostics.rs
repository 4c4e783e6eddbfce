//! Diagnostics and their deterministic renderings.
//!
//! Both output formats are byte-stable across runs: diagnostics are sorted
//! by `(path, line, col, rule)`, the JSON renderer emits keys in sorted
//! order, and nothing in a report depends on wall time, hash iteration
//! order or the machine it ran on. Interprocedural diagnostics carry a
//! `chain` — the call path from the flagged site down to the originating
//! fact — which is part of the byte-stability contract.

use crate::facts::CrateCounts;
use std::collections::BTreeMap;
use std::fmt::Write as _;

/// One rule violation at a source location.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Diagnostic {
    /// Kebab-case rule name (`no-panic`, `crate-layering`, …).
    pub rule: String,
    /// Workspace-relative `/`-separated path.
    pub path: String,
    /// 1-based line.
    pub line: usize,
    /// 1-based column.
    pub col: usize,
    /// Human-readable description of the violation.
    pub message: String,
    /// For interprocedural rules: the call chain from this site to the
    /// underlying fact, one `path:line: name` element per hop. Empty for
    /// lexical rules.
    pub chain: Vec<String>,
}

impl Diagnostic {
    /// Builds a diagnostic; keeps call sites in lint passes compact.
    pub fn new(
        rule: &str,
        path: &str,
        line: usize,
        col: usize,
        message: impl Into<String>,
    ) -> Diagnostic {
        Diagnostic {
            rule: rule.to_owned(),
            path: path.to_owned(),
            line,
            col,
            message: message.into(),
            chain: Vec::new(),
        }
    }

    /// Attaches a call chain (builder style, for interprocedural passes).
    pub fn with_chain(mut self, chain: Vec<String>) -> Diagnostic {
        self.chain = chain;
        self
    }
}

/// A finished analysis: sorted diagnostics plus scan statistics and the
/// per-crate fact counters the baseline ratchet pins.
#[derive(Debug, Clone)]
pub struct Report {
    /// All violations, sorted by `(path, line, col, rule, message)`.
    pub diagnostics: Vec<Diagnostic>,
    /// Number of `.rs` files scanned.
    pub files_scanned: usize,
    /// Number of crate manifests inspected.
    pub manifests_scanned: usize,
    /// Names of the rules that ran, sorted.
    pub rules: Vec<String>,
    /// Per-crate debt counters (panic sites, tainted functions, bare-`pub`
    /// items), keyed by package name — the input to `--ratchet`.
    pub facts: BTreeMap<String, CrateCounts>,
}

impl Report {
    /// Sorts diagnostics and rule names into their canonical order.
    pub fn finish(mut self) -> Report {
        self.diagnostics.sort_by(|a, b| {
            (&a.path, a.line, a.col, &a.rule, &a.message)
                .cmp(&(&b.path, b.line, b.col, &b.rule, &b.message))
        });
        self.diagnostics.dedup();
        self.rules.sort();
        self.rules.dedup();
        self
    }

    /// True when the workspace is clean.
    pub fn is_clean(&self) -> bool {
        self.diagnostics.is_empty()
    }

    /// `path:line:col: rule: message` lines (each followed by its indented
    /// call chain, when present) plus a summary trailer.
    pub fn render_human(&self) -> String {
        let mut out = String::new();
        for d in &self.diagnostics {
            let _ = writeln!(
                out,
                "{}:{}:{}: {}: {}",
                d.path, d.line, d.col, d.rule, d.message
            );
            for (i, hop) in d.chain.iter().enumerate() {
                let _ = writeln!(out, "    {}. {hop}", i + 1);
            }
        }
        let _ = writeln!(
            out,
            "mp-analyze: {} violation(s) in {} file(s), {} manifest(s), {} rule(s)",
            self.diagnostics.len(),
            self.files_scanned,
            self.manifests_scanned,
            self.rules.len()
        );
        out
    }

    /// Pretty JSON with keys in sorted order; byte-stable across runs.
    pub fn render_json(&self) -> String {
        let mut out = String::new();
        out.push_str("{\n  \"facts\": {");
        for (i, (name, c)) in self.facts.iter().enumerate() {
            out.push_str(if i == 0 { "\n" } else { ",\n" });
            let _ = write!(
                out,
                "    {}: {{\"panic_sites\": {}, \"pub_items\": {}, \"tainted_fns\": {}}}",
                json_string(name),
                c.panic_sites,
                c.pub_items,
                c.tainted_fns
            );
        }
        if !self.facts.is_empty() {
            out.push_str("\n  ");
        }
        out.push_str("},\n  \"schema_version\": 2,\n  \"summary\": {\n");
        let _ = writeln!(out, "    \"files_scanned\": {},", self.files_scanned);
        let _ = writeln!(
            out,
            "    \"manifests_scanned\": {},",
            self.manifests_scanned
        );
        out.push_str("    \"rules\": [");
        for (i, r) in self.rules.iter().enumerate() {
            if i > 0 {
                out.push_str(", ");
            }
            out.push_str(&json_string(r));
        }
        out.push_str("],\n");
        let _ = writeln!(out, "    \"violations\": {}", self.diagnostics.len());
        out.push_str("  },\n  \"violations\": [");
        for (i, d) in self.diagnostics.iter().enumerate() {
            out.push_str(if i == 0 { "\n" } else { ",\n" });
            out.push_str("    {\"chain\": [");
            for (j, hop) in d.chain.iter().enumerate() {
                if j > 0 {
                    out.push_str(", ");
                }
                out.push_str(&json_string(hop));
            }
            let _ = write!(
                out,
                "], \"col\": {}, \"line\": {}, \"message\": {}, \"path\": {}, \"rule\": {}}}",
                d.col,
                d.line,
                json_string(&d.message),
                json_string(&d.path),
                json_string(&d.rule)
            );
        }
        if !self.diagnostics.is_empty() {
            out.push_str("\n  ");
        }
        out.push_str("]\n}\n");
        out
    }
}

/// Escapes `s` as a JSON string literal.
pub fn json_string(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> Report {
        let mut facts = BTreeMap::new();
        facts.insert(
            "mp-demo".to_owned(),
            CrateCounts {
                panic_sites: 4,
                tainted_fns: 1,
                pub_items: 7,
            },
        );
        Report {
            diagnostics: vec![
                Diagnostic::new("z-rule", "b.rs", 2, 1, "later file"),
                Diagnostic::new("a-rule", "a.rs", 9, 4, "first file, later line").with_chain(vec![
                    "a.rs:9: demo::top".to_owned(),
                    "b.rs:2: demo::deep".to_owned(),
                ]),
                Diagnostic::new("a-rule", "a.rs", 3, 7, "first file, early \"quoted\""),
            ],
            files_scanned: 2,
            manifests_scanned: 1,
            rules: vec!["z-rule".to_owned(), "a-rule".to_owned()],
            facts,
        }
        .finish()
    }

    #[test]
    fn diagnostics_sort_by_path_line_col() {
        let r = sample();
        assert_eq!(r.diagnostics[0].path, "a.rs");
        assert_eq!(r.diagnostics[0].line, 3);
        assert_eq!(r.diagnostics[1].line, 9);
        assert_eq!(r.diagnostics[2].path, "b.rs");
    }

    #[test]
    fn human_format_is_colon_separated_with_chains() {
        let r = sample();
        let h = r.render_human();
        assert!(h.starts_with("a.rs:3:7: a-rule: first file, early \"quoted\"\n"));
        assert!(h.contains("    1. a.rs:9: demo::top\n    2. b.rs:2: demo::deep\n"));
        assert!(h.contains("3 violation(s) in 2 file(s), 1 manifest(s), 2 rule(s)"));
    }

    #[test]
    fn json_is_escaped_and_stable() {
        let r = sample();
        let j1 = r.render_json();
        let j2 = sample().render_json();
        assert_eq!(j1, j2, "same report must render byte-identically");
        assert!(j1.contains("\\\"quoted\\\""));
        assert!(j1.contains("\"schema_version\": 2"));
        assert!(j1.contains("\"violations\": 3"));
        assert!(j1.contains("\"chain\": [\"a.rs:9: demo::top\", \"b.rs:2: demo::deep\"]"));
        assert!(
            j1.contains("\"mp-demo\": {\"panic_sites\": 4, \"pub_items\": 7, \"tainted_fns\": 1}")
        );
    }

    #[test]
    fn clean_report_json_has_empty_array() {
        let r = Report {
            diagnostics: Vec::new(),
            files_scanned: 5,
            manifests_scanned: 3,
            rules: vec!["no-panic".to_owned()],
            facts: BTreeMap::new(),
        }
        .finish();
        assert!(r.is_clean());
        assert!(r.render_json().contains("\"violations\": []"));
        assert!(r.render_json().contains("\"facts\": {}"));
    }

    #[test]
    fn json_string_control_chars() {
        assert_eq!(json_string("a\u{1}b"), "\"a\\u0001b\"");
        assert_eq!(json_string("tab\there"), "\"tab\\there\"");
    }
}
