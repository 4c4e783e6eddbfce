//! `analyze.toml` — allowlists and per-path rule scoping.
//!
//! The workspace is offline, so instead of a TOML dependency this module
//! hand-parses the small, line-oriented TOML subset the config needs:
//! `[section]` / `[section.sub-section]` headers, `key = "string"`,
//! `key = true|false`, and single-line string arrays. Unknown sections and
//! keys are *errors*, not silently ignored — a typo in a lint config must
//! not quietly disable a gate.

use std::collections::BTreeMap;

/// Where a rule applies. Paths are workspace-relative, `/`-separated and
/// match whole components (`crates/bench` matches `crates/bench/src/x.rs`
/// but not `crates/bench2/…`).
#[derive(Debug, Clone, Default)]
pub struct RuleScope {
    /// When non-empty, the rule fires only under these paths.
    pub paths: Vec<String>,
    /// Paths exempted from the rule.
    pub allow_paths: Vec<String>,
    /// `enabled = false` turns the rule off entirely.
    pub disabled: bool,
}

impl RuleScope {
    /// True when the rule applies to `rel_path` under this scope.
    pub fn applies_to(&self, rel_path: &str) -> bool {
        if self.disabled {
            return false;
        }
        if self.allow_paths.iter().any(|p| path_matches(p, rel_path)) {
            return false;
        }
        self.paths.is_empty() || self.paths.iter().any(|p| path_matches(p, rel_path))
    }
}

/// `prefix` matches `path` when equal or when `path` continues with `/`.
pub fn path_matches(prefix: &str, path: &str) -> bool {
    path == prefix
        || (path.len() > prefix.len()
            && path.starts_with(prefix)
            && path.as_bytes()[prefix.len()] == b'/')
}

/// Crate-layering constraints checked against the `Cargo.toml` graph.
#[derive(Debug, Clone, Default)]
pub struct LayeringConfig {
    /// Crates that may not depend on anything in-workspace.
    pub isolated: Vec<String>,
    /// `(from, to)` pairs forbidden even transitively.
    pub forbidden: Vec<(String, String)>,
}

/// Full analyzer configuration (see the shipped `analyze.toml`).
#[derive(Debug, Clone)]
pub struct Config {
    /// Workspace-relative path prefixes never scanned (vendored code,
    /// build output, data files).
    pub exclude: Vec<String>,
    /// Per-rule scoping, keyed by rule name.
    pub rules: BTreeMap<String, RuleScope>,
    /// Layering constraints.
    pub layering: LayeringConfig,
}

impl Config {
    /// Scope for `rule`, defaulting to "applies everywhere".
    pub fn scope(&self, rule: &str) -> RuleScope {
        self.rules.get(rule).cloned().unwrap_or_default()
    }

    /// The configuration the workspace ships in `analyze.toml`, usable when
    /// no config file is present (e.g. unit tests on synthetic trees).
    pub fn workspace_default() -> Config {
        let mut rules = BTreeMap::new();
        rules.insert(
            "no-wall-clock".to_owned(),
            RuleScope {
                allow_paths: vec![
                    "crates/bench/src/bin/observe_overhead.rs".to_owned(),
                    "crates/bench/tests/serve_backpressure.rs".to_owned(),
                    "perfbench".to_owned(),
                ],
                ..RuleScope::default()
            },
        );
        rules.insert(
            "no-unordered-iteration".to_owned(),
            RuleScope {
                paths: vec![
                    "crates/cli/src/commands.rs".to_owned(),
                    "crates/cli/src/main.rs".to_owned(),
                    "crates/core/src/matrix.rs".to_owned(),
                    "crates/federated/src/serve.rs".to_owned(),
                    "crates/observe/src/snapshot.rs".to_owned(),
                ],
                ..RuleScope::default()
            },
        );
        rules.insert(
            "no-panic".to_owned(),
            RuleScope {
                paths: vec![
                    "crates/core/src".to_owned(),
                    "crates/discovery/src".to_owned(),
                    "crates/federated/src".to_owned(),
                    "crates/relation/src".to_owned(),
                ],
                ..RuleScope::default()
            },
        );
        rules.insert(
            "no-literal-index".to_owned(),
            RuleScope {
                paths: vec![
                    "crates/core/src".to_owned(),
                    "crates/discovery/src".to_owned(),
                    "crates/federated/src".to_owned(),
                    "crates/relation/src".to_owned(),
                ],
                ..RuleScope::default()
            },
        );
        rules.insert(
            "fuzzed-decoder-no-panic".to_owned(),
            RuleScope {
                paths: vec![
                    "crates/federated/src/net.rs".to_owned(),
                    "crates/federated/src/transport.rs".to_owned(),
                    "crates/metadata/src/exchange.rs".to_owned(),
                    "crates/relation/src/csv.rs".to_owned(),
                ],
                ..RuleScope::default()
            },
        );
        rules.insert(
            "no-stdout-in-libs".to_owned(),
            RuleScope {
                allow_paths: vec!["crates/bench".to_owned(), "perfbench".to_owned()],
                ..RuleScope::default()
            },
        );
        Config {
            exclude: vec![
                "crates/analyze/tests/fixtures".to_owned(),
                "data".to_owned(),
                "target".to_owned(),
                "vendor".to_owned(),
            ],
            rules,
            layering: LayeringConfig {
                isolated: vec!["mp-observe".to_owned()],
                forbidden: vec![
                    ("mp-relation".to_owned(), "mp-discovery".to_owned()),
                    ("mp-relation".to_owned(), "mp-federated".to_owned()),
                ],
            },
        }
    }

    /// Parses the `analyze.toml` subset; returns a descriptive error with a
    /// 1-based line number on malformed input.
    pub fn parse(text: &str) -> Result<Config, String> {
        let mut config = Config {
            exclude: Vec::new(),
            rules: BTreeMap::new(),
            layering: LayeringConfig::default(),
        };
        let mut section: Vec<String> = Vec::new();
        // Join multi-line arrays first: a `key = [` value accumulates
        // physical lines until the bracket closes.
        let mut lines: Vec<(usize, String)> = Vec::new();
        for (idx, raw) in text.lines().enumerate() {
            let stripped = strip_comment(raw).trim().to_owned();
            let continuing = lines
                .last()
                .is_some_and(|(_, prev)| prev.contains('[') && !prev.ends_with(']'));
            if continuing {
                let (_, prev) = lines.last_mut().expect("just checked non-empty");
                prev.push(' ');
                prev.push_str(&stripped);
            } else {
                lines.push((idx + 1, stripped));
            }
        }
        for (lineno, line) in &lines {
            let (lineno, line) = (*lineno, line.as_str());
            if line.is_empty() {
                continue;
            }
            if let Some(header) = line.strip_prefix('[') {
                let Some(header) = header.strip_suffix(']') else {
                    return Err(format!("line {lineno}: unclosed section header"));
                };
                section = header
                    .trim()
                    .split('.')
                    .map(|s| s.trim().to_owned())
                    .collect();
                match section.first().map(String::as_str) {
                    Some("workspace") | Some("layering") if section.len() == 1 => {}
                    Some("rules") if section.len() == 2 => {}
                    _ => {
                        return Err(format!(
                            "line {lineno}: unknown section `[{}]` (expected [workspace], [layering] or [rules.<name>])",
                            header.trim()
                        ));
                    }
                }
                continue;
            }
            let Some(eq) = line.find('=') else {
                return Err(format!("line {lineno}: expected `key = value`"));
            };
            let key = line[..eq].trim();
            let value = line[eq + 1..].trim();
            match (section.first().map(String::as_str), key) {
                (Some("workspace"), "exclude") => {
                    config.exclude =
                        parse_string_array(value).map_err(|e| format!("line {lineno}: {e}"))?;
                }
                (Some("layering"), "isolated") => {
                    config.layering.isolated =
                        parse_string_array(value).map_err(|e| format!("line {lineno}: {e}"))?;
                }
                (Some("layering"), "forbidden") => {
                    for edge in
                        parse_string_array(value).map_err(|e| format!("line {lineno}: {e}"))?
                    {
                        let Some((from, to)) = edge.split_once("->") else {
                            return Err(format!(
                                "line {lineno}: forbidden edge `{edge}` must look like `a -> b`"
                            ));
                        };
                        config
                            .layering
                            .forbidden
                            .push((from.trim().to_owned(), to.trim().to_owned()));
                    }
                }
                (Some("rules"), _) => {
                    let rule = section[1].clone();
                    let scope = config.rules.entry(rule).or_default();
                    match key {
                        "paths" => {
                            scope.paths = parse_string_array(value)
                                .map_err(|e| format!("line {lineno}: {e}"))?;
                        }
                        "allow_paths" => {
                            scope.allow_paths = parse_string_array(value)
                                .map_err(|e| format!("line {lineno}: {e}"))?;
                        }
                        "enabled" => {
                            scope.disabled = match value {
                                "true" => false,
                                "false" => true,
                                other => {
                                    return Err(format!(
                                        "line {lineno}: `enabled` must be true or false, got `{other}`"
                                    ));
                                }
                            };
                        }
                        other => {
                            return Err(format!(
                                "line {lineno}: unknown rule key `{other}` (expected paths, allow_paths or enabled)"
                            ));
                        }
                    }
                }
                (_, other) => {
                    return Err(format!(
                        "line {lineno}: unknown key `{other}` for this section"
                    ));
                }
            }
        }
        // Deterministic reports regardless of how the file orders entries.
        config.exclude.sort();
        for scope in config.rules.values_mut() {
            scope.paths.sort();
            scope.allow_paths.sort();
        }
        config.layering.isolated.sort();
        config.layering.forbidden.sort();
        Ok(config)
    }
}

/// Drops a trailing `# comment`, respecting `#` inside quoted strings.
fn strip_comment(line: &str) -> &str {
    let mut in_string = false;
    let mut prev_backslash = false;
    for (i, c) in line.char_indices() {
        match c {
            '"' if !prev_backslash => in_string = !in_string,
            '#' if !in_string => return &line[..i],
            _ => {}
        }
        prev_backslash = c == '\\' && !prev_backslash;
    }
    line
}

/// Parses `["a", "b"]` (single-line, string elements only).
fn parse_string_array(value: &str) -> Result<Vec<String>, String> {
    let Some(inner) = value.strip_prefix('[').and_then(|v| v.strip_suffix(']')) else {
        return Err(format!("expected a `[\"…\"]` array, got `{value}`"));
    };
    let mut out = Vec::new();
    for part in split_top_level_commas(inner) {
        let part = part.trim();
        if part.is_empty() {
            continue;
        }
        let Some(s) = part.strip_prefix('"').and_then(|p| p.strip_suffix('"')) else {
            return Err(format!("array element `{part}` is not a quoted string"));
        };
        out.push(s.to_owned());
    }
    Ok(out)
}

/// Splits on commas outside quoted strings.
fn split_top_level_commas(s: &str) -> Vec<&str> {
    let mut parts = Vec::new();
    let mut start = 0;
    let mut in_string = false;
    let mut prev_backslash = false;
    for (i, c) in s.char_indices() {
        match c {
            '"' if !prev_backslash => in_string = !in_string,
            ',' if !in_string => {
                parts.push(&s[start..i]);
                start = i + 1;
            }
            _ => {}
        }
        prev_backslash = c == '\\' && !prev_backslash;
    }
    parts.push(&s[start..]);
    parts
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_full_config() {
        let text = r#"
# analyzer config
[workspace]
exclude = ["vendor", "target"]

[rules.no-panic]
paths = ["crates/relation/src", "crates/core/src"]  # scoped

[rules.no-wall-clock]
allow_paths = ["crates/bench"]

[rules.experimental]
enabled = false

[layering]
isolated = ["mp-observe"]
forbidden = ["mp-relation -> mp-discovery", "mp-relation -> mp-federated"]
"#;
        let c = Config::parse(text).expect("valid config");
        assert_eq!(c.exclude, vec!["target", "vendor"]);
        assert!(c.scope("no-panic").applies_to("crates/relation/src/csv.rs"));
        assert!(!c.scope("no-panic").applies_to("crates/cli/src/main.rs"));
        assert!(!c
            .scope("no-wall-clock")
            .applies_to("crates/bench/src/bin/table3.rs"));
        assert!(c
            .scope("no-wall-clock")
            .applies_to("crates/cli/src/main.rs"));
        assert!(!c.scope("experimental").applies_to("anything.rs"));
        assert_eq!(c.layering.isolated, vec!["mp-observe"]);
        assert_eq!(c.layering.forbidden.len(), 2);
    }

    #[test]
    fn unknown_sections_and_keys_are_errors() {
        assert!(Config::parse("[surprise]\n").is_err());
        assert!(Config::parse("[workspace]\ntypo = [\"x\"]\n").is_err());
        assert!(Config::parse("[rules.no-panic]\npath = [\"x\"]\n").is_err());
        assert!(Config::parse("[rules.no-panic]\nenabled = maybe\n").is_err());
        assert!(Config::parse("[layering]\nforbidden = [\"a b\"]\n").is_err());
    }

    #[test]
    fn component_boundary_matching() {
        assert!(path_matches("crates/bench", "crates/bench/src/lib.rs"));
        assert!(path_matches("crates/bench", "crates/bench"));
        assert!(!path_matches("crates/bench", "crates/bench2/src/lib.rs"));
        assert!(!path_matches("crates/bench/src", "crates/bench"));
    }

    #[test]
    fn default_scope_applies_everywhere() {
        let c = Config::parse("").expect("empty config is valid");
        assert!(c
            .scope("no-unsafe")
            .applies_to("crates/anything/src/lib.rs"));
    }

    #[test]
    fn workspace_default_matches_shipped_semantics() {
        let c = Config::workspace_default();
        assert!(c
            .scope("no-panic")
            .applies_to("crates/federated/src/sim.rs"));
        // Burned down: discovery joined the no-panic scope once its
        // unwrap/expect debt was retired.
        assert!(c
            .scope("no-panic")
            .applies_to("crates/discovery/src/tane.rs"));
        assert!(!c
            .scope("no-panic")
            .applies_to("crates/synth/src/sampler.rs"));
        // `commands.rs` builds report strings and must not print; only the
        // binary entrypoint (exempt by role, not by path) may.
        assert!(c
            .scope("no-stdout-in-libs")
            .applies_to("crates/cli/src/commands.rs"));
        assert!(!c
            .scope("no-stdout-in-libs")
            .applies_to("crates/bench/src/reports.rs"));
        assert!(c
            .scope("no-unordered-iteration")
            .applies_to("crates/observe/src/snapshot.rs"));
        // The bench crate's CI gates are clock-free; only the overhead
        // guard and the backpressure test may read wall time.
        assert!(c
            .scope("no-wall-clock")
            .applies_to("crates/bench/src/bin/model_check.rs"));
        assert!(!c
            .scope("no-wall-clock")
            .applies_to("crates/bench/src/bin/observe_overhead.rs"));
    }

    #[test]
    fn comments_inside_strings_survive() {
        let c =
            Config::parse("[workspace]\nexclude = [\"we#ird\"] # real comment\n").expect("parses");
        assert_eq!(c.exclude, vec!["we#ird"]);
    }
}
