//! # mp-analyze — workspace invariant linter
//!
//! The leakage tables (paper Tables III/IV) and the golden metrics
//! snapshots reproduce bit-identically only because the whole workspace
//! obeys conventions no compiler checks: logical clocks instead of wall
//! time, sorted-key serialization instead of hash-iteration order, seeded
//! randomness only, typed errors instead of panics on wire/CSV input, and
//! a strict crate-layering direction. This crate turns those conventions
//! into machine-checked constraints that gate CI, in the spirit of
//! metadata-constraint systems (CFDs/denial constraints) the paper's
//! discovery layer itself reproduces.
//!
//! ## Pipeline
//!
//! 1. [`workspace::Workspace`] discovery walks the repository, collecting
//!    every first-party `.rs` file and `Cargo.toml` in sorted order.
//! 2. [`lexer`] tokenizes each file — a hand-rolled lexer that gets raw
//!    strings, nested block comments, lifetimes-vs-char-literals and raw
//!    identifiers right, so token-pattern rules never fire inside strings
//!    or comments.
//! 3. [`source::SourceFile`] layers `#[cfg(test)]`/`#[test]` region
//!    detection and `// lint: allow(rule) reason="…"` suppressions on top.
//! 4. [`parser`] recovers item structure (functions, impl owners, inline
//!    modules, `use` imports) from the token stream; [`callgraph`] builds
//!    a conservative, `use`-aware workspace call graph over it; [`facts`]
//!    propagates may-panic, determinism-taint and lock-acquisition facts
//!    through the graph (see DESIGN.md §15 for the lattice and the
//!    soundness caveats).
//! 5. The [`rules`] registry runs every lint — lexical and
//!    interprocedural — and produces a [`diagnostics::Report`] whose human
//!    and JSON renderings are byte-stable across runs, call chains
//!    included.
//! 6. [`ratchet`] compares the report's per-crate debt counters against
//!    the committed `analyze-baseline.toml`: counters may only fall.
//!
//! [`run`] is the one command line, behind both the `mp-analyze` binary
//! and `mpriv analyze`: it exits non-zero when any violation survives or
//! `--ratchet` detects a counter regression, making the invariants
//! blocking in CI. Rule scopes come from `analyze.toml` alone. Zero
//! dependencies, like `mp-observe`.

pub mod callgraph;
pub mod config;
pub mod diagnostics;
pub mod facts;
pub mod lexer;
pub mod parser;
pub mod ratchet;
pub mod rules;
pub mod source;
pub mod workspace;

use std::fmt::Write as _;
use std::path::{Path, PathBuf};

/// Runs the full registry over the workspace at `root` under the config
/// file at `config`, or `<root>/analyze.toml` when `None`: that file is
/// the only source of rule scopes.
pub fn analyze(root: &Path, config: Option<&Path>) -> Result<diagnostics::Report, String> {
    let path = config.map_or_else(|| root.join("analyze.toml"), Path::to_owned);
    let text =
        std::fs::read_to_string(&path).map_err(|e| format!("reading {}: {e}", path.display()))?;
    let config = config::Config::parse(&text).map_err(|e| format!("{}: {e}", path.display()))?;
    let ws = workspace::Workspace::discover(root, &config)?;
    Ok(rules::run(&ws, &config))
}

/// What one linter run leaves its front-end to print.
#[derive(Debug)]
pub struct Outcome {
    /// The rendered report, the rule list or the usage text, for stdout.
    pub report: String,
    /// The ratchet summary (empty without `--ratchet`), for stderr, so
    /// that stdout stays byte-stable.
    pub ratchet: String,
    /// `false` when a violation survived or a ratchet counter rose.
    pub clean: bool,
}

impl Outcome {
    /// A clean run that prints only `text`: the usage or the rule list.
    fn text(text: String) -> Outcome {
        Outcome {
            report: text,
            ratchet: String::new(),
            clean: true,
        }
    }
}

/// The linter's command line, shared by `mp-analyze` and `mpriv analyze`:
/// `args` are the arguments after the program (or subcommand) name, as
/// `--help` lists them. Both front-ends print [`Outcome::report`] to
/// stdout and [`Outcome::ratchet`] to stderr, and exit 0 when
/// [`Outcome::clean`], else 1. An `Err` is a usage or configuration
/// error: exit 2.
pub fn run(args: &[String]) -> Result<Outcome, String> {
    let mut root: Option<PathBuf> = None;
    let mut config: Option<PathBuf> = None;
    let mut json = false;
    let mut list_rules = false;
    let mut ratchet = false;
    let mut baseline: Option<PathBuf> = None;
    let mut write_baseline = false;
    let mut iter = args.iter();
    while let Some(arg) = iter.next() {
        match arg.as_str() {
            "--root" => root = Some(iter.next().ok_or("--root needs a directory")?.into()),
            "--config" => config = Some(iter.next().ok_or("--config needs a path")?.into()),
            "--format" => {
                json = match iter.next().ok_or("--format needs human|json")?.as_str() {
                    "human" => false,
                    "json" => true,
                    other => return Err(format!("unknown format `{other}` (expected human|json)")),
                };
            }
            "--list-rules" => list_rules = true,
            "--ratchet" => ratchet = true,
            "--baseline" => baseline = Some(iter.next().ok_or("--baseline needs a path")?.into()),
            "--write-baseline" => {
                ratchet = true;
                write_baseline = true;
            }
            "--help" | "-h" => return Ok(Outcome::text(USAGE.to_owned())),
            other => return Err(format!("unknown argument `{other}`\n{USAGE}")),
        }
    }

    if list_rules {
        let mut out = String::new();
        for lint in rules::registry() {
            let _ = writeln!(out, "{:<24} {}", lint.name(), lint.description());
        }
        return Ok(Outcome::text(out));
    }

    let root = match root {
        Some(root) => root,
        None => {
            let cwd = std::env::current_dir().map_err(|e| format!("getting cwd: {e}"))?;
            find_workspace_root(&cwd)
                .ok_or("no workspace root found above the current directory; pass --root")?
        }
    };
    let report = analyze(&root, config.as_deref())?;
    let mut outcome = Outcome {
        report: if json {
            report.render_json()
        } else {
            report.render_human()
        },
        ratchet: String::new(),
        clean: report.is_clean(),
    };
    if ratchet {
        let path = baseline.unwrap_or_else(|| root.join("analyze-baseline.toml"));
        let (verdict, summary) = ratchet::apply(&report.facts, &path, write_baseline)?;
        outcome.clean &= verdict.passed();
        outcome.ratchet = summary;
    }
    Ok(outcome)
}

/// The usage text `--help` prints.
const USAGE: &str = "\
mp-analyze: workspace invariant linter (determinism, panic-safety, layering, I/O hygiene)

USAGE:
    mp-analyze [--root DIR] [--config PATH] [--format human|json] [--list-rules]
               [--ratchet] [--baseline PATH] [--write-baseline]

OPTIONS:
    --root DIR        workspace root (default: nearest [workspace] above cwd)
    --config PATH     analyze.toml to use (default: <root>/analyze.toml)
    --format FMT      human (file:line:col lines) or json (stable sorted keys)
    --list-rules      print every registered rule and exit
    --ratchet         compare per-crate debt counters against the baseline;
                      any counter rise fails the run (stderr, exit 1)
    --baseline PATH   baseline file (default: <root>/analyze-baseline.toml)
    --write-baseline  write current counters as the new baseline (implies
                      --ratchet; use after burning debt down)

EXIT CODES:
    0  clean    1  violations found or ratchet regression    2  usage error
";

/// Walks up from `start` to the nearest directory whose `Cargo.toml`
/// declares `[workspace]`.
fn find_workspace_root(start: &Path) -> Option<PathBuf> {
    let mut dir = Some(start.to_owned());
    while let Some(d) = dir {
        let manifest = d.join("Cargo.toml");
        if let Ok(text) = std::fs::read_to_string(&manifest) {
            if text.lines().any(|l| l.trim() == "[workspace]") {
                return Some(d);
            }
        }
        dir = d.parent().map(Path::to_owned);
    }
    None
}
