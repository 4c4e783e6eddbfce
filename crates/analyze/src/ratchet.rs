//! The burn-down ratchet: `analyze-baseline.toml` pins per-crate debt
//! counters (lexical panic sites, locally-tainted functions — suppressed
//! ones included, because a reasoned allow is still recorded debt — and
//! bare-`pub` items, the public surface), and
//! `--ratchet` fails the run when any counter *rises*. When counters fall,
//! the run stays green and a tightened baseline is suggested so the
//! improvement gets locked in.
//!
//! The baseline is deliberately coarse — counts per crate, not per site —
//! so ordinary refactors that move a suppressed `unwrap` between lines
//! don't churn the file, while adding net-new debt anywhere cannot pass CI
//! unnoticed.

use crate::facts::CrateCounts;
use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::path::Path;

/// A parsed `analyze-baseline.toml`.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Baseline {
    /// Per-crate pinned counters, keyed by package name.
    pub counts: BTreeMap<String, CrateCounts>,
}

impl Baseline {
    /// Parses the baseline file: `[crate-name]` sections with
    /// `panic_sites = N` / `pub_items = N` / `tainted_fns = N` integer keys.
    /// Unknown keys are errors — a typo must not silently unpin a counter.
    pub fn parse(text: &str) -> Result<Baseline, String> {
        let mut counts: BTreeMap<String, CrateCounts> = BTreeMap::new();
        let mut current: Option<String> = None;
        for (idx, raw) in text.lines().enumerate() {
            let lineno = idx + 1;
            let line = match raw.find('#') {
                Some(at) => raw[..at].trim(),
                None => raw.trim(),
            };
            if line.is_empty() {
                continue;
            }
            if let Some(header) = line.strip_prefix('[') {
                let Some(name) = header.strip_suffix(']') else {
                    return Err(format!("line {lineno}: unclosed section header"));
                };
                let name = name.trim().to_owned();
                if counts.contains_key(&name) {
                    return Err(format!("line {lineno}: duplicate crate section `{name}`"));
                }
                counts.insert(name.clone(), CrateCounts::ZERO);
                current = Some(name);
                continue;
            }
            let Some(crate_name) = &current else {
                return Err(format!(
                    "line {lineno}: expected a `[crate-name]` section before `{line}`"
                ));
            };
            let Some((key, value)) = line.split_once('=') else {
                return Err(format!("line {lineno}: expected `key = integer`"));
            };
            let value: usize = value
                .trim()
                .parse()
                .map_err(|_| format!("line {lineno}: `{}` is not an integer", value.trim()))?;
            let Some(entry) = counts.get_mut(crate_name) else {
                continue; // section header always inserts first
            };
            match key.trim() {
                "panic_sites" => entry.panic_sites = value,
                "pub_items" => entry.pub_items = value,
                "tainted_fns" => entry.tainted_fns = value,
                other => {
                    return Err(format!(
                        "line {lineno}: unknown key `{other}` \
                         (expected panic_sites, pub_items or tainted_fns)"
                    ));
                }
            }
        }
        Ok(Baseline { counts })
    }

    /// Renders counters in the canonical baseline format (sorted crates,
    /// fixed key order) — what `--write-baseline` emits and what a
    /// tightened-baseline suggestion prints.
    pub(crate) fn render(counts: &BTreeMap<String, CrateCounts>) -> String {
        let mut out = String::from(
            "# Debt ratchet baseline for `mpriv analyze --ratchet`.\n\
             # Counts may only fall. When they do, run\n\
             # `mpriv analyze --ratchet --write-baseline` to lock the improvement in.\n",
        );
        for (name, c) in counts {
            let _ = write!(
                out,
                "\n[{name}]\npanic_sites = {}\npub_items = {}\ntainted_fns = {}\n",
                c.panic_sites, c.pub_items, c.tainted_fns
            );
        }
        out
    }
}

/// Result of comparing current counters against the pinned baseline.
#[derive(Debug, Clone, Default)]
pub struct RatchetOutcome {
    /// Counter increases — each fails the run.
    pub regressions: Vec<String>,
    /// Counter decreases — the baseline can be tightened.
    pub improvements: Vec<String>,
}

impl RatchetOutcome {
    /// The no-news outcome. Mirrors [`CrateCounts::ZERO`]: an associated
    /// const keeps audited callers off derive-generated `default()`.
    pub const EMPTY: RatchetOutcome = RatchetOutcome {
        regressions: Vec::new(),
        improvements: Vec::new(),
    };

    /// True when no counter rose.
    pub fn passed(&self) -> bool {
        self.regressions.is_empty()
    }
}

/// Compares `current` counters against `baseline`. A crate missing from
/// the baseline is treated as pinned at zero (new crates start debt-free);
/// a baselined crate missing from `current` simply dropped to zero.
pub fn compare(baseline: &Baseline, current: &BTreeMap<String, CrateCounts>) -> RatchetOutcome {
    let mut out = RatchetOutcome::EMPTY;
    let zero = CrateCounts::ZERO;
    let names: std::collections::BTreeSet<&String> =
        baseline.counts.keys().chain(current.keys()).collect();
    for name in names {
        let pinned = baseline.counts.get(name).unwrap_or(&zero);
        let now = current.get(name).unwrap_or(&zero);
        for (what, was, is) in [
            ("panic_sites", pinned.panic_sites, now.panic_sites),
            ("pub_items", pinned.pub_items, now.pub_items),
            ("tainted_fns", pinned.tainted_fns, now.tainted_fns),
        ] {
            if is > was {
                out.regressions
                    .push(format!("{name}: {what} rose {was} -> {is}"));
            } else if is < was {
                out.improvements
                    .push(format!("{name}: {what} fell {was} -> {is}"));
            }
        }
    }
    out
}

/// Applies the ratchet flags against the baseline file at `path`.
///
/// With `write`, the current counters are rendered in canonical form and
/// written to `path` (creating it on first use), and the run passes.
/// Otherwise `path` must exist; the pinned counters are compared against
/// `current` and a ready-to-print summary is returned alongside the
/// outcome. The summary is meant for stderr — stdout stays reserved for
/// the byte-stable report.
pub(crate) fn apply(
    current: &BTreeMap<String, CrateCounts>,
    path: &Path,
    write: bool,
) -> Result<(RatchetOutcome, String), String> {
    if write {
        let rendered = Baseline::render(current);
        std::fs::write(path, &rendered).map_err(|e| format!("writing {}: {e}", path.display()))?;
        return Ok((
            RatchetOutcome::EMPTY,
            format!(
                "ratchet: wrote {} ({} crate(s) pinned)\n",
                path.display(),
                current.len()
            ),
        ));
    }
    let text = std::fs::read_to_string(path).map_err(|e| {
        format!(
            "reading {}: {e} (run with --ratchet --write-baseline to create it)",
            path.display()
        )
    })?;
    let baseline = Baseline::parse(&text).map_err(|e| format!("{}: {e}", path.display()))?;
    let outcome = compare(&baseline, current);
    let mut summary = String::new();
    for r in &outcome.regressions {
        let _ = writeln!(summary, "ratchet: REGRESSION {r}");
    }
    for i in &outcome.improvements {
        let _ = writeln!(summary, "ratchet: improved {i}");
    }
    if !outcome.improvements.is_empty() {
        let _ = writeln!(
            summary,
            "ratchet: counters fell; tighten the baseline with --ratchet --write-baseline"
        );
    }
    if outcome.passed() && outcome.improvements.is_empty() {
        let _ = writeln!(
            summary,
            "ratchet: OK ({} crate(s) pinned)",
            baseline.counts.len()
        );
    }
    Ok((outcome, summary))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn counts(entries: &[(&str, usize, usize)]) -> BTreeMap<String, CrateCounts> {
        entries
            .iter()
            .map(|&(n, p, t)| {
                (
                    n.to_owned(),
                    CrateCounts {
                        panic_sites: p,
                        tainted_fns: t,
                        pub_items: 0,
                    },
                )
            })
            .collect()
    }

    #[test]
    fn parse_render_round_trip() {
        let c = counts(&[("mp-core", 3, 1), ("mp-observe", 0, 0)]);
        let rendered = Baseline::render(&c);
        let parsed = Baseline::parse(&rendered).expect("own rendering parses");
        assert_eq!(parsed.counts, c);
        // Canonical: rendering the parse is byte-identical.
        assert_eq!(Baseline::render(&parsed.counts), rendered);
    }

    #[test]
    fn parse_rejects_malformed_input() {
        assert!(Baseline::parse("[unclosed\n").is_err());
        assert!(Baseline::parse("panic_sites = 3\n").is_err());
        assert!(Baseline::parse("[mp-core]\npanic_sites = many\n").is_err());
        assert!(Baseline::parse("[mp-core]\ntypo_key = 3\n").is_err());
        assert!(Baseline::parse("[mp-core]\n[mp-core]\n").is_err());
    }

    #[test]
    fn regressions_fail_improvements_suggest() {
        let baseline = Baseline {
            counts: counts(&[("mp-core", 3, 1), ("mp-relation", 2, 0)]),
        };
        let current = counts(&[("mp-core", 4, 0), ("mp-relation", 2, 0)]);
        let out = compare(&baseline, &current);
        assert!(!out.passed());
        assert_eq!(out.regressions, vec!["mp-core: panic_sites rose 3 -> 4"]);
        assert_eq!(out.improvements, vec!["mp-core: tainted_fns fell 1 -> 0"]);
    }

    #[test]
    fn pub_items_ratchet_like_debt() {
        let with_pub = |n: usize| {
            let mut c = counts(&[("mp-core", 3, 1)]);
            c.get_mut("mp-core").unwrap().pub_items = n;
            c
        };
        let rendered = Baseline::render(&with_pub(120));
        assert!(rendered.contains("[mp-core]\npanic_sites = 3\npub_items = 120\ntainted_fns = 1\n"));
        let baseline = Baseline::parse(&rendered).expect("own rendering parses");
        assert_eq!(baseline.counts, with_pub(120));
        let out = compare(&baseline, &with_pub(121));
        assert!(!out.passed());
        assert_eq!(out.regressions, vec!["mp-core: pub_items rose 120 -> 121"]);
        let out = compare(&baseline, &with_pub(119));
        assert!(out.passed());
        assert_eq!(out.improvements, vec!["mp-core: pub_items fell 120 -> 119"]);
    }

    #[test]
    fn unbaselined_crate_is_pinned_at_zero() {
        let baseline = Baseline::default();
        let current = counts(&[("mp-new", 1, 0)]);
        let out = compare(&baseline, &current);
        assert_eq!(out.regressions, vec!["mp-new: panic_sites rose 0 -> 1"]);
        // And the reverse: a baselined crate that vanished is an
        // improvement, not an error.
        let out = compare(
            &Baseline {
                counts: counts(&[("mp-gone", 2, 2)]),
            },
            &BTreeMap::new(),
        );
        assert!(out.passed());
        assert_eq!(out.improvements.len(), 2);
    }

    #[test]
    fn equal_counts_pass_silently() {
        let c = counts(&[("mp-core", 3, 1)]);
        let out = compare(&Baseline { counts: c.clone() }, &c);
        assert!(out.passed());
        assert!(out.improvements.is_empty());
    }
}
