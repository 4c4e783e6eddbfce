//! Determinism lints: the leakage tables and golden snapshots are only
//! byte-reproducible because nothing in the measurement path reads wall
//! time, unseeded entropy, or hash-iteration order.

use super::{scan_token_seqs, Context, Lint, TestPolicy, TokenSeq};
use crate::diagnostics::Diagnostic;

/// `no-wall-clock`: no `Instant::now`, `SystemTime` or `thread::sleep`
/// outside the paths `analyze.toml` allows (perfbench and the two bench
/// files whose purpose is wall time) — simulated time uses logical
/// clocks (`mp_observe::Clock`, transport ticks), never the host's.
pub struct NoWallClock;

impl Lint for NoWallClock {
    fn name(&self) -> &'static str {
        "no-wall-clock"
    }

    fn description(&self) -> &'static str {
        "wall-clock time (Instant::now, SystemTime, thread::sleep) is only allowed in perfbench and the bench overhead guard; use logical clocks"
    }

    fn check(&self, cx: &Context<'_>, out: &mut Vec<Diagnostic>) {
        const SEQS: &[TokenSeq] = &[
            TokenSeq {
                seq: &["Instant", "::", "now"],
                message: "`Instant::now()` reads wall-clock time; use a logical clock (mp_observe::Clock / transport ticks)",
            },
            TokenSeq {
                seq: &["SystemTime"],
                message: "`SystemTime` reads wall-clock time; timestamps must come from logical clocks",
            },
            TokenSeq {
                seq: &["thread", "::", "sleep"],
                message: "`thread::sleep` couples behaviour to real time; model delays as transport ticks",
            },
        ];
        scan_token_seqs(self.name(), SEQS, TestPolicy::Strict, cx.ws, cx.config, out);
    }
}

/// `no-unseeded-rng`: every random stream must be reproducible from an
/// explicit seed, so OS-entropy constructors are banned workspace-wide.
pub struct NoUnseededRng;

impl Lint for NoUnseededRng {
    fn name(&self) -> &'static str {
        "no-unseeded-rng"
    }

    fn description(&self) -> &'static str {
        "randomness must be seeded (SeedableRng::seed_from_u64 etc.); OS entropy sources are banned"
    }

    fn check(&self, cx: &Context<'_>, out: &mut Vec<Diagnostic>) {
        const SEQS: &[TokenSeq] = &[
            TokenSeq {
                seq: &["thread_rng"],
                message: "`thread_rng()` is OS-seeded and irreproducible; thread an explicit seeded StdRng through instead",
            },
            TokenSeq {
                seq: &["from_entropy"],
                message: "`from_entropy()` draws an OS seed; use `seed_from_u64` with a recorded seed",
            },
            TokenSeq {
                seq: &["OsRng"],
                message: "`OsRng` is irreproducible; use a seeded generator",
            },
            TokenSeq {
                seq: &["rand", "::", "random"],
                message: "`rand::random()` hides an OS-seeded generator; use a seeded StdRng",
            },
        ];
        scan_token_seqs(self.name(), SEQS, TestPolicy::Strict, cx.ws, cx.config, out);
    }
}

/// `no-unordered-iteration`: in the serialization paths (mp-observe
/// snapshots, the CLI's `--metrics-json` plumbing) hash collections are
/// banned outright — their iteration order would leak into report bytes.
/// Ordered containers (`BTreeMap`) or explicit sorting are the fix.
pub struct NoUnorderedIteration;

impl Lint for NoUnorderedIteration {
    fn name(&self) -> &'static str {
        "no-unordered-iteration"
    }

    fn description(&self) -> &'static str {
        "serialization paths may not use HashMap/HashSet: iteration order would leak into report bytes"
    }

    fn check(&self, cx: &Context<'_>, out: &mut Vec<Diagnostic>) {
        const SEQS: &[TokenSeq] = &[
            TokenSeq {
                seq: &["HashMap"],
                message: "`HashMap` in a serialization path: iteration order is arbitrary; use BTreeMap or sort keys first",
            },
            TokenSeq {
                seq: &["HashSet"],
                message: "`HashSet` in a serialization path: iteration order is arbitrary; use BTreeSet or sort first",
            },
        ];
        scan_token_seqs(self.name(), SEQS, TestPolicy::Strict, cx.ws, cx.config, out);
    }
}
