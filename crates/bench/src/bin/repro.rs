//! Regenerates the paper's evaluation (DESIGN.md §5): Tables III/IV, one
//! sweep per dependency class (§III–§IV) and the reports.
//!
//! Usage: `repro <target> [rounds]`, or `repro all` for every target in
//! table order joined by a `═` rule. `rounds` is the Monte-Carlo round
//! count of `table3` and `table4` (default 200); each prints its paper
//! block, a blank line, then its known-determinant block. The sweeps and
//! reports run at fixed sizes.

use mp_bench::{reports, sweeps, tables};

/// A target's name and its output at a given table round count.
type Target = (&'static str, fn(usize) -> String);

const TARGETS: [Target; 15] = [
    ("table4", |r| {
        tables::table4(r) + "\n" + &tables::table4_known_lhs(r)
    }),
    ("table3", |r| {
        tables::table3(r) + "\n" + &tables::table3_known_lhs(r)
    }),
    ("sweep_random", |_| sweeps::sweep_random(1000, 200)),
    ("sweep_fd", |_| sweeps::sweep_fd(1000, 200)),
    ("sweep_afd", |_| sweeps::sweep_afd(1000, 200)),
    ("sweep_nd", |_| sweeps::sweep_nd(1000, 200)),
    ("sweep_od", |_| sweeps::sweep_od(2000)),
    ("sweep_dd", |_| sweeps::sweep_dd(1000, 200)),
    ("sweep_ofd", |_| sweeps::sweep_ofd(400)),
    ("sweep_cfd", |_| sweeps::sweep_cfd(1000, 200)),
    ("sweep_defense", |_| sweeps::sweep_defense(1000, 200)),
    ("sweep_distribution", |_| {
        sweeps::sweep_distribution(1000, 200)
    }),
    ("hfl_report", |_| reports::hfl_report()),
    ("identifiability_report", |_| {
        reports::identifiability_report()
    }),
    ("discovery_report", |_| reports::discovery_report()),
];

fn main() {
    let mut args = std::env::args().skip(1);
    let target = args.next().unwrap_or_default();
    let rounds = args.next().and_then(|a| a.parse().ok()).unwrap_or(200);
    if target == "all" {
        let sep = format!("\n{}\n", "═".repeat(64));
        for (i, (_, run)) in TARGETS.iter().enumerate() {
            if i > 0 {
                print!("{sep}");
            }
            print!("{}", run(rounds));
        }
    } else if let Some((_, run)) = TARGETS.iter().find(|(name, _)| *name == target) {
        print!("{}", run(rounds));
    } else {
        let names: Vec<&str> = TARGETS.iter().map(|(name, _)| *name).collect();
        eprintln!(
            "usage: repro <target> [rounds]\ntargets: all {}",
            names.join(" ")
        );
        std::process::exit(2);
    }
}
