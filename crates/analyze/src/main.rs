//! `mp-analyze` — run the workspace invariant linter from the command line.
//!
//! ```text
//! mp-analyze [--root DIR] [--config PATH] [--format human|json] [--list-rules]
//!            [--ratchet] [--baseline PATH] [--write-baseline]
//! ```
//!
//! Exit codes: `0` clean, `1` violations found or ratchet regression, `2`
//! usage/configuration error. The JSON report is byte-stable across runs
//! on an unchanged tree; ratchet chatter goes to stderr to keep it so.
//! [`mp_analyze::run`] does all of it; `mpriv analyze` calls it too.

use std::process::ExitCode;

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match mp_analyze::run(&args) {
        Ok(outcome) => {
            print!("{}", outcome.report);
            eprint!("{}", outcome.ratchet);
            if outcome.clean {
                ExitCode::SUCCESS
            } else {
                ExitCode::FAILURE
            }
        }
        Err(msg) => {
            eprintln!("mp-analyze: {msg}");
            ExitCode::from(2)
        }
    }
}
