//! Soak harness for `mpriv serve`: N concurrent two-party VFL setup
//! sessions against one relay daemon over real TCP sockets, with
//! socket-level faults injected by a deterministic per-session schedule:
//!
//! * `reset` — one party drops its connection right after the handshake
//!   (connection reset mid-session);
//! * `stall` — one party splices a *partial* frame onto the wire and
//!   then stops reading and writing (stalled writer + partial frame).
//!
//! Every completed session is checked bit-identical to the same seeds
//! through the in-process [`mp_federated::Network::new`] oracle, and
//! every faulted session must abort with a *typed* error. Reports the
//! completed and aborted sessions and the relay's counters; writes
//! `BENCH_serve.json` at the repo root. Exits non-zero on any oracle
//! divergence, untyped failure, clean-session failure, unbounded queue,
//! or zero completed sessions. Wall time is perfbench's `serve` workload.
//!
//! Usage: `serve_soak [sessions]` (default 64).

use mp_federated::net::{encode_frame, FramedStream, ReadStep, SessionFrame, SocketStream};
use mp_federated::{
    outcome_matches, run_client_session, ClientConfig, MultiPartySession, MultiSetupOutcome, Party,
    RetryConfig, ServeConfig, Server, SetupError,
};
use mp_metadata::SharePolicy;
use mp_observe::NoopRecorder;
use std::io::Write as _;
use std::sync::Arc;
use std::time::Duration;

const ROWS: usize = 40;
const SALT: u64 = 0xF1A7;
const DATA_SEED: u64 = 42;
const POLICIES: [SharePolicy; 2] = [SharePolicy::PAPER_RECOMMENDED, SharePolicy::FULL];

/// The deterministic fault mix: index → fault kind.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Fault {
    None,
    Reset,
    Stall,
}

fn fault_for(index: u64) -> Fault {
    match index % 8 {
        5 => Fault::Reset,
        7 => Fault::Stall,
        _ => Fault::None,
    }
}

fn parties() -> Vec<Party> {
    let data = mp_datasets::fintech_scenario(ROWS, DATA_SEED);
    vec![
        Party::new("bank", data.bank.relation, 0, data.bank.dependencies).unwrap(),
        Party::new(
            "ecommerce",
            data.ecommerce.relation,
            0,
            data.ecommerce.dependencies,
        )
        .unwrap(),
    ]
}

/// A fast-abort retry policy so faulted sessions fail in milliseconds,
/// not the full production ladder.
fn soak_retry() -> RetryConfig {
    RetryConfig {
        ack_timeout: 8,
        max_retries: 3,
        backoff_cap: 16,
        max_ticks: 2_000,
    }
}

/// Joins the session like a real party, then injects the fault.
fn faulty_party(addr: &str, session: u64, fault: Fault) {
    let Ok(stream) = SocketStream::connect(addr) else {
        return;
    };
    let _ = stream.set_read_timeout(Some(Duration::from_millis(2)));
    let mut framed = FramedStream::new(stream);
    if framed
        .write_frame(&SessionFrame::Hello {
            session,
            party: 1,
            n_parties: 2,
        })
        .is_err()
    {
        return;
    }
    // Wait until the session assembles so the fault lands mid-session.
    loop {
        match framed.read_step() {
            Ok(ReadStep::Frame(SessionFrame::Welcome { .. })) => break,
            Ok(ReadStep::Eof) | Err(_) => return,
            _ => {}
        }
    }
    match fault {
        Fault::Reset => {
            let _ = framed.socket().shutdown();
        }
        Fault::Stall => {
            // Splice the first 3 bytes of a valid envelope frame, then
            // go silent: the peer's retries exhaust and the session is
            // torn down around the half-frame.
            let frame = encode_frame(&SessionFrame::Done { party: 1 });
            let _ = framed.socket_mut().write_all(&frame[..3]);
            let _ = framed.socket_mut().flush();
            // Stay connected (neither reading nor writing) until the
            // server hangs up on us.
            loop {
                match framed.read_step() {
                    Ok(ReadStep::Frame(SessionFrame::Abort(_))) | Ok(ReadStep::Eof) | Err(_) => {
                        return;
                    }
                    _ => {}
                }
            }
        }
        Fault::None => unreachable!("clean sessions run real clients"),
    }
}

struct SessionResult {
    fault: Fault,
    /// `Ok(matches_oracle)` for completed sessions, the typed error text
    /// otherwise.
    outcome: Result<bool, String>,
    /// A faulted session failing with anything other than a typed
    /// `SetupError` (e.g. a panic) is a finding.
    typed_abort: bool,
}

fn run_one(
    addr: &str,
    index: u64,
    parties: &[Party],
    reference: &MultiSetupOutcome,
) -> SessionResult {
    let fault = fault_for(index);
    let session = index + 1;
    let retry = soak_retry();

    let partner: std::thread::JoinHandle<Option<Result<mp_federated::PartyOutcome, SetupError>>> = {
        let addr = addr.to_owned();
        let party = parties[1].clone();
        std::thread::spawn(move || match fault {
            Fault::None => {
                let cfg = ClientConfig::new(session, 1, 2, retry);
                Some(run_client_session(
                    &addr,
                    &cfg,
                    &party,
                    &POLICIES[1],
                    SALT,
                    &NoopRecorder,
                ))
            }
            _ => {
                faulty_party(&addr, session, fault);
                None
            }
        })
    };

    let cfg = ClientConfig::new(session, 0, 2, retry);
    let mine = run_client_session(addr, &cfg, &parties[0], &POLICIES[0], SALT, &NoopRecorder);
    let partner_result = partner.join().expect("party thread never panics");

    match fault {
        Fault::None => {
            let both = [Some(mine), partner_result];
            let mut matches = true;
            let mut error = None;
            for (p, res) in both.into_iter().flatten().enumerate() {
                match res {
                    Ok(outcome) => matches &= outcome_matches(&outcome, p, reference),
                    Err(e) => error = Some(e.to_string()),
                }
            }
            SessionResult {
                fault,
                outcome: match error {
                    None => Ok(matches),
                    Some(e) => Err(e),
                },
                typed_abort: true,
            }
        }
        _ => {
            // The honest party of a faulted session must fail with a
            // typed SetupError — never hang, never panic.
            let typed = matches!(
                mine,
                Err(SetupError::PartyCrashed { .. })
                    | Err(SetupError::RetriesExhausted { .. })
                    | Err(SetupError::Stalled { .. })
                    | Err(SetupError::Data(_))
            );
            SessionResult {
                fault,
                outcome: Err(match &mine {
                    Err(e) => e.to_string(),
                    Ok(_) => "faulted session completed".to_owned(),
                }),
                typed_abort: typed,
            }
        }
    }
}

fn main() {
    let sessions: u64 = std::env::args()
        .nth(1)
        .and_then(|a| a.parse().ok())
        .unwrap_or(64);

    let parties = parties();
    let reference = MultiPartySession::new(parties.clone(), SALT)
        .run_setup(&POLICIES)
        .expect("in-process reference setup");

    let cfg = ServeConfig {
        io_tick: Duration::from_millis(1),
        ..ServeConfig::from_retry(&soak_retry())
    };
    let queue_cap = mp_federated::serve::QUEUE_CAP;
    let server = Server::start("127.0.0.1:0", cfg, Arc::new(NoopRecorder)).expect("bind");
    let addr = server.addr().to_owned();

    let handles: Vec<_> = (0..sessions)
        .map(|i| {
            let addr = addr.clone();
            let parties = parties.clone();
            let reference = reference.clone();
            std::thread::spawn(move || run_one(&addr, i, &parties, &reference))
        })
        .collect();
    let results: Vec<SessionResult> = handles
        .into_iter()
        .map(|h| h.join().expect("session thread never panics"))
        .collect();
    let report = server.shutdown();

    let mut completed = 0u64;
    let mut aborted = 0u64;
    let mut oracle_mismatches = 0u64;
    let mut untyped_failures = 0u64;
    let mut clean_failures = 0u64;
    let mut fault_counts = [0u64; 3];
    for r in &results {
        fault_counts[r.fault as usize] += 1;
        if !r.typed_abort {
            untyped_failures += 1;
        }
        match &r.outcome {
            Ok(matches) => {
                completed += 1;
                if !matches {
                    oracle_mismatches += 1;
                }
            }
            Err(e) => {
                aborted += 1;
                if r.fault == Fault::None {
                    clean_failures += 1;
                    eprintln!("clean session failed: {e}");
                }
            }
        }
    }
    let abort_rate = aborted as f64 / sessions as f64;

    println!(
        "serve soak: {sessions} sessions ({} clean, {} reset, {} stall), {} completed, {} aborted",
        fault_counts[0], fault_counts[1], fault_counts[2], completed, aborted
    );
    println!(
        "oracle mismatches {oracle_mismatches}, untyped failures {untyped_failures}, max queue depth {} (cap {queue_cap})",
        report.max_queue_depth
    );

    let json = format!(
        "{{\n  \"bench\": \"serve\",\n  \"sessions\": {sessions},\n  \"parties_per_session\": 2,\n  \"rows_per_party\": {ROWS},\n  \"faults\": {{ \"clean\": {}, \"reset\": {}, \"stall\": {} }},\n  \"completed\": {completed},\n  \"aborted\": {aborted},\n  \"abort_rate\": {abort_rate:.4},\n  \"oracle_mismatches\": {oracle_mismatches},\n  \"untyped_failures\": {untyped_failures},\n  \"server\": {{ \"sessions_started\": {}, \"sessions_completed\": {}, \"sessions_aborted\": {}, \"frames_in\": {}, \"frames_routed\": {}, \"spoof_rejected\": {}, \"max_queue_depth\": {}, \"queue_cap\": {queue_cap} }}\n}}\n",
        fault_counts[0],
        fault_counts[1],
        fault_counts[2],
        report.sessions_started,
        report.sessions_completed,
        report.sessions_aborted,
        report.frames_in,
        report.frames_routed,
        report.spoof_rejected,
        report.max_queue_depth,
    );
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_serve.json");
    std::fs::write(path, &json).expect("write BENCH_serve.json");
    println!("wrote {path}");

    let queue_bounded = report.max_queue_depth <= queue_cap as u64;
    if completed == 0
        || oracle_mismatches > 0
        || untyped_failures > 0
        || clean_failures > 0
        || !queue_bounded
    {
        eprintln!(
            "soak failed: completed {completed}, oracle mismatches {oracle_mismatches}, \
             untyped {untyped_failures}, clean failures {clean_failures}, queue bounded {queue_bounded}"
        );
        std::process::exit(1);
    }
}
