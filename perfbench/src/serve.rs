//! `serve`: the only network-facing component. A closed loop with one
//! two-party session in flight (2 client threads, 2 connections) against
//! an in-process relay `Server` over loopback TCP, parties from
//! `fintech_scenario(20_000, seed)`, every outcome checked against the
//! in-process `PerfectTransport` oracle.
//!
//! A session spends most of its time waiting on io ticks, so this is
//! where socket and tick changes show and CPU-bound changes do not.

use crate::run::{self, Ctx, Measured, Metric, PassResult, SampleInput, Traced};
use crate::stats::{median, percentile, tail_percentile, Outcomes};
use crate::sys::{self, ChildSample};
use crate::trace::Tracer;
use mp_federated::{
    decode_stream, encode_frame, outcome_matches, run_client_session, ClientConfig,
    MultiPartySession, MultiSetupOutcome, Party, PerfectTransport, RetryConfig, ServeConfig,
    ServeReport, Server, SessionFrame, TraceEvent, Transport,
};
use mp_metadata::SharePolicy;
use mp_observe::{NoopRecorder, Recorder, Registry};
use std::path::Path;
use std::sync::Arc;
use std::time::Instant;

/// Customers in the fintech scenario.
const CUSTOMERS: usize = 20_000;
/// Sessions a run needs so that ten lie beyond its p90.
const MIN_SESSIONS: usize = 100;
/// Sessions between two timed set-ups of a spare world during the loop.
const SETUP_EVERY: u64 = 10;
const SALT: u64 = 0xF1A7;
const POLICIES: [SharePolicy; 2] = [SharePolicy::PAPER_RECOMMENDED, SharePolicy::FULL];

/// Parties, oracle and a listening relay: everything before the first
/// timed session.
struct World {
    parties: Vec<Party>,
    reference: MultiSetupOutcome,
    server: Server,
}

fn parties(seed: u64) -> Result<Vec<Party>, String> {
    let data = mp_datasets::fintech_scenario(CUSTOMERS, seed);
    let party = |name: &str, p: mp_datasets::FintechParty| {
        Party::new(name, p.relation, 0, p.dependencies).map_err(|e| e.to_string())
    };
    Ok(vec![
        party("bank", data.bank)?,
        party("ecommerce", data.ecommerce)?,
    ])
}

fn set_up(seed: u64, recorder: Arc<dyn Recorder>) -> Result<World, String> {
    let parties = parties(seed)?;
    let reference = MultiPartySession::new(parties.clone(), SALT)
        .run_setup(&POLICIES)
        .map_err(|e| format!("in-process oracle failed: {e}"))?;
    let server = Server::start(
        "127.0.0.1:0",
        ServeConfig::from_retry(&RetryConfig::default()),
        recorder,
    )
    .map_err(|e| format!("cannot start relay: {e}"))?;
    Ok(World {
        parties,
        reference,
        server,
    })
}

/// Runs session `id` with both parties on their own threads; `true` when
/// both complete with outcomes matching the oracle. Each client reports
/// to its own recorder from `recorders`.
fn session(world: &World, id: u64, recorders: [&dyn Recorder; 2]) -> bool {
    let addr = world.server.addr();
    std::thread::scope(|scope| {
        let clients: Vec<_> = world
            .parties
            .iter()
            .zip(POLICIES)
            .zip(recorders)
            .enumerate()
            .map(|(p, ((party, policy), recorder))| {
                scope.spawn(move || {
                    let cfg = ClientConfig::new(id, p, 2, RetryConfig::default());
                    run_client_session(addr, &cfg, party, &policy, SALT, recorder)
                        .is_ok_and(|outcome| outcome_matches(&outcome, p, &world.reference))
                })
            })
            .collect();
        // Join every client before judging, so none is left running.
        let results: Vec<bool> = clients
            .into_iter()
            .map(|c| c.join().unwrap_or(false))
            .collect();
        results.into_iter().all(|ok| ok)
    })
}

/// Untraced run: the closed loop runs here until both `ctx.seconds`
/// elapsed and [`MIN_SESSIONS`] completed, with a spare world set up (and
/// torn down) every [`SETUP_EVERY`] sessions so set-up times span the
/// run; then single sessions run in child processes for their peak
/// resident set.
pub fn measure(ctx: &Ctx) -> Result<Measured, String> {
    let mut build = || set_up(ctx.seed, Arc::new(NoopRecorder));
    let (first_s, world) = run::time_setup(&mut build)?;
    let mut setup_s = vec![first_s];
    let started = Instant::now();
    let mut latencies_ms = Vec::new();
    let mut outcomes = Outcomes::default();
    while (outcomes.attempted as usize) < MIN_SESSIONS || sys::secs(started) < ctx.seconds {
        if outcomes.attempted > 0 && outcomes.attempted % SETUP_EVERY == 0 {
            setup_s.push(run::time_setup(&mut build)?.0);
        }
        let t = Instant::now();
        let ok = session(
            &world,
            outcomes.attempted + 1,
            [&NoopRecorder, &NoopRecorder],
        );
        let ms = sys::secs(t) * 1e3;
        outcomes.record(ok);
        if ok {
            latencies_ms.push(ms);
        }
        if outcomes.failed >= 10 && latencies_ms.is_empty() {
            return Err("serve: every session failed".to_owned());
        }
    }
    let report = world.server.shutdown();
    if report.sessions_completed != outcomes.attempted - outcomes.failed {
        eprintln!(
            "serve: relay counted {} completed sessions",
            report.sessions_completed
        );
        outcomes.failed = outcomes.attempted;
    }
    let input = SampleInput {
        seed: ctx.seed,
        args: Vec::new(),
        expected: b"ok".to_vec(),
    };
    let rss = run::child_samples(ctx, 0.0, &[input])?;
    outcomes.attempted += rss.outcomes.attempted;
    outcomes.failed += rss.outcomes.failed;
    let n = latencies_ms.len();
    let mut named = vec![
        Metric {
            name: "session_p50_ms",
            value: median(&latencies_ms).unwrap_or(0.0),
            unit: "ms",
            samples: n,
        },
        Metric {
            name: "session_p90_ms",
            value: percentile(&latencies_ms, 900).unwrap_or(0.0),
            unit: "ms",
            samples: n,
        },
    ];
    if let Some((p, v)) = tail_percentile(&latencies_ms) {
        named.push(Metric {
            name: "session_tail_percentile",
            value: p,
            unit: "percentile",
            samples: n,
        });
        named.push(Metric {
            name: "session_tail_ms",
            value: v,
            unit: "ms",
            samples: n,
        });
    }
    Ok(Measured {
        named,
        setup_s,
        op_s: latencies_ms.iter().map(|ms| ms / 1e3).collect(),
        rss_mb: rss.children.iter().map(|s| s.rss_mb).collect(),
        outcomes,
        sizes: vec![("customers", CUSTOMERS as u64), ("parties", 2)],
    })
}

/// One sample in its own process: set up, run one session, report the
/// peak resident set.
pub fn child(ctx: &Ctx, artifact: &Path, _extra: &[String]) -> Result<ChildSample, String> {
    let world = set_up(ctx.seed, Arc::new(NoopRecorder))?;
    let t = Instant::now();
    let ok = session(&world, 1, [&NoopRecorder, &NoopRecorder]);
    let op_s = sys::secs(t);
    world.server.shutdown();
    std::fs::write(artifact, if ok { "ok" } else { "mismatch" }).map_err(|e| e.to_string())?;
    Ok(ChildSample {
        op_s,
        rss_mb: sys::peak_rss_mb(),
    })
}

/// Times the client-side calls one by one on the same parties, then
/// runs one socket session.
fn traced_session(world: &World, id: u64, tracer: &Tracer) -> PassResult {
    let err = |e: mp_relation::RelationError| e.to_string();
    tracer
        .span("psi.submit", || {
            world
                .parties
                .iter()
                .try_for_each(|p| p.psi_submission(SALT).map(drop))
        })
        .map_err(err)?;
    tracer
        .span("party.share", || {
            world
                .parties
                .iter()
                .zip(POLICIES)
                .try_for_each(|(p, policy)| p.share_metadata(&policy).map(drop))
        })
        .map_err(err)?;
    let mut transport = PerfectTransport::new(2);
    let inproc = tracer.span("protocol.inproc", || {
        MultiPartySession::new(world.parties.clone(), SALT).run_setup_over(
            &POLICIES,
            &mut transport,
            &RetryConfig::default(),
        )
    });
    let inproc_ok = inproc.is_ok_and(|o| o == world.reference);
    let frames: Vec<SessionFrame> = transport
        .trace()
        .iter()
        .filter_map(|event| match event {
            TraceEvent::Sent { env, .. } => Some(SessionFrame::Envelope(env.clone())),
            _ => None,
        })
        .collect();
    let (bytes, decoded) = tracer.span("net.codec", || {
        let wire: Vec<u8> = frames.iter().flat_map(encode_frame).collect();
        (wire.len(), decode_stream(&wire))
    });
    let codec_ok = decoded.is_ok_and(|d| d == frames);
    let registries = [Registry::new(), Registry::new()];
    let recorders: [&dyn Recorder; 2] = match tracer.is_enabled() {
        true => [&registries[0], &registries[1]],
        false => [&NoopRecorder, &NoopRecorder],
    };
    let ok = tracer.span("serve.session", || session(world, id, recorders));
    let snapshots = registries.map(|r| r.snapshot());
    let ticks = snapshots
        .iter()
        .filter_map(|s| s.spans.get("protocol.setup").map(|sp| sp.units))
        .max()
        .unwrap_or(0);
    let retransmits: u64 = snapshots
        .iter()
        .enumerate()
        .map(|(p, s)| {
            s.counters
                .get(&format!("protocol.party.{p}.retransmits"))
                .copied()
                .unwrap_or(0)
        })
        .sum();
    Ok((
        ok && inproc_ok && codec_ok,
        vec![
            ("protocol.ticks_per_session", ticks as f64),
            ("protocol.retransmits_per_session", retransmits as f64),
            ("net.bytes_per_session", bytes as f64),
        ],
    ))
}

/// Traced run: per session, the client compute calls and the frame codec
/// timed on their own, then the socket session itself.
pub fn trace(ctx: &Ctx) -> Result<Traced, String> {
    let world = set_up(ctx.seed, Arc::new(NoopRecorder))?;
    let mut id = 0;
    let run = run::alternate(ctx, |tracer| {
        id += 1;
        traced_session(&world, id, tracer)
    })?;
    let report: ServeReport = world.server.shutdown();
    let sessions = report.sessions_started.max(1) as f64;
    let ms = |span: &str| run.secs(span) * 1e3;
    let layers = vec![
        ("psi.submit_ms", ms("psi.submit")),
        ("party.share_ms", ms("party.share")),
        ("protocol.inproc_ms", ms("protocol.inproc")),
        (
            "protocol.ticks_per_session",
            run.value("protocol.ticks_per_session"),
        ),
        (
            "protocol.retransmits_per_session",
            run.value("protocol.retransmits_per_session"),
        ),
        ("net.codec_ms", ms("net.codec")),
        ("net.bytes_per_session", run.value("net.bytes_per_session")),
        (
            "serve.wait_ms",
            ms("serve.session") - ms("protocol.inproc") - ms("net.codec"),
        ),
        (
            "serve.frames_in_per_session",
            report.frames_in as f64 / sessions,
        ),
        (
            "serve.frames_routed_per_session",
            report.frames_routed as f64 / sessions,
        ),
        ("serve.max_queue_depth", report.max_queue_depth as f64),
    ];
    Ok(Traced {
        layers,
        run,
        sizes: vec![("customers", CUSTOMERS as u64), ("parties", 2)],
    })
}
