//! Regression oracle for the in-memory setup engine.
//!
//! The expected values below were recorded from the tick-by-tick engine
//! that preceded idle-tick jumps and shared payload bodies, so they pin
//! *what the engine does*, not only whether the invariants hold: every
//! field of four exhaustive model-checker reports (the last one under a
//! tick bound tight enough to stall 1,984 schedules), and a fingerprint
//! of 128 seeded simulations. A change that explores different states,
//! reorders a delivery or moves an abort by one tick fails here.
//!
//! The second half tests the jump itself: `skip_to` on an idle or busy
//! in-memory transport matches ticking through, and a crash run, whose
//! survivors wait out their whole retransmission ladder, executes only a
//! few dozen of its 312 ticks.

use mp_federated::{
    model_check, simulate_setup, small_world_session, CheckConfig, CheckReport, Decision, Envelope,
    FaultPlan, MsgId, PartyId, Payload, RetryConfig, ScheduleTransport, SetupError, SimTransport,
    TraceEvent, Transport, FAULT_PROFILES,
};

fn fnv1a(hash: &mut u64, bytes: &[u8]) {
    for b in bytes {
        *hash ^= u64::from(*b);
        *hash = hash.wrapping_mul(0x0100_0000_01b3);
    }
}

const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;

/// What one check must report, violations aside.
struct Expected {
    report: CheckReport,
    violations: usize,
    /// The first violation, rendered as `schedule => violation`.
    first: Option<&'static str>,
    /// FNV-1a-64 over every violation record's `{:?}`, in report order.
    violations_fnv: u64,
}

#[allow(clippy::too_many_arguments)]
fn report(
    config: CheckConfig,
    parties: usize,
    runs: u64,
    outcomes: [u64; 4],
    crash_schedules: u64,
    faults_injected: [u64; 3],
    max_depth: usize,
    states: [u64; 4],
) -> CheckReport {
    let [completed, aborted_crashed, aborted_retries, aborted_stalled] = outcomes;
    let [total_states, distinct_states, distinct_outcomes, pruned_subtrees] = states;
    CheckReport {
        config,
        parties,
        runs,
        completed,
        aborted_crashed,
        aborted_retries,
        aborted_stalled,
        crash_schedules,
        faults_injected,
        max_depth,
        total_states,
        distinct_states,
        distinct_outcomes,
        pruned_subtrees,
        violations: Vec::new(),
    }
}

fn config(max_ticks: u64, fault_budget: usize, max_delay: u64, crash_points: u64) -> CheckConfig {
    CheckConfig {
        max_ticks,
        fault_budget,
        max_delay,
        crash_points,
    }
}

fn assert_check(parties: usize, want: Expected) {
    let (session, policies) = small_world_session(parties).unwrap();
    let mut got = model_check(&session, &policies, &want.report.config).unwrap();
    assert_eq!(
        got.completed + got.aborted_crashed + got.aborted_retries + got.aborted_stalled,
        got.runs,
        "outcome counters must partition the runs"
    );
    let first = got
        .violations
        .first()
        .map(|v| format!("{} => {:?}", v.schedule, v.violation));
    assert_eq!(first.as_deref(), want.first);
    assert_eq!(got.violations.len(), want.violations);
    let mut fnv = FNV_OFFSET;
    for v in &got.violations {
        fnv1a(&mut fnv, format!("{v:?}").as_bytes());
    }
    assert_eq!(fnv, want.violations_fnv, "violation records changed");
    got.violations.clear();
    assert_eq!(got, want.report);
}

#[test]
fn two_parties_one_fault_report_is_pinned() {
    assert_check(
        2,
        Expected {
            report: report(
                config(256, 1, 1, 1),
                2,
                69,
                [25, 44, 0, 0],
                3,
                [22, 22, 22],
                10,
                [11_099, 269, 69, 0],
            ),
            violations: 0,
            first: None,
            violations_fnv: FNV_OFFSET,
        },
    );
}

#[test]
fn three_parties_one_fault_report_is_pinned() {
    assert_check(
        3,
        Expected {
            report: report(
                config(256, 1, 2, 3),
                3,
                1_150,
                [97, 1_053, 0, 0],
                10,
                [285, 285, 570],
                42,
                [263_670, 9_675, 1_150, 0],
            ),
            violations: 0,
            first: None,
            violations_fnv: FNV_OFFSET,
        },
    );
}

#[test]
fn default_config_report_is_pinned() {
    // `mpriv check` with no flags: two parties under the default bounds.
    assert_eq!(CheckConfig::default(), config(256, 2, 2, 3));
    assert_check(
        2,
        Expected {
            report: report(
                CheckConfig::default(),
                2,
                6_803,
                [461, 6_342, 0, 0],
                7,
                [3_347, 3_411, 6_530],
                18,
                [1_586_347, 32_665, 6_799, 57],
            ),
            violations: 0,
            first: None,
            violations_fnv: FNV_OFFSET,
        },
    );
}

#[test]
fn tight_tick_bound_report_is_pinned() {
    // 12 ticks cannot fit a retransmission ladder, so 1,984 schedules
    // stall: at the bound itself, or earlier once no timer can fire
    // before it. This pins the engine's clamp to `max_ticks`.
    assert_check(
        3,
        Expected {
            report: report(
                config(12, 2, 2, 3),
                3,
                16_678,
                [3_391, 11_303, 0, 1_984],
                10,
                [9_231, 9_171, 14_334],
                28,
                [164_349, 50_878, 16_648, 906],
            ),
            violations: 1_984,
            first: Some(
                "send 23: drop; send 25: delay2 => UncleanCrash { error: Some(Stalled { at: 12 }) }",
            ),
            violations_fnv: 0x3c88_0206_7ec4_3bab,
        },
    );
}

#[test]
fn seeded_simulations_are_pinned() {
    // Per profile over seeds 0..32: completed runs, summed ticks, summed
    // sends, and FNV-1a-64 over every run's `{:?}` trace in seed order.
    let expected: [(&str, u64, u64, u64, u64); 4] = [
        ("drop", 32, 2_453, 1_198, 0xe7d3_cd6f_2d03_8651),
        ("dup", 32, 96, 890, 0xbac9_793e_6f76_dd67),
        ("reorder", 32, 480, 932, 0xcd3e_b79e_1b7f_dd06),
        ("crash", 0, 9_984, 829, 0xbc63_a91d_7413_fc6f),
    ];
    assert_eq!(FAULT_PROFILES, expected.map(|e| e.0));
    let (session, policies) = small_world_session(3).unwrap();
    let retry = RetryConfig::default();
    for (profile, completed, ticks, sends, trace_fnv) in expected {
        let (mut got_completed, mut got_ticks, mut got_sends) = (0, 0, 0);
        let mut fnv = FNV_OFFSET;
        for seed in 0..32 {
            let plan = FaultPlan::from_names(profile, seed, 3).unwrap();
            let out = simulate_setup(&session, &policies, &plan, &retry);
            got_completed += u64::from(out.result.is_ok());
            got_ticks += out.ticks;
            got_sends += out.summary.sent as u64;
            fnv1a(&mut fnv, format!("{:?}", out.trace).as_bytes());
        }
        assert_eq!(
            (got_completed, got_ticks, got_sends, fnv),
            (completed, ticks, sends, trace_fnv),
            "profile {profile}"
        );
    }
}

fn ack(id: u64, from: PartyId, to: PartyId) -> Envelope {
    Envelope {
        id: MsgId(id),
        from,
        to,
        payload: Payload::Ack(MsgId(id)),
    }
}

/// What a transport exposes after some steps: clock, trace, queue size,
/// and every party's inbox, drained.
fn observe(t: &mut dyn Transport) -> (u64, String, usize, Vec<Vec<MsgId>>) {
    let inboxes = (0..t.n_parties())
        .map(|p| std::iter::from_fn(|| t.recv(p)).map(|e| e.id).collect())
        .collect();
    (t.now(), format!("{:?}", t.trace()), t.in_flight(), inboxes)
}

/// `skip_to(now + k)` against `k` ticks, from the state `setup` leaves.
fn assert_skip_matches_ticks(
    make: &dyn Fn() -> Box<dyn Transport>,
    setup: &dyn Fn(&mut dyn Transport),
) {
    for k in [0, 1, 2, 5, 9] {
        let mut ticked = make();
        let mut skipped = make();
        setup(ticked.as_mut());
        setup(skipped.as_mut());
        let start = ticked.now();
        for _ in 0..k {
            ticked.tick();
        }
        skipped.skip_to(start + k);
        assert_eq!(
            observe(skipped.as_mut()),
            observe(ticked.as_mut()),
            "k = {k}"
        );
    }
}

#[test]
fn skip_to_on_idle_transports_matches_ticking() {
    let idle = |t: &mut dyn Transport| {
        t.tick();
        t.tick();
    };
    assert_skip_matches_ticks(
        &|| Box::new(SimTransport::new(3, FaultPlan::fault_free(1))),
        &idle,
    );
    assert_skip_matches_ticks(
        &|| Box::new(ScheduleTransport::new(3, Vec::new(), None)),
        &idle,
    );
}

#[test]
fn skip_to_delivers_in_flight_messages_on_their_tick() {
    // Three messages in flight, under random delays (sim) or with the
    // first delayed behind a duplicated later send (schedule): a skip
    // must stop at each delivery.
    let sim_plan = FaultPlan {
        max_delay: 5,
        ..FaultPlan::fault_free(7)
    };
    let busy = |t: &mut dyn Transport| {
        t.tick();
        t.send(ack(1, 0, 1), 0);
        t.send(ack(2, 1, 2), 0);
        t.send(ack(3, 2, 0), 0);
    };
    assert_skip_matches_ticks(&|| Box::new(SimTransport::new(3, sim_plan.clone())), &busy);
    let schedule = vec![Decision::Delay(3), Decision::Deliver, Decision::Duplicate];
    assert_skip_matches_ticks(
        &|| Box::new(ScheduleTransport::new(3, schedule.clone(), None)),
        &busy,
    );
}

/// Delegates every call to a `SimTransport` and counts the ticks the
/// engine executes. With `jump` off, `skip_to` ticks one tick at a time,
/// as a transport without an override does.
struct CountingTransport {
    inner: SimTransport,
    jump: bool,
    ticks: u64,
}

impl Transport for CountingTransport {
    fn n_parties(&self) -> usize {
        self.inner.n_parties()
    }
    fn send(&mut self, env: Envelope, attempt: u32) {
        self.inner.send(env, attempt);
    }
    fn tick(&mut self) {
        self.ticks += 1;
        self.inner.tick();
    }
    fn skip_to(&mut self, t: u64) {
        if self.jump {
            self.inner.skip_to(t);
        } else {
            while self.now() < t {
                self.tick();
            }
        }
    }
    fn recv(&mut self, party: PartyId) -> Option<Envelope> {
        self.inner.recv(party)
    }
    fn now(&self) -> u64 {
        self.inner.now()
    }
    fn in_flight(&self) -> usize {
        self.inner.in_flight()
    }
    fn is_crashed(&self, party: PartyId) -> bool {
        self.inner.is_crashed(party)
    }
    fn trace(&self) -> &[TraceEvent] {
        self.inner.trace()
    }
}

#[test]
fn crash_run_jumps_over_idle_ticks() {
    let (session, policies) = small_world_session(3).unwrap();
    let plan = FaultPlan::from_names("crash", 5, 3).unwrap();
    let retry = RetryConfig::default();
    let run = |jump| {
        let mut t = CountingTransport {
            inner: SimTransport::new(3, plan.clone()),
            jump,
            ticks: 0,
        };
        let result = session.run_setup_over(&policies, &mut t, &retry);
        (result.err(), t.now(), format!("{:?}", t.trace()), t.ticks)
    };
    let (jumped, jumped_at, jumped_trace, jumped_ticks) = run(true);
    let (ticked, ticked_at, ticked_trace, ticked_ticks) = run(false);
    assert!(
        matches!(jumped, Some(SetupError::PartyCrashed { .. })),
        "{jumped:?}"
    );
    assert_eq!(jumped, ticked);
    assert_eq!((jumped_at, ticked_at), (312, 312));
    assert_eq!(jumped_trace, ticked_trace);
    assert_eq!(ticked_ticks, 312);
    assert!(jumped_ticks <= 40, "{jumped_ticks} ticks executed");
}
