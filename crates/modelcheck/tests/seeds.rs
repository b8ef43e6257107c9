//! Committed regression schedules.
//!
//! Each seed below was found by exploration and is pinned here verbatim:
//! replaying it must deterministically reproduce the same event sequence
//! (asserted run-against-run by [`cckvs_modelcheck::replay`]) and must
//! keep passing the linearizability and lost-write checks. A failure here
//! means the protocol, the harness, or the seeded scheduler changed
//! behaviour on a schedule that was explicitly vetted — all three are
//! regressions worth a human look.
//!
//! Re-vetted when the harness started driving the production miss path
//! (`cckvs_net::rpc`): the two oldest seeds replay to the event logs they
//! were pinned with except that (a) correlation ids are now numbered per
//! origin process — the restarted node of `crash-mid-commit:…03` issues
//! `rpc#1000001`, its generation's first, where the harness-global counter
//! said `rpc#1` — and (b) a home's serve line names the origin
//! (`n1 rpc#1 from n0 put k950 …`), because an id alone no longer does.
//! All 1 200 schedules of the CI exploration were compared line by line
//! against the previous harness and differ in nothing else.

use cckvs_modelcheck::explore::{explore, replay};
use cckvs_modelcheck::scenario::by_name;
use cckvs_modelcheck::sched::Seed;

const DEPTH: usize = 400;

fn replay_seed(s: &str) -> cckvs_modelcheck::RunOutcome {
    let seed: Seed = s.parse().expect("committed seed parses");
    let spec = by_name(&seed.scenario).expect("committed seed names a scenario");
    // `replay` runs the schedule twice and asserts the event logs are
    // identical — the determinism contract for committed seeds.
    replay(&spec, &seed, DEPTH)
}

/// A Lin put whose writer crashes mid-run: the schedule exercises the
/// crash, the generation-bumped restart, the survivors' retained-frame
/// replay with reissued invalidations, and the post-restart heal — and
/// the history stays linearizable with no acked write lost.
#[test]
fn crash_mid_commit_seed_replays_clean() {
    let outcome = replay_seed("crash-mid-commit:0000000000000003");
    assert_eq!(outcome.violation, None, "events: {:#?}", outcome.events);
    let has = |m: &str| outcome.events.iter().any(|e| e.contains(m));
    assert!(has("crash n"), "schedule crashes a node");
    assert!(has("restart n"), "schedule restarts it");
    assert!(has("replay "), "survivors replay their retained tail");
    assert!(has("reissue "), "survivors reissue uncounted invalidations");
    assert!(has("heal"), "the rack heals back to symmetric caching");
}

/// A two-node Lin run under UDP-grade link behaviour: the schedule drops
/// datagrams, duplicates one, delivers out of order (reorder-buffer
/// holds), repairs loss via retransmits, and suppresses the duplicates —
/// and the history stays linearizable with no acked write lost.
#[test]
fn udp_drop_dup_reorder_seed_replays_clean() {
    let outcome = replay_seed("udp-drop-dup-reorder:0000000000000009");
    assert_eq!(outcome.violation, None, "events: {:#?}", outcome.events);
    let has = |m: &str| outcome.events.iter().any(|e| e.contains(m));
    assert!(has("drop "), "schedule drops a datagram");
    assert!(has("dup "), "schedule duplicates a datagram");
    assert!(has("hold "), "a datagram arrives out of order and is held");
    assert!(has("dedup "), "a duplicate sequence is suppressed");
    assert!(has("retransmit "), "loss is repaired by retransmission");
}

/// The window `miss-rpc-crash` is named for: n1 serves n0's `MissGet`,
/// dies with the answer undelivered, the link confirms the request, and
/// the replacement process is asked again because n0's RPC table names the
/// request in doubt — the link's replay alone would never carry it.
#[test]
fn miss_rpc_crash_seed_completes_via_in_doubt_reissue() {
    let outcome = replay_seed("miss-rpc-crash:0000000000000014");
    assert_eq!(outcome.violation, None, "events: {:#?}", outcome.events);
    let at = |m: &str| {
        let found = outcome.events.iter().position(|e| e.starts_with(m));
        found.unwrap_or_else(|| panic!("no {m:?} in {:#?}", outcome.events))
    };
    let served = at("n1 rpc#1 from n0 get");
    let crash = at("crash n1");
    let restart = at("restart n1");
    let asked_again = at("in-doubt n0 rpc#1 -> home n1");
    let resolved = at("n0 rpc#1 get resolved");
    assert!(
        served < crash && crash < restart,
        "the home dies owing an answer"
    );
    assert!(restart < asked_again && asked_again < resolved);
}

/// The same schedule with the reissue skipped strands n0's read forever:
/// the checker must say so, or the green run above proves nothing.
#[test]
fn skipped_in_doubt_reissue_seed_is_flagged() {
    let spec = by_name("miss-rpc-no-reissue").expect("scenario exists");
    assert!(spec.expect_violation && spec.skip_rpc_reissue);
    let outcome = replay_seed("miss-rpc-no-reissue:0000000000000014");
    let why = outcome.violation.expect("the stranded op is a violation");
    assert!(
        why.contains("deadlock") && why.contains("n0") && why.contains("awaiting rpc"),
        "flagged as n0's op that never completes, got: {why}"
    );
    assert!(!outcome.events.iter().any(|e| e.starts_with("in-doubt ")));
    // And exploration finds the window unaided (what CI's `--scenario all`
    // relies on).
    let report = explore(&spec, 1, 60, 400);
    assert!(
        !report.violations.is_empty(),
        "60 schedules never stranded an op — the scenario misses its window"
    );
}

/// The committed seeds pin exact event logs; this pins the broader
/// determinism property across fresh seeds of every scenario (cheap
/// smoke: two explorations from the same base must agree violation-wise
/// and fingerprint-wise, run to run).
#[test]
fn exploration_is_deterministic_per_seed() {
    for spec in cckvs_modelcheck::scenario::all() {
        let a = explore(&spec, 7, 5, 150);
        let b = explore(&spec, 7, 5, 150);
        assert_eq!(a.distinct, b.distinct, "{}", spec.name);
        assert_eq!(
            a.violations
                .iter()
                .map(|(s, _)| s.to_string())
                .collect::<Vec<_>>(),
            b.violations
                .iter()
                .map(|(s, _)| s.to_string())
                .collect::<Vec<_>>(),
            "{}",
            spec.name
        );
    }
}

/// The negative scenario: with the crash-safety gates off, the checker
/// must find real consistency violations — otherwise it is blind and the
/// green runs above mean nothing.
#[test]
fn unsafe_crashes_are_caught_by_the_checker() {
    let spec = by_name("ack-then-die").expect("scenario exists");
    assert!(spec.expect_violation);
    let report = explore(&spec, 1, 30, 300);
    assert!(
        !report.violations.is_empty(),
        "30 unsafe-crash schedules found no violation — the checker is blind"
    );
    for (seed, why) in &report.violations {
        assert!(
            why.contains("history check failed") || why.contains("lost acked write"),
            "violation of {seed} is a real safety violation, got: {why}"
        );
    }
}
