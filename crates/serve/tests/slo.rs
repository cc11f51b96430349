// Test/bench/example target: panics are the failure report.
#![allow(clippy::unwrap_used, clippy::expect_used)]

//! Burn-rate SLO integration: a closed-loop incident drives the
//! availability objective through fire → burn-driven degraded shedding
//! → clear, every shed chains back to the alert that caused it, and
//! the whole episode replays deterministically.

use std::time::{Duration, Instant};
use vedliot_nnir::{zoo, Graph, Shape, Tensor};
use vedliot_serve::{
    BatchPolicy, BurnWindows, CauseId, Event, EventKind, Health, JournalPolicy, ModelConfig,
    Priority, ServeConfig, ServeError, Server, SloPolicy, SloTransition, SubmitRequest,
};

fn demo_graph() -> Graph {
    zoo::tiny_cnn("slo-test", Shape::nchw(1, 1, 8, 8), &[4], 3).unwrap()
}

fn demo_input(seed: u64) -> Tensor {
    Tensor::random(Shape::nchw(1, 1, 8, 8), seed, 1.0)
}

/// Journal + burn-driven SLO, sequential batching (closed loop submits
/// one request at a time, so the submission-seq clock advances
/// deterministically).
fn slo_config() -> ServeConfig {
    ServeConfig::builder()
        .queue_capacity(64)
        .default_model(ModelConfig::default().workers(1).batch(BatchPolicy {
            max_batch: 1,
            max_linger: Duration::from_micros(0),
        }))
        .journal(JournalPolicy { capacity: 1024 })
        .slo(SloPolicy {
            availability: Some(0.9),
            p99_max_us: None,
            windows: BurnWindows {
                short: 10,
                long: 40,
                threshold: 2.0,
            },
            drive_health: true,
        })
        .build()
        .unwrap()
}

/// The scripted incident: 40 healthy requests, 20 deadline-expired
/// failures (enough to burn both windows past 2×), one shed probe
/// while degraded, 120 healthy requests to clear. Returns everything a
/// caller needs to assert on — including the full journal with
/// timestamps zeroed, so two runs are comparable bit-for-bit.
struct Episode {
    fired: Vec<SloTransition>,
    cleared: Vec<SloTransition>,
    degraded_health: Health,
    recovered_health: Health,
    shed_err: ServeError,
    events: Vec<Event>,
    chain_kinds: Vec<EventKind>,
    slo_json: String,
}

fn run_episode() -> Episode {
    let server = Server::start(&demo_graph(), slo_config()).unwrap();
    // Phase 1: healthy traffic — seqs 1..=40, no alert.
    for i in 0..40u64 {
        server
            .submit_request(SubmitRequest::new(vec![demo_input(i)]))
            .unwrap()
            .wait()
            .unwrap();
    }
    assert!(server.evaluate_slo().is_empty(), "healthy must not fire");
    assert_eq!(server.health(), Health::Serving);
    // Phase 2: 20 requests with already-expired deadlines — seqs
    // 41..=60, each purged as a deterministic failure.
    let past = Instant::now() - Duration::from_millis(1);
    for i in 0..20u64 {
        let ticket = server
            .submit_request(SubmitRequest::new(vec![demo_input(100 + i)]).deadline(past))
            .unwrap();
        assert_eq!(ticket.wait().unwrap_err(), ServeError::DeadlineExceeded);
    }
    // Short window (seqs 51..=60) is all errors: burn 10×; long window
    // (21..=60) is half errors: burn 5× — both past the 2× threshold.
    let fired = server.evaluate_slo();
    let degraded_health = server.health();
    // Phase 3: burn-driven degradation closes Batch admission; the
    // shed cites the HealthDegraded event. Refusals consume no seq, so
    // the probe does not advance the SLO clock.
    let shed_err = server
        .submit_request(SubmitRequest::new(vec![demo_input(999)]).priority(Priority::Batch))
        .unwrap_err();
    // Phase 4: recovery — seqs 61..=180 healthy; the short window
    // leaves the incident behind and the alert clears.
    for i in 0..120u64 {
        server
            .submit_request(SubmitRequest::new(vec![demo_input(200 + i)]))
            .unwrap()
            .wait()
            .unwrap();
    }
    let cleared = server.evaluate_slo();
    let recovered_health = server.health();
    // The causal chain of the shed: walk upward from the RequestShed
    // event itself.
    let events = server.journal_events();
    let shed_seq = events
        .iter()
        .find(|e| e.kind == EventKind::RequestShed)
        .map(|e| e.seq)
        .unwrap();
    let chain_kinds = server
        .journal_chain(CauseId::event(shed_seq))
        .iter()
        .map(|e| e.kind)
        .collect();
    let slo_json = server.slo_export().unwrap().to_json();
    server.shutdown();
    Episode {
        fired,
        cleared,
        degraded_health,
        recovered_health,
        shed_err,
        // Timestamps are wall-clock; zero them so runs compare on the
        // causal structure alone.
        events: events
            .into_iter()
            .map(|mut e| {
                e.at = 0;
                e
            })
            .collect(),
        chain_kinds,
        slo_json,
    }
}

#[test]
fn burn_alert_drives_degraded_shedding_and_clears() {
    let ep = run_episode();
    assert_eq!(ep.fired.len(), 1, "one availability fire");
    assert!(ep.fired[0].fired);
    assert!(ep.fired[0].burn.short >= 2.0 && ep.fired[0].burn.long >= 2.0);
    assert_eq!(ep.degraded_health, Health::Degraded, "burn drives health");
    assert_eq!(ep.shed_err, ServeError::ShedLowPriority);
    assert_eq!(ep.cleared.len(), 1, "one clear after recovery");
    assert!(!ep.cleared[0].fired);
    assert_eq!(ep.recovered_health, Health::Serving);
}

#[test]
fn shed_chains_back_to_the_alert_and_accounting_is_exact() {
    let ep = run_episode();
    // The chain tells the whole story: shed <- degraded <- alert.
    assert!(ep.chain_kinds.contains(&EventKind::RequestShed));
    assert!(ep.chain_kinds.contains(&EventKind::HealthDegraded));
    assert!(ep.chain_kinds.contains(&EventKind::SloAlertFired));
    let count = |kind: EventKind| ep.events.iter().filter(|e| e.kind == kind).count();
    // Exact causal accounting: every admission, failure and shed is a
    // journal event, with zero orphans.
    assert_eq!(count(EventKind::RequestAdmitted), 180, "40 + 20 + 120");
    assert_eq!(count(EventKind::RequestShed), 1, "the degraded probe");
    assert_eq!(count(EventKind::HealthDegraded), 1);
    assert_eq!(count(EventKind::HealthRecovered), 1);
    assert_eq!(count(EventKind::SloAlertFired), 1);
    assert_eq!(count(EventKind::SloAlertCleared), 1);
    assert_eq!(count(EventKind::ModelLoaded), 1);
    // The shed cites the degradation, which cites the alert.
    let shed = ep
        .events
        .iter()
        .find(|e| e.kind == EventKind::RequestShed)
        .unwrap();
    let degraded = ep
        .events
        .iter()
        .find(|e| e.kind == EventKind::HealthDegraded)
        .unwrap();
    let alert = ep
        .events
        .iter()
        .find(|e| e.kind == EventKind::SloAlertFired)
        .unwrap();
    assert_eq!(shed.cause, CauseId::event(degraded.seq));
    assert_eq!(degraded.cause, CauseId::event(alert.seq));
}

/// The episode replays bit-deterministically: the SLO clock is the
/// submission seq, evaluation happens only at explicit calls, and the
/// journal's causal structure (everything but wall timestamps) is a
/// pure function of the request order.
#[test]
fn the_episode_is_deterministic_under_replay() {
    let (a, b) = (run_episode(), run_episode());
    assert_eq!(a.events, b.events);
    assert_eq!(a.chain_kinds, b.chain_kinds);
    assert_eq!(a.slo_json, b.slo_json, "seq-clocked engine state");
    assert_eq!(
        a.fired[0].burn.short.to_bits(),
        b.fired[0].burn.short.to_bits()
    );
    assert_eq!(
        a.fired[0].burn.long.to_bits(),
        b.fired[0].burn.long.to_bits()
    );
}

#[test]
fn slo_disabled_is_inert() {
    let server = Server::start(&demo_graph(), ServeConfig::default()).unwrap();
    server
        .submit_request(SubmitRequest::new(vec![demo_input(7)]))
        .unwrap()
        .wait()
        .unwrap();
    assert!(server.evaluate_slo().is_empty());
    assert!(server.slo_states().is_empty());
    assert!(server.slo_export().is_none());
    assert!(server.journal_events().is_empty());
    let m = server.shutdown();
    assert!(m.accounted_for());
}
