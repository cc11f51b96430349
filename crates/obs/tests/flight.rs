// Test/bench/example target: panics are the failure report.
#![allow(clippy::unwrap_used, clippy::expect_used)]

//! Flight-recorder integration: a scripted incident flows through the
//! journal, the windowed series, and the SLO engine together; the
//! causal chain of a shed request reaches the burn alert that caused
//! it, and all three exporters stay byte-identical to pinned goldens.

use std::sync::Arc;
use vedliot_obs::{
    BurnWindows, CauseId, Event, EventJournal, EventKind, Exportable, Objective, Slo, SloEngine,
    TimeSeries,
};

/// Rewrites the golden under `UPDATE_GOLDENS=1` instead of comparing,
/// so intentional exporter changes are blessed with one rerun.
fn check_golden(relative: &str, pinned: &str, actual: &str) {
    if std::env::var_os("UPDATE_GOLDENS").is_some() {
        let path = format!("{}/tests/{relative}", env!("CARGO_MANIFEST_DIR"));
        std::fs::write(path, actual).unwrap();
        return;
    }
    assert_eq!(
        actual.trim_end(),
        pinned.trim_end(),
        "exporter output drifted from {relative}; rerun with UPDATE_GOLDENS=1 to bless"
    );
}

/// The scripted incident every assertion and golden in this file sees:
/// healthy traffic, a burst of failures that fires the availability
/// burn alert, burn-driven shedding citing the alert, recovery, clear.
fn scripted_incident() -> (Arc<EventJournal>, TimeSeries, SloEngine) {
    let journal = Arc::new(EventJournal::new(256));
    let mut series = TimeSeries::new("flight", 10, 16);
    let mut slo = SloEngine::new(vec![Objective::new(
        "availability",
        Slo::Availability { target: 0.9 },
        BurnWindows {
            short: 10,
            long: 40,
            threshold: 2.0,
        },
    )])
    .unwrap()
    .with_journal(Arc::clone(&journal));

    // t 0..40: healthy traffic.
    for at in 0..40u64 {
        journal.append(
            at,
            EventKind::RequestAdmitted,
            CauseId::request(at),
            CauseId::NONE,
            0,
        );
        series.record_ok(at, 100 + at);
        slo.record_request(at, true, 100 + at);
    }
    assert!(slo.evaluate(39).is_empty(), "healthy traffic must not fire");

    // t 40..60: total failure. The availability budget burns hot.
    for at in 40..60u64 {
        journal.append(
            at,
            EventKind::RequestAdmitted,
            CauseId::request(at),
            CauseId::NONE,
            0,
        );
        series.record_err(at);
        slo.record_request(at, false, 0);
    }
    let fired = slo.evaluate(59);
    assert_eq!(fired.len(), 1);
    assert!(fired[0].fired);
    let alert_seq = fired[0].event_seq;
    assert!(alert_seq > 0);

    // Burn-driven degradation: health flips, admission sheds citing
    // the alert event as the cause.
    let degraded = journal.append(
        60,
        EventKind::HealthDegraded,
        CauseId::model(0),
        CauseId::event(alert_seq),
        0,
    );
    for at in 60..70u64 {
        journal.append(
            at,
            EventKind::RequestShed,
            CauseId::request(at),
            CauseId::event(degraded),
            2,
        );
    }

    // t 70..200: recovery; the alert clears and health recovers.
    for at in 70..200u64 {
        series.record_ok(at, 120);
        slo.record_request(at, true, 120);
    }
    let cleared = slo.evaluate(199);
    assert_eq!(cleared.len(), 1);
    assert!(!cleared[0].fired);
    journal.append(
        200,
        EventKind::HealthRecovered,
        CauseId::model(0),
        CauseId::event(degraded),
        0,
    );

    (journal, series, slo)
}

#[test]
fn shed_request_chains_back_to_the_burn_alert() {
    let (journal, _, slo) = scripted_incident();
    // "What shed request 65?" — one chain query answers with the full
    // causal story: shed <- degraded <- alert fired (root).
    let chain = journal.chain(CauseId::request(65));
    let kinds: Vec<EventKind> = chain.iter().map(|e| e.kind).collect();
    assert!(kinds.contains(&EventKind::RequestShed));
    assert!(kinds.contains(&EventKind::HealthDegraded));
    assert!(kinds.contains(&EventKind::SloAlertFired));
    assert!(
        chain.iter().any(|e| e.cause.is_none()),
        "the chain reaches a root cause"
    );
    // The walk is upward-only: other shed victims stay out of it.
    assert_eq!(
        chain
            .iter()
            .filter(|e| e.kind == EventKind::RequestShed)
            .count(),
        1
    );
    assert_eq!(slo.alerts_fired(), 1);
    assert_eq!(slo.alerts_cleared(), 1);
    // The clear cites the fire: the objective's chain holds both.
    let alert_chain = journal.chain(CauseId::slo(0));
    let alert_kinds: Vec<EventKind> = alert_chain.iter().map(|e| e.kind).collect();
    assert!(alert_kinds.contains(&EventKind::SloAlertFired));
    assert!(alert_kinds.contains(&EventKind::SloAlertCleared));
}

#[test]
fn the_incident_is_bit_deterministic() {
    let run = || {
        let (journal, series, slo) = scripted_incident();
        let events: Vec<Event> = journal.snapshot();
        (events, series.export().to_json(), slo.export().to_json())
    };
    assert_eq!(run(), run());
}

#[test]
fn journal_export_matches_goldens() {
    let (journal, _, _) = scripted_incident();
    let export = journal.export();
    check_golden(
        "goldens/flight_journal.json",
        include_str!("goldens/flight_journal.json"),
        &export.to_json(),
    );
    check_golden(
        "goldens/flight_journal.prom",
        include_str!("goldens/flight_journal.prom"),
        &export.to_prometheus(),
    );
}

#[test]
fn series_export_matches_goldens() {
    let (_, series, _) = scripted_incident();
    let export = series.export();
    check_golden(
        "goldens/flight_series.json",
        include_str!("goldens/flight_series.json"),
        &export.to_json(),
    );
    check_golden(
        "goldens/flight_series.prom",
        include_str!("goldens/flight_series.prom"),
        &export.to_prometheus(),
    );
}

#[test]
fn slo_export_matches_goldens() {
    let (_, _, slo) = scripted_incident();
    let export = slo.export();
    check_golden(
        "goldens/flight_slo.json",
        include_str!("goldens/flight_slo.json"),
        &export.to_json(),
    );
    check_golden(
        "goldens/flight_slo.prom",
        include_str!("goldens/flight_slo.prom"),
        &export.to_prometheus(),
    );
}

/// The J-code registry in DESIGN.md §8 and `EventKind` must never
/// drift apart: every variant's code and name must appear together in
/// a registry table row, and no two variants may share a code.
#[test]
fn journal_registry_matches_design_doc() {
    let design = include_str!("../../../DESIGN.md");
    let rows: Vec<&str> = design.lines().filter(|l| l.starts_with("| J")).collect();
    assert_eq!(
        rows.len(),
        EventKind::ALL.len(),
        "DESIGN.md J-registry has {} rows for {} event kinds",
        rows.len(),
        EventKind::ALL.len()
    );
    let mut seen = std::collections::HashSet::new();
    for kind in EventKind::ALL {
        assert!(seen.insert(kind.code()), "duplicate code {}", kind.code());
        let row = rows
            .iter()
            .find(|r| r.starts_with(&format!("| {} ", kind.code())))
            .unwrap_or_else(|| panic!("{} missing from the DESIGN.md registry", kind.code()));
        assert!(
            row.contains(&format!("| {} ", kind.name())),
            "registry row for {} does not document name {:?}: {row}",
            kind.code(),
            kind.name()
        );
    }
}
