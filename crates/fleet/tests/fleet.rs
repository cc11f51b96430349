// Test/bench/example target: panics are the failure report.
#![allow(clippy::unwrap_used, clippy::expect_used)]

//! Fleet rollout convergence harness: under every seeded fault plan —
//! crashes mid-download, partitions, flipped artifact bits, flipped
//! installed weights, crash loops, forged attestations — the fleet
//! must converge to a safe state: reachable honest devices on the
//! attested, hash-verified target; corrupted installs rolled back;
//! quarantined devices never installed to; regressed waves reverted.

use proptest::prelude::*;
use std::sync::Arc;
use vedliot_fleet::rollout::{Fleet, FleetConfig, Rollout, RolloutOutcome, RolloutPolicy};
use vedliot_fleet::FleetFaultPlan;
use vedliot_nnir::dataset::gaussian_prototypes;
use vedliot_nnir::graph::{Graph, WeightInit};
use vedliot_nnir::tensor::Tensor;
use vedliot_nnir::train::mlp;
use vedliot_nnir::Shape;
use vedliot_obs::{CauseId, EventJournal, EventKind, Exportable};

const INPUTS: usize = 12;
const CLASSES: usize = 3;

/// A small model with materialized (explicit) weights, as shipped.
fn shipped_model(name: &str, tweak: f32) -> Graph {
    let mut g = mlp(name, INPUTS, &[10], CLASSES).expect("mlp builds");
    for (_, tensors) in g.explicit_weights(|_| true) {
        for v in tensors.iter_mut().flat_map(Tensor::data_mut) {
            *v *= 1.0 + tweak;
        }
    }
    g
}

fn probe() -> Tensor {
    Tensor::random(Shape::nf(1, INPUTS), 2024, 1.0)
}

fn small_fleet(devices: usize, seed: u64) -> (Fleet, usize) {
    let mut fleet = Fleet::new(
        FleetConfig {
            devices,
            seed,
            trace_len: 128,
        },
        ("v1", shipped_model("edge-model", 0.0)),
        probe(),
        None,
    )
    .expect("fleet builds");
    let v2 = fleet
        .register_version("v2", shipped_model("edge-model", 0.05), None)
        .expect("v2 registers");
    (fleet, v2)
}

/// Rewrites the golden under `UPDATE_GOLDENS=1` instead of comparing,
/// so an intentional change to rollout output is blessed with one rerun.
fn check_golden(relative: &str, pinned: &str, actual: &str) {
    if std::env::var_os("UPDATE_GOLDENS").is_some() {
        let path = format!("{}/tests/{relative}", env!("CARGO_MANIFEST_DIR"));
        std::fs::write(path, actual).unwrap();
        return;
    }
    assert_eq!(
        actual.trim_end(),
        pinned.trim_end(),
        "rollout output drifted from {relative}; rerun with UPDATE_GOLDENS=1 to bless"
    );
}

fn assert_safe(fleet: &Fleet, report: &vedliot_fleet::RolloutReport) {
    let violations = fleet.audit(report);
    assert!(violations.is_empty(), "safety violations: {violations:#?}");
}

#[test]
fn quiet_plan_converges_everyone_with_high_availability() {
    let (mut fleet, v2) = small_fleet(160, 41);
    let rollout = Rollout::new(v2, RolloutPolicy::default(), FleetFaultPlan::quiet(7));
    let report = rollout.run(&mut fleet).expect("runs");
    assert_eq!(report.outcome, RolloutOutcome::Completed);
    assert_safe(&fleet, &report);
    assert_eq!(report.health.on_target, 160, "{:#?}", report.health);
    assert_eq!(report.counters.device_rollbacks, 0);
    assert_eq!(report.counters.quarantined, 0);
    // Only planned install/reboot outages dent availability.
    assert!(
        report.availability > 0.95,
        "availability {}",
        report.availability
    );
    // Waves grew exponentially from the canary.
    let sizes: Vec<usize> = report.waves.iter().map(|w| w.size).collect();
    assert_eq!(sizes, vec![8, 32, 120]);
}

#[test]
fn hostile_plan_converges_to_a_safe_state_and_every_defense_fires() {
    let (mut fleet, v2) = small_fleet(260, 1203);
    let mut plan = FleetFaultPlan::hostile(17);
    // Scale rates up so a 260-device fleet exercises every defense.
    plan.compromised_rate = 0.04;
    plan.weight_flip_rate = 0.06;
    plan.transit_flip_rate = 0.04;
    plan.crash_per_tick = 0.004;
    // With ~7% of installs expected to fail (and roll back) by design,
    // a canary of 8 under a 0.9 gate would trip on a single rollback:
    // scale the cohort and the threshold to the injected failure rate.
    let policy = RolloutPolicy {
        canary: 16,
        health_threshold: 0.8,
    };
    let rollout = Rollout::new(v2, policy, plan);
    let report = rollout.run(&mut fleet).expect("runs");

    assert_eq!(report.outcome, RolloutOutcome::Completed, "{report:#?}");
    assert_safe(&fleet, &report);
    let c = &report.counters;
    assert!(c.crashes > 0, "no crashes injected");
    assert!(c.artifact_flips_caught > 0, "no transit flips caught");
    assert!(c.chunk_retries >= c.artifact_flips_caught);
    assert!(c.resumed_downloads > 0, "no chunked resume exercised");
    assert!(c.quarantined > 0, "no forged attestation quarantined");
    assert!(c.weight_flips_injected > 0, "no weight flips injected");
    assert!(
        c.weight_flips_caught > 0,
        "golden checks caught no corrupted install"
    );
    assert!(c.device_rollbacks > 0, "no device rolled back");
    assert_eq!(
        c.wave_rollbacks, 0,
        "healthy version must not wave-roll-back"
    );

    // Quarantined devices were never installed to — ever.
    for d in fleet.devices() {
        if d.phase == vedliot_fleet::Phase::Quarantined {
            assert!(!d.installed.contains(&v2), "device {} installed", d.id);
        }
    }
}

#[test]
fn rollout_replays_identically_from_the_same_seeds() {
    let run = || {
        let (mut fleet, v2) = small_fleet(120, 99);
        let rollout = Rollout::new(v2, RolloutPolicy::default(), FleetFaultPlan::hostile(5));
        rollout.run(&mut fleet).expect("runs")
    };
    let a = run();
    let b = run();
    assert_eq!(a, b);
    // A different fault seed takes a different path.
    let (mut fleet, v2) = small_fleet(120, 99);
    let rollout = Rollout::new(v2, RolloutPolicy::default(), FleetFaultPlan::hostile(6));
    let c = rollout.run(&mut fleet).expect("runs");
    assert_ne!(a, c);
}

#[test]
fn accuracy_regressing_version_is_rolled_back_at_the_canary_gate() {
    let eval = gaussian_prototypes(&Shape::nf(1, INPUTS), CLASSES, 30, 3.0, 11);
    // v1: trained to high accuracy on the prototype task.
    let mut good = mlp("edge-model", INPUTS, &[10], CLASSES).expect("mlp builds");
    let cfg = vedliot_nnir::train::TrainConfig::default();
    vedliot_nnir::train::train_mlp(&mut good, &eval, &cfg).expect("trains");
    // The "bad release": weights zeroed — accuracy collapses to chance,
    // but the artifact itself is perfectly intact, so only the canary
    // accuracy gate can catch it.
    let mut bad = good.clone();
    for node in bad.nodes_mut() {
        if let WeightInit::Explicit(tensors) = &mut node.weights {
            for t in tensors {
                let zeros = vec![0.0; t.data().len()];
                *t = Tensor::from_vec(t.shape().clone(), zeros).expect("same shape");
            }
        }
    }

    let mut fleet = Fleet::new(
        FleetConfig {
            devices: 150,
            seed: 77,
            trace_len: 128,
        },
        ("v1", good),
        probe(),
        Some(&eval),
    )
    .expect("fleet builds");
    let bad_idx = fleet
        .register_version("v2-bad", bad, Some(&eval))
        .expect("registers");

    let rollout = Rollout::new(bad_idx, RolloutPolicy::default(), FleetFaultPlan::quiet(3));
    let report = rollout.run(&mut fleet).expect("runs");
    assert_eq!(report.outcome, RolloutOutcome::RolledBack { wave: 0 });
    assert_safe(&fleet, &report);
    assert_eq!(report.counters.wave_rollbacks, 1);
    assert!(!report.waves[0].gate_passed);
    // Blast radius: only the canary cohort ever saw the bad version.
    assert!(report.counters.installs <= RolloutPolicy::default().canary as u64);
    assert_eq!(report.health.on_target, 0);
    for d in fleet.devices() {
        assert_ne!(d.active, bad_idx, "device {} still on bad version", d.id);
    }
}

#[test]
fn unhealthy_wave_triggers_automatic_wave_rollback() {
    let (mut fleet, v2) = small_fleet(150, 404);
    // Every install crash-loops: the canary wave regresses on install
    // health alone (no accuracy data needed).
    let mut plan = FleetFaultPlan::quiet(9);
    plan.install_crash_rate = 1.0;
    let rollout = Rollout::new(v2, RolloutPolicy::default(), plan);
    let report = rollout.run(&mut fleet).expect("runs");
    assert_eq!(report.outcome, RolloutOutcome::RolledBack { wave: 0 });
    assert_safe(&fleet, &report);
    assert!(report.counters.crash_loops_detected > 0);
    assert_eq!(report.health.on_target, 0);
    assert!(report.counters.crashes > 0);
}

#[test]
fn compromised_majority_is_contained_not_rolled_back() {
    // Quarantine is a security outcome, not a health regression: even a
    // heavily compromised wave must not trip the health gate, and every
    // honest device still converges.
    let (mut fleet, v2) = small_fleet(120, 2025);
    let mut plan = FleetFaultPlan::quiet(13);
    plan.compromised_rate = 0.4;
    let rollout = Rollout::new(v2, RolloutPolicy::default(), plan);
    let report = rollout.run(&mut fleet).expect("runs");
    assert_eq!(report.outcome, RolloutOutcome::Completed);
    assert_safe(&fleet, &report);
    assert!(report.counters.quarantined > 20);
    assert_eq!(
        report.health.on_target + report.health.quarantined,
        120,
        "{:#?}",
        report.health
    );
}

/// The flight recorder's accounting is exact: every rollback,
/// quarantine and wave in the report is a journal event, every event
/// chains back to the rollout root, and the whole journal replays
/// bit-identically from the same seeds (timestamps are ticks).
#[test]
fn journal_accounts_for_every_rollback_and_quarantine_exactly() {
    let run = || {
        let (mut fleet, v2) = small_fleet(120, 99);
        let journal = Arc::new(EventJournal::new(1 << 14));
        fleet.attach_journal(Arc::clone(&journal));
        // Scale the rates and gate to the fleet size so the rollout
        // reliably exercises both rollback and quarantine (the same
        // calibration as the hostile convergence test).
        let mut plan = FleetFaultPlan::hostile(5);
        plan.compromised_rate = 0.05;
        let policy = RolloutPolicy {
            canary: 16,
            health_threshold: 0.8,
        };
        let rollout = Rollout::new(v2, policy, plan);
        let report = rollout.run(&mut fleet).expect("runs");
        assert_eq!(journal.dropped(), 0, "journal sized for the rollout");
        (fleet, report, journal.snapshot())
    };
    let (fleet, report, events) = run();
    let count = |k: EventKind| events.iter().filter(|e| e.kind == k).count() as u64;
    assert_eq!(count(EventKind::RolloutStarted), 1);
    assert_eq!(count(EventKind::WaveStarted), report.waves.len() as u64);
    assert_eq!(count(EventKind::HealthGate), report.waves.len() as u64);
    assert_eq!(
        count(EventKind::DeviceRolledBack),
        report.counters.device_rollbacks
    );
    assert_eq!(
        count(EventKind::DeviceQuarantined),
        report.counters.quarantined
    );
    assert_eq!(
        count(EventKind::WaveRolledBack),
        report.counters.wave_rollbacks
    );
    assert!(
        count(EventKind::DeviceRolledBack) > 0,
        "hostile plan rolls back"
    );
    assert!(
        count(EventKind::DeviceQuarantined) > 0,
        "hostile plan forges"
    );

    // "Why did device N roll back?" — one chain query reaches the wave
    // that scheduled it and the rollout that pushed the release.
    let rolled_back = fleet
        .devices()
        .iter()
        .find(|d| d.phase == vedliot_fleet::Phase::RolledBack)
        .expect("hostile plan rolled a device back");
    let journal = fleet.journal().expect("attached");
    let chain = journal.chain(CauseId::device(u64::from(rolled_back.id)));
    let kinds: Vec<EventKind> = chain.iter().map(|e| e.kind).collect();
    assert!(kinds.contains(&EventKind::DeviceRolledBack));
    assert!(kinds.contains(&EventKind::WaveStarted));
    assert!(kinds.contains(&EventKind::RolloutStarted), "{kinds:?}");

    // Bit-deterministic replay: same seeds, same journal.
    let (_, report_b, events_b) = run();
    assert_eq!(report, report_b);
    assert_eq!(events, events_b);
}

/// A failed gate chains wave-revert rollbacks through the gate event:
/// device rollback → health gate (failed) → wave → rollout root.
#[test]
fn wave_revert_rollbacks_cite_the_failed_gate() {
    let (mut fleet, v2) = small_fleet(150, 404);
    let journal = Arc::new(EventJournal::new(1 << 13));
    fleet.attach_journal(Arc::clone(&journal));
    let mut plan = FleetFaultPlan::quiet(9);
    plan.install_crash_rate = 1.0;
    let rollout = Rollout::new(v2, RolloutPolicy::default(), plan);
    let report = rollout.run(&mut fleet).expect("runs");
    assert_eq!(report.outcome, RolloutOutcome::RolledBack { wave: 0 });
    let events = journal.snapshot();
    let wave_rollback = events
        .iter()
        .find(|e| e.kind == EventKind::WaveRolledBack)
        .expect("wave rolled back");
    // The wave rollback cites the failed gate, which cites the wave.
    let chain = journal.chain(CauseId::event(wave_rollback.seq));
    let kinds: Vec<EventKind> = chain.iter().map(|e| e.kind).collect();
    assert!(kinds.contains(&EventKind::HealthGate));
    assert!(kinds.contains(&EventKind::WaveStarted));
    assert!(kinds.contains(&EventKind::RolloutStarted));
    // The failed gate's detail says so.
    let gate = events
        .iter()
        .find(|e| e.kind == EventKind::HealthGate)
        .expect("gate journalled");
    assert_eq!(gate.detail, 0, "gate failed");
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(6))]

    /// Whatever the fault mix, the fleet ends in a safe state: nobody
    /// stuck mid-update, no corrupted weights served, quarantined
    /// devices never installed to, and a rolled-back target running
    /// nowhere. (Outcome may be Completed *or* RolledBack — both are
    /// safe; the audit checks the matching invariants.)
    #[test]
    fn any_fault_plan_converges_to_a_safe_state(
        fleet_seed in 1u64..1_000_000,
        fault_seed in 1u64..1_000_000,
        crash in 0.0f64..0.006,
        transit in 0.0f64..0.06,
        weight in 0.0f64..0.08,
        install_crash in 0.0f64..0.05,
        compromised in 0.0f64..0.08,
        partition in 0.0f64..0.02,
    ) {
        let (mut fleet, v2) = small_fleet(64, fleet_seed);
        let plan = FleetFaultPlan {
            seed: fault_seed,
            crash_per_tick: crash,
            transit_flip_rate: transit,
            weight_flip_rate: weight,
            weight_flips: 4,
            install_crash_rate: install_crash,
            compromised_rate: compromised,
            partition_rate: partition,
            partition_span: 16,
            partition_ticks: 40,
        };
        let policy = RolloutPolicy { canary: 4, ..RolloutPolicy::default() };
        let rollout = Rollout::new(v2, policy, plan);
        let report = rollout.run(&mut fleet).expect("runs");
        let violations = fleet.audit(&report);
        prop_assert!(violations.is_empty(), "violations: {violations:#?}");
        prop_assert!(report.availability > 0.5);
    }
}

/// A seeded hostile rollout is pinned byte for byte: the report's JSON
/// and Prometheus exports, the journal's export, and every journal
/// event. The run crosses every recorded transition — resumed crashes,
/// chunk retries, both quarantine kinds, crash-loop and golden-check
/// rollbacks, three passed gates and a failed one that reverts the
/// fleet — so any drift in pacing, timing or event order shows here.
#[test]
fn seeded_hostile_rollout_matches_goldens() {
    let (mut fleet, v2) = small_fleet(200, 500);
    let journal = Arc::new(EventJournal::new(1 << 14));
    fleet.attach_journal(Arc::clone(&journal));
    let mut plan = FleetFaultPlan::hostile(9);
    plan.compromised_rate = 0.04;
    plan.weight_flip_rate = 0.06;
    plan.transit_flip_rate = 0.04;
    plan.crash_per_tick = 0.004;
    plan.install_crash_rate = 0.03;
    let report = Rollout::new(v2, RolloutPolicy::default(), plan)
        .run(&mut fleet)
        .expect("runs");
    assert_eq!(report.outcome, RolloutOutcome::RolledBack { wave: 3 });
    assert_safe(&fleet, &report);
    assert_eq!(journal.dropped(), 0, "journal sized for the rollout");

    let export = report.export();
    check_golden(
        "goldens/rollout_report.json",
        include_str!("goldens/rollout_report.json"),
        &export.to_json(),
    );
    check_golden(
        "goldens/rollout_report.prom",
        include_str!("goldens/rollout_report.prom"),
        &export.to_prometheus(),
    );
    check_golden(
        "goldens/rollout_journal.json",
        include_str!("goldens/rollout_journal.json"),
        &journal.export().to_json(),
    );
    let events: String = journal
        .snapshot()
        .iter()
        .map(|e| format!("{e}\n"))
        .collect();
    check_golden(
        "goldens/rollout_events.txt",
        include_str!("goldens/rollout_events.txt"),
        &events,
    );
}
