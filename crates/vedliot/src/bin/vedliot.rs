//! The `vedliot` command-line front door.
//!
//! ```text
//! vedliot lint [--analyze] # full static-analysis sweep over the zoo
//! vedliot obs             # observability quick-start: profile + trace + export
//! vedliot route           # multi-model gateway demo: load/unload + priorities
//! vedliot fleet [seed]    # staged OTA rollout to a simulated device fleet
//! vedliot top             # dashboard snapshot: health, SLO burn, journal tail
//! vedliot journal [seed]  # flight-recorder demo: chaos + fleet, chain replay
//! ```
//!
//! `lint` runs the complete analyzer ([`vedliot::nnir::analysis`]) over
//! every zoo network plus the optimized variants each toolchain pass
//! produces, prints the per-model reports and exits non-zero if any
//! model has Error-severity findings (Warning/Info findings are
//! reported but do not fail the run).
//!
//! `obs` demonstrates the observability layer end to end: a profiled
//! LeNet-5 run (per-op durations + achieved GFLOP/s, cross-referenced
//! against the Xavier NX roofline), a traced 50-request serve run with
//! its stage breakdown, and the serve metrics rendered through both the
//! JSON and Prometheus exporters.
//!
//! `route` demonstrates the multi-tenant gateway: two models hot-loaded
//! into one server, mixed-priority traffic routed to each by name
//! through [`vedliot::serve::SubmitRequest`], one tenant hot-unloaded
//! (drained, never dropped) while the other keeps serving, and the
//! per-model metrics rendered with `model`/`priority` labels.
//!
//! `fleet` demonstrates the OTA rollout engine: a trained model packed
//! into a hash-chained artifact and pushed to 200 simulated devices in
//! health-gated waves under a hostile fault plan, ending with the
//! device-by-device safety audit and the Prometheus-rendered fleet
//! counters. Exits non-zero if the rollout fails or the audit finds a
//! violation.
//!
//! `top` renders a `top`-style dashboard snapshot of a gateway in the
//! middle of a scripted incident: health, per-objective SLO burn rates,
//! the metrics ledger, and the flight-recorder tail — then lets the
//! incident clear and shows the recovered state, including the causal
//! chain that explains the burn-driven shed.
//!
//! `journal` demonstrates the flight recorder under fire on both
//! planes: a chaos-injected serve run (worker kills, absorbed panics,
//! a poisoned request) and a hostile fleet rollout, each journalled,
//! with a `chain` replay answering "why was this request quarantined"
//! and "why did this device roll back" from the journal alone.

// Bin entry point: panicking on a broken environment is the right
// failure mode here, unlike in library code.
#![allow(clippy::unwrap_used, clippy::expect_used)]

use vedliot::nnir::analysis::Severity;
use vedliot::toolchain::lint::{analyze_suite, lint_suite, render_analysis};

fn usage() -> ! {
    eprintln!("usage: vedliot <command>");
    eprintln!();
    eprintln!("commands:");
    eprintln!("  lint [--analyze]");
    eprintln!("          run the static verifier over the model zoo and its");
    eprintln!("          optimized variants, printing a diagnostic report;");
    eprintln!("          --analyze adds the dataflow report (liveness, arena");
    eprintln!("          memory plan, value ranges, quant-safety verdicts)");
    eprintln!("  obs     observability quick-start: per-op profile vs roofline,");
    eprintln!("          traced serve run, JSON + Prometheus export");
    eprintln!("  route   multi-model gateway demo: hot load/unload, priority");
    eprintln!("          classes, per-tenant labelled metrics");
    eprintln!("  fleet [seed]");
    eprintln!("          fleet OTA demo: staged rollout to 200 simulated devices");
    eprintln!("          under a hostile fault plan, with the post-rollout audit");
    eprintln!("  top     dashboard snapshot of a gateway mid-incident: health,");
    eprintln!("          SLO burn rates, metrics ledger, flight-recorder tail");
    eprintln!("  journal [seed]");
    eprintln!("          flight-recorder demo: chaos serve run + hostile fleet");
    eprintln!("          rollout, with causal chain replay from the journal");
    std::process::exit(2);
}

fn run_lint(analyze: bool) -> Result<i32, String> {
    // A transform-gate rejection surfaces here as a hard error: one of
    // the toolchain passes produced a graph the verifier refused.
    let summary = lint_suite().map_err(|err| format!("lint: suite failed to build: {err}"))?;
    print!("{}", summary.render());
    if analyze {
        let entries = analyze_suite()
            .map_err(|err| format!("lint: analysis suite failed to build: {err}"))?;
        print!("\n{}", render_analysis(&entries));
    }
    if !summary.is_clean(Severity::Error) {
        return Err("lint: error-severity findings present".into());
    }
    Ok(0)
}

fn run_obs() -> Result<i32, String> {
    use std::time::Duration;
    use vedliot::accel::catalog::catalog;
    use vedliot::accel::perf::PerfModel;
    use vedliot::nnir::exec::{RunOptions, Runner};
    use vedliot::nnir::{zoo, Shape, Tensor};
    use vedliot::obs::{Exportable, StageBreakdown};
    use vedliot::serve::{
        BatchPolicy, ModelConfig, ServeConfig, Server, SubmitRequest, TracePolicy,
    };

    // 1) Per-op profile of LeNet-5, compared to the roofline model.
    let model = zoo::lenet5(10).map_err(|err| format!("obs: lenet5 failed to build: {err}"))?;
    let input = Tensor::random(Shape::nchw(1, 1, 28, 28), 23, 1.0);
    let mut runner = Runner::builder()
        .build(&model)
        .map_err(|err| format!("obs: runner failed to build: {err}"))?;
    // Warm pass so the profile measures kernels, not first-touch cost.
    runner
        .execute(std::slice::from_ref(&input), RunOptions::default())
        .map_err(|err| format!("obs: warm-up run failed: {err}"))?;
    let profile = runner
        .execute(
            std::slice::from_ref(&input),
            RunOptions::new().profile(true),
        )
        .map_err(|err| format!("obs: profiled run failed: {err}"))?
        .into_profile()
        .expect("profile requested");
    println!("{profile}");
    if let Some(spec) = catalog().find("Xavier NX") {
        match PerfModel::new(spec.clone()).compare_profile(&model, &profile) {
            Ok(cmp) => println!("\n{cmp}"),
            Err(err) => eprintln!("obs: roofline comparison failed: {err}"),
        }
    }

    // 2) A traced 50-request serve run and its stage breakdown.
    let gesture = zoo::tiny_cnn("obs-demo", Shape::nchw(1, 1, 8, 8), &[4], 3).expect("builds");
    let config = ServeConfig::builder()
        .queue_capacity(64)
        .default_model(ModelConfig::default().batch(BatchPolicy {
            max_batch: 4,
            max_linger: Duration::from_micros(200),
        }))
        .trace(TracePolicy { capacity: 64 })
        .build()
        .expect("valid demo config");
    let server = Server::start(&gesture, config)
        .map_err(|err| format!("obs: server failed to start: {err}"))?;
    let tickets: Vec<_> = (0..50)
        .map(|i| {
            server
                .submit_request(SubmitRequest::new(vec![Tensor::random(
                    Shape::nchw(1, 1, 8, 8),
                    i,
                    1.0,
                )]))
                .expect("queue sized for the demo")
        })
        .collect();
    for t in tickets {
        t.wait()
            .map_err(|err| format!("obs: request failed: {err}"))?;
    }
    let spans = server.trace_spans();
    let metrics = server.shutdown();
    println!("\n{}", StageBreakdown::of(&spans));

    // 3) The same serve metrics through both exporters.
    let export = metrics.export();
    println!("\n--- JSON ---\n{}", export.to_json());
    println!("\n--- Prometheus ---\n{}", export.to_prometheus());
    Ok(0)
}

fn run_route() -> Result<i32, String> {
    use std::time::Duration;
    use vedliot::nnir::{zoo, Shape, Tensor};
    use vedliot::serve::{
        BatchPolicy, ModelConfig, Priority, ServeConfig, Server, SubmitRequest, DEFAULT_MODEL,
    };

    // Two of the VEDLIoT use-case networks share one gateway: a gesture
    // detector as the default model and a larger classifier hot-loaded
    // next to it.
    let gesture = zoo::tiny_cnn("gesture", Shape::nchw(1, 1, 8, 8), &[4], 3).expect("builds");
    let classifier = zoo::tiny_cnn("classifier", Shape::nchw(1, 1, 8, 8), &[8], 5).expect("builds");
    let config = ServeConfig::builder()
        .queue_capacity(64)
        .default_model(ModelConfig::default().batch(BatchPolicy {
            max_batch: 4,
            max_linger: Duration::from_micros(200),
        }))
        .build()
        .expect("valid demo config");
    let server = Server::start(&gesture, config)
        .map_err(|err| format!("route: server failed to start: {err}"))?;
    server
        .load("classifier", &classifier, ModelConfig::default().weight(2))
        .map_err(|err| format!("route: classifier failed to load: {err}"))?;
    println!("loaded models: {:?}", server.models());

    // Mixed-priority traffic, routed by model name.
    let input = |seed: u64| Tensor::random(Shape::nchw(1, 1, 8, 8), seed, 1.0);
    let tickets: Vec<_> = (0..30u64)
        .map(|i| {
            let (model, priority) = match i % 3 {
                0 => (DEFAULT_MODEL, Priority::High),
                1 => ("classifier", Priority::Normal),
                _ => ("classifier", Priority::Batch),
            };
            server
                .submit_request(
                    SubmitRequest::new(vec![input(i)])
                        .model(model)
                        .priority(priority),
                )
                .expect("queue sized for the demo")
        })
        .collect();
    for t in tickets {
        t.wait()
            .map_err(|err| format!("route: request failed: {err}"))?;
    }

    // Hot-unload the classifier: queued work drains, the snapshot is
    // the tenant's final ledger, and the gesture model keeps serving.
    let retired = server
        .unload("classifier")
        .map_err(|err| format!("route: unload failed: {err}"))?;
    println!(
        "unloaded classifier: served {} (by priority {:?}), models now {:?}",
        retired.served,
        retired.served_by_priority,
        server.models()
    );
    server
        .submit_request(SubmitRequest::new(vec![input(99)]).priority(Priority::High))
        .and_then(vedliot::serve::Ticket::wait)
        .map_err(|err| format!("route: default model must outlive its neighbour: {err}"))?;

    // Per-tenant metrics with model/priority labels, then the merged
    // gateway ledger (retired tenants included).
    let gesture_metrics = server
        .model_metrics(DEFAULT_MODEL)
        .expect("default model is loaded");
    println!("\n--- gesture (Prometheus) ---");
    print!(
        "{}",
        gesture_metrics.labelled_export("gesture").to_prometheus()
    );
    let merged = server.shutdown();
    println!(
        "\ngateway total: {} submitted, {} served; accounted: {}",
        merged.submitted,
        merged.served,
        merged.accounted_for()
    );
    Ok(0)
}

fn run_fleet(seed: u64) -> Result<i32, String> {
    use vedliot::fleet::{
        Fleet, FleetConfig, FleetFaultPlan, Rollout, RolloutOutcome, RolloutPolicy,
    };
    use vedliot::nnir::dataset::gaussian_prototypes;
    use vedliot::nnir::train::{mlp, train_mlp, TrainConfig};
    use vedliot::nnir::{Shape, Tensor};
    use vedliot::obs::Exportable;

    const DEVICES: usize = 200;
    let eval = gaussian_prototypes(&Shape::nf(1, 12), 3, 30, 3.0, 5);
    let mut v1 = mlp("demo-model", 12, &[10], 3)
        .map_err(|err| format!("fleet: model failed to build: {err}"))?;
    train_mlp(&mut v1, &eval, &TrainConfig::default())
        .map_err(|err| format!("fleet: training failed: {err}"))?;
    let v2 = v1.clone();
    let probe = Tensor::random(Shape::nf(1, 12), 99, 1.0);
    let mut fleet = Fleet::new(
        FleetConfig {
            devices: DEVICES,
            seed,
            trace_len: 128,
        },
        ("v1", v1),
        probe,
        Some(&eval),
    )
    .map_err(|err| format!("fleet: fleet failed to build: {err}"))?;
    let target = fleet
        .register_version("v2", v2, Some(&eval))
        .map_err(|err| format!("fleet: v2 failed to register: {err}"))?;

    let mut plan = FleetFaultPlan::hostile(seed.rotate_left(13));
    plan.crash_per_tick = 0.01;
    println!(
        "rolling v2 out to {DEVICES} devices (seed {seed}): canary + health-gated \
         waves, hostile fault plan\n"
    );
    let report = Rollout::new(target, RolloutPolicy::default(), plan)
        .run(&mut fleet)
        .map_err(|err| format!("fleet: rollout failed: {err}"))?;
    println!("wave  size  on_target  rolled_back  quarantined  gate");
    for w in &report.waves {
        println!(
            "{:<5} {:<5} {:<10} {:<12} {:<12} {}",
            w.index,
            w.size,
            w.health.on_target,
            w.health.rolled_back,
            w.health.quarantined,
            if w.gate_passed { "pass" } else { "FAIL" },
        );
    }
    let c = report.counters;
    println!(
        "\noutcome: {:?} after {} ticks; availability {:.4}",
        report.outcome, report.ticks, report.availability
    );
    println!(
        "defenses: {} transit flips caught by chunk hashes, {} corrupted installs \
         caught by golden checks, {} crash loops detected, {} attestations quarantined, \
         {} crashes / {} resumed downloads",
        c.artifact_flips_caught,
        c.weight_flips_caught,
        c.crash_loops_detected,
        c.quarantined,
        c.crashes,
        c.resumed_downloads,
    );
    println!("\n{}", report.export().to_prometheus());

    let violations = fleet.audit(&report);
    if !violations.is_empty() {
        let list: String = violations.iter().map(|v| format!("\n  - {v}")).collect();
        return Err(format!("fleet: safety violations:{list}"));
    }
    println!("fleet audit: clean (no device serves unverified or corrupted weights)");
    Ok(i32::from(report.outcome != RolloutOutcome::Completed))
}

/// Drives a gateway through a scripted availability incident and
/// renders the dashboard at its two interesting moments: mid-burn
/// (degraded, shedding) and after recovery.
fn run_top() -> Result<i32, String> {
    use std::time::{Duration, Instant};
    use vedliot::nnir::{zoo, Shape, Tensor};
    use vedliot::serve::{
        BatchPolicy, BurnWindows, CauseId, EventKind, JournalPolicy, ModelConfig, Priority,
        ServeConfig, Server, SloPolicy, SubmitRequest,
    };

    let model = zoo::tiny_cnn("top-demo", Shape::nchw(1, 1, 8, 8), &[4], 3).expect("builds");
    let input = |seed: u64| Tensor::random(Shape::nchw(1, 1, 8, 8), seed, 1.0);
    let config = ServeConfig::builder()
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
        .expect("valid demo config");
    let server = Server::start(&model, config)
        .map_err(|err| format!("top: server failed to start: {err}"))?;

    let render = |title: &str| {
        println!("── vedliot top ── {title}");
        println!(
            "health: {:?}   models: {:?}",
            server.health(),
            server.models()
        );
        println!("\nobjective      short-burn  long-burn  state");
        for s in server.slo_states() {
            println!(
                "{:<14} {:>9.2}x {:>9.2}x  {}",
                s.name,
                s.burn.short,
                s.burn.long,
                if s.firing { "FIRING" } else { "ok" }
            );
        }
        let m = server.metrics();
        println!(
            "\nrequests: {} submitted, {} served, {} rejected, {} timed out, {} failed",
            m.submitted, m.served, m.rejected, m.timed_out, m.failed
        );
        if let Some(journal) = server.journal() {
            println!(
                "\nflight recorder: {} recorded, {} dropped (capacity {})",
                journal.recorded(),
                journal.dropped(),
                journal.capacity()
            );
            let events = journal.snapshot();
            let tail = events.len().saturating_sub(8);
            for e in &events[tail..] {
                println!("  {e}");
            }
        }
        println!();
    };

    // Healthy baseline, then a burst of deadline-expired failures burns
    // both windows past the 2x threshold.
    for i in 0..40u64 {
        server
            .submit_request(SubmitRequest::new(vec![input(i)]))
            .and_then(vedliot::serve::Ticket::wait)
            .map_err(|err| format!("top: healthy request failed: {err}"))?;
    }
    let past = Instant::now() - Duration::from_millis(1);
    for i in 0..20u64 {
        let ticket = server
            .submit_request(SubmitRequest::new(vec![input(100 + i)]).deadline(past))
            .expect("queue sized for the demo");
        let _ = ticket.wait(); // deterministic DeadlineExceeded
    }
    let fired = server.evaluate_slo();
    // A batch-priority probe while degraded: shed at the door, and the
    // journal knows why.
    let probe =
        server.submit_request(SubmitRequest::new(vec![input(999)]).priority(Priority::Batch));
    render("mid-incident");
    println!(
        "burn alert fired: {:?}; batch probe while degraded: {:?}",
        fired.iter().map(|t| t.name.as_str()).collect::<Vec<_>>(),
        probe.err()
    );

    // Recovery traffic clears the alert.
    for i in 0..120u64 {
        server
            .submit_request(SubmitRequest::new(vec![input(200 + i)]))
            .and_then(vedliot::serve::Ticket::wait)
            .map_err(|err| format!("top: recovery request failed: {err}"))?;
    }
    let cleared = server.evaluate_slo();
    render("recovered");
    println!(
        "alert cleared: {:?}",
        cleared.iter().map(|t| t.name.as_str()).collect::<Vec<_>>()
    );

    // The causal chain of the shed, straight from the journal.
    let shed = server
        .journal_events()
        .into_iter()
        .find(|e| e.kind == EventKind::RequestShed);
    if let Some(shed) = shed {
        println!("\nwhy was the probe shed? chain from event #{}:", shed.seq);
        for e in server.journal_chain(CauseId::event(shed.seq)) {
            println!("  {e}");
        }
    }
    server.shutdown();
    Ok(0)
}

/// Flight-recorder demo on both planes: a chaos serve run and a
/// hostile fleet rollout, each explained post-hoc from its journal.
fn run_journal(seed: u64) -> Result<i32, String> {
    use std::sync::Arc;
    use std::time::Duration;
    use vedliot::fleet::{Fleet, FleetConfig, FleetFaultPlan, Rollout, RolloutPolicy};
    use vedliot::nnir::dataset::gaussian_prototypes;
    use vedliot::nnir::train::{mlp, train_mlp, TrainConfig};
    use vedliot::nnir::{zoo, Shape, Tensor};
    use vedliot::obs::{CauseId, EventJournal, EventKind};
    use vedliot::serve::{
        BatchPolicy, FaultPlan, JournalPolicy, ModelConfig, ResilienceConfig, ServeConfig, Server,
        SubmitRequest,
    };

    let count = |events: &[vedliot::obs::Event], kind: EventKind| {
        events.iter().filter(|e| e.kind == kind).count()
    };

    vedliot::serve::resilience::silence_chaos_panics();

    // ── Serve plane: 200 requests under seeded chaos, journalled. ──
    println!("── serve plane: 200 requests under seeded chaos (seed {seed:#x}) ──");
    let model = zoo::tiny_cnn("journal-demo", Shape::nchw(1, 1, 8, 8), &[4], 3).expect("builds");
    let config = ServeConfig::builder()
        .queue_capacity(256)
        .default_model(
            ModelConfig::default()
                .workers(2)
                .batch(BatchPolicy {
                    max_batch: 4,
                    max_linger: Duration::from_micros(200),
                })
                .chaos(FaultPlan {
                    seed,
                    panic_per_batch: 0.15,
                    kill_per_wakeup: 0.05,
                    poison_every: 50,
                    weight_bit_flips: 0,
                }),
        )
        .resilience(ResilienceConfig {
            respawn_budget: 32,
            ..ResilienceConfig::default()
        })
        .journal(JournalPolicy { capacity: 4096 })
        .build()
        .expect("valid demo config");
    let server = Server::start(&model, config)
        .map_err(|err| format!("journal: server failed to start: {err}"))?;
    let tickets: Vec<_> = (0..200u64)
        .map(|i| {
            server
                .submit_request(SubmitRequest::new(vec![Tensor::random(
                    Shape::nchw(1, 1, 8, 8),
                    i,
                    1.0,
                )]))
                .expect("queue sized for the demo")
        })
        .collect();
    let mut outcomes = [0usize; 2];
    for t in tickets {
        outcomes[usize::from(t.wait().is_err())] += 1;
    }
    let events = server.journal_events();
    println!(
        "outcomes: {} ok, {} failed; journal holds {} events",
        outcomes[0],
        outcomes[1],
        events.len()
    );
    for kind in [
        EventKind::RequestAdmitted,
        EventKind::RequestRetried,
        EventKind::RequestQuarantined,
        EventKind::WorkerCrashed,
        EventKind::WorkerRespawned,
    ] {
        println!("  {:<24} {}", format!("{kind}"), count(&events, kind));
    }
    // Replay the quarantine story for the first poisoned request.
    if let Some(q) = events
        .iter()
        .find(|e| e.kind == EventKind::RequestQuarantined)
    {
        let req = q.subject;
        println!("\nwhy was {req} quarantined? chain:");
        for e in server.journal_chain(req) {
            println!("  {e}");
        }
    }
    let metrics = server.shutdown();
    if !metrics.accounted_for() {
        return Err("journal: serve ledger failed to balance".into());
    }

    // ── Fleet plane: hostile rollout to 120 devices, journalled. ──
    println!("\n── fleet plane: hostile rollout to 120 devices ──");
    let eval = gaussian_prototypes(&Shape::nf(1, 12), 3, 30, 3.0, 5);
    let mut v1 = mlp("journal-model", 12, &[10], 3).expect("builds");
    train_mlp(&mut v1, &eval, &TrainConfig::default())
        .map_err(|err| format!("journal: training failed: {err}"))?;
    let v2 = v1.clone();
    let probe = Tensor::random(Shape::nf(1, 12), 99, 1.0);
    let mut fleet = Fleet::new(
        FleetConfig {
            devices: 120,
            seed,
            trace_len: 128,
        },
        ("v1", v1),
        probe,
        Some(&eval),
    )
    .map_err(|err| format!("journal: fleet failed to build: {err}"))?;
    let target = fleet
        .register_version("v2", v2, Some(&eval))
        .map_err(|err| format!("journal: v2 failed to register: {err}"))?;
    fleet.attach_journal(Arc::new(EventJournal::new(1 << 14)));
    let policy = RolloutPolicy {
        canary: 16,
        health_threshold: 0.8,
    };
    let report = Rollout::new(
        target,
        policy,
        FleetFaultPlan::hostile(seed.rotate_left(13)),
    )
    .run(&mut fleet)
    .map_err(|err| format!("journal: rollout failed: {err}"))?;
    let journal = fleet.journal().expect("attached above");
    let events = journal.snapshot();
    println!(
        "outcome: {:?} after {} ticks; journal holds {} events ({} dropped)",
        report.outcome,
        report.ticks,
        events.len(),
        journal.dropped()
    );
    for kind in [
        EventKind::RolloutStarted,
        EventKind::WaveStarted,
        EventKind::HealthGate,
        EventKind::DeviceRolledBack,
        EventKind::DeviceQuarantined,
        EventKind::WaveRolledBack,
    ] {
        println!("  {:<24} {}", format!("{kind}"), count(&events, kind));
    }
    // Replay the rollback story for the first device that flipped back.
    if let Some(rb) = events
        .iter()
        .find(|e| e.kind == EventKind::DeviceRolledBack)
    {
        let device = rb.subject;
        println!("\nwhy did {device} roll back? chain:");
        for e in journal.chain(CauseId::event(rb.seq)) {
            println!("  {e}");
        }
    }
    Ok(0)
}

fn main() {
    let mut args = std::env::args().skip(1);
    let Some(command) = args.next() else { usage() };
    let result = match command.as_str() {
        "lint" => {
            let analyze = match args.next().as_deref() {
                Some("--analyze") => true,
                Some(_) => usage(),
                None => false,
            };
            run_lint(analyze)
        }
        "obs" => run_obs(),
        "route" => run_route(),
        "fleet" => {
            let seed = args
                .next()
                .and_then(|s| s.parse().ok())
                .unwrap_or(0xF1EE7u64);
            run_fleet(seed)
        }
        "top" => run_top(),
        "journal" => {
            let seed = args
                .next()
                .and_then(|s| s.parse().ok())
                .unwrap_or(0x10A6_00D5u64);
            run_journal(seed)
        }
        _ => usage(),
    };
    // Every error exit prints its message and exits 1.
    std::process::exit(result.unwrap_or_else(|err| {
        eprintln!("{err}");
        1
    }));
}
