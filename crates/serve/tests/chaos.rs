// Test/bench/example target: panics are the failure report.
#![allow(clippy::unwrap_used, clippy::expect_used)]

//! The chaos-injection harness: seeded fault schedules driven through
//! the real server, asserting the fault-tolerance contract end to end.
//!
//! Every test here uses a fixed [`FaultPlan`] seed, so a failure is
//! replayable bit-for-bit. The contract under test:
//!
//! * injected panics are absorbed at the isolation boundary — the
//!   worker pool survives and the batch is retried;
//! * hard worker kills are absorbed by supervision — every crashed
//!   worker is respawned while the budget lasts;
//! * poisoned requests are bisected out of their batches — neighbours
//!   are served, only the poison fails, as [`ServeError::Quarantined`];
//! * golden-check divergence (startup weight bit flips) is detected and
//!   repaired from the uncorrupted copy;
//! * through all of it, `accounted_for()` holds: every submission gets
//!   exactly one reply and lands in exactly one metrics bucket.

use proptest::prelude::*;
use std::time::{Duration, Instant};
use vedliot_nnir::exec::{RunOptions, Runner};
use vedliot_nnir::{zoo, Graph, Shape, Tensor};
use vedliot_serve::resilience::silence_chaos_panics;
use vedliot_serve::{
    BatchPolicy, FaultPlan, GoldenPolicy, Health, ResilienceConfig, ServeConfig, ServeError,
    Server, SubmitRequest,
};

fn demo_graph() -> Graph {
    zoo::tiny_cnn("chaos-it", Shape::nchw(1, 1, 8, 8), &[4], 3).unwrap()
}

fn demo_input(seed: u64) -> Tensor {
    Tensor::random(Shape::nchw(1, 1, 8, 8), seed, 1.0)
}

/// The seeded 200-request chaos smoke (wired into ci.sh): soft panics,
/// hard worker kills and poisoned requests, all injected from one fixed
/// seed — availability must stay at or above 0.95 and nothing may leak.
#[test]
fn smoke_200_requests_under_seeded_chaos() {
    silence_chaos_panics();
    let requests: u64 = 200;
    let config = ServeConfig::builder()
        .queue_capacity(256)
        .workers(2)
        .batch(BatchPolicy {
            max_batch: 4,
            max_linger: Duration::from_micros(200),
        })
        .resilience(ResilienceConfig {
            respawn_budget: 32,
            ..ResilienceConfig::default()
        })
        .chaos(FaultPlan {
            seed: 0xC0FF_EE00,
            panic_per_batch: 0.20,
            kill_per_wakeup: 0.05,
            poison_every: 50,
            weight_bit_flips: 0,
        })
        .build()
        .unwrap();
    let server = Server::start(&demo_graph(), config).unwrap();
    let tickets: Vec<_> = (0..requests)
        .map(|i| {
            server
                .submit_request(SubmitRequest::new(vec![demo_input(i)]))
                .unwrap()
        })
        .collect();
    let mut ok = 0u64;
    let mut quarantined = 0u64;
    for t in tickets {
        match t.wait() {
            Ok(out) => {
                assert_eq!(out[0].shape(), &Shape::nf(1, 3));
                ok += 1;
            }
            Err(ServeError::Quarantined { .. }) => quarantined += 1,
            Err(other) => panic!("unexpected terminal error under chaos: {other}"),
        }
    }
    let m = server.shutdown();
    let availability = ok as f64 / requests as f64;
    assert!(
        availability >= 0.95,
        "availability {availability} under seeded chaos (served {ok}/{requests})"
    );
    assert!(m.accounted_for(), "a submission leaked: {m:?}");
    assert_eq!(m.submitted, requests);
    assert_eq!(m.served, ok);
    assert_eq!(m.failed, quarantined, "only poisoned requests may fail");
    assert_eq!(m.quarantined, quarantined);
    assert!(
        m.quarantined >= 1,
        "poison_every=50 over 200 requests quarantines"
    );
    assert!(m.panics_absorbed > 0, "soft panics were injected: {m:?}");
    assert!(m.retries > 0, "absorbed panics trigger retries: {m:?}");
    assert_eq!(
        m.respawned, m.worker_crashes,
        "every crashed worker is respawned within budget: {m:?}"
    );
}

/// A poisoned request that forms a batch alone skips bisection, yet it
/// is still the poison: with quarantine on, every deterministic failure
/// of a batch of one ends `Quarantined` (DESIGN.md §7), never
/// `Execution`.
#[test]
fn poisoned_singletons_are_quarantined() {
    let config = ServeConfig::builder()
        .batch(BatchPolicy::sequential())
        .chaos(FaultPlan {
            poison_every: 2,
            ..FaultPlan::quiet(7)
        })
        .build()
        .unwrap();
    let server = Server::start(&demo_graph(), config).unwrap();
    let tickets: Vec<_> = (0..6)
        .map(|i| {
            server
                .submit_request(SubmitRequest::new(vec![demo_input(i)]))
                .unwrap()
        })
        .collect();
    let quarantined = tickets
        .into_iter()
        .filter_map(|t| t.wait().err())
        .inspect(|err| assert!(matches!(err, ServeError::Quarantined { .. }), "{err}"))
        .count();
    assert_eq!(quarantined, 3, "seqs 2, 4 and 6 are poisoned");
    let m = server.shutdown();
    assert!(m.accounted_for());
    assert_eq!((m.failed, m.quarantined, m.served), (3, 3, 3));
}

/// Satellite: golden-check verdicts are wired into serve metrics, and
/// with `repair` the served bytes are the *clean* model's bytes even
/// though the deployed graphs took startup weight bit flips.
#[test]
fn golden_check_detects_and_repairs_bit_flipped_deployment() {
    let graph = demo_graph();
    let requests: u64 = 16;
    let config = ServeConfig::builder()
        .queue_capacity(32)
        .batch(BatchPolicy {
            max_batch: 4,
            max_linger: Duration::from_micros(200),
        })
        .golden(GoldenPolicy {
            period: 1,
            tolerance: 1e-4,
            repair: true,
        })
        .chaos(FaultPlan {
            weight_bit_flips: 40,
            ..FaultPlan::quiet(0xBAD_5EED)
        })
        .build()
        .unwrap();
    let server = Server::start(&graph, config).unwrap();
    let tickets: Vec<_> = (0..requests)
        .map(|i| {
            server
                .submit_request(SubmitRequest::new(vec![demo_input(i)]))
                .unwrap()
        })
        .collect();
    let clean = Runner::builder().build(&graph).unwrap();
    let mut clean = clean;
    for (i, t) in tickets.into_iter().enumerate() {
        let served = t.wait().unwrap();
        let solo = clean
            .execute(
                std::slice::from_ref(&demo_input(i as u64)),
                RunOptions::default(),
            )
            .unwrap()
            .into_outputs();
        assert_eq!(served, solo, "request {i} was not repaired to clean bytes");
    }
    let m = server.shutdown();
    assert!(m.accounted_for());
    assert_eq!(m.served, requests);
    assert!(
        m.golden_mismatches > 0,
        "40 weight bit flips must diverge at least one output: {m:?}"
    );
}

/// Without `repair` the mismatch counter still fires but the corrupted
/// bytes are served as-is — detection and repair are separable.
#[test]
fn golden_check_detect_only_serves_corrupted_bytes() {
    let graph = demo_graph();
    let config = ServeConfig::builder()
        .golden(GoldenPolicy {
            period: 1,
            tolerance: 1e-4,
            repair: false,
        })
        .chaos(FaultPlan {
            weight_bit_flips: 40,
            ..FaultPlan::quiet(0xBAD_5EED)
        })
        .build()
        .unwrap();
    let server = Server::start(&graph, config).unwrap();
    let served = server
        .submit_request(SubmitRequest::new(vec![demo_input(7)]))
        .unwrap()
        .wait()
        .unwrap();
    let solo = Runner::builder()
        .build(&graph)
        .unwrap()
        .execute(std::slice::from_ref(&demo_input(7)), RunOptions::default())
        .unwrap()
        .into_outputs();
    let m = server.shutdown();
    if m.golden_mismatches > 0 {
        assert_ne!(served, solo, "detect-only must not rewrite the reply");
    } else {
        assert_eq!(served, solo, "no divergence, no difference");
    }
    assert!(m.accounted_for());
}

/// A queue-full burst while degraded: depth-based degradation flips
/// health, normal-class admission tightens to the shed bound, and with
/// nothing lower-priority queued to displace the burst is shed.
#[test]
fn degraded_queue_depth_sheds_bursts() {
    let config = ServeConfig::builder()
        .queue_capacity(8)
        .batch(BatchPolicy {
            max_batch: 64,
            max_linger: Duration::from_secs(30),
        })
        .resilience(ResilienceConfig {
            degraded_queue_fraction: 0.5,
            shed_to: 0.5,
            ..ResilienceConfig::default()
        })
        .build()
        .unwrap();
    let server = Server::start(&demo_graph(), config).unwrap();
    assert_eq!(server.health(), Health::Serving);
    let tickets: Vec<_> = (0..4)
        .map(|i| {
            server
                .submit_request(SubmitRequest::new(vec![demo_input(i)]))
                .unwrap()
        })
        .collect();
    // Depth 4 of 8 crossed the 0.5 degradation fraction…
    assert_eq!(server.health(), Health::Degraded);
    // …so normal-class admission tightens to ceil(0.5 * 8) = 4 slots,
    // and with only normal work queued there is no lower class to
    // displace: the burst is shed.
    let err = server
        .submit_request(SubmitRequest::new(vec![demo_input(99)]))
        .unwrap_err();
    assert_eq!(err, ServeError::ShedLowPriority);
    let m = {
        let handle = std::thread::spawn(move || server.shutdown());
        for t in tickets {
            assert!(t.wait().is_ok());
        }
        handle.join().unwrap()
    };
    assert!(m.accounted_for());
    assert_eq!((m.served, m.rejected), (4, 1));
    assert_eq!(
        m.shed_by_priority,
        [0, 1, 0],
        "the shed burst was normal-class"
    );
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    /// Satellite: `Ticket::wait_timeout` orphan semantics under random
    /// fault/timeout schedules. A caller that gives up and drops its
    /// ticket must never panic a worker or corrupt the accounting
    /// partition — the orphaned request still lands in exactly one
    /// metrics bucket.
    #[test]
    fn orphaned_tickets_never_corrupt_accounting(
        chaos_seed in 0u64..1_000_000,
        panic_rate in 0.0f64..0.4,
        kill_rate in 0.0f64..0.08,
        poison_every in 0u64..20,
        n_requests in 4u64..24,
        timeout_us in proptest::collection::vec(0u64..3000, 24),
        deadline_us in proptest::collection::vec(0u64..5000, 24),
    ) {
        silence_chaos_panics();
        let config = ServeConfig::builder()
            .queue_capacity(32)
            .workers(2)
            .batch(BatchPolicy {
                max_batch: 4,
                max_linger: Duration::from_micros(100),
            })
            .resilience(ResilienceConfig {
                respawn_budget: 64,
                ..ResilienceConfig::default()
            })
            .chaos(FaultPlan {
                seed: chaos_seed,
                panic_per_batch: panic_rate,
                kill_per_wakeup: kill_rate,
                poison_every,
                weight_bit_flips: 0,
            })
            .build()
            .unwrap();
        let server = Server::start(&demo_graph(), config).unwrap();
        let now = Instant::now();
        let tickets: Vec<_> = (0..n_requests)
            .map(|i| {
                // Draws below 1000 mean "no deadline"; everything else
                // is a tight deadline — the deadline-storm case.
                let request = SubmitRequest::new(vec![demo_input(i)]);
                let request = match deadline_us[i as usize] {
                    us if us < 1000 => request,
                    us => request.deadline(now + Duration::from_micros(us)),
                };
                server.submit_request(request).unwrap()
            })
            .collect();
        // Impatient callers: some tickets get a tiny timeout and are
        // dropped (orphaned) when it expires; the server must absorb
        // the orphan silently.
        for (i, t) in tickets.into_iter().enumerate() {
            let _ = t.wait_timeout(Duration::from_micros(timeout_us[i]));
        }
        let m = server.shutdown();
        prop_assert!(m.accounted_for(), "accounting broke: {m:?}");
        prop_assert_eq!(m.submitted, n_requests);
        prop_assert_eq!(m.rejected, 0);
        prop_assert_eq!(
            m.respawned, m.worker_crashes,
            "budget 64 covers every crash: {:?}", m
        );
    }
}
