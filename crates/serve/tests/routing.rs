// Test/bench/example target: panics are the failure report.
#![allow(clippy::unwrap_used, clippy::expect_used)]

//! Multi-tenant routing integration: a two-model zoo behind one
//! gateway, exercising hot load/unload with drain, per-model quotas,
//! priority-class shedding, per-model metrics/labels, and the key
//! isolation property — one tenant's poisoned chaos traffic cannot
//! degrade its neighbour's pool.

use std::time::Duration;
use vedliot_nnir::exec::{RunOptions, Runner};
use vedliot_nnir::{zoo, Graph, Shape, Tensor};
use vedliot_serve::resilience::silence_chaos_panics;
use vedliot_serve::{
    BatchPolicy, FaultPlan, Health, ModelConfig, Priority, ServeConfig, ServeError, Server,
    SubmitRequest, DEFAULT_MODEL,
};

fn cnn_graph(name: &str) -> Graph {
    zoo::tiny_cnn(name, Shape::nchw(1, 1, 8, 8), &[4], 3).unwrap()
}

fn cnn_input(seed: u64) -> Tensor {
    Tensor::random(Shape::nchw(1, 1, 8, 8), seed, 1.0)
}

fn lenet_input(seed: u64) -> Tensor {
    Tensor::random(Shape::nchw(1, 1, 28, 28), seed, 1.0)
}

fn fast_batching() -> BatchPolicy {
    BatchPolicy {
        max_batch: 4,
        max_linger: Duration::from_micros(200),
    }
}

/// Requests routed by model key land on the right graph (the two models
/// have different class counts, so the output shape proves the route),
/// and each model's replies are bit-identical to a direct solo Runner
/// execution of that model — multi-tenancy does not perturb bytes.
#[test]
fn routed_outputs_are_bit_identical_to_solo_runs() {
    let cnn = cnn_graph("route-cnn");
    let lenet = zoo::lenet5(10).unwrap();
    let config = ServeConfig::builder()
        .queue_capacity(64)
        .default_model(ModelConfig::default().batch(fast_batching()))
        .build()
        .unwrap();
    let server = Server::start(&cnn, config).unwrap();
    server
        .load("lenet5", &lenet, ModelConfig::default())
        .unwrap();
    assert_eq!(
        server.models(),
        vec![DEFAULT_MODEL.to_string(), "lenet5".to_string()]
    );

    let cnn_tickets: Vec<_> = (0..8)
        .map(|i| {
            server
                .submit_request(SubmitRequest::new(vec![cnn_input(i)]))
                .unwrap()
        })
        .collect();
    let lenet_tickets: Vec<_> = (0..8)
        .map(|i| {
            server
                .submit_request(SubmitRequest::new(vec![lenet_input(i)]).model("lenet5"))
                .unwrap()
        })
        .collect();

    let mut cnn_solo = Runner::builder().build(&cnn).unwrap();
    for (i, t) in cnn_tickets.into_iter().enumerate() {
        let served = t.wait().unwrap();
        assert_eq!(served[0].shape(), &Shape::nf(1, 3));
        let solo = cnn_solo
            .execute(
                std::slice::from_ref(&cnn_input(i as u64)),
                RunOptions::default(),
            )
            .unwrap()
            .into_outputs();
        assert_eq!(served, solo, "cnn request {i} diverged from solo run");
    }
    let mut lenet_solo = Runner::builder().build(&lenet).unwrap();
    for (i, t) in lenet_tickets.into_iter().enumerate() {
        let served = t.wait().unwrap();
        assert_eq!(served[0].shape(), &Shape::nf(1, 10));
        let solo = lenet_solo
            .execute(
                std::slice::from_ref(&lenet_input(i as u64)),
                RunOptions::default(),
            )
            .unwrap()
            .into_outputs();
        assert_eq!(served, solo, "lenet request {i} diverged from solo run");
    }

    let cnn_m = server.model_metrics(DEFAULT_MODEL).unwrap();
    let lenet_m = server.model_metrics("lenet5").unwrap();
    assert_eq!(cnn_m.served, 8);
    assert_eq!(lenet_m.served, 8);
    let m = server.shutdown();
    assert_eq!(m.served, 16);
    assert!(m.accounted_for());
}

/// Hot unload drains in-flight work: tickets issued before the unload
/// are still answered, the retired model's snapshot is returned, the
/// gateway aggregate keeps the retired counters, and later submissions
/// to the gone key are a typed refusal.
#[test]
fn unload_drains_and_retires_the_tenant() {
    let config = ServeConfig::builder()
        .queue_capacity(64)
        .default_model(ModelConfig::default().batch(fast_batching()))
        .build()
        .unwrap();
    let server = Server::start(&cnn_graph("stay"), config).unwrap();
    server
        .load("doomed", &cnn_graph("doomed"), ModelConfig::default())
        .unwrap();
    let tickets: Vec<_> = (0..6)
        .map(|i| {
            server
                .submit_request(SubmitRequest::new(vec![cnn_input(i)]).model("doomed"))
                .unwrap()
        })
        .collect();
    let retired = server.unload("doomed").unwrap();
    assert_eq!(retired.served, 6, "unload drained every queued request");
    assert!(retired.accounted_for());
    for t in tickets {
        assert!(t.wait().is_ok(), "in-flight ticket answered across unload");
    }
    assert_eq!(
        server
            .submit_request(SubmitRequest::new(vec![cnn_input(9)]).model("doomed"))
            .unwrap_err(),
        ServeError::UnknownModel {
            model: "doomed".into()
        }
    );
    assert_eq!(
        server.unload("doomed").unwrap_err(),
        ServeError::UnknownModel {
            model: "doomed".into()
        }
    );
    let m = server.shutdown();
    assert_eq!(m.served, 6, "retired counters stay in the aggregate");
    assert!(m.accounted_for());
}

/// Weighted quotas bound tenant queue share: with a holding batcher the
/// heavy tenant gets its weighted slots and the light tenant cannot
/// queue past its own share even though gateway capacity remains.
#[test]
fn quotas_bound_tenant_queue_share() {
    let holding = BatchPolicy {
        max_batch: 64,
        max_linger: Duration::from_secs(30),
    };
    let config = ServeConfig::builder()
        .queue_capacity(8)
        .default_model(ModelConfig::default().batch(holding))
        .build()
        .unwrap();
    let server = Server::start(&cnn_graph("heavy"), config).unwrap();
    // weight 1 (default) vs weight 3 over capacity 8: light quota = 2.
    server
        .load(
            "light",
            &cnn_graph("light"),
            ModelConfig::default().weight(3).quota(2).batch(holding),
        )
        .unwrap();
    let t1 = server
        .submit_request(SubmitRequest::new(vec![cnn_input(1)]).model("light"))
        .unwrap();
    let t2 = server
        .submit_request(SubmitRequest::new(vec![cnn_input(2)]).model("light"))
        .unwrap();
    // Same class queued, quota exhausted: typed per-tenant refusal,
    // not gateway backpressure (the gateway still has 6 free slots).
    assert_eq!(
        server
            .submit_request(SubmitRequest::new(vec![cnn_input(3)]).model("light"))
            .unwrap_err(),
        ServeError::QuotaExceeded { quota: 2 }
    );
    // The default tenant is untouched by the light tenant's pressure.
    let t3 = server
        .submit_request(SubmitRequest::new(vec![cnn_input(4)]))
        .unwrap();
    let m = {
        let handle = std::thread::spawn(move || server.shutdown());
        for t in [t1, t2, t3] {
            assert!(t.wait().is_ok());
        }
        handle.join().unwrap()
    };
    assert!(m.accounted_for());
    assert_eq!((m.served, m.rejected), (3, 1));
}

/// Priority classes at one tenant's full quota: a High submission
/// displaces the youngest Batch request rather than being refused.
#[test]
fn high_priority_displaces_batch_work_at_quota() {
    let holding = BatchPolicy {
        max_batch: 64,
        max_linger: Duration::from_secs(30),
    };
    let config = ServeConfig::builder()
        .queue_capacity(8)
        .default_model(ModelConfig::default().batch(holding))
        .build()
        .unwrap();
    let server = Server::start(&cnn_graph("prio"), config).unwrap();
    server
        .load(
            "tenant",
            &cnn_graph("tenant"),
            ModelConfig::default().quota(2).batch(holding),
        )
        .unwrap();
    let b1 = server
        .submit_request(
            SubmitRequest::new(vec![cnn_input(1)])
                .model("tenant")
                .priority(Priority::Batch),
        )
        .unwrap();
    let b2 = server
        .submit_request(
            SubmitRequest::new(vec![cnn_input(2)])
                .model("tenant")
                .priority(Priority::Batch),
        )
        .unwrap();
    let high = server
        .submit_request(
            SubmitRequest::new(vec![cnn_input(3)])
                .model("tenant")
                .priority(Priority::High),
        )
        .unwrap();
    // The youngest Batch request was evicted with the typed shed error.
    assert_eq!(b2.wait(), Err(ServeError::ShedLowPriority));
    let m = {
        let handle = std::thread::spawn(move || server.shutdown());
        assert!(b1.wait().is_ok(), "oldest batch request survives");
        assert!(high.wait().is_ok(), "high-priority request is served");
        handle.join().unwrap()
    };
    assert!(m.accounted_for());
    assert_eq!(m.shed_by_priority, [0, 0, 1]);
    assert_eq!(m.served_by_priority, [1, 0, 1]);
}

/// The isolation property under seeded chaos: a tenant whose traffic is
/// poisoned and panicking cannot degrade its neighbour — the quiet
/// tenant's pool reports no faults, serves everything, and stays
/// `Serving` even while the noisy pool degrades.
#[test]
fn noisy_tenant_cannot_degrade_its_neighbour() {
    silence_chaos_panics();
    let config = ServeConfig::builder()
        .queue_capacity(256)
        .default_model(ModelConfig::default().batch(fast_batching()))
        .build()
        .unwrap();
    let server = Server::start(&cnn_graph("quiet"), config).unwrap();
    server
        .load(
            "noisy",
            &cnn_graph("noisy"),
            ModelConfig::default()
                .batch(fast_batching())
                .chaos(FaultPlan {
                    seed: 0xD15EA5E,
                    panic_per_batch: 0.3,
                    kill_per_wakeup: 0.0,
                    poison_every: 5,
                    weight_bit_flips: 0,
                }),
        )
        .unwrap();
    let noisy_tickets: Vec<_> = (0..40)
        .map(|i| {
            server
                .submit_request(SubmitRequest::new(vec![cnn_input(i)]).model("noisy"))
                .unwrap()
        })
        .collect();
    let quiet_tickets: Vec<_> = (0..40)
        .map(|i| {
            server
                .submit_request(SubmitRequest::new(vec![cnn_input(100 + i)]))
                .unwrap()
        })
        .collect();
    for t in quiet_tickets {
        assert!(t.wait().is_ok(), "quiet tenant must serve everything");
    }
    for t in noisy_tickets {
        match t.wait() {
            // The noisy tenant may lose requests to quarantine or an
            // exhausted retry budget — its availability is not the
            // property under test here, its neighbour's isolation is.
            Ok(_) | Err(ServeError::Quarantined { .. }) | Err(ServeError::WorkerCrashed { .. }) => {
            }
            Err(other) => panic!("unexpected noisy-tenant error: {other}"),
        }
    }
    let quiet = server.model_metrics(DEFAULT_MODEL).unwrap();
    assert_eq!(quiet.served, 40);
    assert_eq!(
        (quiet.panics_absorbed, quiet.quarantined, quiet.retries),
        (0, 0, 0),
        "the neighbour's chaos leaked into the quiet pool: {quiet:?}"
    );
    let noisy = server.model_metrics("noisy").unwrap();
    assert!(
        noisy.quarantined > 0,
        "poison_every=5 over 40 requests quarantines: {noisy:?}"
    );
    assert_eq!(server.model_health(DEFAULT_MODEL).unwrap(), Health::Serving);
    let m = server.shutdown();
    assert!(m.accounted_for());
}
