// Test/bench/example target: panics are the failure report.
#![allow(clippy::unwrap_used, clippy::expect_used)]

//! Integration tests for the serving contract: backpressure, deadline
//! purge, drain-on-shutdown, the 100-request smoke test, and the
//! property that dynamic batching is bit-invisible to callers.

use proptest::prelude::*;
use std::time::{Duration, Instant};
use vedliot_nnir::exec::{RunOptions, Runner};
use vedliot_nnir::{zoo, Graph, Shape, Tensor};
use vedliot_serve::{BatchPolicy, ModelConfig, ServeConfig, ServeError, Server, SubmitRequest};

fn demo_graph() -> Graph {
    zoo::tiny_cnn("serve-it", Shape::nchw(1, 1, 8, 8), &[4], 3).unwrap()
}

fn demo_input(seed: u64) -> Tensor {
    Tensor::random(Shape::nchw(1, 1, 8, 8), seed, 1.0)
}

/// A policy that holds requests in the queue: the batch never fills and
/// the linger window is far longer than any test body, so the queue
/// state is fully deterministic until shutdown forces the drain.
fn holding_policy() -> BatchPolicy {
    BatchPolicy {
        max_batch: 64,
        max_linger: Duration::from_secs(30),
    }
}

#[test]
fn queue_full_rejects_with_capacity() {
    let graph = demo_graph();
    let config = ServeConfig::builder()
        .queue_capacity(4)
        .default_model(ModelConfig::default().workers(1).batch(holding_policy()))
        .build()
        .unwrap();
    let server = Server::start(&graph, config).unwrap();
    let tickets: Vec<_> = (0..4)
        .map(|i| {
            server
                .submit_request(SubmitRequest::new(vec![demo_input(i)]))
                .unwrap()
        })
        .collect();
    // Fifth submission hits the bound — typed backpressure, not loss.
    let err = server
        .submit_request(SubmitRequest::new(vec![demo_input(99)]))
        .unwrap_err();
    assert_eq!(err, ServeError::Rejected { capacity: 4 });
    // Shutdown drains the four queued requests; all are served.
    let m = {
        let results: Vec<_> = {
            let s = server;
            let handle = std::thread::spawn(move || s.shutdown());
            let results = tickets
                .into_iter()
                .map(vedliot_serve::Ticket::wait)
                .collect();
            let m = handle.join().unwrap();
            assert!(m.accounted_for());
            assert_eq!(m.rejected, 1);
            results
        };
        assert!(results.iter().all(Result::is_ok));
        results.len()
    };
    assert_eq!(m, 4);
}

#[test]
fn expired_deadline_is_purged_with_typed_reply() {
    let graph = demo_graph();
    let config = ServeConfig::builder()
        .default_model(ModelConfig::default().batch(holding_policy()))
        .build()
        .unwrap();
    let server = Server::start(&graph, config).unwrap();
    // Already expired at submit time: the worker must purge it before
    // execution and answer with DeadlineExceeded — never drop it.
    let past = Instant::now() - Duration::from_millis(5);
    let late = server
        .submit_request(SubmitRequest::new(vec![demo_input(1)]).deadline(past))
        .unwrap();
    assert_eq!(late.wait(), Err(ServeError::DeadlineExceeded));
    // A generous deadline is untouched by the purge.
    let future = Instant::now() + Duration::from_secs(60);
    let fine = server
        .submit_request(SubmitRequest::new(vec![demo_input(2)]).deadline(future))
        .unwrap();
    let m = server.shutdown();
    assert!(fine.wait().is_ok());
    assert_eq!(m.timed_out, 1);
    assert_eq!(m.served, 1);
    assert!(m.accounted_for());
}

#[test]
fn shutdown_drains_in_flight_work() {
    let graph = demo_graph();
    let config = ServeConfig::builder()
        .queue_capacity(32)
        .default_model(ModelConfig::default().batch(holding_policy()))
        .build()
        .unwrap();
    let server = Server::start(&graph, config).unwrap();
    let tickets: Vec<_> = (0..10)
        .map(|i| {
            server
                .submit_request(SubmitRequest::new(vec![demo_input(i)]))
                .unwrap()
        })
        .collect();
    let m = server.shutdown();
    assert_eq!(m.served, 10);
    assert!(m.accounted_for());
    for t in tickets {
        let out = t.wait().unwrap();
        assert_eq!(out[0].shape(), &Shape::nf(1, 3));
    }
}

#[test]
fn smoke_100_requests_zero_lost() {
    let graph = demo_graph();
    let config = ServeConfig::builder()
        .queue_capacity(128)
        .default_model(ModelConfig::default().workers(2).batch(BatchPolicy {
            max_batch: 8,
            max_linger: Duration::from_micros(200),
        }))
        .build()
        .unwrap();
    let server = Server::start(&graph, config).unwrap();
    let tickets: Vec<_> = (0..100)
        .map(|i| {
            server
                .submit_request(SubmitRequest::new(vec![demo_input(i)]))
                .unwrap()
        })
        .collect();
    for t in tickets {
        let out = t.wait().expect("every accepted request is served");
        assert_eq!(out[0].shape(), &Shape::nf(1, 3));
    }
    let m = server.shutdown();
    assert_eq!(m.served, 100);
    assert_eq!(m.submitted, 100);
    assert!(m.accounted_for());
    assert!(m.batches <= 100, "batching coalesced at least some pairs");
}

/// Direct single-sample forward pass through the one-door API.
fn solo_run(graph: &Graph, input: &Tensor) -> Vec<Tensor> {
    Runner::builder()
        .build(graph)
        .unwrap()
        .execute(std::slice::from_ref(input), RunOptions::default())
        .unwrap()
        .into_outputs()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    /// Dynamic batching is invisible: whatever batch the server forms,
    /// every request receives bit-identical bytes to a solo run.
    #[test]
    fn served_outputs_match_solo_runs(
        seeds in proptest::collection::vec(0u64..1000, 1..6),
        max_batch in 1usize..6,
    ) {
        let graph = demo_graph();
        let config = ServeConfig::builder()
            .queue_capacity(16)
            .default_model(ModelConfig::default().workers(1).batch(BatchPolicy {
                max_batch,
                max_linger: Duration::from_millis(5),
            }))
            .build()
            .unwrap();
        let server = Server::start(&graph, config).unwrap();
        let tickets: Vec<_> = seeds
            .iter()
            .map(|&s| {
                server
                    .submit_request(SubmitRequest::new(vec![demo_input(s)]))
                    .unwrap()
            })
            .collect();
        for (&seed, ticket) in seeds.iter().zip(tickets) {
            let served = ticket.wait().unwrap();
            let solo = solo_run(&graph, &demo_input(seed));
            prop_assert_eq!(&served, &solo, "seed {} diverged", seed);
        }
        let m = server.shutdown();
        prop_assert!(m.accounted_for());
    }
}
