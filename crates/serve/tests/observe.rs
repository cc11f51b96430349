// Test/bench/example target: panics are the failure report.
#![allow(clippy::unwrap_used, clippy::expect_used)]

//! Observability integration: traced serve runs produce coherent span
//! timelines, the queue/inflight gauges settle, and the exporters'
//! output stays byte-identical to pinned goldens.

use std::time::{Duration, Instant};
use vedliot_nnir::{zoo, Graph, Shape, Tensor};
use vedliot_obs::{Exportable, Histogram, SpanOutcome, StageBreakdown};
use vedliot_serve::{
    BatchPolicy, MetricsSnapshot, ModelConfig, Priority, ServeConfig, Server, SubmitRequest,
    TracePolicy,
};

fn demo_graph() -> Graph {
    zoo::tiny_cnn("observe-test", Shape::nchw(1, 1, 8, 8), &[4], 3).unwrap()
}

fn demo_input(seed: u64) -> Tensor {
    Tensor::random(Shape::nchw(1, 1, 8, 8), seed, 1.0)
}

fn traced_config() -> ServeConfig {
    ServeConfig::builder()
        .queue_capacity(128)
        .default_model(ModelConfig::default().batch(BatchPolicy {
            max_batch: 4,
            max_linger: Duration::from_micros(200),
        }))
        .trace(TracePolicy { capacity: 128 })
        .build()
        .unwrap()
}

/// The ci.sh observability smoke: a seeded ~50-request traced run where
/// every span must be stage-monotonic and its five stages must sum to
/// the end-to-end latency exactly (the spans share one clock and one
/// epoch, so the accounting has no tolerance gap to hide in).
#[test]
fn traced_run_produces_coherent_spans() {
    let server = Server::start(&demo_graph(), traced_config()).unwrap();
    let tickets: Vec<_> = (0..50)
        .map(|i| {
            let priority = if i % 2 == 0 {
                Priority::High
            } else {
                Priority::Normal
            };
            server
                .submit_request(SubmitRequest::new(vec![demo_input(i)]).priority(priority))
                .unwrap()
        })
        .collect();
    for t in tickets {
        t.wait().unwrap();
    }
    let spans = server.trace_spans();
    assert_eq!(spans.len(), 50, "one span per served request");
    for span in &spans {
        assert!(span.is_monotonic(), "stage timestamps regressed: {span}");
        assert_eq!(
            span.stage_sum_us(),
            span.end_to_end_us(),
            "stages must account for the whole latency: {span}"
        );
        assert_eq!(span.outcome, SpanOutcome::Ok);
        assert!(span.batch >= 1 && span.batch <= 4, "{span}");
        assert_eq!(span.retries, 0);
        assert_eq!(span.model, 0, "single-model gateway: dense id 0");
        assert!(span.priority <= 1, "only High (0) and Normal (1) submitted");
    }
    assert!(
        spans.iter().any(|s| s.priority == 0) && spans.iter().any(|s| s.priority == 1),
        "both priority classes appear in the trace"
    );
    let breakdown = StageBreakdown::of(&spans);
    assert_eq!(breakdown.spans, 50);
    assert_eq!(breakdown.end_to_end_us.count, 50);
    let m = server.shutdown();
    assert!(m.accounted_for());
    assert_eq!(m.queue_depth, 0, "queue drained");
    assert_eq!(m.inflight, 0, "no request left executing");
    assert!(m.queue_hwm >= 1, "high-water mark saw the burst");
}

/// The default batcher is work-conserving: a lone request is taken as
/// soon as the worker is free, with no linger. Only the least of 20
/// queue waits is timed, so a slow host cannot fail this; a 500 µs
/// linger holds every one of them at least that long.
#[test]
fn default_policy_runs_a_lone_request_at_once() {
    let config = ServeConfig::builder()
        .trace(TracePolicy { capacity: 32 })
        .build()
        .unwrap();
    let server = Server::start(&demo_graph(), config).unwrap();
    for i in 0..20 {
        let ticket = server
            .submit_request(SubmitRequest::new(vec![demo_input(i)]))
            .unwrap();
        ticket.wait().unwrap();
    }
    let spans = server.trace_spans();
    assert_eq!(spans.len(), 20, "one span per served request");
    for span in &spans {
        assert_eq!(
            span.linger_us, 0,
            "the default policy never lingers: {span}"
        );
    }
    let least_wait_us = spans
        .iter()
        .map(|s| s.dequeue_us - s.enqueue_us)
        .min()
        .unwrap();
    assert!(
        least_wait_us < 250,
        "a lone request waited {least_wait_us} µs to be taken"
    );
    assert!(server.shutdown().accounted_for());
}

#[test]
fn expired_requests_get_timed_out_spans() {
    let server = Server::start(&demo_graph(), traced_config()).unwrap();
    let past = Instant::now() - Duration::from_millis(1);
    let live = server
        .submit_request(SubmitRequest::new(vec![demo_input(1)]))
        .unwrap();
    let dead = server
        .submit_request(SubmitRequest::new(vec![demo_input(2)]).deadline(past))
        .unwrap();
    assert!(live.wait().is_ok());
    assert_eq!(
        dead.wait().unwrap_err(),
        vedliot_serve::ServeError::DeadlineExceeded
    );
    let spans = server.trace_spans();
    let timed_out: Vec<_> = spans
        .iter()
        .filter(|s| s.outcome == SpanOutcome::TimedOut)
        .collect();
    assert_eq!(timed_out.len(), 1);
    let span = timed_out[0];
    // A request purged in-queue never executed: its whole lifetime is
    // queue wait, and the accounting identity still holds exactly.
    assert!(span.is_monotonic(), "{span}");
    assert_eq!(span.stage_sum_us(), span.end_to_end_us());
    assert_eq!(span.execute_us(), 0);
    let m = server.shutdown();
    assert_eq!(m.timed_out, 1);
    assert!(m.accounted_for());
    assert_eq!((m.queue_depth, m.inflight), (0, 0));
}

#[test]
fn tracing_disabled_records_nothing() {
    let server = Server::start(&demo_graph(), ServeConfig::default()).unwrap();
    let out = server
        .submit_request(SubmitRequest::new(vec![demo_input(3)]))
        .unwrap()
        .wait();
    assert!(out.is_ok());
    assert!(server.trace_spans().is_empty());
    let m = server.shutdown();
    // The gauges still work without tracing.
    assert_eq!((m.queue_depth, m.inflight), (0, 0));
    assert!(m.queue_hwm >= 1);
}

/// A deterministic snapshot, identical on every run and platform, so
/// the exporter goldens pin exact bytes.
fn deterministic_snapshot() -> MetricsSnapshot {
    let latency = Histogram::new();
    for us in [100u64, 200, 400, 800, 1600, 3200] {
        latency.record(us);
    }
    MetricsSnapshot {
        submitted: 10,
        served: 6,
        rejected: 1,
        timed_out: 2,
        failed: 1,
        submitted_by_priority: [3, 5, 2],
        served_by_priority: [3, 3, 0],
        shed_by_priority: [0, 0, 1],
        batches: 2,
        mean_batch: 3.0,
        p50_latency_us: 384,
        p99_latency_us: 3072,
        latency_us: latency.snapshot(),
        queue_depth: 0,
        queue_hwm: 5,
        inflight: 0,
        panics_absorbed: 1,
        worker_crashes: 0,
        respawned: 0,
        retries: 2,
        quarantined: 1,
        golden_mismatches: 0,
    }
}

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

#[test]
fn exporter_json_matches_golden() {
    check_golden(
        "goldens/serve_metrics.json",
        include_str!("goldens/serve_metrics.json"),
        &deterministic_snapshot().export().to_json(),
    );
}

#[test]
fn exporter_prometheus_matches_golden() {
    check_golden(
        "goldens/serve_metrics.prom",
        include_str!("goldens/serve_metrics.prom"),
        &deterministic_snapshot().export().to_prometheus(),
    );
}

#[test]
fn labelled_export_tags_the_tenant() {
    let prom = deterministic_snapshot()
        .labelled_export("alpha")
        .to_prometheus();
    assert!(
        prom.contains("vedliot_serve_served{model=\"alpha\"} 6\n"),
        "{prom}"
    );
    assert!(prom.contains("vedliot_serve_shed_by_priority{model=\"alpha\",priority=\"batch\"} 1\n"));
}
