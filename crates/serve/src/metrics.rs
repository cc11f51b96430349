//! Serving counters and latency tracking.
//!
//! The counters are atomic so workers update them without taking the
//! queue lock, and the latency distribution is a wait-free
//! log2-bucketed [`vedliot_obs::Histogram`] — recording a latency is
//! five relaxed atomic ops and never blocks. Percentiles come from the
//! histogram snapshot (accurate to within one power-of-two bucket).
//!
//! Since the multi-tenant gateway, each model pool owns one `Metrics`
//! store, and three counters are additionally split by
//! [`Priority`](crate::Priority) class (`submitted`, `served`, `shed`)
//! so per-class availability — the E25 acceptance metric — falls out of
//! a snapshot directly. [`MetricsSnapshot::merge`] folds pool snapshots
//! into the gateway-wide aggregate; [`MetricsSnapshot::labelled_export`]
//! attaches the model key as a label on every exported metric.

use crate::error::ServeError;
use serde::{Deserialize, Serialize};
use std::sync::atomic::{AtomicU64, Ordering};
use vedliot_obs::hist::HistogramSnapshot;
use vedliot_obs::{Export, Exportable, Histogram, Metric, SpanOutcome};

/// Exporter labels for the three priority classes, in
/// [`Priority::index`](crate::Priority::index) order.
const PRIORITY_LABELS: [&str; 3] = ["high", "normal", "batch"];

/// Live metric store shared by a pool's front door and its workers.
#[derive(Debug, Default)]
pub(crate) struct Metrics {
    submitted: AtomicU64,
    served: AtomicU64,
    rejected: AtomicU64,
    timed_out: AtomicU64,
    failed: AtomicU64,
    // Per-priority-class splits, indexed by `Priority::index`.
    // `shed` counts into `rejected` too (a labelled subset).
    submitted_by_priority: [AtomicU64; 3],
    served_by_priority: [AtomicU64; 3],
    shed_by_priority: [AtomicU64; 3],
    batches: AtomicU64,
    batched_samples: AtomicU64,
    // Gauges: current queue occupancy, its high-water mark, and
    // requests dequeued but not yet replied to.
    queue_depth: AtomicU64,
    queue_hwm: AtomicU64,
    inflight: AtomicU64,
    // Resilience counters (see DESIGN.md §7).
    panics_absorbed: AtomicU64,
    worker_crashes: AtomicU64,
    respawned: AtomicU64,
    retries: AtomicU64,
    quarantined: AtomicU64,
    golden_mismatches: AtomicU64,
    latency: Histogram,
}

impl Metrics {
    /// Records one submission of the given priority class.
    pub(crate) fn inc_submitted(&self, class: usize) {
        self.submitted.fetch_add(1, Ordering::Relaxed);
        self.submitted_by_priority[class].fetch_add(1, Ordering::Relaxed);
    }

    /// Records one answered request of the given priority class in the
    /// bucket its reply falls in, and returns the outcome its span
    /// carries. A model output is `served`; a door refusal is
    /// `rejected`, with sheds (evicted for higher-priority work, or
    /// refused while their class was shed) a labelled subset; an
    /// expired deadline is `timed_out`; any other error is `failed`,
    /// with quarantines a labelled subset. Door refusals other than
    /// sheds are never traced and report [`SpanOutcome::Failed`].
    pub(crate) fn record_reply(&self, class: usize, reply: Option<&ServeError>) -> SpanOutcome {
        let (bucket, outcome) = match reply {
            None => {
                self.served_by_priority[class].fetch_add(1, Ordering::Relaxed);
                (&self.served, SpanOutcome::Ok)
            }
            Some(ServeError::ShedLowPriority) => {
                self.shed_by_priority[class].fetch_add(1, Ordering::Relaxed);
                (&self.rejected, SpanOutcome::Shed)
            }
            Some(
                ServeError::Rejected { .. }
                | ServeError::QuotaExceeded { .. }
                | ServeError::ShuttingDown
                | ServeError::InvalidInput(_),
            ) => (&self.rejected, SpanOutcome::Failed),
            Some(ServeError::DeadlineExceeded) => (&self.timed_out, SpanOutcome::TimedOut),
            Some(ServeError::Quarantined { .. }) => {
                self.quarantined.fetch_add(1, Ordering::Relaxed);
                (&self.failed, SpanOutcome::Quarantined)
            }
            Some(_) => (&self.failed, SpanOutcome::Failed),
        };
        bucket.fetch_add(1, Ordering::Relaxed);
        outcome
    }

    /// Records one request entering the queue, maintaining the
    /// high-water mark.
    pub(crate) fn queue_pushed(&self) {
        let depth = self.queue_depth.fetch_add(1, Ordering::Relaxed) + 1;
        self.queue_hwm.fetch_max(depth, Ordering::Relaxed);
    }

    /// Records `n` requests leaving the queue (drained into a batch,
    /// purged, or evicted).
    pub(crate) fn queue_popped(&self, n: u64) {
        self.queue_depth.fetch_sub(n, Ordering::Relaxed);
    }

    /// Records `n` requests entering execution (dequeued, not replied).
    pub(crate) fn inflight_add(&self, n: u64) {
        self.inflight.fetch_add(n, Ordering::Relaxed);
    }

    /// Records `n` requests replied to (any outcome).
    pub(crate) fn inflight_sub(&self, n: u64) {
        self.inflight.fetch_sub(n, Ordering::Relaxed);
    }

    /// Records one panic converted to a typed error at the isolation
    /// boundary (the worker thread survived).
    pub(crate) fn inc_panic_absorbed(&self) {
        self.panics_absorbed.fetch_add(1, Ordering::Relaxed);
    }

    /// Records one worker thread death.
    pub(crate) fn inc_worker_crash(&self) {
        self.worker_crashes.fetch_add(1, Ordering::Relaxed);
    }

    /// Current worker-crash count (drives [`Health::Degraded`](crate::Health)).
    pub(crate) fn worker_crashes(&self) -> u64 {
        self.worker_crashes.load(Ordering::Relaxed)
    }

    /// Records one supervisor respawn of a crashed worker.
    pub(crate) fn inc_respawned(&self) {
        self.respawned.fetch_add(1, Ordering::Relaxed);
    }

    /// Records one batch retry attempt.
    pub(crate) fn inc_retry(&self) {
        self.retries.fetch_add(1, Ordering::Relaxed);
    }

    /// Records one golden-check divergence (SEU detection, §IV-B).
    pub(crate) fn inc_golden_mismatch(&self) {
        self.golden_mismatches.fetch_add(1, Ordering::Relaxed);
    }

    /// Records one completed batch of `n` requests (each is counted
    /// `served` by its own reply).
    pub(crate) fn record_batch(&self, n: u64) {
        self.batches.fetch_add(1, Ordering::Relaxed);
        self.batched_samples.fetch_add(n, Ordering::Relaxed);
    }

    /// Records one request's queue-to-reply latency. Wait-free: this
    /// sits on the reply path of every request, concurrently across
    /// all workers.
    pub(crate) fn record_latency(&self, micros: u64) {
        self.latency.record(micros);
    }

    /// Takes a consistent point-in-time snapshot.
    pub(crate) fn snapshot(&self) -> MetricsSnapshot {
        let latency_us = self.latency.snapshot();
        let batches = self.batches.load(Ordering::Relaxed);
        let batched_samples = self.batched_samples.load(Ordering::Relaxed);
        let by = |arr: &[AtomicU64; 3]| {
            [
                arr[0].load(Ordering::Relaxed),
                arr[1].load(Ordering::Relaxed),
                arr[2].load(Ordering::Relaxed),
            ]
        };
        MetricsSnapshot {
            submitted: self.submitted.load(Ordering::Relaxed),
            served: self.served.load(Ordering::Relaxed),
            rejected: self.rejected.load(Ordering::Relaxed),
            timed_out: self.timed_out.load(Ordering::Relaxed),
            failed: self.failed.load(Ordering::Relaxed),
            submitted_by_priority: by(&self.submitted_by_priority),
            served_by_priority: by(&self.served_by_priority),
            shed_by_priority: by(&self.shed_by_priority),
            batches,
            mean_batch: if batches == 0 {
                0.0
            } else {
                batched_samples as f64 / batches as f64
            },
            p50_latency_us: latency_us.quantile(0.50),
            p99_latency_us: latency_us.quantile(0.99),
            queue_depth: self.queue_depth.load(Ordering::Relaxed),
            queue_hwm: self.queue_hwm.load(Ordering::Relaxed),
            inflight: self.inflight.load(Ordering::Relaxed),
            panics_absorbed: self.panics_absorbed.load(Ordering::Relaxed),
            worker_crashes: self.worker_crashes.load(Ordering::Relaxed),
            respawned: self.respawned.load(Ordering::Relaxed),
            retries: self.retries.load(Ordering::Relaxed),
            quarantined: self.quarantined.load(Ordering::Relaxed),
            golden_mismatches: self.golden_mismatches.load(Ordering::Relaxed),
            latency_us,
        }
    }
}

/// Point-in-time serving statistics (one pool, or a gateway aggregate
/// built with [`MetricsSnapshot::merge`]).
///
/// The counters partition every submission: a request ends up in
/// exactly one of `served`, `rejected`, `timed_out` or `failed`, so
/// `served + rejected + timed_out + failed == submitted` once the
/// server has drained. The resilience counters (`panics_absorbed`,
/// `worker_crashes`, `respawned`, `retries`, `quarantined`,
/// `golden_mismatches`) are observability side-channels, not part of
/// the partition — `quarantined` requests are already counted in
/// `failed`, and shed requests in `rejected`.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct MetricsSnapshot {
    /// Requests accepted into the queue plus those rejected at the door.
    pub submitted: u64,
    /// Requests answered with a model output.
    pub served: u64,
    /// Requests rejected because the gateway queue was full, the model
    /// quota was exhausted, or priority-class admission shed them.
    pub rejected: u64,
    /// Requests purged because their deadline expired before execution.
    pub timed_out: u64,
    /// Requests answered with an execution error.
    pub failed: u64,
    /// `submitted` split by priority class, indexed `[high, normal,
    /// batch]` (see [`Priority::index`](crate::Priority::index)).
    pub submitted_by_priority: [u64; 3],
    /// `served` split by priority class.
    pub served_by_priority: [u64; 3],
    /// Requests shed by priority-class admission, split by the shed
    /// request's class (a labelled subset of `rejected`).
    pub shed_by_priority: [u64; 3],
    /// Batched forward passes executed.
    pub batches: u64,
    /// Mean requests per executed batch (0 when no batches ran).
    pub mean_batch: f64,
    /// Median queue-to-reply latency in microseconds (histogram
    /// estimate, within one log2 bucket of exact).
    pub p50_latency_us: u64,
    /// 99th-percentile queue-to-reply latency in microseconds.
    pub p99_latency_us: u64,
    /// Full queue-to-reply latency distribution.
    pub latency_us: HistogramSnapshot,
    /// Requests sitting in the queue right now.
    pub queue_depth: u64,
    /// Highest queue occupancy ever observed. In a merged aggregate
    /// this is the *sum* of per-pool high-water marks — an upper bound
    /// on simultaneous occupancy, not an observation of it.
    pub queue_hwm: u64,
    /// Requests dequeued into batches but not yet replied to.
    pub inflight: u64,
    /// Panics caught at the isolation boundary and converted to typed
    /// errors (the worker survived).
    pub panics_absorbed: u64,
    /// Worker threads that died (panicked outside isolation).
    pub worker_crashes: u64,
    /// Crashed workers replaced by the supervisor.
    pub respawned: u64,
    /// Batch retry attempts after transient failures.
    pub retries: u64,
    /// Requests failed as poisoned after quarantine bisection
    /// (a labelled subset of `failed`).
    pub quarantined: u64,
    /// Golden-check divergences reported by the robustness service
    /// (deployed output ≠ golden-copy output — SEU detection, §IV-B).
    pub golden_mismatches: u64,
}

impl MetricsSnapshot {
    /// An all-zero snapshot — the identity element of
    /// [`MetricsSnapshot::merge`].
    #[must_use]
    pub fn empty() -> Self {
        Metrics::default().snapshot()
    }

    /// Whether every submitted request received exactly one reply.
    #[must_use]
    pub fn accounted_for(&self) -> bool {
        self.served + self.rejected + self.timed_out + self.failed == self.submitted
    }

    /// Total requests shed by priority-class admission across classes.
    #[must_use]
    pub fn shed(&self) -> u64 {
        self.shed_by_priority.iter().sum()
    }

    /// Folds `other` into `self`: counters and the latency histogram
    /// add, the batch mean re-weights by batch count, and the latency
    /// percentiles are recomputed from the merged distribution. Used by
    /// the gateway to aggregate per-pool snapshots (live and retired).
    pub fn merge(&mut self, other: &MetricsSnapshot) {
        // Weighted mean before the batch counters move. Exact in f64:
        // mean_batch · batches is the integer batched-samples count.
        let total_batches = self.batches + other.batches;
        self.mean_batch = if total_batches == 0 {
            0.0
        } else {
            (self.mean_batch * self.batches as f64 + other.mean_batch * other.batches as f64)
                / total_batches as f64
        };
        self.batches = total_batches;
        self.submitted += other.submitted;
        self.served += other.served;
        self.rejected += other.rejected;
        self.timed_out += other.timed_out;
        self.failed += other.failed;
        for i in 0..3 {
            self.submitted_by_priority[i] += other.submitted_by_priority[i];
            self.served_by_priority[i] += other.served_by_priority[i];
            self.shed_by_priority[i] += other.shed_by_priority[i];
        }
        self.queue_depth += other.queue_depth;
        self.queue_hwm += other.queue_hwm;
        self.inflight += other.inflight;
        self.panics_absorbed += other.panics_absorbed;
        self.worker_crashes += other.worker_crashes;
        self.respawned += other.respawned;
        self.retries += other.retries;
        self.quarantined += other.quarantined;
        self.golden_mismatches += other.golden_mismatches;
        self.latency_us.merge(&other.latency_us);
        self.p50_latency_us = self.latency_us.quantile(0.50);
        self.p99_latency_us = self.latency_us.quantile(0.99);
    }

    /// Like [`Exportable::export`] but with a `model` label on every
    /// metric — how the gateway publishes per-tenant series side by
    /// side through one exporter.
    #[must_use]
    pub fn labelled_export(&self, model: &str) -> Export {
        let mut export = self.export();
        for metric in &mut export.metrics {
            metric.labels.insert(0, ("model".into(), model.into()));
        }
        export
    }
}

impl Exportable for MetricsSnapshot {
    fn export(&self) -> Export {
        let mut metrics = vec![
            Metric::counter(
                "submitted",
                "requests accepted or rejected at the door",
                self.submitted,
            ),
            Metric::counter(
                "served",
                "requests answered with a model output",
                self.served,
            ),
            Metric::counter(
                "rejected",
                "requests rejected because the queue was full",
                self.rejected,
            ),
            Metric::counter(
                "timed_out",
                "requests purged past their deadline",
                self.timed_out,
            ),
            Metric::counter(
                "failed",
                "requests answered with an execution error",
                self.failed,
            ),
            Metric::counter(
                "shed",
                "requests shed by priority-class admission",
                self.shed(),
            ),
        ];
        for (i, label) in PRIORITY_LABELS.iter().enumerate() {
            metrics.push(
                Metric::counter(
                    "submitted_by_priority",
                    "requests submitted in this priority class",
                    self.submitted_by_priority[i],
                )
                .with_label("priority", *label),
            );
            metrics.push(
                Metric::counter(
                    "served_by_priority",
                    "requests served in this priority class",
                    self.served_by_priority[i],
                )
                .with_label("priority", *label),
            );
            metrics.push(
                Metric::counter(
                    "shed_by_priority",
                    "requests shed in this priority class",
                    self.shed_by_priority[i],
                )
                .with_label("priority", *label),
            );
        }
        metrics.extend([
            Metric::counter("batches", "batched forward passes executed", self.batches),
            Metric::gauge(
                "mean_batch",
                "mean requests per executed batch",
                self.mean_batch,
            ),
            Metric::gauge(
                "queue_depth",
                "requests sitting in the queue",
                self.queue_depth as f64,
            ),
            Metric::gauge(
                "queue_hwm",
                "highest queue occupancy observed",
                self.queue_hwm as f64,
            ),
            Metric::gauge(
                "inflight",
                "requests dequeued but not yet replied to",
                self.inflight as f64,
            ),
            Metric::counter(
                "panics_absorbed",
                "panics converted to typed errors",
                self.panics_absorbed,
            ),
            Metric::counter(
                "worker_crashes",
                "worker threads that died",
                self.worker_crashes,
            ),
            Metric::counter("respawned", "crashed workers replaced", self.respawned),
            Metric::counter("retries", "batch retry attempts", self.retries),
            Metric::counter(
                "quarantined",
                "requests failed as poisoned",
                self.quarantined,
            ),
            Metric::counter(
                "golden_mismatches",
                "golden-check divergences",
                self.golden_mismatches,
            ),
            Metric::histogram(
                "latency_us",
                "queue-to-reply latency in microseconds",
                self.latency_us.clone(),
            ),
        ]);
        Export {
            subsystem: "serve".into(),
            metrics,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use vedliot_nnir::NnirError;
    use vedliot_obs::hist::bucket_of;

    /// Answers `n` requests of `class` with `reply`.
    fn reply_n(m: &Metrics, n: usize, class: usize, reply: Option<&ServeError>) {
        for _ in 0..n {
            m.record_reply(class, reply);
        }
    }

    #[test]
    fn counters_partition_submissions() {
        let m = Metrics::default();
        for i in 0..10 {
            m.inc_submitted(i % 3);
        }
        let execution = ServeError::Execution(NnirError::GraphCyclic);
        let outcomes = [
            (ServeError::Rejected { capacity: 4 }, SpanOutcome::Failed),
            (ServeError::DeadlineExceeded, SpanOutcome::TimedOut),
            (execution, SpanOutcome::Failed),
        ];
        for (err, outcome) in &outcomes {
            assert_eq!(m.record_reply(0, Some(err)), *outcome, "{err}");
        }
        m.record_batch(7);
        for _ in 0..7 {
            assert_eq!(m.record_reply(1, None), SpanOutcome::Ok);
        }
        let s = m.snapshot();
        assert_eq!(s.submitted, 10);
        assert_eq!(s.submitted_by_priority, [4, 3, 3]);
        assert_eq!((s.served, s.rejected, s.timed_out, s.failed), (7, 1, 1, 1));
        assert_eq!(s.served_by_priority, [0, 7, 0]);
        assert!(s.accounted_for());
        assert_eq!(s.batches, 1);
        assert!((s.mean_batch - 7.0).abs() < 1e-9);
    }

    #[test]
    fn shed_is_a_subset_of_rejected() {
        let m = Metrics::default();
        for _ in 0..4 {
            m.inc_submitted(2);
        }
        reply_n(&m, 2, 2, None);
        reply_n(&m, 1, 2, Some(&ServeError::QuotaExceeded { quota: 2 }));
        let shed = m.record_reply(2, Some(&ServeError::ShedLowPriority));
        assert_eq!(shed, SpanOutcome::Shed);
        let s = m.snapshot();
        assert_eq!(s.rejected, 2, "shed also counts into rejected");
        assert_eq!(s.shed_by_priority, [0, 0, 1]);
        assert_eq!(s.shed(), 1);
        assert!(s.accounted_for());
    }

    #[test]
    fn quarantined_is_a_subset_of_failed() {
        let m = Metrics::default();
        for _ in 0..5 {
            m.inc_submitted(1);
        }
        reply_n(&m, 3, 1, None);
        let crashed = ServeError::WorkerCrashed { detail: "x".into() };
        reply_n(&m, 1, 1, Some(&crashed));
        let poison = ServeError::Quarantined { detail: "p".into() };
        assert_eq!(m.record_reply(1, Some(&poison)), SpanOutcome::Quarantined);
        let s = m.snapshot();
        assert_eq!(s.failed, 2, "quarantine also counts into failed");
        assert_eq!(s.quarantined, 1);
        assert!(s.accounted_for());
    }

    #[test]
    fn resilience_counters_are_observability_only() {
        let m = Metrics::default();
        m.inc_submitted(1);
        m.record_reply(1, None);
        m.inc_panic_absorbed();
        m.inc_worker_crash();
        m.inc_respawned();
        m.inc_retry();
        m.inc_golden_mismatch();
        let s = m.snapshot();
        // None of them perturb the accounting partition.
        assert!(s.accounted_for());
        assert_eq!(
            (s.panics_absorbed, s.worker_crashes, s.respawned),
            (1, 1, 1)
        );
        assert_eq!((s.retries, s.golden_mismatches), (1, 1));
        assert_eq!(m.worker_crashes(), 1);
    }

    #[test]
    fn percentiles_come_from_the_histogram() {
        let m = Metrics::default();
        for us in 1..=100 {
            m.record_latency(us);
        }
        let s = m.snapshot();
        // Exact order statistics with the histogram's rank convention
        // would give p50 = 50 and p99 = 99; the bucket-midpoint
        // estimate must land in the same log2 bucket.
        assert_eq!(bucket_of(s.p50_latency_us), bucket_of(50));
        assert_eq!(bucket_of(s.p99_latency_us), bucket_of(99));
        // The full distribution is in the snapshot too.
        assert_eq!(s.latency_us.count, 100);
        assert_eq!(s.latency_us.min, 1);
        assert_eq!(s.latency_us.max, 100);
    }

    #[test]
    fn histogram_keeps_the_full_distribution() {
        let m = Metrics::default();
        for us in 0..5000u64 {
            m.record_latency(us);
        }
        let s = m.snapshot();
        assert_eq!(s.latency_us.count, 5000);
        assert_eq!(s.latency_us.sum, (0..5000).sum::<u64>());
        assert_eq!((s.latency_us.min, s.latency_us.max), (0, 4999));
    }

    #[test]
    fn gauges_track_queue_and_inflight() {
        let m = Metrics::default();
        for _ in 0..4 {
            m.queue_pushed();
        }
        m.queue_popped(3);
        m.inflight_add(3);
        m.queue_pushed();
        m.inflight_sub(2);
        let s = m.snapshot();
        assert_eq!(s.queue_depth, 2);
        assert_eq!(s.queue_hwm, 4);
        assert_eq!(s.inflight, 1);
    }

    #[test]
    fn empty_window_reports_zero() {
        let s = MetricsSnapshot::empty();
        assert_eq!(s.p50_latency_us, 0);
        assert_eq!(s.p99_latency_us, 0);
        assert_eq!(s.latency_us.count, 0);
        assert!(s.accounted_for());
    }

    #[test]
    fn merge_sums_counters_and_reweights_the_mean() {
        let a = Metrics::default();
        for _ in 0..3 {
            a.inc_submitted(0);
        }
        a.record_batch(3); // one batch of 3
        reply_n(&a, 3, 0, None);
        a.record_latency(10);
        let b = Metrics::default();
        b.inc_submitted(2);
        b.record_batch(1); // one batch of 1
        b.record_reply(2, None);
        b.inc_submitted(2);
        b.record_reply(2, Some(&ServeError::ShedLowPriority));
        b.record_latency(1000);
        let mut merged = a.snapshot();
        merged.merge(&b.snapshot());
        assert_eq!(merged.submitted, 5);
        assert_eq!(merged.served, 4);
        assert_eq!(merged.served_by_priority, [3, 0, 1]);
        assert_eq!(merged.shed_by_priority, [0, 0, 1]);
        assert_eq!(merged.batches, 2);
        assert!(
            (merged.mean_batch - 2.0).abs() < 1e-9,
            "(3 + 1) / 2 batches"
        );
        assert_eq!(merged.latency_us.count, 2);
        assert_eq!(merged.latency_us.min, 10);
        assert_eq!(merged.latency_us.max, 1000);
        assert!(merged.accounted_for());
        // Identity element.
        let mut with_empty = a.snapshot();
        with_empty.merge(&MetricsSnapshot::empty());
        assert_eq!(with_empty, a.snapshot());
    }

    #[test]
    fn snapshot_exports_all_subsystem_metrics() {
        let m = Metrics::default();
        m.inc_submitted(0);
        m.record_batch(1);
        m.record_reply(0, None);
        m.record_latency(250);
        let export = m.snapshot().export();
        assert_eq!(export.subsystem, "serve");
        let json = export.to_json();
        assert!(json.contains("\"name\":\"latency_us\""));
        assert!(json.contains("\"labels\":{\"priority\":\"high\"}"));
        assert_eq!(vedliot_obs::Export::from_json(&json), Some(export.clone()));
        let prom = export.to_prometheus();
        assert!(prom.contains("vedliot_serve_served 1\n"));
        assert!(prom.contains("vedliot_serve_served_by_priority{priority=\"high\"} 1\n"));
        assert!(prom.contains("vedliot_serve_latency_us_count 1\n"));
    }

    #[test]
    fn labelled_export_tags_every_metric_with_the_model() {
        let m = Metrics::default();
        m.inc_submitted(1);
        m.record_batch(1);
        m.record_reply(1, None);
        let export = m.snapshot().labelled_export("lenet5");
        for metric in &export.metrics {
            assert_eq!(
                metric.labels.first().map(|(k, v)| (k.as_str(), v.as_str())),
                Some(("model", "lenet5")),
                "{} missing the model label",
                metric.name
            );
        }
        let prom = export.to_prometheus();
        assert!(
            prom.contains("vedliot_serve_served{model=\"lenet5\"} 1\n"),
            "{prom}"
        );
        assert!(prom.contains(
            "vedliot_serve_served_by_priority{model=\"lenet5\",priority=\"normal\"} 1\n"
        ));
    }
}
