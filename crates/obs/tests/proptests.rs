//! Property tests for the observability substrate: histogram quantile
//! accuracy, torn-read freedom of the seqlock ring behind the trace
//! ring and the event journal, and exporter round-trips.

use proptest::prelude::*;
use std::sync::Arc;
use vedliot_obs::hist::{bucket_of, Histogram, HistogramSnapshot};
use vedliot_obs::{
    CauseId, EventJournal, EventKind, Export, Metric, MetricValue, SpanOutcome, SpanRecord,
    TraceRing,
};

/// Exact sample quantile with the same rank convention the histogram
/// documents: entry `ceil(q·n) - 1` of the sorted samples.
fn exact_quantile(sorted: &[u64], q: f64) -> u64 {
    let rank = ((q * sorted.len() as f64).ceil() as usize).clamp(1, sorted.len());
    sorted[rank - 1]
}

/// Snapshot of a histogram that recorded exactly `samples`.
fn snap_of(samples: &[u64]) -> HistogramSnapshot {
    let h = Histogram::new();
    for &s in samples {
        h.record(s);
    }
    h.snapshot()
}

/// Out-of-place merge, so operands can be reused across assertions.
fn merged(a: &HistogramSnapshot, b: &HistogramSnapshot) -> HistogramSnapshot {
    let mut m = a.clone();
    m.merge(b);
    m
}

proptest! {
    /// Histogram quantiles agree with exact sorted-sample quantiles to
    /// within one bucket's relative error: the estimate lands in the
    /// same log2 bucket as the exact value (so it is within a factor
    /// of two), for every tested quantile.
    #[test]
    fn quantiles_match_exact_within_one_bucket(
        samples in proptest::collection::vec(0u64..1_000_000, 1..400),
        qi in 0usize..5,
    ) {
        let q = [0.10, 0.50, 0.90, 0.99, 1.0][qi];
        let h = Histogram::new();
        for &s in &samples {
            h.record(s);
        }
        let snap = h.snapshot();
        let mut sorted = samples.clone();
        sorted.sort_unstable();
        let exact = exact_quantile(&sorted, q);
        let estimate = snap.quantile(q);
        prop_assert_eq!(
            bucket_of(estimate), bucket_of(exact),
            "q={} estimate={} exact={}", q, estimate, exact
        );
        // And the estimate never leaves the observed range.
        prop_assert!(estimate >= snap.min && estimate <= snap.max);
    }

    /// Whatever subset of records a snapshot returns, every record in
    /// it is untorn: the ring's seqlock must never expose a mix of two
    /// writers' fields. Each writer stamps every field with a value
    /// derived from one key, so a torn record is detectable. Both
    /// typed faces of the ring — spans and journal events — are
    /// hammered.
    #[test]
    fn ring_snapshots_are_never_torn(
        capacity in 1usize..32,
        writers in 1usize..5,
        journal in any::<bool>(),
    ) {
        if journal {
            hammer::<EventJournal>(capacity, writers)?;
        } else {
            hammer::<TraceRing>(capacity, writers)?;
        }
    }

    /// Merging snapshots is commutative and *bucket-exact*: the merge
    /// equals the snapshot one histogram would hold had it recorded the
    /// concatenated stream — same count, sum, min, max, and every
    /// bucket — including when either operand is empty.
    #[test]
    fn snapshot_merge_is_commutative_and_bucket_exact(
        a in proptest::collection::vec(0u64..1_000_000, 0..200),
        b in proptest::collection::vec(0u64..1_000_000, 0..200),
    ) {
        let (sa, sb) = (snap_of(&a), snap_of(&b));
        let ab = merged(&sa, &sb);
        prop_assert_eq!(&ab, &merged(&sb, &sa));
        let mut both = a.clone();
        both.extend_from_slice(&b);
        prop_assert_eq!(&ab, &snap_of(&both));
    }

    /// Merging is associative, so fleet aggregation can fold
    /// per-model snapshots in any grouping.
    #[test]
    fn snapshot_merge_is_associative(
        a in proptest::collection::vec(0u64..1_000_000, 0..120),
        b in proptest::collection::vec(0u64..1_000_000, 0..120),
        c in proptest::collection::vec(0u64..1_000_000, 0..120),
    ) {
        let (sa, sb, sc) = (snap_of(&a), snap_of(&b), snap_of(&c));
        prop_assert_eq!(
            merged(&merged(&sa, &sb), &sc),
            merged(&sa, &merged(&sb, &sc))
        );
    }

    /// `quantile(q)` is monotonically non-decreasing in `q`, stays in
    /// the observed `[min, max]`, and the empty snapshot answers 0
    /// everywhere and equals `HistogramSnapshot::empty()`.
    #[test]
    fn quantile_is_monotonic_in_q(
        samples in proptest::collection::vec(0u64..1_000_000, 0..300),
    ) {
        let snap = snap_of(&samples);
        let mut prev = 0u64;
        for q in [0.01, 0.10, 0.25, 0.50, 0.75, 0.90, 0.99, 1.0] {
            let v = snap.quantile(q);
            prop_assert!(v >= prev, "q={} gave {} after {}", q, v, prev);
            prev = v;
        }
        if samples.is_empty() {
            prop_assert_eq!(&snap, &HistogramSnapshot::empty());
            prop_assert_eq!(snap.quantile(0.5), 0);
        } else {
            prop_assert!(snap.quantile(0.01) >= snap.min);
            prop_assert!(snap.quantile(1.0) <= snap.max);
        }
    }

    /// Single-bucket edge: a constant stream occupies one bucket, so
    /// the min/max clamp collapses every quantile to the exact value.
    #[test]
    fn single_bucket_quantiles_collapse_to_the_value(
        value in 0u64..1_000_000,
        n in 1usize..50,
        qi in 0usize..5,
    ) {
        let q = [0.01, 0.50, 0.90, 0.99, 1.0][qi];
        let snap = snap_of(&vec![value; n]);
        prop_assert_eq!(snap.count, n as u64);
        prop_assert_eq!(snap.min, value);
        prop_assert_eq!(snap.max, value);
        prop_assert_eq!(snap.quantile(q), value);
    }

    /// Export JSON round-trips losslessly for arbitrary metric sets.
    #[test]
    fn export_json_round_trips(
        n_metrics in 0usize..6,
        seed in 0u64..10_000,
    ) {
        let mut metrics = Vec::new();
        let mut state = seed;
        let mut next = move || {
            state = state.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
            state
        };
        for i in 0..n_metrics {
            let value = match next() % 3 {
                0 => MetricValue::Counter(next()),
                1 => MetricValue::Gauge(next() as f64 / 1e6),
                _ => {
                    let h = Histogram::new();
                    for _ in 0..(next() % 20) {
                        h.record(next() % 1_000_000);
                    }
                    MetricValue::Histogram(h.snapshot())
                }
            };
            let mut labels = Vec::new();
            for l in 0..(next() % 3) {
                labels.push((format!("key_{l}"), format!("val\"ue {}", next() % 100)));
            }
            metrics.push(Metric {
                name: format!("metric_{i}"),
                help: format!("help \"quoted\" \\slashed\nnewline {i}"),
                labels,
                value,
            });
        }
        let export = Export { subsystem: format!("sub-{seed}"), metrics };
        prop_assert_eq!(Export::from_json(&export.to_json()), Some(export));
    }
}

/// A ring face under test: records keyed writes and checks that every
/// record a snapshot returns is coherent with its key.
trait Ring: Send + Sync + 'static {
    fn with_capacity(capacity: usize) -> Self;
    fn write(&self, key: u64);
    /// Asserts every record in a snapshot is untorn; returns how many.
    fn check_snapshot(&self) -> usize;
    fn recorded(&self) -> u64;
    fn dropped(&self) -> u64;
}

impl Ring for TraceRing {
    fn with_capacity(capacity: usize) -> Self {
        TraceRing::new(capacity)
    }
    fn write(&self, key: u64) {
        self.record(&coherent_span(key));
    }
    fn check_snapshot(&self) -> usize {
        let spans = self.snapshot();
        for span in &spans {
            assert_eq!(
                span,
                &coherent_span(span.seq),
                "torn span escaped the seqlock"
            );
        }
        spans.len()
    }
    fn recorded(&self) -> u64 {
        TraceRing::recorded(self)
    }
    fn dropped(&self) -> u64 {
        TraceRing::dropped(self)
    }
}

/// The journal assigns `seq` itself, so its records are keyed by `at`:
/// every other caller-supplied field is a function of it.
impl Ring for EventJournal {
    fn with_capacity(capacity: usize) -> Self {
        EventJournal::new(capacity)
    }
    fn write(&self, key: u64) {
        let kind = EventKind::ALL[(key % EventKind::ALL.len() as u64) as usize];
        self.append(
            key,
            kind,
            CauseId::request(key.wrapping_mul(3)),
            CauseId::event(key.wrapping_mul(5)),
            key.wrapping_mul(7),
        );
    }
    fn check_snapshot(&self) -> usize {
        let events = self.snapshot();
        for e in &events {
            let key = e.at;
            let coherent = e.kind == EventKind::ALL[(key % EventKind::ALL.len() as u64) as usize]
                && e.subject == CauseId::request(key.wrapping_mul(3))
                && e.cause == CauseId::event(key.wrapping_mul(5))
                && e.detail == key.wrapping_mul(7);
            assert!(coherent, "torn event escaped the seqlock: {e}");
        }
        events.len()
    }
    fn recorded(&self) -> u64 {
        EventJournal::recorded(self)
    }
    fn dropped(&self) -> u64 {
        EventJournal::dropped(self)
    }
}

/// Races `writers` threads of 500 keyed writes against a snapshotting
/// reader, then checks the quiescent ring is full, coherent, and
/// conserves every write as recorded or dropped.
fn hammer<R: Ring>(capacity: usize, writers: usize) -> Result<(), TestCaseError> {
    let ring = Arc::new(R::with_capacity(capacity));
    let mut handles = Vec::new();
    for w in 0..writers {
        let ring = Arc::clone(&ring);
        handles.push(std::thread::spawn(move || {
            for i in 0..500u64 {
                ring.write((w as u64) * 1_000_000 + i);
            }
        }));
    }
    let reader = {
        let ring = Arc::clone(&ring);
        std::thread::spawn(move || (0..200).map(|_| ring.check_snapshot()).sum::<usize>())
    };
    for h in handles {
        prop_assert!(h.join().is_ok(), "writer panicked");
    }
    prop_assert!(reader.join().is_ok(), "reader found a torn record");
    prop_assert_eq!(ring.check_snapshot(), capacity.min(writers * 500));
    prop_assert_eq!(ring.recorded() + ring.dropped(), (writers * 500) as u64);
    Ok(())
}

/// A span whose every field is a deterministic function of `seq`.
fn coherent_span(seq: u64) -> SpanRecord {
    SpanRecord {
        seq,
        enqueue_us: seq.wrapping_mul(3),
        dequeue_us: seq.wrapping_mul(5),
        exec_start_us: seq.wrapping_mul(7),
        exec_end_us: seq.wrapping_mul(11),
        reply_us: seq.wrapping_mul(13),
        linger_us: seq.wrapping_mul(17),
        batch: (seq % 97) as u32,
        retries: (seq % 89) as u32,
        model: (seq % 11) as u16,
        priority: (seq % 3) as u8,
        outcome: SpanOutcome::Ok,
    }
}
