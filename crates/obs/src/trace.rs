//! Request-lifecycle spans and the bounded lock-free trace ring.
//!
//! A [`SpanRecord`] is one request's timeline through the serving
//! pipeline, as five monotonic microsecond timestamps (relative to the
//! server's trace epoch) plus the linger attribution:
//!
//! ```text
//! enqueue ──queue-wait──► dequeue ──dispatch──► exec_start ──execute──► exec_end ──reply──► reply
//!          └─batch-linger┘(carved out of the enqueue→dequeue interval)
//! ```
//!
//! Because the stages are *defined* as differences of one monotonic
//! clock, they sum to the end-to-end latency exactly (integer
//! microseconds) — the invariant the CI observability smoke asserts.
//!
//! The [`TraceRing`] stores the most recent `capacity` spans in the
//! crate's one lock-free seqlock ring (shared with the
//! [`EventJournal`](crate::EventJournal)): writers never block, the
//! only loss mode is a writer lapped by the whole ring mid-write
//! (counted in [`dropped`](TraceRing::dropped)), and a snapshot never
//! contains a torn record.

use crate::hist::{Histogram, HistogramSnapshot};
use crate::ring::SeqRing;
use crate::{Export, Exportable, Metric};
use serde::{Deserialize, Serialize};
use std::fmt;

/// How a traced request left the pipeline.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize, Default)]
pub enum SpanOutcome {
    /// Answered with a model output.
    #[default]
    Ok,
    /// Answered with an execution error.
    Failed,
    /// Purged because its deadline expired.
    TimedOut,
    /// Isolated as the poison by quarantine bisection.
    Quarantined,
    /// Evicted from the queue to make room for a strictly
    /// higher-priority request (multi-tenant admission).
    Shed,
}

impl SpanOutcome {
    fn code(self) -> u64 {
        match self {
            SpanOutcome::Ok => 0,
            SpanOutcome::Failed => 1,
            SpanOutcome::TimedOut => 2,
            SpanOutcome::Quarantined => 3,
            SpanOutcome::Shed => 4,
        }
    }

    fn from_code(code: u64) -> Self {
        match code {
            1 => SpanOutcome::Failed,
            2 => SpanOutcome::TimedOut,
            3 => SpanOutcome::Quarantined,
            4 => SpanOutcome::Shed,
            _ => SpanOutcome::Ok,
        }
    }
}

impl fmt::Display for SpanOutcome {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            SpanOutcome::Ok => "ok",
            SpanOutcome::Failed => "failed",
            SpanOutcome::TimedOut => "timed_out",
            SpanOutcome::Quarantined => "quarantined",
            SpanOutcome::Shed => "shed",
        })
    }
}

/// One request's span timeline. All timestamps are microseconds since
/// the owning server's trace epoch.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize, Default)]
pub struct SpanRecord {
    /// Submission sequence number (1-based).
    pub seq: u64,
    /// Accepted into the submission queue.
    pub enqueue_us: u64,
    /// Drained out of the queue into a formed batch (for a request
    /// purged while still queued, this equals `reply_us`).
    pub dequeue_us: u64,
    /// First execution attempt began.
    pub exec_start_us: u64,
    /// Final execution attempt finished (includes retries + backoff).
    pub exec_end_us: u64,
    /// Reply recorded (the end-to-end completion point).
    pub reply_us: u64,
    /// Portion of the queued interval spent deliberately lingering for
    /// batch companions (`≤ dequeue_us − enqueue_us`).
    pub linger_us: u64,
    /// Size of the batch this request executed in (0 if never batched).
    pub batch: u32,
    /// Execution retries this request survived.
    pub retries: u32,
    /// Numeric id of the model pool that served the request (assigned
    /// by the gateway in load order; 0 for single-model servers).
    pub model: u16,
    /// Priority class code (0 = high, 1 = normal, 2 = batch).
    pub priority: u8,
    /// Terminal outcome.
    pub outcome: SpanOutcome,
}

/// Number of packed words per ring slot.
const WORDS: usize = 8;

impl SpanRecord {
    /// Queue-wait stage: queued time not attributed to lingering.
    #[must_use]
    pub fn queue_wait_us(&self) -> u64 {
        (self.dequeue_us.saturating_sub(self.enqueue_us)).saturating_sub(self.linger_us)
    }

    /// Dispatch stage: batch formed → first execution attempt.
    #[must_use]
    pub fn dispatch_us(&self) -> u64 {
        self.exec_start_us.saturating_sub(self.dequeue_us)
    }

    /// Execute stage: first attempt begins → final attempt ends
    /// (retries and backoff included).
    #[must_use]
    pub fn execute_us(&self) -> u64 {
        self.exec_end_us.saturating_sub(self.exec_start_us)
    }

    /// Reply stage: execution done → reply recorded.
    #[must_use]
    pub fn reply_stage_us(&self) -> u64 {
        self.reply_us.saturating_sub(self.exec_end_us)
    }

    /// End-to-end latency (enqueue → reply).
    #[must_use]
    pub fn end_to_end_us(&self) -> u64 {
        self.reply_us.saturating_sub(self.enqueue_us)
    }

    /// Sum of the five stages. Equals [`end_to_end_us`](Self::end_to_end_us)
    /// exactly whenever the record [`is_monotonic`](Self::is_monotonic).
    #[must_use]
    pub fn stage_sum_us(&self) -> u64 {
        self.queue_wait_us()
            + self.linger_us
            + self.dispatch_us()
            + self.execute_us()
            + self.reply_stage_us()
    }

    /// Whether the timeline is well-formed: timestamps are monotone and
    /// the linger attribution fits inside the queued interval.
    #[must_use]
    pub fn is_monotonic(&self) -> bool {
        self.enqueue_us <= self.dequeue_us
            && self.dequeue_us <= self.exec_start_us
            && self.exec_start_us <= self.exec_end_us
            && self.exec_end_us <= self.reply_us
            && self.linger_us <= self.dequeue_us - self.enqueue_us
    }

    fn pack(&self) -> [u64; WORDS] {
        // Word 7 layout (high → low):
        //   batch:16 | retries:16 | model:16 | priority:8 | outcome:8
        // Batch and retries saturate at u16::MAX; real batches are
        // single digits and a request that retried 65k times has a
        // bigger problem than a clipped trace field.
        [
            self.seq,
            self.enqueue_us,
            self.dequeue_us,
            self.exec_start_us,
            self.exec_end_us,
            self.reply_us,
            self.linger_us,
            (u64::from(self.batch.min(0xFFFF)) << 48)
                | (u64::from(self.retries.min(0xFFFF)) << 32)
                | (u64::from(self.model) << 16)
                | (u64::from(self.priority) << 8)
                | self.outcome.code(),
        ]
    }

    fn unpack(words: [u64; WORDS]) -> Self {
        SpanRecord {
            seq: words[0],
            enqueue_us: words[1],
            dequeue_us: words[2],
            exec_start_us: words[3],
            exec_end_us: words[4],
            reply_us: words[5],
            linger_us: words[6],
            batch: ((words[7] >> 48) & 0xFFFF) as u32,
            retries: ((words[7] >> 32) & 0xFFFF) as u32,
            model: ((words[7] >> 16) & 0xFFFF) as u16,
            priority: ((words[7] >> 8) & 0xFF) as u8,
            outcome: SpanOutcome::from_code(words[7] & 0xFF),
        }
    }
}

impl fmt::Display for SpanRecord {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "span#{} [{}] e2e={}us queue={}us linger={}us dispatch={}us execute={}us reply={}us batch={} retries={} model={} prio={}",
            self.seq,
            self.outcome,
            self.end_to_end_us(),
            self.queue_wait_us(),
            self.linger_us,
            self.dispatch_us(),
            self.execute_us(),
            self.reply_stage_us(),
            self.batch,
            self.retries,
            self.model,
            self.priority
        )
    }
}

/// Bounded lock-free ring of the most recent spans.
pub struct TraceRing(SeqRing<WORDS>);

impl fmt::Debug for TraceRing {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        self.0.debug_as("TraceRing", f)
    }
}

impl TraceRing {
    /// A ring retaining the most recent `capacity` spans.
    ///
    /// # Panics
    ///
    /// Panics if `capacity` is 0.
    #[must_use]
    pub fn new(capacity: usize) -> Self {
        TraceRing(SeqRing::new(capacity))
    }

    /// Slots in the ring.
    #[must_use]
    pub fn capacity(&self) -> usize {
        self.0.capacity()
    }

    /// Spans successfully recorded (including those since overwritten).
    #[must_use]
    pub fn recorded(&self) -> u64 {
        self.0.recorded()
    }

    /// Spans dropped because a concurrent writer held the claimed slot.
    #[must_use]
    pub fn dropped(&self) -> u64 {
        self.0.dropped()
    }

    /// Records one span. Lock-free and non-blocking: the only loss mode
    /// is a writer lapped by the entire ring mid-write, counted in
    /// [`dropped`](Self::dropped).
    pub fn record(&self, span: &SpanRecord) {
        self.0.push(span.pack());
    }

    /// Reads every stable span currently in the ring, ordered by
    /// submission sequence. Slots mid-write are retried a few times,
    /// then skipped; torn records are never returned.
    #[must_use]
    pub fn snapshot(&self) -> Vec<SpanRecord> {
        self.0
            .snapshot()
            .into_iter()
            .map(SpanRecord::unpack)
            .collect()
    }
}

impl Exportable for TraceRing {
    /// Subsystem `trace`: the ring's own health — spans recorded and
    /// spans dropped — so span loss is visible to scrapers instead of
    /// only via the `Debug` impl.
    fn export(&self) -> Export {
        Export {
            subsystem: "trace".into(),
            metrics: vec![
                Metric::counter(
                    "spans_recorded",
                    "spans recorded into the trace ring (including overwritten)",
                    self.recorded(),
                ),
                Metric::counter(
                    "spans_dropped",
                    "spans lost to a writer lapped mid-record",
                    self.dropped(),
                ),
                Metric::gauge(
                    "ring_capacity",
                    "slots in the trace ring",
                    self.capacity() as f64,
                ),
            ],
        }
    }
}

/// Per-stage latency attribution over a set of spans — the answer to
/// "where did the p99 go": queue, linger, dispatch, execute or reply.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct StageBreakdown {
    /// Spans aggregated.
    pub spans: u64,
    /// Queue-wait distribution (µs).
    pub queue_us: HistogramSnapshot,
    /// Batch-linger distribution (µs).
    pub linger_us: HistogramSnapshot,
    /// Dispatch distribution (µs).
    pub dispatch_us: HistogramSnapshot,
    /// Execute distribution (µs, retries included).
    pub execute_us: HistogramSnapshot,
    /// Reply distribution (µs).
    pub reply_us: HistogramSnapshot,
    /// End-to-end distribution (µs).
    pub end_to_end_us: HistogramSnapshot,
}

impl StageBreakdown {
    /// Aggregates a snapshot of spans into per-stage distributions.
    #[must_use]
    pub fn of(spans: &[SpanRecord]) -> Self {
        let (queue, linger, dispatch, execute, reply, e2e) = (
            Histogram::new(),
            Histogram::new(),
            Histogram::new(),
            Histogram::new(),
            Histogram::new(),
            Histogram::new(),
        );
        for s in spans {
            queue.record(s.queue_wait_us());
            linger.record(s.linger_us);
            dispatch.record(s.dispatch_us());
            execute.record(s.execute_us());
            reply.record(s.reply_stage_us());
            e2e.record(s.end_to_end_us());
        }
        StageBreakdown {
            spans: spans.len() as u64,
            queue_us: queue.snapshot(),
            linger_us: linger.snapshot(),
            dispatch_us: dispatch.snapshot(),
            execute_us: execute.snapshot(),
            reply_us: reply.snapshot(),
            end_to_end_us: e2e.snapshot(),
        }
    }

    /// (stage name, distribution) pairs in pipeline order.
    #[must_use]
    pub fn stages(&self) -> [(&'static str, &HistogramSnapshot); 5] {
        [
            ("queue", &self.queue_us),
            ("linger", &self.linger_us),
            ("dispatch", &self.dispatch_us),
            ("execute", &self.execute_us),
            ("reply", &self.reply_us),
        ]
    }
}

impl fmt::Display for StageBreakdown {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "stage attribution over {} spans (us):", self.spans)?;
        for (name, h) in self.stages() {
            writeln!(
                f,
                "  {name:<8} mean={:<8.1} p50~{:<6} p99~{}",
                h.mean(),
                h.quantile(0.50),
                h.quantile(0.99)
            )?;
        }
        write!(
            f,
            "  {:<8} mean={:<8.1} p50~{:<6} p99~{}",
            "e2e",
            self.end_to_end_us.mean(),
            self.end_to_end_us.quantile(0.50),
            self.end_to_end_us.quantile(0.99)
        )
    }
}

impl Exportable for StageBreakdown {
    fn export(&self) -> Export {
        let mut metrics = vec![Metric::counter(
            "spans",
            "spans aggregated into this breakdown",
            self.spans,
        )];
        for (name, h) in self.stages() {
            metrics.push(Metric::histogram(
                format!("{name}_us"),
                format!("{name} stage latency in microseconds"),
                h.clone(),
            ));
        }
        metrics.push(Metric::histogram(
            "end_to_end_us",
            "end-to-end request latency in microseconds",
            self.end_to_end_us.clone(),
        ));
        Export {
            subsystem: "trace".into(),
            metrics,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(seq: u64) -> SpanRecord {
        SpanRecord {
            seq,
            enqueue_us: 100 * seq,
            dequeue_us: 100 * seq + 40,
            exec_start_us: 100 * seq + 42,
            exec_end_us: 100 * seq + 90,
            reply_us: 100 * seq + 95,
            linger_us: 30,
            batch: 4,
            retries: 1,
            model: 2,
            priority: 1,
            outcome: SpanOutcome::Ok,
        }
    }

    #[test]
    fn stages_sum_to_end_to_end_exactly() {
        let s = span(3);
        assert!(s.is_monotonic());
        assert_eq!(s.queue_wait_us(), 10);
        assert_eq!(s.dispatch_us(), 2);
        assert_eq!(s.execute_us(), 48);
        assert_eq!(s.reply_stage_us(), 5);
        assert_eq!(s.stage_sum_us(), s.end_to_end_us());
        assert_eq!(s.end_to_end_us(), 95);
    }

    #[test]
    fn pack_round_trips() {
        let s = span(u64::MAX / 200);
        assert_eq!(SpanRecord::unpack(s.pack()), s);
        let extremes = SpanRecord {
            model: u16::MAX,
            priority: 2,
            batch: 0xFFFF,
            retries: 0xFFFF,
            ..span(9)
        };
        assert_eq!(SpanRecord::unpack(extremes.pack()), extremes);
        for outcome in [
            SpanOutcome::Ok,
            SpanOutcome::Failed,
            SpanOutcome::TimedOut,
            SpanOutcome::Quarantined,
            SpanOutcome::Shed,
        ] {
            let s = SpanRecord { outcome, ..span(7) };
            assert_eq!(SpanRecord::unpack(s.pack()).outcome, outcome);
        }
    }

    #[test]
    fn ring_keeps_the_most_recent_spans() {
        let ring = TraceRing::new(8);
        for seq in 1..=20 {
            ring.record(&span(seq));
        }
        let spans = ring.snapshot();
        assert_eq!(spans.len(), 8);
        assert_eq!(ring.recorded(), 20);
        assert_eq!(ring.dropped(), 0);
        // The last 8 written survive, in seq order.
        let seqs: Vec<u64> = spans.iter().map(|s| s.seq).collect();
        assert_eq!(seqs, (13..=20).collect::<Vec<_>>());
    }

    #[test]
    fn empty_ring_snapshot_is_empty() {
        assert!(TraceRing::new(4).snapshot().is_empty());
    }

    #[test]
    fn breakdown_aggregates_every_span() {
        let spans: Vec<SpanRecord> = (1..=50).map(span).collect();
        let b = StageBreakdown::of(&spans);
        assert_eq!(b.spans, 50);
        assert_eq!(b.end_to_end_us.count, 50);
        assert_eq!(b.execute_us.count, 50);
        // Every span has identical stage structure here.
        assert_eq!(b.end_to_end_us.min, 95);
        assert_eq!(b.end_to_end_us.max, 95);
    }

    #[test]
    fn span_display_is_stable() {
        assert_eq!(
            span(3).to_string(),
            "span#3 [ok] e2e=95us queue=10us linger=30us dispatch=2us execute=48us reply=5us batch=4 retries=1 model=2 prio=1"
        );
    }
}
