//! Windowed time-series over fixed-width time buckets.
//!
//! A [`TimeSeries`] is a bounded ring of fixed-width buckets, each
//! holding ok/error counts and a log2 latency histogram. Queries —
//! [`rate`](TimeSeries::rate), [`error_ratio`](TimeSeries::error_ratio),
//! [`quantile`](TimeSeries::quantile) — answer over a trailing window
//! ending at a caller-supplied "now", so the SLO engine can evaluate
//! multi-window burn rates over the same data the exporters render.
//!
//! Time is deliberately abstract: every method takes `u64` instants in
//! whatever unit the owner journals in. Serve's SLO engine feeds the
//! submission sequence number, fleet feeds simulation ticks — both are
//! "clocks", and seeded runs reproduce bucket contents bit-for-bit.

use crate::hist::{bucket_of, HistogramSnapshot, BUCKETS};
use crate::{Export, Exportable, Metric};
use serde::{Deserialize, Serialize};

/// One fixed-width bucket: counts plus a log2 latency histogram.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
struct Bucket {
    /// Absolute bucket index (`instant / width`).
    index: u64,
    ok: u64,
    err: u64,
    latency_counts: Vec<u64>,
    latency_sum: u64,
    latency_min: u64,
    latency_max: u64,
}

impl Bucket {
    fn empty(index: u64) -> Bucket {
        Bucket {
            index,
            ok: 0,
            err: 0,
            latency_counts: vec![0; BUCKETS],
            latency_sum: 0,
            latency_min: u64::MAX,
            latency_max: 0,
        }
    }

    fn total(&self) -> u64 {
        self.ok + self.err
    }
}

/// A bounded ring of fixed-width time buckets.
///
/// Not thread-safe by itself — owners that share it put it behind a
/// mutex (the SLO engine) or own it exclusively. Recording is a few
/// integer adds; queries walk at most `retain` buckets.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct TimeSeries {
    name: String,
    width: u64,
    retain: usize,
    /// Newest-last ring of consecutive buckets (gaps are materialized
    /// as empty buckets so windows stay O(retain)).
    buckets: Vec<Bucket>,
    /// Samples older than the retained window, counted not stored.
    late: u64,
}

impl TimeSeries {
    /// A series of `retain` buckets, each `width` clock units wide.
    ///
    /// # Panics
    ///
    /// Panics if `width` is 0 or `retain` is 0.
    #[must_use]
    pub fn new(name: impl Into<String>, width: u64, retain: usize) -> Self {
        assert!(width > 0, "bucket width must be positive");
        assert!(retain > 0, "series must retain at least one bucket");
        TimeSeries {
            name: name.into(),
            width,
            retain,
            buckets: Vec::new(),
            late: 0,
        }
    }

    /// The series name (exporter label).
    #[must_use]
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Bucket width in clock units.
    #[must_use]
    pub fn width(&self) -> u64 {
        self.width
    }

    /// Samples that arrived older than the retained window and were
    /// counted but not stored.
    #[must_use]
    pub fn late(&self) -> u64 {
        self.late
    }

    fn bucket_at(&mut self, at: u64) -> Option<&mut Bucket> {
        let index = at / self.width;
        match self.buckets.last() {
            None => self.buckets.push(Bucket::empty(index)),
            Some(last) if index > last.index => {
                // Materialize gap buckets, bounded by the ring size.
                let first_needed = index.saturating_sub(self.retain as u64 - 1);
                let mut next = (last.index + 1).max(first_needed);
                if next > last.index + 1 {
                    self.buckets.clear();
                }
                while next <= index {
                    self.buckets.push(Bucket::empty(next));
                    next += 1;
                }
                let excess = self.buckets.len().saturating_sub(self.retain);
                if excess > 0 {
                    self.buckets.drain(..excess);
                }
            }
            Some(_) => {}
        }
        let first = self.buckets[0].index;
        if index < first {
            self.late += 1;
            return None;
        }
        let offset = (index - first) as usize;
        self.buckets.get_mut(offset)
    }

    /// Records a successful sample with its latency.
    pub fn record_ok(&mut self, at: u64, latency: u64) {
        if let Some(b) = self.bucket_at(at) {
            b.ok += 1;
            b.latency_counts[bucket_of(latency)] += 1;
            b.latency_sum += latency;
            b.latency_min = b.latency_min.min(latency);
            b.latency_max = b.latency_max.max(latency);
        }
    }

    /// Records a failed sample (no latency attributed).
    pub fn record_err(&mut self, at: u64) {
        if let Some(b) = self.bucket_at(at) {
            b.err += 1;
        }
    }

    fn window(&self, now: u64, window: u64) -> impl Iterator<Item = &Bucket> {
        let hi = now / self.width;
        let lo = now.saturating_sub(window.saturating_sub(1)) / self.width;
        self.buckets
            .iter()
            .filter(move |b| b.index >= lo && b.index <= hi)
    }

    /// Samples (ok + err) per clock unit over the trailing `window`
    /// ending at `now`. Bucket-granular: the window is widened to whole
    /// buckets, so the same inputs always yield the same rate.
    #[must_use]
    pub fn rate(&self, now: u64, window: u64) -> f64 {
        let total: u64 = self.window(now, window).map(Bucket::total).sum();
        let hi = now / self.width;
        let lo = now.saturating_sub(window.saturating_sub(1)) / self.width;
        let span = (hi - lo + 1) * self.width;
        total as f64 / span as f64
    }

    /// Raw `(ok, err)` counts over the trailing `window` ending at
    /// `now` (bucket-granular, like every window query).
    #[must_use]
    pub fn counts(&self, now: u64, window: u64) -> (u64, u64) {
        let (mut ok, mut err) = (0u64, 0u64);
        for b in self.window(now, window) {
            ok += b.ok;
            err += b.err;
        }
        (ok, err)
    }

    /// Errors as a fraction of all samples over the trailing `window`;
    /// 0 when the window is empty.
    #[must_use]
    pub fn error_ratio(&self, now: u64, window: u64) -> f64 {
        let (ok, err) = self.counts(now, window);
        if ok + err == 0 {
            0.0
        } else {
            err as f64 / (ok + err) as f64
        }
    }

    /// The latency distribution over the trailing `window` as one
    /// merged snapshot (error samples carry no latency).
    #[must_use]
    pub fn latency(&self, now: u64, window: u64) -> HistogramSnapshot {
        let mut merged = HistogramSnapshot::empty();
        for b in self.window(now, window) {
            if b.ok == 0 {
                continue;
            }
            let snap = HistogramSnapshot {
                counts: b.latency_counts.clone(),
                count: b.ok,
                sum: b.latency_sum,
                min: b.latency_min,
                max: b.latency_max,
            };
            merged.merge(&snap);
        }
        merged
    }

    /// The `q`-quantile of latency over the trailing `window`
    /// (bucket-resolution, like [`HistogramSnapshot::quantile`]).
    #[must_use]
    pub fn quantile(&self, now: u64, window: u64, q: f64) -> u64 {
        self.latency(now, window).quantile(q)
    }

    /// Newest instant covered by any retained bucket, or 0 when empty —
    /// what the exporter uses as its "now".
    #[must_use]
    pub fn horizon(&self) -> u64 {
        self.buckets
            .last()
            .map_or(0, |b| (b.index + 1) * self.width - 1)
    }
}

impl Exportable for TimeSeries {
    /// Subsystem `series`: rate/error-ratio/latency over the full
    /// retained window, labelled with the series name.
    fn export(&self) -> Export {
        let now = self.horizon();
        let window = self.width * self.retain as u64;
        let label = |m: Metric| m.with_label("series", self.name.clone());
        Export {
            subsystem: "series".into(),
            metrics: vec![
                label(Metric::gauge(
                    "rate",
                    "samples per clock unit over the retained window",
                    self.rate(now, window),
                )),
                label(Metric::gauge(
                    "error_ratio",
                    "errors over all samples in the retained window",
                    self.error_ratio(now, window),
                )),
                label(Metric::counter(
                    "late_samples",
                    "samples older than the retained window (counted, not stored)",
                    self.late,
                )),
                label(Metric::histogram(
                    "latency",
                    "latency distribution over the retained window",
                    self.latency(now, window),
                )),
            ],
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn buckets_accumulate_and_windows_select() {
        let mut s = TimeSeries::new("replies", 10, 8);
        for at in 0..40u64 {
            s.record_ok(at, at + 1);
        }
        s.record_err(35);
        // Window covering everything.
        assert_eq!(s.error_ratio(39, 40), 1.0 / 41.0);
        let lat = s.latency(39, 40);
        assert_eq!(lat.count, 40);
        assert_eq!(lat.min, 1);
        assert_eq!(lat.max, 40);
        // Trailing single bucket [30, 39]: 10 ok + 1 err.
        assert_eq!(s.error_ratio(39, 10), 1.0 / 11.0);
        assert_eq!(s.latency(39, 10).count, 10);
        let r = s.rate(39, 10);
        assert!(
            (r - 1.1).abs() < 1e-12,
            "11 samples over one 10-wide bucket: {r}"
        );
    }

    #[test]
    fn ring_drops_old_buckets_and_counts_late_samples() {
        let mut s = TimeSeries::new("x", 10, 4);
        s.record_ok(5, 1);
        s.record_ok(95, 1); // jumps far ahead: old bucket evicted
        assert_eq!(s.latency(95, 100).count, 1, "bucket 0 fell out of the ring");
        s.record_ok(3, 9); // older than the retained window
        assert_eq!(s.late(), 1);
        assert_eq!(s.latency(95, 100).count, 1);
    }

    #[test]
    fn gap_buckets_materialize_as_empty() {
        let mut s = TimeSeries::new("x", 10, 8);
        s.record_ok(5, 1);
        s.record_ok(25, 1); // skips bucket 1
        assert_eq!(s.latency(29, 30).count, 2);
        assert_eq!(s.rate(29, 30), 2.0 / 30.0);
        // The empty middle bucket dilutes the trailing 20-wide window.
        assert_eq!(s.rate(29, 20), 1.0 / 20.0);
    }

    #[test]
    fn deterministic_replay_is_bitwise_identical() {
        let build = || {
            let mut s = TimeSeries::new("det", 7, 5);
            for i in 0..200u64 {
                if i % 13 == 0 {
                    s.record_err(i);
                } else {
                    s.record_ok(i, i * 3 % 97);
                }
            }
            s
        };
        let (a, b) = (build(), build());
        assert_eq!(a, b);
        assert_eq!(a.rate(199, 35).to_bits(), b.rate(199, 35).to_bits());
        assert_eq!(
            a.error_ratio(199, 35).to_bits(),
            b.error_ratio(199, 35).to_bits()
        );
        assert_eq!(a.quantile(199, 35, 0.99), b.quantile(199, 35, 0.99));
    }

    #[test]
    fn export_round_trips() {
        let mut s = TimeSeries::new("replies", 10, 4);
        for at in 0..30u64 {
            s.record_ok(at, 100 + at);
        }
        s.record_err(29);
        let export = s.export();
        assert_eq!(export.subsystem, "series");
        assert!(export
            .metrics
            .iter()
            .all(|m| m.labels == vec![("series".to_string(), "replies".to_string())]));
        assert_eq!(Export::from_json(&export.to_json()), Some(export));
    }
}
