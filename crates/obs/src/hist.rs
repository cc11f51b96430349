//! Wait-free log2-bucketed atomic histograms.
//!
//! A [`Histogram`] holds one atomic counter per power-of-two bucket
//! plus running count/sum/min/max. [`Histogram::record`] is a handful
//! of relaxed atomic RMWs — no lock, no allocation, no contention
//! point beyond cache-line traffic — which is what lets every serving
//! worker record its reply latency on the hot path. A
//! [`HistogramSnapshot`] is the full distribution; quantiles read off
//! it are exact up to bucket resolution (one power of two, i.e. a
//! relative error below 2×), which is plenty to attribute a p99.

use serde::{Deserialize, Serialize};
use std::fmt;
use std::sync::atomic::{AtomicU64, Ordering};

/// Bucket count: index 0 holds the value 0, index `i ≥ 1` holds
/// `[2^(i-1), 2^i - 1]`, up to index 64 covering the top of `u64`.
pub const BUCKETS: usize = 65;

/// The bucket index a value lands in.
#[must_use]
pub fn bucket_of(value: u64) -> usize {
    (u64::BITS - value.leading_zeros()) as usize
}

/// Inclusive `[lo, hi]` bounds of bucket `index`.
///
/// # Panics
///
/// Panics if `index >= BUCKETS`.
#[must_use]
pub fn bucket_bounds(index: usize) -> (u64, u64) {
    assert!(index < BUCKETS, "bucket index out of range");
    match index {
        0 => (0, 0),
        64 => (1 << 63, u64::MAX),
        i => (1 << (i - 1), (1 << i) - 1),
    }
}

/// Lock-free log2 histogram. All methods take `&self`; share it behind
/// an `Arc` (or plain borrow) across recording threads.
#[derive(Debug)]
pub struct Histogram {
    counts: [AtomicU64; BUCKETS],
    count: AtomicU64,
    sum: AtomicU64,
    min: AtomicU64,
    max: AtomicU64,
}

impl Default for Histogram {
    fn default() -> Self {
        Histogram::new()
    }
}

impl Histogram {
    /// An empty histogram.
    #[must_use]
    pub fn new() -> Self {
        Histogram {
            counts: std::array::from_fn(|_| AtomicU64::new(0)),
            count: AtomicU64::new(0),
            sum: AtomicU64::new(0),
            min: AtomicU64::new(u64::MAX),
            max: AtomicU64::new(0),
        }
    }

    /// Records one sample. Wait-free: five atomic RMWs. The bucket goes
    /// last, with release ordering, so a snapshot that counts the sample
    /// also sees it in `min` and `max`.
    pub fn record(&self, value: u64) {
        self.min.fetch_min(value, Ordering::Relaxed);
        self.max.fetch_max(value, Ordering::Relaxed);
        self.count.fetch_add(1, Ordering::Relaxed);
        self.sum.fetch_add(value, Ordering::Relaxed);
        self.counts[bucket_of(value)].fetch_add(1, Ordering::Release);
    }

    /// Samples recorded so far.
    #[must_use]
    pub fn count(&self) -> u64 {
        self.count.load(Ordering::Relaxed)
    }

    /// Reads the current distribution. Concurrent `record`s may or may
    /// not be included; every bucket that is included is consistent, and
    /// `min` and `max` bound every sample the buckets count.
    #[must_use]
    pub fn snapshot(&self) -> HistogramSnapshot {
        let counts: Vec<u64> = self
            .counts
            .iter()
            .map(|c| c.load(Ordering::Acquire))
            .collect();
        let count = counts.iter().sum();
        let min = self.min.load(Ordering::Relaxed);
        HistogramSnapshot {
            counts,
            count,
            sum: self.sum.load(Ordering::Relaxed),
            min: if count == 0 { 0 } else { min },
            max: self.max.load(Ordering::Relaxed),
        }
    }
}

/// Point-in-time copy of a [`Histogram`] — the full distribution.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct HistogramSnapshot {
    /// Per-bucket sample counts (see [`bucket_bounds`]); always
    /// [`BUCKETS`] entries.
    pub counts: Vec<u64>,
    /// Total samples.
    pub count: u64,
    /// Sum of all sample values (wrapping beyond `u64::MAX`).
    pub sum: u64,
    /// Smallest sample (0 when empty).
    pub min: u64,
    /// Largest sample (0 when empty).
    pub max: u64,
}

impl HistogramSnapshot {
    /// An empty snapshot (what `Histogram::new().snapshot()` returns).
    #[must_use]
    pub fn empty() -> Self {
        HistogramSnapshot {
            counts: vec![0; BUCKETS],
            count: 0,
            sum: 0,
            min: 0,
            max: 0,
        }
    }

    /// Folds another snapshot into this one: bucket counts add
    /// elementwise, totals add, and min/max widen. The result is
    /// exactly the snapshot one histogram would hold had it recorded
    /// both sample streams — what the multi-tenant gateway uses to
    /// aggregate per-model latency distributions into a fleet view.
    pub fn merge(&mut self, other: &HistogramSnapshot) {
        for (mine, theirs) in self.counts.iter_mut().zip(&other.counts) {
            *mine += theirs;
        }
        if other.count > 0 {
            self.min = if self.count == 0 {
                other.min
            } else {
                self.min.min(other.min)
            };
            self.max = self.max.max(other.max);
        }
        self.count += other.count;
        self.sum = self.sum.wrapping_add(other.sum);
    }

    /// Mean sample value (0 when empty).
    #[must_use]
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum as f64 / self.count as f64
        }
    }

    /// The `q`-quantile (`0 < q ≤ 1`), estimated to bucket resolution.
    ///
    /// Rank convention: the estimate lands in the same bucket as entry
    /// `ceil(q·n) - 1` of the sorted sample list, and is clamped to the
    /// observed `[min, max]`, so it is within one bucket's width (a
    /// factor of two) of the exact sample quantile — property-tested in
    /// `tests/proptests.rs`. Returns 0 when empty.
    #[must_use]
    pub fn quantile(&self, q: f64) -> u64 {
        if self.count == 0 {
            return 0;
        }
        let rank = ((q * self.count as f64).ceil() as u64).clamp(1, self.count);
        let mut seen = 0u64;
        for (i, &c) in self.counts.iter().enumerate() {
            seen += c;
            if seen >= rank {
                let (lo, hi) = bucket_bounds(i);
                let mid = lo + (hi - lo) / 2;
                return mid.clamp(self.min, self.max);
            }
        }
        self.max
    }
}

impl fmt::Display for HistogramSnapshot {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "histogram(count={}, sum={}, min={}, max={}, p50~{}, p99~{})",
            self.count,
            self.sum,
            self.min,
            self.max,
            self.quantile(0.50),
            self.quantile(0.99)
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn buckets_partition_the_u64_line() {
        assert_eq!(bucket_of(0), 0);
        assert_eq!(bucket_of(1), 1);
        assert_eq!(bucket_of(2), 2);
        assert_eq!(bucket_of(3), 2);
        assert_eq!(bucket_of(4), 3);
        assert_eq!(bucket_of(u64::MAX), 64);
        for i in 0..BUCKETS {
            let (lo, hi) = bucket_bounds(i);
            assert!(lo <= hi);
            assert_eq!(bucket_of(lo), i);
            assert_eq!(bucket_of(hi), i);
        }
    }

    #[test]
    fn record_updates_all_aggregates() {
        let h = Histogram::new();
        for v in [1u64, 2, 3, 4, 5, 6] {
            h.record(v);
        }
        let s = h.snapshot();
        assert_eq!(s.count, 6);
        assert_eq!(s.sum, 21);
        assert_eq!(s.min, 1);
        assert_eq!(s.max, 6);
        assert!((s.mean() - 3.5).abs() < 1e-12);
        // 1 → bucket 1; 2,3 → bucket 2; 4,5,6 → bucket 3.
        assert_eq!(&s.counts[..4], &[0, 1, 2, 3]);
    }

    #[test]
    fn quantile_lands_in_the_exact_values_bucket() {
        let h = Histogram::new();
        for v in 1..=100u64 {
            h.record(v);
        }
        let s = h.snapshot();
        // Exact p50 (rank-50 sample) is 50 → bucket [32, 63].
        let p50 = s.quantile(0.50);
        assert_eq!(bucket_of(p50), bucket_of(50), "p50 estimate {p50}");
        // Exact p99 (rank-99 sample) is 99 → bucket [64, 127]; the
        // estimate is clamped to max = 100.
        let p99 = s.quantile(0.99);
        assert_eq!(bucket_of(p99), bucket_of(99), "p99 estimate {p99}");
        assert!(p99 <= 100);
    }

    #[test]
    fn empty_histogram_is_all_zero() {
        let s = Histogram::new().snapshot();
        assert_eq!(s, HistogramSnapshot::empty());
        assert_eq!(s.quantile(0.5), 0);
        assert_eq!(s.mean(), 0.0);
    }

    #[test]
    fn concurrent_recording_loses_nothing() {
        let h = std::sync::Arc::new(Histogram::new());
        let threads: Vec<_> = (0..4)
            .map(|t| {
                let h = std::sync::Arc::clone(&h);
                std::thread::spawn(move || {
                    for i in 0..10_000u64 {
                        h.record(t * 10_000 + i);
                    }
                })
            })
            .collect();
        for t in threads {
            t.join().unwrap();
        }
        let s = h.snapshot();
        assert_eq!(s.count, 40_000);
        assert_eq!(s.counts.iter().sum::<u64>(), 40_000);
        assert_eq!(s.min, 0);
        assert_eq!(s.max, 39_999);
    }

    #[test]
    fn snapshot_during_recording_bounds_what_it_counts() {
        // A snapshot racing a histogram's first samples counts each one
        // only once `min` and `max` cover it, so its quantiles never see
        // min > max. With the bucket bumped first, release builds hit
        // the race and debug builds did not, so ci.sh also runs this
        // test in release.
        for round in 0..500u64 {
            let h = Histogram::new();
            let done = std::sync::atomic::AtomicBool::new(false);
            std::thread::scope(|scope| {
                scope.spawn(|| {
                    for v in [round + 7, round + 3, round + 11] {
                        h.record(v);
                    }
                    done.store(true, Ordering::Release);
                });
                while !done.load(Ordering::Acquire) {
                    let s = h.snapshot();
                    if s.count > 0 {
                        assert!(s.min <= s.max, "min {} > max {}", s.min, s.max);
                        let _ = s.quantile(0.5);
                    }
                }
            });
        }
    }

    #[test]
    fn merge_matches_single_histogram_of_both_streams() {
        let (a, b, both) = (Histogram::new(), Histogram::new(), Histogram::new());
        for v in [1u64, 5, 9, 200] {
            a.record(v);
            both.record(v);
        }
        for v in [0u64, 3, 1_000_000] {
            b.record(v);
            both.record(v);
        }
        let mut merged = a.snapshot();
        merged.merge(&b.snapshot());
        assert_eq!(merged, both.snapshot());
        // Merging an empty snapshot is the identity in both directions.
        let mut e = HistogramSnapshot::empty();
        e.merge(&both.snapshot());
        assert_eq!(e, both.snapshot());
        let mut m = both.snapshot();
        m.merge(&HistogramSnapshot::empty());
        assert_eq!(m, both.snapshot());
    }

    #[test]
    fn display_is_stable() {
        let h = Histogram::new();
        for v in [1u64, 2, 3, 4, 5, 6] {
            h.record(v);
        }
        // p50: rank 3 → bucket [2,3], midpoint 2; p99: rank 6 →
        // bucket [4,7], midpoint 5 (both inside the exact value's
        // bucket — the resolution contract).
        assert_eq!(
            h.snapshot().to_string(),
            "histogram(count=6, sum=21, min=1, max=6, p50~2, p99~5)"
        );
    }
}
