//! Host-speed references. This host is a VM sharing its machine with
//! other tenants: the same code runs up to ~2x slower for seconds to
//! minutes at a time, and waking a thread takes longer when the machine
//! is busy. The guest's steal time (under 1% when quiet, 10-13% in the
//! worst episodes) shows that an episode is on but not how slow it is.
//! Two references owned by the benchmark, timed next to the measured
//! work, track that, so timings can be reported at a reference host speed
//! (README, "Host noise"):
//!
//! - [`Probe`], a fixed compute kernel, for work that is pure computation
//!   on one thread (runner passes, deploys);
//! - [`reference_requests`], a request shaped like a served one (wake a
//!   worker, wait out the batcher's linger, compute, wake the client), for
//!   the serving workloads; one [`Reference`] per kind of served model.

use crate::report::median;
use std::hint::black_box;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::mpsc;
use std::time::{Duration, Instant};

/// Probe time on this host when it is quiet (2-thread VM, see README).
/// Normalized timings read as if every probe had taken this long.
const PROBE_NOMINAL_MS: f64 = 0.35;

/// Minimum gap between two probes in a measured loop: 0.35 ms in 5 ms,
/// close enough to follow host stalls a few passes long.
const PROBE_EVERY: Duration = Duration::from_millis(5);
/// Gap between two reference requests (each holds a worker for ~1 ms).
const REFERENCE_EVERY: Duration = Duration::from_millis(20);
/// Reference requests on either side of a served request whose median
/// gives the host slowdown at its time: about 0.4 s of them.
const REFERENCE_NEAR: usize = 10;

/// Elements per probe operand: two 32 KiB f32 vectors, L2-resident.
const LEN: usize = 8192;
/// Dot products per probe (about 0.35 ms on this host).
const REPS: usize = 200;

pub struct Probe {
    a: Vec<f32>,
    b: Vec<f32>,
    /// When each probe ended, and how long it took (ms); in time order.
    samples: Vec<(Instant, f64)>,
}

impl Default for Probe {
    fn default() -> Self {
        let a: Vec<f32> = (0..LEN).map(|i| (i % 97) as f32 * 1e-3).collect();
        Probe {
            b: a.iter().rev().copied().collect(),
            a,
            samples: Vec::new(),
        }
    }
}

impl Probe {
    /// Times the kernel once.
    pub fn sample(&mut self) {
        self.sample_reps(REPS);
    }

    /// Times `reps` dot products of the kernel.
    fn sample_reps(&mut self, reps: usize) {
        let t = Instant::now();
        let mut sum = 0.0f32;
        for _ in 0..reps {
            sum += dot4(black_box(&self.a), black_box(&self.b));
        }
        black_box(sum);
        self.samples
            .push((Instant::now(), t.elapsed().as_secs_f64() * 1e3));
    }

    /// Samples unless the previous sample is younger than `PROBE_EVERY`.
    pub fn tick(&mut self) {
        if self
            .samples
            .last()
            .is_none_or(|(t, _)| t.elapsed() >= PROBE_EVERY)
        {
            self.sample();
        }
    }

    /// Median probe time over its quiet-host value: 1.0 on a quiet host,
    /// 1.5 when the host runs this code 1.5x slower.
    pub fn slowdown(&self) -> f64 {
        median(&self.samples.iter().map(|s| s.1).collect::<Vec<_>>()) / PROBE_NOMINAL_MS
    }

    /// Slowdown around `at`: the mean of the last probe before it and
    /// the first probe after it.
    fn slowdown_at(&self, at: Instant) -> f64 {
        let i = self.samples.partition_point(|(t, _)| *t < at);
        let near: Vec<f64> = self.samples[i.saturating_sub(1)..(i + 1).min(self.samples.len())]
            .iter()
            .map(|s| s.1)
            .collect();
        if near.is_empty() {
            1.0
        } else {
            near.iter().sum::<f64>() / near.len() as f64 / PROBE_NOMINAL_MS
        }
    }

    /// `(end, ms)` timings of computation at the reference host speed,
    /// each divided by the slowdown the probes measured around it.
    pub fn normalize(&self, timings: &[(Instant, f64)]) -> Vec<f64> {
        timings
            .iter()
            .map(|&(at, ms)| ms / self.slowdown_at(at))
            .collect()
    }
}

/// What a reference request computes, matched to the served model it
/// stands for. A host episode slows computation and wake-ups by different
/// factors, so a request that is mostly wake-ups needs a reference that
/// is too.
#[derive(Debug, Clone, Copy)]
pub struct Reference {
    /// Names the kind in the reported `host.<name>_slowdown`.
    pub name: &'static str,
    /// Dot products the worker runs per request.
    reps: usize,
    /// Round trip beyond the linger on a quiet host.
    excess_nominal_ms: f64,
}

impl Reference {
    /// For a model that computes for a few tenths of a millisecond
    /// (LeNet-5): the whole probe kernel plus two wake-ups.
    pub const COMPUTE: Reference = Reference {
        name: "compute",
        reps: REPS,
        excess_nominal_ms: 0.40,
    };
    /// For a model that barely computes (the 8x8 gesture CNN, ~2 us): a
    /// twentieth of the probe kernel, so the two wake-ups dominate.
    pub const WAKE: Reference = Reference {
        name: "wake",
        reps: REPS / 20,
        excess_nominal_ms: 0.12,
    };
}

/// Reference requests of `kind`, one every `REFERENCE_EVERY` whenever
/// `idle()` holds, until `done` is set: the calling thread wakes a worker
/// thread, which waits out `linger` on a timed wait, runs the kind's share
/// of the probe kernel and wakes the caller again. Returns when each was
/// answered and its round trip (ms), in time order.
pub fn reference_requests(
    kind: Reference,
    done: &AtomicBool,
    idle: impl Fn() -> bool,
    linger: Duration,
) -> Vec<(Instant, f64)> {
    let (to_worker, requests) = mpsc::channel::<()>();
    let (to_client, replies) = mpsc::channel::<()>();
    std::thread::scope(|s| {
        s.spawn(move || {
            let mut kernel = Probe::default();
            let (_never_sent, timer) = mpsc::channel::<()>();
            for () in requests {
                let _ = timer.recv_timeout(linger);
                kernel.sample_reps(kind.reps);
                if to_client.send(()).is_err() {
                    return;
                }
            }
        });
        let mut round_trips = Vec::new();
        let mut ask = || {
            let t = Instant::now();
            let answered = to_worker.send(()).is_ok() && replies.recv().is_ok();
            if answered {
                round_trips.push((Instant::now(), t.elapsed().as_secs_f64() * 1e3));
            }
        };
        ask();
        while !done.load(Ordering::Acquire) {
            std::thread::sleep(REFERENCE_EVERY);
            if idle() {
                ask();
            }
        }
        drop(to_worker);
        round_trips
    })
}

/// Host slowdown seen by `round_trips` of reference requests of `kind`
/// with the given linger: their median time beyond the linger over its
/// quiet-host value.
pub fn reference_slowdown(kind: Reference, round_trips: &[(Instant, f64)], linger_ms: f64) -> f64 {
    let ms: Vec<f64> = round_trips.iter().map(|r| r.1).collect();
    (median(&ms) - linger_ms) / kind.excess_nominal_ms
}

/// Host slowdown around `at`: that of the `REFERENCE_NEAR` reference
/// requests on either side of it, so that a host episode a few seconds
/// long is corrected with the slowdown measured during it.
pub fn reference_slowdown_at(
    kind: Reference,
    round_trips: &[(Instant, f64)],
    linger_ms: f64,
    at: Instant,
) -> f64 {
    let i = round_trips.partition_point(|(t, _)| *t < at);
    let near =
        &round_trips[i.saturating_sub(REFERENCE_NEAR)..(i + REFERENCE_NEAR).min(round_trips.len())];
    reference_slowdown(kind, near, linger_ms)
}

/// Four-lane f32 dot product with a fixed reduction order.
fn dot4(a: &[f32], b: &[f32]) -> f32 {
    let mut lanes = [0.0f32; 4];
    for (x, y) in a.chunks_exact(4).zip(b.chunks_exact(4)) {
        lanes[0] += x[0] * y[0];
        lanes[1] += x[1] * y[1];
        lanes[2] += x[2] * y[2];
        lanes[3] += x[3] * y[3];
    }
    (lanes[0] + lanes[1]) + (lanes[2] + lanes[3])
}
