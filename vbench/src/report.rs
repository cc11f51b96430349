//! The metric catalogue, the statistics behind it, and the two output
//! forms of one run: the one-line JSON result and an `obs::Export`.

use std::collections::BTreeMap;
use std::time::Instant;
use vedliot_obs::{Export, Metric};

/// One reported metric: a name, its unit and a one-line meaning.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct MetricDef {
    pub name: String,
    pub unit: &'static str,
    pub help: &'static str,
}

fn def(name: impl Into<String>, unit: &'static str, help: &'static str) -> MetricDef {
    MetricDef {
        name: name.into(),
        unit,
        help,
    }
}

/// Metrics of an untraced run, identical for every workload.
pub fn end_to_end() -> Vec<MetricDef> {
    vec![
        def(
            "setup_s",
            "s",
            "median cold deploy (unpack, quantize, build, first reply) at reference host speed",
        ),
        def(
            "latency_p50_ms",
            "ms",
            "median latency at reference host speed (median over stretches of the window)",
        ),
        def(
            "throughput_per_s",
            "1/s",
            "correct replies (passes or requests) per second of the window",
        ),
        def(
            "arena_peak_bytes",
            "bytes",
            "planned value-arena peak of a batch-1 runner over each deployed model",
        ),
    ]
}

/// Operator classes the per-op profile is grouped into.
pub const OP_CLASSES: [&str; 9] = [
    "conv_pointwise",
    "conv_spatial",
    "conv_depthwise",
    "dense",
    "batchnorm",
    "activation",
    "pool",
    "eltwise",
    "fakequant",
];

/// Serve stages reported as shares of the mean client latency.
pub const SERVE_STAGES: [&str; 7] = [
    "submit",
    "queue_wait",
    "linger",
    "dispatch",
    "execute",
    "reply",
    "wakeup",
];

/// Serve stages whose share of the slowest 1% of spans is reported.
pub const TAIL_STAGES: [&str; 3] = ["queue_wait", "linger", "execute"];

/// Metrics of a traced run, identical for every workload. A layer a
/// workload does not use reads 0, so every layer-specific metric is a
/// count or a share, never a time.
pub fn per_layer() -> Vec<MetricDef> {
    let mut defs = vec![
        def(
            "deploy.unpack_ms",
            "ms",
            "median ModelArtifact::unpack time per deploy",
        ),
        def(
            "deploy.build_ms",
            "ms",
            "median Runner::build or Server::start + load time per deploy",
        ),
        def(
            "deploy.first_reply_ms",
            "ms",
            "median time from build to the first reply per deploy",
        ),
        def(
            "deploy.passes_share",
            "ratio",
            "share of the deploy spent in QuantizeInt8::run",
        ),
        def(
            "exec.untracked_share",
            "ratio",
            "1 - RunProfile::coverage over the traced passes",
        ),
        def("exec.int8.nodes", "count", "nodes on the INT8 kernel path"),
        def(
            "exec.int8.share",
            "ratio",
            "share of pass wall time in INT8 nodes",
        ),
    ];
    for class in OP_CLASSES {
        defs.push(def(
            format!("exec.{class}.share"),
            "ratio",
            "share of pass wall time in this op class",
        ));
        defs.push(def(
            format!("exec.{class}.gops"),
            "GOP/s",
            "achieved operations per second in this op class",
        ));
        defs.push(def(
            format!("exec.{class}.roofline_ratio"),
            "ratio",
            "measured / PerfModel-predicted time on EPYC 3451 for this op class",
        ));
    }
    for stage in SERVE_STAGES {
        defs.push(def(
            format!("serve.{stage}.share"),
            "ratio",
            "mean stage time / mean client latency",
        ));
    }
    for stage in TAIL_STAGES {
        defs.push(def(
            format!("serve.{stage}.tail_share"),
            "ratio",
            "stage share of end-to-end time over spans at or above the span p99",
        ));
    }
    defs.extend([
        def("serve.batches", "count", "batched forward passes executed"),
        def(
            "serve.mean_batch",
            "req",
            "mean requests per executed batch",
        ),
        def("serve.batch_fill", "ratio", "mean_batch / max_batch"),
        def(
            "serve.queue_hwm",
            "count",
            "queue high-water mark (summed over pools)",
        ),
        def("serve.retries", "count", "batch retry attempts"),
        def(
            "serve.rejected",
            "count",
            "requests rejected or shed at admission",
        ),
        def(
            "serve.timed_out",
            "count",
            "requests purged past their deadline",
        ),
        def(
            "serve.failed",
            "count",
            "requests answered with an execution error",
        ),
        def(
            "obs.journal_recorded",
            "count",
            "flight-recorder events recorded",
        ),
        def(
            "obs.journal_dropped",
            "count",
            "flight-recorder events lost to slot races",
        ),
        def(
            "obs.spans_missing",
            "count",
            "served requests without a retained trace span",
        ),
        def(
            "obs.slo_eval.share",
            "ratio",
            "share of the window spent in Server::evaluate_slo",
        ),
        def(
            "client.late_share",
            "ratio",
            "mean open-loop send lateness / mean client latency",
        ),
        def(
            "host.threads",
            "count",
            "std::thread::available_parallelism",
        ),
        def(
            "trace.overhead_ratio",
            "ratio",
            "traced / untraced latency_p50_ms within this run",
        ),
    ]);
    defs
}

/// Outcome of one workload run.
#[derive(Debug, Clone)]
pub struct Report {
    pub workload: &'static str,
    pub trace: bool,
    /// Operations whose output was checked (deploy replies, warm-up and
    /// measured passes or requests).
    pub attempted: u64,
    /// Checked operations that failed, were refused or replied wrongly.
    pub failed: u64,
    /// Structural checks that did not hold (e.g. INT8 not engaged).
    pub problems: Vec<String>,
    values: BTreeMap<String, f64>,
}

impl Report {
    pub fn new(workload: &'static str, trace: bool) -> Self {
        Report {
            workload,
            trace,
            attempted: 0,
            failed: 0,
            problems: Vec::new(),
            values: BTreeMap::new(),
        }
    }

    pub fn set(&mut self, name: impl Into<String>, value: f64) {
        self.values.insert(name.into(), value);
    }

    pub fn value(&self, name: &str) -> Option<f64> {
        self.values.get(name).copied()
    }

    /// Counts one checked operation.
    pub fn check(&mut self, ok: bool) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
        }
    }

    pub fn require(&mut self, ok: bool, problem: impl FnOnce() -> String) {
        if !ok {
            self.problems.push(problem());
        }
    }

    pub fn correct(&self) -> bool {
        self.failed == 0 && self.problems.is_empty()
    }

    pub fn error_ratio(&self) -> f64 {
        self.failed as f64 / self.attempted.max(1) as f64
    }

    /// The metrics this run reports, in catalogue order. End-to-end
    /// metrics must all have been measured; a per-layer metric of a
    /// layer the workload does not use reads 0.
    ///
    /// # Panics
    ///
    /// Panics if an end-to-end metric was not measured: a bug in the
    /// workload, not a property of the system.
    pub fn metrics(&self) -> Vec<(MetricDef, f64)> {
        let defs = if self.trace {
            per_layer()
        } else {
            end_to_end()
        };
        defs.into_iter()
            .map(|d| {
                let v = self.values.get(&d.name).copied();
                let v = if self.trace {
                    v.unwrap_or(0.0)
                } else {
                    v.unwrap_or_else(|| panic!("{}: {} was not measured", self.workload, d.name))
                };
                (d, if v.is_finite() { v } else { 0.0 })
            })
            .collect()
    }

    /// Measured values outside this run's catalogue: the raw timings
    /// behind normalized ones and the host slowdown.
    pub fn extras(&self) -> Vec<(&str, f64)> {
        let listed: Vec<String> = self.metrics().into_iter().map(|(d, _)| d.name).collect();
        self.values
            .iter()
            .filter(|(k, _)| !listed.contains(k))
            .map(|(k, v)| (k.as_str(), *v))
            .collect()
    }

    /// The result line: `{"correct", "attempted", "failed", "metrics"}`.
    pub fn json_line(&self) -> String {
        let metrics: Vec<String> = self
            .metrics()
            .iter()
            .map(|(d, v)| {
                format!(
                    "\"{}\": {{\"value\": {v}, \"unit\": \"{}\"}}",
                    d.name, d.unit
                )
            })
            .collect();
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.correct(),
            self.attempted,
            self.failed,
            metrics.join(", ")
        )
    }

    /// The same run as an `obs::Export`, every metric labelled with its
    /// workload and unit.
    pub fn export(&self) -> Export {
        let label = |m: Metric| m.with_label("workload", self.workload);
        let mut metrics: Vec<Metric> = self
            .metrics()
            .into_iter()
            .map(|(d, v)| label(Metric::gauge(d.name, d.help, v)).with_label("unit", d.unit))
            .collect();
        metrics.push(label(Metric::counter(
            "attempted",
            "checked operations",
            self.attempted,
        )));
        metrics.push(label(Metric::counter(
            "failed",
            "failed, refused or wrong operations",
            self.failed,
        )));
        metrics.push(label(Metric::gauge(
            "error_ratio",
            "failed / attempted",
            self.error_ratio(),
        )));
        Export {
            subsystem: "vbench".into(),
            metrics,
        }
    }
}

/// Nearest-rank percentile (`q` in 0..=1) of unsorted samples; 0 when empty.
pub fn percentile(samples: &[f64], q: f64) -> f64 {
    if samples.is_empty() {
        return 0.0;
    }
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    let rank = (q * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// Most stretches a window is cut into for [`windowed_percentile`].
const STRETCHES: usize = 20;
/// Fewest samples a stretch holds, so its p90 has five beyond it.
const STRETCH_SAMPLES: usize = 50;

/// A window's `(time, value)` samples (in time order) cut into equal
/// stretches of time: as many as give each stretch `STRETCH_SAMPLES`,
/// at most `STRETCHES`.
fn stretches(samples: &[(Instant, f64)]) -> Vec<Vec<f64>> {
    let (Some(first), Some(last)) = (samples.first(), samples.last()) else {
        return Vec::new();
    };
    let k = (samples.len() / STRETCH_SAMPLES).clamp(1, STRETCHES);
    let span = (last.0 - first.0).as_secs_f64().max(f64::MIN_POSITIVE);
    let mut cut = vec![Vec::new(); k];
    for &(t, v) in samples {
        let i = ((t - first.0).as_secs_f64() / span * k as f64) as usize;
        cut[i.min(k - 1)].push(v);
    }
    cut.retain(|s| !s.is_empty());
    cut
}

/// Percentile `q` of a window, taken as the median over its stretches of
/// each stretch's percentile: a host stall confined to one stretch moves
/// one input of the median, not the result.
pub fn windowed_percentile(samples: &[(Instant, f64)], q: f64) -> f64 {
    median(
        &stretches(samples)
            .iter()
            .map(|s| percentile(s, q))
            .collect::<Vec<_>>(),
    )
}

/// Mean of a window, taken as the median over its stretches of each
/// stretch's mean.
pub fn windowed_mean(samples: &[(Instant, f64)]) -> f64 {
    median(
        &stretches(samples)
            .iter()
            .map(|s| mean(s))
            .collect::<Vec<_>>(),
    )
}

pub fn median(samples: &[f64]) -> f64 {
    percentile(samples, 0.5)
}

pub fn mean(samples: &[f64]) -> f64 {
    if samples.is_empty() {
        0.0
    } else {
        samples.iter().sum::<f64>() / samples.len() as f64
    }
}

/// Quartiles as Python's `statistics.quantiles(data, n=4)` computes them
/// (the default exclusive method), so the spreads `repeat` prints are the
/// ones an outside check of the same runs would compute.
pub fn quartiles(samples: &[f64]) -> (f64, f64, f64) {
    let mut s = samples.to_vec();
    s.sort_by(f64::total_cmp);
    let n = s.len();
    if n < 2 {
        let v = s.first().copied().unwrap_or(0.0);
        return (v, v, v);
    }
    let m = n + 1;
    let cut = |i: usize| {
        let j = (i * m / 4).clamp(1, n - 1);
        let delta = (i * m) as f64 / 4.0 - j as f64;
        s[j - 1] + (s[j] - s[j - 1]) * delta
    };
    (cut(1), cut(2), cut(3))
}
