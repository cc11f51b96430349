//! The typed BENCH gate behind `harness gate <baseline.json> <fresh.json>`.
//!
//! A checked-in `BENCH_*.json` baseline and a fresh snapshot of the same
//! experiment are both parsed with [`Export::from_json`] and held to
//! [`RULES`]: one line per gated series, naming its subsystem, metric,
//! label (if the series carries one) and the range of fresh values its
//! baseline allows. A new gate is one more line in that table.

use std::fmt::Write as _;
use std::ops::RangeInclusive;
use vedliot::obs::{Export, Metric, MetricValue};

const INF: f64 = f64::INFINITY;

/// One gated series of one subsystem's export.
#[derive(Debug)]
pub struct Rule {
    /// The export `subsystem` the rule belongs to.
    pub subsystem: &'static str,
    /// Metric name.
    pub metric: &'static str,
    /// The series' one label; `None` for an unlabelled metric. A metric
    /// matches only with exactly this label set.
    pub label: Option<(&'static str, &'static str)>,
    /// Maps the baseline value to the fresh values that pass, bounds
    /// included.
    pub allowed: fn(f64) -> RangeInclusive<f64>,
}

impl Rule {
    const fn new(
        subsystem: &'static str,
        metric: &'static str,
        label: Option<(&'static str, &'static str)>,
        allowed: fn(f64) -> RangeInclusive<f64>,
    ) -> Rule {
        Rule {
            subsystem,
            metric,
            label,
            allowed,
        }
    }

    /// `metric` or `metric{key=value}`.
    #[must_use]
    pub fn series(&self) -> String {
        match self.label {
            Some((key, value)) => format!("{}{{{key}={value}}}", self.metric),
            None => self.metric.to_string(),
        }
    }

    /// Whether `metric` is this rule's series: same name, same label set.
    #[must_use]
    pub fn matches(&self, metric: &Metric) -> bool {
        metric.name == self.metric
            && metric
                .labels
                .iter()
                .map(|(k, v)| (k.as_str(), v.as_str()))
                .eq(self.label)
    }

    /// The series' value in `export`, which must hold it exactly once as
    /// a counter or gauge.
    fn value(&self, file: &str, export: &Export) -> Result<f64, String> {
        let values: Vec<f64> = export
            .metrics
            .iter()
            .filter(|m| self.matches(m))
            .filter_map(|m| match m.value {
                MetricValue::Counter(c) => Some(c as f64),
                MetricValue::Gauge(g) => Some(g),
                MetricValue::Histogram(_) => None,
            })
            .collect();
        match values[..] {
            [value] => Ok(value),
            _ => Err(format!(
                "{file} holds gated series {} {} times, not once",
                self.series(),
                values.len()
            )),
        }
    }
}

/// Every gated series. Each experiment also asserts its own hard
/// invariants while it runs; these lines hold its snapshot to the
/// checked-in baseline `b`.
#[rustfmt::skip]
pub const RULES: &[Rule] = &[
    // E24 (BENCH_pr6.json): per-sample conv cost at batch 8 relative to
    // batch 1, the E21 cliff metric. 30% timing-noise headroom over the
    // baseline, and never a bound below batch-flat.
    Rule::new("kernels", "b8_over_b1", None, |b| -INF..=(1.30 * b).max(1.0)),
    // INT8 must pay for itself: per sample, the INT8 kernels are no slower
    // than the fake-quant f32 path timed on the same graph in the same run.
    Rule::new("kernels", "int8_over_f32", None, |_| -INF..=1.0),
    // Each INT8 conv of LeNet-5 folds the max-pool after it, so its
    // full-resolution output owns no arena space, and each value only INT8
    // nodes read takes one byte per element; the planned peak is
    // deterministic and may only fall.
    Rule::new("kernels", "int8_arena_peak_bytes", None, |b| -INF..=b),
    // The same on the paper's own model: a serial INT8 MobileNetV3 pass
    // is no slower than the same graph's fake-quant f32 pass (median of
    // 21 per-round ratios). It read 1.5-1.8 before the INT8 GEMM and
    // 0.87-0.95 over 20 runs after it, five of them beside a busy loop
    // on a 2-thread host. A reading just over 1.0 on a busy host: rerun
    // once before suspecting a change.
    Rule::new("kernels", "mobilenet_int8_over_f32", None, |_| -INF..=1.0),
    // The f32 conv kernels stay within reach of each other: per MAC, a
    // MobileNetV3 pass's depthwise convs cost at most 5x its pointwise
    // GEMM, both timed in the same profiled passes. Reverting either
    // conv kernel to its pre-tiling loop crosses this line.
    Rule::new("kernels", "depthwise_over_pointwise_ns_per_mac", None, |_| -INF..=5.0),
    // Short 1×1 convs (at most 32 input channels, at least 8 pixels) run
    // the lane kernel: per MAC at most 1.85x the 1×1 convs left on the
    // im2col tile (median over 15 profiled MobileNetV3 passes of each
    // pass's ratio). On the tile they read 1.82-2.12 over 30 runs
    // (median 2.04; 2 of the 30 under the bound), on the lane kernel
    // 1.60-1.81 over 40.
    Rule::new("kernels", "pointwise_lanes_over_tile_ns_per_mac", None, |_| -INF..=1.85),
    // One-pixel 1×1 convs and the dense head run the matrix-vector tile:
    // per MAC at most 4.6x the im2col tile in the least disturbed of the
    // same passes (they stream ~16 MB of weights a pass, so their time
    // follows the host's memory traffic). As lone dot4 chains they read
    // 4.95-6.61 over 10 runs, on the tile 2.82-4.23 over 20.
    Rule::new("kernels", "matvec_over_tile_ns_per_mac", None, |_| -INF..=4.6),
    // Stride-1 convs of at most 32 taps over rows of at least 8 pixels
    // run the lane kernel too: LeNet-5's 5x5 conv1 costs per MAC at most
    // 2.0x its conv2 on the im2col tile (median over 101 profiled passes
    // of each pass's ratio). With conv1 on the tile's gather it read
    // 2.38-2.83 over 30 runs, on the lane kernel 1.31-1.68 over 30.
    Rule::new("kernels", "spatial_lanes_over_tile_ns_per_mac", None, |_| -INF..=2.0),
    // The runner fuses BatchNorm, activation and residual add into the
    // conv that feeds them, so a MobileNetV3 pass spends at most 15% of
    // its wall time outside the conv records. It fails if fusion stops
    // applying: the standalone passes alone took about 17%.
    Rule::new("kernels", "non_conv_share", None, |_| -INF..=0.15),
    // The OTA path's SHA-256 hashes four equal chunks side by side: over
    // 64 chunks of 64 KiB that runs at least 1.8x as fast as one chunk
    // at a time. A lane loop LLVM stops vectorizing reads ~1.0.
    Rule::new("kernels", "sha256_lanes_speedup", None, |_| 1.8..=INF),
    // A small release's chunks share one pass too: LeNet-5's three
    // 64 KiB chunks and its 51,141-byte one hash in 4 lanes at least
    // 1.5x as fast as one at a time (median of 21 per-round ratios).
    // Hashed one at a time, as before the lanes reached releases this
    // small, it reads ~1.0.
    Rule::new("kernels", "sha256_few_chunks_speedup", None, |_| 1.5..=INF),
    // E25 (BENCH_pr7.json) asserts the admission contract internally:
    // high >= 0.98, batch shed first, bit-identity. This re-checks
    // high-priority availability against both the hard floor and the
    // baseline with 2% scheduling-noise headroom.
    Rule::new("routing", "availability", Some(("priority", "high")), |b| (b - 0.02).max(0.98)..=INF),
    // E26 (BENCH_pr8.json) asserts the safety invariants internally:
    // safe-state audit, quarantine containment, canary blast radius, >=5%
    // crash coverage. The rollout is fully seeded, so availability gets
    // only float-noise headroom, convergence 10%, and the rollback counts
    // are exact: a healthy release never wave-rolls back, a bad one once.
    Rule::new("fleet", "availability", None, |b| (b - 0.01)..=INF),
    Rule::new("fleet", "convergence_ticks", Some(("target", "v2")), |b| -INF..=1.10 * b),
    Rule::new("fleet", "wave_rollbacks", None, |_| 0.0..=0.0),
    Rule::new("fleet", "bad_wave_rollbacks", None, |_| 1.0..=1.0),
    // E27 (BENCH_pr9.json) asserts bit-identity and the 25% per-model bar
    // internally. The planner is deterministic, so the reductions get a
    // small float headroom below the baseline, never below the 0.25 bar.
    Rule::new("memory-planner", "min_conv_reduction", None, |b| (b - 0.02).max(0.25)..=INF),
    Rule::new("memory-planner", "overall_reduction", None, |b| (b - 0.02)..=INF),
    // The ratios above leave room for a planner regression of a few
    // percent; the summed planned peak is exact and may only fall.
    Rule::new("memory-planner", "total_peak_bytes", None, |b| -INF..=b),
    // E28 (BENCH_pr10.json) asserts the accounting identities and two-run
    // bit-identity internally. The full-stack observability tax is
    // timing-noisy, so it is held to the hard 2x budget, not the baseline.
    Rule::new("slo_bench", "overhead_ratio", None, |_| -INF..=2.0),
    // Causal accounting is exact: no orphaned causes, no broken chains,
    // and the fleet ring holds the whole rollout.
    Rule::new("slo_bench", "journal_orphans", None, |_| 0.0..=0.0),
    Rule::new("slo_bench", "causal_mismatches", None, |_| 0.0..=0.0),
    Rule::new("slo_bench", "fleet_journal_dropped", None, |_| 0.0..=0.0),
    // The scripted incident fires and clears exactly one alert.
    Rule::new("slo_bench", "alerts_fired", None, |_| 1.0..=1.0),
    Rule::new("slo_bench", "alerts_cleared", None, |_| 1.0..=1.0),
];

/// Holds the `fresh` snapshot to every rule of its subsystem, against
/// the `baseline` (both as `Export::to_json` text), and reports one line
/// per check: baseline, fresh value and allowed range.
///
/// # Errors
///
/// The report, if any check fails. A message, if either file does not
/// parse, the subsystems differ or have no rules, or a gated series is
/// not exactly one counter or gauge in both files.
pub fn gate(baseline: &str, fresh: &str) -> Result<String, String> {
    let parse = |file, text| {
        Export::from_json(text).ok_or_else(|| format!("{file} is not an obs JSON export"))
    };
    let (base, new) = (parse("baseline", baseline)?, parse("fresh", fresh)?);
    if base.subsystem != new.subsystem {
        return Err(format!(
            "baseline is subsystem {:?}, fresh is {:?}",
            base.subsystem, new.subsystem
        ));
    }
    let (mut report, mut passed) = (String::new(), true);
    for rule in RULES.iter().filter(|rule| rule.subsystem == base.subsystem) {
        let (baseline, fresh) = (rule.value("baseline", &base)?, rule.value("fresh", &new)?);
        let allowed = (rule.allowed)(baseline);
        let ok = allowed.contains(&fresh);
        passed &= ok;
        let _ = writeln!(
            report,
            "{} {}: baseline {baseline}, fresh {fresh}, allowed {allowed:?}",
            if ok { "ok  " } else { "FAIL" },
            rule.series(),
        );
    }
    if report.is_empty() {
        Err(format!("no gate rules for subsystem {:?}", base.subsystem))
    } else if passed {
        Ok(report)
    } else {
        Err(report)
    }
}
