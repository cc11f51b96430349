//! The BENCH gate against the checked-in `BENCH_pr*.json` baselines.
//! Every fresh snapshot here is a baseline with one edit, so no
//! experiment runs.

// Test target: panics are the failure report.
#![allow(clippy::unwrap_used, clippy::expect_used)]

use vedliot::obs::{Export, MetricValue};
use vedliot_bench::gate::{gate, Rule, RULES};

const BASELINES: [&str; 5] = [
    "BENCH_pr6.json",
    "BENCH_pr7.json",
    "BENCH_pr8.json",
    "BENCH_pr9.json",
    "BENCH_pr10.json",
];

fn read(file: &str) -> String {
    std::fs::read_to_string(format!("{}/../../{file}", env!("CARGO_MANIFEST_DIR")))
        .unwrap_or_else(|e| panic!("{file}: {e}"))
}

/// The checked-in baseline whose subsystem `rule` gates.
fn baseline_of(rule: &Rule) -> String {
    BASELINES
        .iter()
        .map(|file| read(file))
        .find(|text| Export::from_json(text).unwrap().subsystem == rule.subsystem)
        .unwrap()
}

/// `text` with `rule`'s series set to `value`, keeping its metric type.
fn with_value(text: &str, rule: &Rule, value: f64) -> String {
    let mut export = Export::from_json(text).unwrap();
    let metric = export.metrics.iter_mut().find(|m| rule.matches(m)).unwrap();
    metric.value = match metric.value {
        MetricValue::Counter(_) => {
            assert_eq!(value.fract(), 0.0, "{value} is not a count");
            MetricValue::Counter(value as u64)
        }
        _ => MetricValue::Gauge(value),
    };
    export.to_json()
}

#[test]
fn every_checked_in_baseline_passes_against_itself() {
    let mut checks = 0;
    for file in BASELINES {
        let text = read(file);
        assert_eq!(Export::from_json(&text).unwrap().to_json(), text, "{file}");
        let report = gate(&text, &text).unwrap();
        assert!(report.lines().all(|l| l.starts_with("ok ")), "{report}");
        checks += report.lines().count();
    }
    assert_eq!(
        checks,
        RULES.len(),
        "every rule gates a checked-in baseline"
    );
}

#[test]
fn every_check_fails_just_past_its_bound_and_passes_on_or_inside_it() {
    for rule in RULES {
        let text = baseline_of(rule);
        let export = Export::from_json(&text).unwrap();
        let (baseline, step) = match export
            .metrics
            .iter()
            .find(|m| rule.matches(m))
            .unwrap()
            .value
        {
            MetricValue::Counter(c) => (c as f64, 1.0),
            MetricValue::Gauge(g) => (g, 1e-9),
            MetricValue::Histogram(_) => panic!("{} is a histogram", rule.series()),
        };
        let allowed = (rule.allowed)(baseline);
        let (lo, hi) = (*allowed.start(), *allowed.end());
        let past = [lo - step, hi + step]
            .into_iter()
            .filter(|v| v.is_finite() && *v >= 0.0);
        for value in past {
            let report = gate(&text, &with_value(&text, rule, value)).unwrap_err();
            let failed: Vec<&str> = report.lines().filter(|l| l.starts_with("FAIL")).collect();
            assert_eq!(failed.len(), 1, "{} at {value}: {report}", rule.series());
            assert!(
                failed[0].starts_with(&format!("FAIL {}:", rule.series())),
                "{report}"
            );
        }
        let inside = [lo, hi, lo + step, hi - step]
            .into_iter()
            .filter(|v| v.is_finite() && allowed.contains(v));
        for value in inside {
            let result = gate(&text, &with_value(&text, rule, value));
            assert!(result.is_ok(), "{} at {value}: {result:?}", rule.series());
        }
    }
}

#[test]
fn an_extra_label_on_high_availability_fails() {
    let text = read("BENCH_pr7.json");
    let mut fresh = Export::from_json(&text).unwrap();
    let high = fresh
        .metrics
        .iter_mut()
        .find(|m| m.name == "availability" && m.labels == [("priority".into(), "high".into())])
        .unwrap();
    high.labels.push(("model".into(), "alpha".into()));
    high.value = MetricValue::Gauge(0.5);
    assert_eq!(
        gate(&text, &fresh.to_json()).unwrap_err(),
        "fresh holds gated series availability{priority=high} 0 times, not once"
    );
}

#[test]
fn a_renamed_min_conv_reduction_fails() {
    let text = read("BENCH_pr9.json");
    let mut fresh = Export::from_json(&text).unwrap();
    let min = fresh
        .metrics
        .iter_mut()
        .find(|m| m.name == "min_conv_reduction")
        .unwrap();
    min.name = "min_conv_reduction_ratio".into();
    min.value = MetricValue::Gauge(0.01);
    assert_eq!(
        gate(&text, &fresh.to_json()).unwrap_err(),
        "fresh holds gated series min_conv_reduction 0 times, not once"
    );
    // Missing from the baseline fails the same way.
    assert_eq!(
        gate(&fresh.to_json(), &text).unwrap_err(),
        "baseline holds gated series min_conv_reduction 0 times, not once"
    );
}

#[test]
fn a_duplicated_series_fails() {
    let text = read("BENCH_pr8.json");
    let mut fresh = Export::from_json(&text).unwrap();
    let availability = fresh
        .metrics
        .iter()
        .find(|m| m.name == "availability")
        .unwrap()
        .clone();
    fresh.metrics.push(availability);
    assert_eq!(
        gate(&text, &fresh.to_json()).unwrap_err(),
        "fresh holds gated series availability 2 times, not once"
    );
}

#[test]
fn mismatched_unknown_and_unparseable_snapshots_fail() {
    let (kernels, routing) = (read("BENCH_pr6.json"), read("BENCH_pr7.json"));
    assert_eq!(
        gate(&kernels, &routing).unwrap_err(),
        r#"baseline is subsystem "kernels", fresh is "routing""#
    );

    let mut unknown = Export::from_json(&kernels).unwrap();
    unknown.subsystem = "kernels-v2".into();
    let unknown = unknown.to_json();
    assert_eq!(
        gate(&unknown, &unknown).unwrap_err(),
        r#"no gate rules for subsystem "kernels-v2""#
    );

    let truncated = &kernels[..kernels.len() - 1];
    assert_eq!(
        gate(&kernels, truncated).unwrap_err(),
        "fresh is not an obs JSON export"
    );
    assert_eq!(
        gate("", &kernels).unwrap_err(),
        "baseline is not an obs JSON export"
    );
}
