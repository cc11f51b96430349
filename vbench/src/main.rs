//! `vbench` — the end-to-end and per-layer benchmark of the deploy →
//! infer → serve path: a packed OTA release is unpacked, optionally
//! quantized, built into a `Runner` or loaded into a `Server`, and then
//! driven by seeded inputs while every reply is checked.
//!
//! ```text
//! vbench run --workload <name|all> --seed <u64> [--seconds <s>] [--trace [0|1]] [--json <path>]
//! vbench list
//! vbench repeat --runs <n> [--workload <name|all>] [--seed <u64>] [--seconds <s>]
//! ```
//!
//! `run` prints one `name value unit` line per metric and, as its last
//! line, `{"correct", "attempted", "failed", "metrics"}`; it exits
//! non-zero when any reply was wrong. See README.md for the metrics.

mod deploy;
mod host;
mod report;
mod runner;
mod serve;

use report::{end_to_end, median, quartiles, Report};
use std::process::ExitCode;
use std::time::Duration;

/// Measured window when `--seconds` is not given; the value
/// BENCHMARK.json passes.
const DEFAULT_SECONDS: f64 = 25.0;

/// How one workload run is driven.
#[derive(Debug, Clone, Copy)]
pub struct Settings {
    pub seed: u64,
    /// Length of the measured window in seconds; a traced run splits it
    /// into an untraced and a traced half.
    pub seconds: f64,
    pub trace: bool,
    /// The smoke-test form: one deploy, one measured pass, a handful of
    /// serve requests.
    pub smoke: bool,
}

impl Settings {
    pub fn window(&self) -> Duration {
        Duration::from_secs_f64(self.seconds)
    }
}

pub fn host_threads() -> f64 {
    std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get) as f64
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Workload {
    RunnerMobilenet,
    RunnerLenetInt8,
    ServeOpen,
    ServeTenants,
}

impl Workload {
    const ALL: [Workload; 4] = [
        Workload::RunnerMobilenet,
        Workload::RunnerLenetInt8,
        Workload::ServeOpen,
        Workload::ServeTenants,
    ];

    fn name(self) -> &'static str {
        match self {
            Workload::RunnerMobilenet => "runner-mobilenet",
            Workload::RunnerLenetInt8 => "runner-lenet-int8",
            Workload::ServeOpen => "serve-open",
            Workload::ServeTenants => "serve-tenants",
        }
    }

    fn why(self) -> &'static str {
        match self {
            Workload::RunnerMobilenet => {
                "f32 MobileNetV3-Large 224x224 through Runner, closed loop: conv kernels (pointwise GEMM, depthwise) and the heaviest deploy"
            }
            Workload::RunnerLenetInt8 => {
                "QuantizeInt8 LeNet-5 through Runner, closed loop: the only workload on the i8 kernels, requantization and dispatch"
            }
            Workload::ServeOpen => {
                "f32 LeNet-5 behind the default gateway, open-loop Poisson 250 req/s: admission, linger, batching, queueing and reply"
            }
            Workload::ServeTenants => {
                "two pools, priority mix, tracing + journal + SLO on, 2 closed-loop callers: gateway overhead and observability tax"
            }
        }
    }

    fn parse(name: &str) -> Option<Vec<Workload>> {
        if name == "all" {
            return Some(Workload::ALL.to_vec());
        }
        Workload::ALL
            .into_iter()
            .find(|w| w.name() == name)
            .map(|w| vec![w])
    }

    fn run(self, settings: &Settings) -> deploy::Result<Report> {
        match self {
            Workload::RunnerMobilenet => runner::run(&runner::RunnerSpec::mobilenet()?, settings),
            Workload::RunnerLenetInt8 => runner::run(&runner::RunnerSpec::lenet_int8()?, settings),
            Workload::ServeOpen => serve::open(settings),
            Workload::ServeTenants => serve::tenants(settings),
        }
    }
}

/// Parsed command line of `run` and `repeat`.
struct Args {
    workloads: Vec<Workload>,
    seed: u64,
    seconds: f64,
    trace: bool,
    json: Option<String>,
    runs: usize,
}

fn parse_args(args: &[String]) -> Result<Args, String> {
    let mut parsed = Args {
        workloads: Workload::ALL.to_vec(),
        seed: 1,
        seconds: DEFAULT_SECONDS,
        trace: false,
        json: None,
        runs: 5,
    };
    let mut it = args.iter().peekable();
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or(format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => {
                let name = value()?;
                parsed.workloads =
                    Workload::parse(name).ok_or(format!("unknown workload {name}"))?;
            }
            "--seed" => parsed.seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => {
                parsed.seconds = value()?.parse().map_err(|e| format!("--seconds: {e}"))?;
                if !(parsed.seconds > 0.0 && parsed.seconds <= 600.0) {
                    return Err("--seconds must be in (0, 600]".into());
                }
            }
            "--json" => parsed.json = Some(value()?.clone()),
            "--runs" => {
                parsed.runs = value()?.parse().map_err(|e| format!("--runs: {e}"))?;
                if parsed.runs == 0 {
                    return Err("--runs must be at least 1".into());
                }
            }
            // `--trace` alone, or `--trace 0|1` as `BENCHMARK.json`'s runs pass it.
            "--trace" => {
                parsed.trace = match it.peek().map(|s| s.as_str()) {
                    Some("0") => {
                        it.next();
                        false
                    }
                    Some("1") => {
                        it.next();
                        true
                    }
                    _ => true,
                }
            }
            other => return Err(format!("unknown argument {other}")),
        }
    }
    Ok(parsed)
}

fn run(args: &Args) -> Result<bool, String> {
    let mut all_correct = true;
    let mut exports = Vec::new();
    for &w in &args.workloads {
        let settings = Settings {
            seed: args.seed,
            seconds: args.seconds,
            trace: args.trace,
            smoke: false,
        };
        let report = w.run(&settings).map_err(|e| format!("{}: {e}", w.name()))?;
        println!(
            "# {} seed={} seconds={} trace={}",
            w.name(),
            args.seed,
            args.seconds,
            u8::from(args.trace)
        );
        for (d, v) in report.metrics() {
            println!("{} {v} {}", d.name, d.unit);
        }
        for (name, v) in report.extras() {
            println!("{name} {v}");
        }
        println!("error_ratio {} fraction", report.error_ratio());
        for p in &report.problems {
            eprintln!("{}: {p}", w.name());
        }
        exports.push(report.export());
        all_correct &= report.correct();
        println!("{}", report.json_line());
    }
    if let Some(path) = &args.json {
        let mut export = exports.remove(0);
        for e in exports {
            export.metrics.extend(e.metrics);
        }
        std::fs::write(path, export.to_json()).map_err(|e| format!("{path}: {e}"))?;
    }
    Ok(all_correct)
}

/// Runs every selected workload `runs` times (seeds `seed..seed+runs`)
/// and prints each end-to-end metric's median, quartiles and spreads.
fn repeat(args: &Args) -> Result<bool, String> {
    let mut all_correct = true;
    println!(
        "{:<18} {:<18} {:>14} {:>14} {:>14} {:>9} {:>9}",
        "workload", "metric", "median", "q1", "q3", "iqr/med", "rng/med"
    );
    for &w in &args.workloads {
        let mut reports = Vec::with_capacity(args.runs);
        for i in 0..args.runs as u64 {
            let settings = Settings {
                seed: args.seed + i,
                seconds: args.seconds,
                trace: false,
                smoke: false,
            };
            let report = w.run(&settings).map_err(|e| format!("{}: {e}", w.name()))?;
            all_correct &= report.correct();
            reports.push(report);
        }
        for d in end_to_end() {
            let values: Vec<f64> = reports.iter().filter_map(|r| r.value(&d.name)).collect();
            let (q1, _, q3) = quartiles(&values);
            let med = median(&values);
            let (lo, hi) = values
                .iter()
                .fold((f64::MAX, f64::MIN), |(lo, hi), &v| (lo.min(v), hi.max(v)));
            println!(
                "{:<18} {:<18} {med:>14.6} {q1:>14.6} {q3:>14.6} {:>9.4} {:>9.4}",
                w.name(),
                d.name,
                (q3 - q1) / med,
                (hi - lo) / med
            );
        }
    }
    Ok(all_correct)
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let outcome = match argv.first().map(String::as_str) {
        Some("list") => {
            for w in Workload::ALL {
                println!("{:<18} {}", w.name(), w.why());
            }
            Ok(true)
        }
        Some("run") => parse_args(&argv[1..]).and_then(|a| run(&a)),
        Some("repeat") => parse_args(&argv[1..]).and_then(|a| repeat(&a)),
        _ => Err(
            "usage: vbench <run|list|repeat> [--workload <name|all>] [--seed <u64>] \
                  [--seconds <s>] [--trace [0|1]] [--json <path>] [--runs <n>]"
                .into(),
        ),
    };
    match outcome {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::FAILURE,
        Err(e) => {
            eprintln!("vbench: {e}");
            ExitCode::from(2)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use vedliot_obs::Export;

    const MANIFEST: &str = include_str!("../../BENCHMARK.json");

    /// The entries of one metric list of the manifest, as the exact
    /// `{"name": "...", "unit": "..."` prefixes it writes one per line.
    fn manifest_metrics(section: &str) -> Vec<String> {
        let start = MANIFEST
            .find(&format!("\"{section}\": ["))
            .expect("section present");
        let body = &MANIFEST[start..];
        let body = &body[..body.find(']').expect("section closes")];
        body.lines()
            .filter_map(|l| l.trim().strip_prefix('{'))
            .map(|l| l.split(", \"better\"").next().unwrap_or(l).to_string())
            .collect()
    }

    #[test]
    fn manifest_lists_exactly_the_workloads() {
        for w in Workload::ALL {
            let entry = format!("{{\"name\": \"{}\", \"why\": \"{}\"}}", w.name(), w.why());
            assert!(MANIFEST.contains(&entry), "{entry}");
        }
        assert_eq!(MANIFEST.matches("\"why\":").count(), Workload::ALL.len());
    }

    #[test]
    fn every_workload_emits_exactly_the_manifest_metrics() {
        for w in Workload::ALL {
            for trace in [false, true] {
                let settings = Settings {
                    seed: 3,
                    seconds: 0.05,
                    trace,
                    smoke: true,
                };
                let report = w.run(&settings).expect("workload runs");
                assert!(
                    report.correct(),
                    "{}: {} failed, {:?}",
                    w.name(),
                    report.failed,
                    report.problems
                );
                let emitted: Vec<String> = report
                    .metrics()
                    .iter()
                    .map(|(d, _)| format!("\"name\": \"{}\", \"unit\": \"{}\"", d.name, d.unit))
                    .collect();
                let listed = manifest_metrics(if trace { "per_layer" } else { "end_to_end" });
                assert_eq!(emitted, listed, "{} trace={trace}", w.name());
                let json = report.export().to_json();
                let back = Export::from_json(&json).expect("export parses");
                assert_eq!(back.to_json(), json);
                assert!(report
                    .json_line()
                    .starts_with("{\"correct\": true, \"attempted\": "));
            }
        }
    }

    #[test]
    fn quartiles_match_python_exclusive_method() {
        // statistics.quantiles([1, 2, 3, 4, 5, 6, 7, 8, 9, 10], n=4)
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&v), (2.75, 5.5, 8.25));
    }

    #[test]
    fn manifest_run_flags_parse() {
        let argv: Vec<String> = [
            "--workload",
            "serve-open",
            "--seed",
            "9",
            "--seconds",
            "10",
            "--trace",
            "0",
        ]
        .iter()
        .map(ToString::to_string)
        .collect();
        let a = parse_args(&argv).expect("parses");
        assert_eq!(a.workloads, vec![Workload::ServeOpen]);
        assert_eq!((a.seed, a.seconds, a.trace), (9, 10.0, false));
        let a = parse_args(&["--trace".to_string()]).expect("parses");
        assert!(a.trace);
    }
}
