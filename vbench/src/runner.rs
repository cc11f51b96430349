//! The runner workloads: one caller in a closed loop, batch 1, straight
//! through `Runner::execute`, no serving layer.

use crate::deploy::{
    bit_exact, ctx, first_output, inputs, references, release, DeployTimes, Deploys, Result,
    Stopwatch,
};
use crate::host::Probe;
use crate::report::{windowed_mean, windowed_percentile, Report, OP_CLASSES};
use crate::Settings;
use std::collections::HashMap;
use std::time::{Duration, Instant};
use vedliot_accel::{catalog::catalog, PerfModel};
use vedliot_nnir::exec::{Parallelism, RunOptions, Runner};
use vedliot_nnir::profile::RunProfile;
use vedliot_nnir::{Graph, Op, Shape, Tensor};
use vedliot_toolchain::passes::{Pass, QuantizeInt8};

/// Untimed passes before the measured window (caches, lazy weights).
const WARMUP: Duration = Duration::from_millis(300);

/// What one runner workload deploys and how its replies are checked.
pub struct RunnerSpec {
    pub name: &'static str,
    pub model: Graph,
    /// Post-training quantization run on the device after unpack.
    pub quantize: Option<QuantizeInt8>,
    /// INT8 nodes the deployed runner must execute.
    pub int8_nodes: Option<usize>,
    /// Distinct seeded inputs, each with a reference output.
    pub inputs: usize,
}

impl RunnerSpec {
    /// Fixed calibration set: the deployed model is the same for every
    /// seed; the seed varies only the inputs it is asked to classify.
    pub fn lenet_int8() -> Result<Self> {
        let calibration = (0..4)
            .map(|i| Tensor::random(Shape::nchw(1, 1, 28, 28), i + 1, 1.0))
            .collect();
        Ok(RunnerSpec {
            name: "runner-lenet-int8",
            model: vedliot_nnir::zoo::lenet5(10).map_err(ctx("lenet5"))?,
            quantize: Some(QuantizeInt8::with_calibration(calibration)),
            int8_nodes: Some(5),
            inputs: 64,
        })
    }

    /// Fewer inputs than the small models: each reference pass on the
    /// unplanned serial runner costs about as much as a measured one.
    pub fn mobilenet() -> Result<Self> {
        Ok(RunnerSpec {
            name: "runner-mobilenet",
            model: vedliot_nnir::zoo::mobilenet_v3_large(1000)
                .map_err(ctx("mobilenet_v3_large"))?,
            quantize: None,
            int8_nodes: None,
            inputs: 8,
        })
    }

    fn quantized(&self, graph: Graph) -> Result<Graph> {
        match &self.quantize {
            Some(q) => Ok(q.run(graph).map_err(ctx("quantize"))?.0),
            None => Ok(graph),
        }
    }
}

pub fn run(spec: &RunnerSpec, settings: &Settings) -> Result<Report> {
    let mut report = Report::new(spec.name, settings.trace);
    let artifact = release(&spec.model)?;
    let inputs = inputs(&spec.model, settings.seed, 0, spec.inputs)?;
    // References come from the original graph, quantized the same way,
    // so every reply also checks that the release round trip kept bits.
    let refs = references(&spec.quantized(spec.model.clone())?, &inputs)?;

    let mut deploys = Deploys::new(settings);
    let mut deployed = None;
    while deploys.more() {
        let mut clock = Stopwatch::start();
        let graph = artifact.unpack().map_err(ctx("unpack"))?;
        let unpack = clock.lap();
        let (graph, passes) = match spec.quantize {
            Some(_) => (spec.quantized(graph)?, clock.lap()),
            None => (graph, 0.0),
        };
        let mut runner = Runner::builder()
            .parallelism(Parallelism::Serial)
            .build(&graph)
            .map_err(ctx("build"))?;
        let build = clock.lap();
        let reply = first_output(
            runner
                .execute(std::slice::from_ref(&inputs[0]), RunOptions::new())
                .map(|o| o.into_outputs()),
        );
        let first_reply = clock.lap();
        drop(runner);
        report.check(reply.is_ok_and(|y| bit_exact(&y, &refs[0])));
        deploys.push(DeployTimes {
            unpack,
            passes,
            build,
            first_reply,
        });
        deployed = Some(graph);
    }
    deploys.report(&mut report);
    let graph = deployed.ok_or("no deploy ran")?;
    let mut runner = Runner::builder()
        .parallelism(Parallelism::Serial)
        .build(&graph)
        .map_err(ctx("build"))?;
    report.set("arena_peak_bytes", runner.memory_plan().peak_bytes() as f64);
    if let Some(want) = spec.int8_nodes {
        let pass = runner
            .execute(
                std::slice::from_ref(&inputs[0]),
                RunOptions::new().profile(true),
            )
            .map_err(ctx("execute"))?;
        let got = pass.profile().map_or(0, RunProfile::int8_nodes);
        report.require(runner.uses_int8() && got == want, || {
            format!(
                "INT8 path: uses_int8 = {}, {got} i8 nodes, want {want}",
                runner.uses_int8()
            )
        });
    }
    let mut loop_ = Loop {
        runner: &mut runner,
        inputs: &inputs,
        refs: &refs,
        cap: settings.smoke.then_some(1),
    };
    loop_.window(&mut report, WARMUP, false);

    if settings.trace {
        let half = settings.window() / 2;
        let plain = loop_.window(&mut report, half, false);
        let traced = loop_.window(&mut report, half, true);
        let p50 = |w: &Window| windowed_percentile(&w.at_reference(), 0.5);
        report.set("trace.overhead_ratio", p50(&traced) / p50(&plain));
        let profile = traced.profile.ok_or("traced window recorded no profile")?;
        exec_layers(&mut report, &graph, &profile, traced.profiled)?;
    } else {
        let w = loop_.window(&mut report, settings.window(), false);
        let at_reference = w.at_reference();
        report.set("latency_p50_ms", windowed_percentile(&at_reference, 0.5));
        report.set("raw.latency_p50_ms", windowed_percentile(&w.timings, 0.5));
        // One caller: passes per second of pass time, probes left out.
        report.set("throughput_per_s", 1e3 / windowed_mean(&at_reference));
        report.set("raw.throughput_per_s", 1e3 / windowed_mean(&w.timings));
        report.set("host.slowdown", w.probe.slowdown());
    }
    report.set("host.threads", crate::host_threads());
    Ok(report)
}

struct Loop<'a, 'g> {
    runner: &'a mut Runner<'g>,
    inputs: &'a [Tensor],
    refs: &'a [Tensor],
    /// Passes per window in the smoke form.
    cap: Option<usize>,
}

#[derive(Default)]
struct Window {
    /// End and latency (ms) of every correct pass.
    timings: Vec<(Instant, f64)>,
    /// Host speed sampled between passes.
    probe: Probe,
    /// Per-node durations and wall time summed over the profiled passes.
    profile: Option<RunProfile>,
    profiled: u64,
}

impl Window {
    /// Pass ends and latencies at the reference host speed.
    fn at_reference(&self) -> Vec<(Instant, f64)> {
        let norm = self.probe.normalize(&self.timings);
        self.timings
            .iter()
            .zip(norm)
            .map(|(t, v)| (t.0, v))
            .collect()
    }
}

impl Loop<'_, '_> {
    /// Closed loop over the inputs for `length` (at least one pass).
    fn window(&mut self, report: &mut Report, length: Duration, profile: bool) -> Window {
        let opts = RunOptions::new().profile(profile);
        let mut w = Window::default();
        let start = Instant::now();
        w.probe.sample();
        for i in 0.. {
            let k = i % self.inputs.len();
            let t = Instant::now();
            let out = self
                .runner
                .execute(std::slice::from_ref(&self.inputs[k]), opts);
            let end = Instant::now();
            let ok = out.is_ok_and(|o| {
                if let Some(p) = o.profile() {
                    accumulate(&mut w.profile, p);
                    w.profiled += 1;
                }
                o.outputs()
                    .first()
                    .is_some_and(|y| bit_exact(y, &self.refs[k]))
            });
            report.check(ok);
            if ok {
                w.timings.push((end, (end - t).as_secs_f64() * 1e3));
            }
            w.probe.tick();
            if start.elapsed() >= length || self.cap.is_some_and(|c| i + 1 >= c) {
                break;
            }
        }
        w.probe.sample();
        w
    }
}

fn accumulate(sum: &mut Option<RunProfile>, p: &RunProfile) {
    match sum {
        None => *sum = Some(p.clone()),
        Some(s) => {
            s.wall_ns += p.wall_ns;
            for (a, b) in s.per_node.iter_mut().zip(&p.per_node) {
                a.duration_ns += b.duration_ns;
            }
        }
    }
}

fn op_class(op: &Op) -> Option<&'static str> {
    Some(match op {
        Op::Input(_) => return None,
        Op::Conv2d(a) if a.groups > 1 => "conv_depthwise",
        Op::Conv2d(a) if a.kernel == (1, 1) => "conv_pointwise",
        Op::Conv2d(_) => "conv_spatial",
        Op::Dense { .. } => "dense",
        Op::BatchNorm => "batchnorm",
        Op::Activation(_) => "activation",
        Op::MaxPool2d(_) | Op::AvgPool2d(_) | Op::GlobalAvgPool => "pool",
        Op::FakeQuant { .. } => "fakequant",
        _ => "eltwise",
    })
}

/// Per-class kernel metrics from `sum`, the profile of `passes` passes
/// summed, set against the roofline prediction for the same layers.
fn exec_layers(report: &mut Report, graph: &Graph, sum: &RunProfile, passes: u64) -> Result<()> {
    let class_of: HashMap<&str, &str> = graph
        .nodes()
        .iter()
        .filter_map(|n| op_class(&n.op).map(|c| (n.name.as_str(), c)))
        .collect();
    let mut mean = sum.clone();
    mean.wall_ns /= passes;
    for n in &mut mean.per_node {
        n.duration_ns /= passes;
    }
    let epyc = catalog()
        .find("EPYC 3451")
        .ok_or("EPYC 3451 missing from the catalog")?
        .clone();
    let roofline = PerfModel::new(epyc)
        .compare_profile(graph, &mean)
        .map_err(ctx("compare_profile"))?;
    let wall = sum.wall_ns as f64;
    for class in OP_CLASSES {
        let in_class = |name: &str| class_of.get(name) == Some(&class);
        let nodes = sum.per_node.iter().filter(|n| in_class(&n.name));
        let (ns, ops) = nodes.fold((0u64, 0u64), |(ns, ops), n| {
            (ns + n.duration_ns, ops + n.ops() * passes)
        });
        let (measured, predicted) = roofline
            .per_layer
            .iter()
            .filter(|l| in_class(&l.name))
            .fold((0.0, 0.0), |(m, p), l| {
                (m + l.measured_us, p + l.predicted_us)
            });
        report.set(format!("exec.{class}.share"), ns as f64 / wall);
        report.set(
            format!("exec.{class}.gops"),
            if ns > 0 { ops as f64 / ns as f64 } else { 0.0 },
        );
        report.set(
            format!("exec.{class}.roofline_ratio"),
            if predicted > 0.0 {
                measured / predicted
            } else {
                0.0
            },
        );
    }
    let int8_ns: u64 = sum
        .per_node
        .iter()
        .filter(|n| n.precision == vedliot_nnir::DataType::I8)
        .map(|n| n.duration_ns)
        .sum();
    report.set("exec.int8.nodes", sum.int8_nodes() as f64);
    report.set("exec.int8.share", int8_ns as f64 / wall);
    report.set("exec.untracked_share", 1.0 - sum.coverage());
    Ok(())
}
