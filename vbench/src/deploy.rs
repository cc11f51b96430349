//! The deploy path every workload starts with: a packed release,
//! seeded inputs with their reference outputs, and timed cold deploys.

use crate::host::Probe;
use crate::report::{median, Report};
use crate::Settings;
use std::fmt::Display;
use std::time::{Duration, Instant};
use vedliot_fleet::artifact::ModelArtifact;
use vedliot_nnir::det::splitmix64;
use vedliot_nnir::exec::{Parallelism, RunOptions, Runner};
use vedliot_nnir::graph::{Graph, WeightInit};
use vedliot_nnir::Tensor;

pub type Result<T> = std::result::Result<T, String>;

/// Adds what was being done to an error from the system under test.
pub fn ctx<E: Display>(what: &'static str) -> impl Fn(E) -> String {
    move |e| format!("{what}: {e}")
}

/// Bytes per OTA chunk of a packed release.
const CHUNK_BYTES: usize = 64 * 1024;

/// Deploys repeated per run: at least `MIN_DEPLOYS`, then more while the
/// deploys together took under `DEPLOY_BUDGET`, so cheap models report
/// the median of more samples.
const MIN_DEPLOYS: usize = 5;
const MAX_DEPLOYS: usize = 25;
const DEPLOY_BUDGET: Duration = Duration::from_secs(1);

/// Packs `graph` the way a trained model ships: every seeded weight
/// materialized into explicit floats, then chunked and hash-chained.
pub fn release(graph: &Graph) -> Result<ModelArtifact> {
    let weights: Vec<Option<Vec<Tensor>>> = {
        let runner = Runner::builder().build(graph).map_err(ctx("build"))?;
        graph
            .nodes()
            .iter()
            .map(|n| match n.weights {
                WeightInit::None => Ok(None),
                _ => runner.node_weights(n).map(Some),
            })
            .collect::<std::result::Result<_, _>>()
            .map_err(ctx("materialize weights"))?
    };
    let mut shipped = graph.clone();
    for (node, w) in shipped.nodes_mut().iter_mut().zip(weights) {
        if let Some(tensors) = w {
            node.weights = WeightInit::Explicit(tensors);
        }
    }
    ModelArtifact::pack(graph.name(), &shipped, CHUNK_BYTES).map_err(ctx("pack"))
}

/// `n` single-sample inputs for `graph`, drawn from `seed`; `salt`
/// separates the streams of different models in one workload.
pub fn inputs(graph: &Graph, seed: u64, salt: u64, n: usize) -> Result<Vec<Tensor>> {
    let shape = graph
        .inputs()
        .first()
        .and_then(|&t| graph.tensor_shape(t))
        .ok_or("graph has no input shape")?;
    Ok((0..n as u64)
        .map(|i| {
            Tensor::random(
                shape.clone(),
                splitmix64(seed ^ splitmix64(salt << 32 | i)),
                1.0,
            )
        })
        .collect())
}

/// Reference outputs from a serial, unplanned runner over `graph`
/// (INT8 kernels engaged where the graph plans them).
pub fn references(graph: &Graph, inputs: &[Tensor]) -> Result<Vec<Tensor>> {
    let mut runner = Runner::builder()
        .parallelism(Parallelism::Serial)
        .memory_planning(false)
        .build(graph)
        .map_err(ctx("build reference runner"))?;
    inputs
        .iter()
        .map(|x| {
            first_output(
                runner
                    .execute(std::slice::from_ref(x), RunOptions::new())
                    .map(|o| o.into_outputs()),
            )
        })
        .collect()
}

/// The first output tensor of a call that returns a model's outputs.
pub fn first_output<E: Display>(outputs: std::result::Result<Vec<Tensor>, E>) -> Result<Tensor> {
    outputs
        .map_err(ctx("execute"))?
        .into_iter()
        .next()
        .ok_or_else(|| "model produced no output".into())
}

/// Whether a reply is bit-identical to its reference. INT8 replies are
/// held to the same standard against the serial INT8 reference: the
/// looser fake-quant tolerance does not hold on every input (README,
/// findings).
pub fn bit_exact(got: &Tensor, want: &Tensor) -> bool {
    got.shape() == want.shape()
        && got
            .data()
            .iter()
            .zip(want.data())
            .all(|(a, b)| a.to_bits() == b.to_bits())
}

/// Stage times of one cold deploy, in seconds.
#[derive(Debug, Clone, Copy, Default)]
pub struct DeployTimes {
    pub unpack: f64,
    pub passes: f64,
    pub build: f64,
    pub first_reply: f64,
}

impl DeployTimes {
    pub fn total(&self) -> f64 {
        self.unpack + self.passes + self.build + self.first_reply
    }
}

/// Marks stage boundaries of one deploy.
pub struct Stopwatch(Instant);

impl Stopwatch {
    pub fn start() -> Self {
        Stopwatch(Instant::now())
    }

    /// Seconds since the previous lap.
    pub fn lap(&mut self) -> f64 {
        let now = Instant::now();
        let s = (now - self.0).as_secs_f64();
        self.0 = now;
        s
    }
}

/// The repeated cold deploys of one run, each followed by a host probe.
pub struct Deploys {
    /// When each deploy ended, and its stage times.
    times: Vec<(Instant, DeployTimes)>,
    probe: Probe,
    started: Instant,
    smoke: bool,
}

impl Deploys {
    pub fn new(settings: &Settings) -> Self {
        Deploys {
            times: Vec::new(),
            probe: Probe::default(),
            started: Instant::now(),
            smoke: settings.smoke,
        }
    }

    /// Whether another deploy is due.
    pub fn more(&self) -> bool {
        let n = self.times.len();
        if self.smoke {
            return n < 1;
        }
        n < MIN_DEPLOYS || (n < MAX_DEPLOYS && self.started.elapsed() < DEPLOY_BUDGET)
    }

    pub fn push(&mut self, t: DeployTimes) {
        self.times.push((Instant::now(), t));
        self.probe.sample();
    }

    /// Reports `setup_s` and the per-stage medians at the reference
    /// host speed, with the raw medians beside them.
    pub fn report(&self, report: &mut Report) {
        let stage_ms = |f: fn(&DeployTimes) -> f64| -> Vec<(Instant, f64)> {
            self.times.iter().map(|(at, t)| (*at, f(t) * 1e3)).collect()
        };
        let mut set = |name: &str, f: fn(&DeployTimes) -> f64, unit: f64| {
            let raw = stage_ms(f);
            report.set(name, median(&self.probe.normalize(&raw)) * unit);
            report.set(
                format!("raw.{name}"),
                median(&raw.iter().map(|s| s.1).collect::<Vec<_>>()) * unit,
            );
        };
        set("setup_s", DeployTimes::total, 1e-3);
        set("deploy.unpack_ms", |t| t.unpack, 1.0);
        set("deploy.build_ms", |t| t.build, 1.0);
        set("deploy.first_reply_ms", |t| t.first_reply, 1.0);
        let share: Vec<f64> = self
            .times
            .iter()
            .map(|(_, t)| t.passes / t.total())
            .collect();
        report.set("deploy.passes_share", median(&share));
        report.set("host.deploy_slowdown", self.probe.slowdown());
    }
}
