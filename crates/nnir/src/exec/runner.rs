//! The runner: its builder, run options and output, the forward pass
//! over the value arenas, and the dispatch of each step to its kernel.

use super::conv::{conv_bias, conv_gemm, conv_lanes};
use super::dense::dense_into;
use super::grouped::{conv2d_grouped, expand_depthwise};
use super::int8::{conv_int8_direct, conv_int8_gemm, dense_int8};
use super::memory::MemoryPlan;
use super::par::Parallelism;
use super::plan::{self, coded_values, depthwise_of, fused_steps, int8_plans, Kernel, Step, Tail};
use super::pool::{global_avg_pool_into, pool2d_into, PoolGeom, PoolMode};
use super::stage::{channel_plane, split, Around, Dst, Epilogue, Extent, Place, Src, Values};
use super::structural::{
    concat_channels_into, mul_broadcast_into, softmax_last_into, upsample_nearest_into,
};
use crate::dtype::DataType;
use crate::graph::{Graph, Node, TensorId};
use crate::profile::{NodeProfile, RunProfile};
use crate::shape::Shape;
use crate::tensor::Tensor;
use crate::NnirError;
use std::borrow::Cow;

/// Reusable kernel scratch owned by the [`Runner`], grown to the
/// largest kernel seen and reused across runs.
#[derive(Debug, Default)]
pub(super) struct Scratch {
    /// f32 im2col patch block (one cache-sized pixel tile — never the
    /// whole batch) or the lane kernel's strip of runs; the grouped
    /// conv's interleaved strips and the pooling kernel's padded planes
    /// reuse it.
    pub(super) col: Vec<f32>,
    /// Output tile the blocked GEMM writes before scattering into the
    /// strided output planes.
    pub(super) outb: Vec<f32>,
    /// The f32 dense conv's zero-padded input planes (an unpadded conv
    /// reads its input in place).
    pub(super) pad: Vec<f32>,
    /// Input activation codes (INT8 path), quantized from f32 values or
    /// widened from a value stored as codes: zero-padded code planes for
    /// a conv, rows of a plan's padded length for a dense layer.
    pub(super) qin: Vec<i16>,
    /// Offsets of a dense conv's patch positions in its staged planes,
    /// in either precision.
    pub(super) taps: Vec<usize>,
    /// The INT8 conv's patch block: one padded-length code row per
    /// output pixel of a cache-sized block.
    pub(super) qcol: Vec<i16>,
    /// The INT8 conv's i32 accumulators: the GEMM's tile for one block
    /// or each worker's run of the direct kernel, then, under a folded
    /// max-pool, the planes it pools, their padded copy and the pooled
    /// values.
    pub(super) acc: Vec<i32>,
}

/// Per-call knobs for [`Runner::execute`] — the one execution
/// entrypoint.
///
/// The default runs plain inference: no intermediate capture, no
/// profile.
#[derive(Debug, Clone, Copy, Default)]
pub struct RunOptions {
    /// Keep a clone of *every* value tensor, indexed by
    /// [`TensorId`] — the hook quantization calibration uses to observe
    /// activation ranges. The elementwise nodes a head kernel (conv,
    /// dense, pool or flatten) would fuse into its output write then run
    /// one at a time over its output, a max-pool an INT8 conv would fold
    /// runs as its own kernel, and an expansion conv is computed whole
    /// before the depthwise conv that would read it a block at a time,
    /// so each value they pass along exists to be cloned; every value has
    /// the bits of the fused run.
    pub capture_intermediates: bool,
    /// Record a per-node [`RunProfile`] (name, op, duration, static
    /// operation counts) for this pass. Off by default: a plain run
    /// takes zero extra clock reads.
    pub profile: bool,
}

impl RunOptions {
    /// Default options: plain inference.
    #[must_use]
    pub fn new() -> Self {
        RunOptions::default()
    }

    /// Requests capture of every intermediate value tensor.
    #[must_use]
    pub fn capture_intermediates(mut self, capture: bool) -> Self {
        self.capture_intermediates = capture;
        self
    }

    /// Requests a per-node execution profile for this pass.
    #[must_use]
    pub fn profile(mut self, profile: bool) -> Self {
        self.profile = profile;
        self
    }
}

/// Result of one [`Runner::execute`] call.
#[derive(Debug, Clone)]
pub struct RunOutput {
    outputs: Vec<Tensor>,
    intermediates: Option<Vec<Option<Tensor>>>,
    profile: Option<RunProfile>,
}

impl RunOutput {
    /// The graph output tensors, in graph-output order.
    #[must_use]
    pub fn outputs(&self) -> &[Tensor] {
        &self.outputs
    }

    /// Consumes the result, returning the output tensors.
    #[must_use]
    pub fn into_outputs(self) -> Vec<Tensor> {
        self.outputs
    }

    /// Every value tensor indexed by tensor id; `Some` only when
    /// [`RunOptions::capture_intermediates`] was set.
    #[must_use]
    pub fn intermediates(&self) -> Option<&[Option<Tensor>]> {
        self.intermediates.as_deref()
    }

    /// Consumes the result, returning the captured intermediates.
    #[must_use]
    pub fn into_intermediates(self) -> Option<Vec<Option<Tensor>>> {
        self.intermediates
    }

    /// The per-node execution profile; `Some` only when
    /// [`RunOptions::profile`] was set.
    #[must_use]
    pub fn profile(&self) -> Option<&RunProfile> {
        self.profile.as_ref()
    }

    /// Consumes the result, returning the execution profile.
    #[must_use]
    pub fn into_profile(self) -> Option<RunProfile> {
        self.profile
    }
}

/// The one construction path for [`Runner`].
///
/// ```
/// use vedliot_nnir::exec::{Parallelism, Runner, RunOptions};
/// use vedliot_nnir::{zoo, Tensor, Shape};
///
/// # fn main() -> Result<(), vedliot_nnir::NnirError> {
/// let model = zoo::lenet5(10)?;
/// let input = Tensor::random(Shape::nchw(1, 1, 28, 28), 7, 1.0);
/// let mut runner = Runner::builder()
///     .parallelism(Parallelism::Serial)
///     .build(&model)?;
/// let outputs = runner.execute(&[input], RunOptions::default())?.into_outputs();
/// assert_eq!(outputs[0].shape().dims(), &[1, 10]);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone)]
pub struct RunnerBuilder {
    parallelism: Parallelism,
    int8: bool,
    memory_planning: bool,
}

impl Default for RunnerBuilder {
    fn default() -> Self {
        RunnerBuilder {
            parallelism: Parallelism::default(),
            int8: true,
            memory_planning: true,
        }
    }
}

impl RunnerBuilder {
    /// Sets the kernel parallelism policy (default: [`Parallelism::Serial`]).
    #[must_use]
    pub fn parallelism(mut self, parallelism: Parallelism) -> Self {
        self.parallelism = parallelism;
        self
    }

    /// Enables or disables automatic INT8 kernel selection (default:
    /// enabled).
    ///
    /// When enabled, conv/dense nodes whose weights carry an i8
    /// [`QuantPayload`](crate::tensor::QuantPayload) and whose input is
    /// produced by a `FakeQuant` node execute with the integer-code /
    /// i32-accumulator kernel, provided the quant-safety dataflow
    /// analysis ([`crate::analysis::QuantSafety`]) proves the node's
    /// worst-case rounding error fits the tolerance below. `build` widens
    /// those nodes' weight codes to i16 rows once, and stores as i8
    /// codes, one byte each, every value that only such nodes read
    /// (written by one of them, a lone `FakeQuant` or a flatten; see
    /// [`MemoryPlan`]). Each call widens those codes to i16, or
    /// quantizes an f32 input activation to i16 codes, and runs the INT8
    /// GEMM (or, for a short stride-1 conv, the direct kernel) over
    /// them; every code is the one quantizing the f32 value gives. With it
    /// disabled the runner always takes the f32 reference path — the
    /// baseline the INT8 tolerance contract is stated against: outputs
    /// agree with the fake-quant f32 reference to within f32 summation
    /// rounding of the same quantized operands (≤ `1e-4 · max(1,
    /// |out|_∞)` for every kernel size this engine runs).
    #[must_use]
    pub fn int8(mut self, enabled: bool) -> Self {
        self.int8 = enabled;
        self
    }

    /// Enables or disables liveness-based arena planning (default:
    /// enabled).
    ///
    /// When enabled, `build` runs the tensor liveness analysis
    /// ([`crate::analysis::Liveness`]) and computes a [`MemoryPlan`]
    /// that places each value a step writes at an offset of its width's
    /// arena, where values with disjoint live ranges may share bytes —
    /// the reuse that shrinks peak intermediate memory on small devices
    /// — and gives the values inside a fused chain (the full-resolution
    /// output of an INT8 conv that folds a max-pool among them) none, and
    /// an expansion its depthwise reader takes in a block at a time one
    /// block's range.
    /// Kernels fully overwrite their outputs and the plan never overlaps
    /// values whose live ranges overlap, so outputs are bit-identical to
    /// the unplanned layout (proptested). Disable to give every value
    /// but a graph input its own range. Either way, steps read graph
    /// inputs from the caller's tensors.
    #[must_use]
    pub fn memory_planning(mut self, enabled: bool) -> Self {
        self.memory_planning = enabled;
        self
    }

    /// Builds a runner over `graph`. Its arenas stay empty until the
    /// first run.
    ///
    /// Runs the static verifier's Error-severity passes
    /// ([`crate::analysis::verify_for_execution`]) first: execution is
    /// gated on a provably well-formed graph, so a transform or
    /// deserialization bug surfaces here as a coded diagnostic instead
    /// of a downstream miscompute. Then it makes the plan: each step's
    /// kernel, geometry, arena ranges and fused stages, and every node's
    /// weights, borrowed when explicit and materialized when seeded. A
    /// run only executes it. The plan holds no batch, so the runner runs
    /// any batch from 1 to the graph's ([`Runner::execute`]); its arena
    /// plan is sized for the graph's.
    ///
    /// # Errors
    ///
    /// Returns [`NnirError::VerifierRejected`] if the graph fails any
    /// Error-severity analysis pass, [`NnirError::ShapeMismatch`] if an
    /// INT8 payload does not fit its weights,
    /// [`NnirError::ArenaTooLarge`] if an arena would hold more than
    /// `isize::MAX` bytes, the most one buffer holds, and
    /// [`NnirError::ExecutionFailure`] for a node no kernel runs (an
    /// `Input` node, or a weighted node with no weights).
    pub fn build(self, graph: &Graph) -> Result<Runner<'_>, NnirError> {
        crate::analysis::verify_for_execution(graph)?;
        let int8 = if self.int8 {
            int8_plans(graph)?
        } else {
            Vec::new()
        };
        let spans = fused_steps(graph, &int8);
        let codes = coded_values(graph, &spans, &int8);
        let memory = if self.memory_planning {
            MemoryPlan::over(graph, &spans, &codes)
        } else {
            MemoryPlan::unshared(graph, &spans, &codes)
        };
        let (f32_len, code_len) = memory.arena_lens();
        let bytes = (f32_len as u64).saturating_mul(4).max(code_len as u64);
        if bytes > isize::MAX as u64 {
            let graph = graph.name().to_string();
            return Err(NnirError::ArenaTooLarge { graph, bytes });
        }
        let steps = plan::steps(graph, spans, int8, &codes, &memory)?;
        let shapes = shapes_at(graph, graph.batch())?;
        Ok(Runner {
            graph,
            parallelism: self.parallelism,
            outputs: graph
                .outputs()
                .iter()
                .map(|&t| plan::place(graph, &memory, t).map(|p| (t, p)))
                .collect::<Result<_, _>>()?,
            f32s: Vec::new(),
            codes: Vec::new(),
            spill: None,
            scratch: Scratch::default(),
            records: profile_records(graph, &steps, &shapes),
            batch: graph.batch(),
            shapes,
            steps,
            plan: memory,
        })
    }
}

/// Reusable execution engine over one graph.
///
/// Holds the plan [`RunnerBuilder::build`] made (each step's kernel with
/// its geometry and weights: explicit ones borrowed from the graph,
/// seeded ones materialized once) and buffers that survive across
/// [`execute`](Runner::execute) calls: the value arenas, one of f32
/// values and one of INT8 codes, each value at the offset its
/// [`MemoryPlan`] gives, and the kernel scratch. Steps read graph inputs
/// from the caller's tensors. It runs any batch from 1 to the graph's.
/// The first run allocates; subsequent runs at a batch no larger are
/// allocation-free on the hot path.
#[derive(Debug)]
pub struct Runner<'g> {
    graph: &'g Graph,
    parallelism: Parallelism,
    /// Each graph output's tensor id and where it lives.
    outputs: Vec<(TensorId, Place)>,
    /// The value arenas, f32 values and INT8 codes, reused across runs
    /// and — under the memory plan — across values with disjoint live
    /// ranges.
    f32s: Vec<f32>,
    codes: Vec<i8>,
    /// The pre-pool values of a step that folds a max-pool, or the whole
    /// expansion of a step that computes one into its depthwise reader,
    /// in a run that captures intermediates (a plain run never holds
    /// them).
    spill: Option<Tensor>,
    /// Kernel scratch (im2col tiles, INT8 code buffers), grown to the
    /// largest kernel seen.
    scratch: Scratch,
    /// The plan: the schedule as the kernels run it, each step a head
    /// with its kernel and the elementwise nodes (and an INT8 conv's
    /// max-pool) fused into its output write (see [`plan::steps`]).
    pub(super) steps: Vec<Step<'g>>,
    /// Each node's profile record less its duration (see
    /// [`profile_records`]), at `batch`.
    records: Vec<NodeProfile>,
    /// The batch of the last run, the graph's before the first, and
    /// each value's shape at it, by tensor id.
    batch: usize,
    shapes: Vec<Shape>,
    /// Build-time arena layout: the offset each tensor id lives at.
    plan: MemoryPlan,
}

impl<'g> Runner<'g> {
    /// Starts building a runner — the one construction path.
    #[must_use]
    pub fn builder() -> RunnerBuilder {
        RunnerBuilder::default()
    }

    /// The active parallelism policy.
    #[must_use]
    pub fn parallelism(&self) -> Parallelism {
        self.parallelism
    }

    /// Whether at least one node was selected for the INT8 kernel path
    /// at build time.
    #[must_use]
    pub fn uses_int8(&self) -> bool {
        self.steps.iter().any(|s| s.kernel.is_int8())
    }

    /// The arena plan this runner executes under.
    #[must_use]
    pub fn memory_plan(&self) -> &MemoryPlan {
        &self.plan
    }

    /// Bytes the kernel scratch holds: each buffer's capacity at its
    /// width.
    #[cfg(test)]
    pub(super) fn scratch_bytes(&self) -> u64 {
        let Scratch {
            col,
            outb,
            pad,
            qin,
            taps,
            qcol,
            acc,
        } = &self.scratch;
        let f32s = col.capacity() + outb.capacity() + pad.capacity() + acc.capacity();
        let codes = qin.capacity() + qcol.capacity();
        4 * f32s as u64
            + 2 * codes as u64
            + std::mem::size_of::<usize>() as u64 * taps.capacity() as u64
    }

    /// Bytes the value arenas hold: each one's capacity at its width.
    #[cfg(test)]
    pub(super) fn arena_capacity_bytes(&self) -> u64 {
        4 * self.f32s.capacity() as u64 + self.codes.capacity() as u64
    }

    /// The codes in tensor `t`'s range at the last run's batch, when the
    /// plan stores it as codes.
    #[cfg(test)]
    pub(super) fn codes_of(&self, t: TensorId) -> Option<&[i8]> {
        let at = self.plan.offset_of(t).filter(|_| self.plan.is_coded(t))?;
        let len = plan::shape(self.graph, t).ok()?.elem_count();
        Some(self.values(&[]).codes(Place::Arena(Extent { at, len })))
    }

    /// Every value at the last run's batch: `inputs`, the caller's, and
    /// both arenas whole.
    fn values<'a>(&'a self, inputs: &'a [Tensor]) -> Values<'a> {
        Values {
            inputs,
            f32s: Around::whole(&self.f32s),
            codes: Around::whole(&self.codes),
            n: self.batch,
            b: self.graph.batch(),
        }
    }

    /// Runs one forward pass — the one execution entrypoint — at any
    /// batch `n` from 1 to `B`, the batch of the graph the runner was
    /// built over: each input has its graph input's shape with the
    /// batch axis set to `n`. Outputs, captured intermediates and the
    /// profile (its `batch` and every node's counts) are those of a
    /// runner built over `graph.with_batch(n)`, bit for bit. The arena
    /// plan stays `B`'s, each value at its offset scaled by `n / B`, so
    /// the arenas hold `n / B` of the plan's bytes and a run at a batch
    /// no larger than any before allocates none.
    ///
    /// # Errors
    ///
    /// Returns [`NnirError::ExecutionFailure`] if the number of `inputs`
    /// differs from the graph's, if `n` (the first input's batch) is
    /// outside `1..=B`, or not `B` on a graph holding a rank-0 value or a
    /// value whose leading dim is not `B`, or if an input's shape is not
    /// its graph input's at `n`.
    pub fn execute(
        &mut self,
        inputs: &[Tensor],
        options: RunOptions,
    ) -> Result<RunOutput, NnirError> {
        let wall_start = options.profile.then(std::time::Instant::now);
        let (durations, intermediates) = self.forward(inputs, options)?;
        let values = self.values(inputs);
        let outputs = (self.outputs.iter())
            .map(|&(t, p)| snapshot(&self.shapes[t.0], values.f32s(p)))
            .collect();
        // Wall time spans input checks through output collection, so
        // coverage (kernel time / wall) honestly reports what the
        // per-node records miss. The records are the build-time static
        // fields with this pass's durations; a run that captures
        // intermediates fused nothing.
        let wall_ns = wall_start.map(|start| start.elapsed().as_nanos() as u64);
        let profile = durations
            .zip(wall_ns)
            .map(|(durations, wall_ns)| RunProfile {
                model: self.graph.name().to_string(),
                batch: self.batch,
                per_node: self
                    .records
                    .iter()
                    .zip(durations)
                    .map(|(record, duration_ns)| {
                        let mut record = record.clone();
                        record.duration_ns = duration_ns;
                        if options.capture_intermediates {
                            record.fused_into = None;
                        }
                        record
                    })
                    .collect(),
                wall_ns,
                arena_peak_bytes: self.plan.peak_bytes(),
                arena_unplanned_bytes: self.plan.unplanned_bytes(),
            });
        Ok(RunOutput {
            outputs,
            intermediates,
            profile,
        })
    }

    /// The weight tensors of a node of this runner's graph, as an owned
    /// copy of what [`Graph::node_weights`], which owns weight
    /// materialization, returns.
    ///
    /// # Errors
    ///
    /// As [`Graph::node_weights`].
    pub fn node_weights(&self, node: &Node) -> Result<Vec<Tensor>, NnirError> {
        self.graph.node_weights(node).map(Cow::into_owned)
    }

    /// Runs every step in schedule order, at the first input's batch
    /// (the value shapes and record counts follow it when it changes),
    /// into the arena ranges the plan assigned, reading graph inputs from
    /// `inputs` in place, returning per-node timing records when
    /// [`RunOptions::profile`] is set and a per-tensor-id snapshot of
    /// every value when [`RunOptions::capture_intermediates`] is set.
    ///
    /// Tails run in the head kernel's output write, unless the caller
    /// captures intermediates: then each runs as a pass of its own over
    /// the step's output, so every value it produces can be cloned, and
    /// a max-pool the INT8 conv head folds, or the depthwise conv an
    /// expansion head computes into, runs as its own kernel over the
    /// head's whole output, held in a buffer of its own.
    /// Intermediates are captured as each value is produced: a value's
    /// range may be overwritten by a later value sharing its bytes, so
    /// the snapshot copies eagerly instead of reading the arena after the
    /// run.
    fn forward(
        &mut self,
        inputs: &[Tensor],
        options: RunOptions,
    ) -> Result<ForwardArtifacts, NnirError> {
        let graph_inputs = self.graph.inputs();
        if inputs.len() != graph_inputs.len() {
            return Err(NnirError::ExecutionFailure(format!(
                "graph has {} inputs but {} were provided",
                graph_inputs.len(),
                inputs.len()
            )));
        }
        let n = inputs.first().map_or(self.batch, |t| t.shape().batch());
        if n != self.batch {
            self.shapes = shapes_at(self.graph, n)?;
            for (record, node) in self.records.iter_mut().zip(self.graph.nodes()) {
                (record.macs, record.elementwise) = counts(node, &self.shapes);
            }
            self.batch = n;
        }
        for (&t, tensor) in graph_inputs.iter().zip(inputs) {
            let expected = &self.shapes[t.0];
            if tensor.shape() != expected {
                return Err(NnirError::ExecutionFailure(format!(
                    "input {t} expects shape {expected} but got {}",
                    tensor.shape()
                )));
            }
        }
        let mut captured: Option<Vec<Option<Tensor>>> = options.capture_intermediates.then(|| {
            let mut cap = vec![None; self.graph.tensor_count()];
            for (&t, tensor) in graph_inputs.iter().zip(inputs) {
                cap[t.0] = Some(tensor.clone());
            }
            cap
        });
        // Each arena at the run's batch: one that ran a larger batch
        // keeps its capacity, so a warm run allocates nothing.
        let b = self.graph.batch();
        let (f32_len, code_len) = self.plan.arena_lens();
        let whole = |len| Extent { at: 0, len }.at_batch(n, b).end;
        resize_exact(&mut self.f32s, whole(f32_len));
        resize_exact(&mut self.codes, whole(code_len));

        let nodes = self.graph.nodes();
        let mut durations = options.profile.then(|| vec![0; nodes.len()]);
        for step in &self.steps {
            let fused = captured.is_none();
            let shape = |idx: usize| &self.shapes[nodes[idx].output.0];
            let last = shape(step.nodes.end - 1);
            let fold = step.fold.filter(|_| fused);
            // A plain run computes an expansion one block at a time into
            // its range; a run that captures intermediates computes it
            // whole into the buffer a folded pool's input takes.
            let expanded = match &step.kernel {
                Kernel::Expanded(e) => Some(e),
                _ => None,
            };
            let block = expanded.filter(|_| fused).map(|e| e.block.at_batch(n, b));
            let mut pre = ((step.fold.is_some() || expanded.is_some()) && !fused)
                .then(|| recycle(self.spill.take(), shape(step.nodes.start)));
            // A plain run writes a value the plan stores as codes into the
            // code arena. A run that captures intermediates computes every
            // value in f32, so each capture has the f32 bits, a coded one
            // into a buffer of its own: its capture, which its readers
            // read, while its range goes unwritten.
            let (coded, to) = (step.code.is_some(), step.out.at_batch(n, b));
            let (f32_out, block, f32s) = split(&mut self.f32s, (!coded).then(|| to.clone()), block);
            let (code_out, _, codes) = split(&mut self.codes, (coded && fused).then_some(to), None);
            let values = Values {
                inputs,
                f32s,
                codes,
                n,
                b,
            };
            let mut own = (coded && !fused).then(|| Tensor::zeros(last.clone()));
            let out = own.as_mut().map_or(f32_out, Tensor::data_mut);
            let plane = channel_plane(pre.as_ref().map_or(last, Tensor::shape));
            let dst = match (pre.as_mut(), step.code) {
                (Some(buf), _) => Dst::F32(buf.data_mut()),
                (None, Some(s)) if fused => Dst::Codes(code_out, 1.0 / s),
                (None, _) => Dst::F32(&mut *out),
            };
            let head = &nodes[step.nodes.start];
            let src = source(step, head, values, captured.as_deref());
            let mut ctx = KernelCtx {
                scratch: &mut self.scratch,
                par: self.parallelism,
                n: last.batch(),
                epi: Epilogue {
                    stages: if fused { &step.stages } else { &[] },
                    plane,
                    base: 0,
                    values,
                },
            };
            // A record measures only its kernel (a fused head's: the
            // whole step; an expansion's and its depthwise reader's: each
            // conv's phase of every block).
            let start = durations.is_some().then(std::time::Instant::now);
            let mut phases = [0; 2];
            match (expanded.filter(|_| fused), dst, src) {
                (Some(e), Dst::F32(out), Src::F32(x)) => {
                    let phases = durations.is_some().then_some(&mut phases);
                    expand_depthwise(x, e, out, block, &mut ctx, phases);
                }
                (.., dst, src) => eval_node_into(step, src, dst, fold, &mut ctx),
            }
            if let (Some(ns), Some(start)) = (durations.as_mut(), start) {
                match depthwise_of(self.graph, &step.nodes).filter(|_| fused) {
                    Some(d) => [ns[step.nodes.start], ns[d]] = phases,
                    None => ns[step.nodes.start] = start.elapsed().as_nanos() as u64,
                }
            }
            if let Some(cap) = captured.as_mut() {
                // The values before a folded pool or a depthwise tail
                // live in `pre`.
                let value = |idx: usize, pre: &Option<Tensor>, out: &[f32]| match pre {
                    Some(pre) => pre.clone(),
                    None => snapshot(shape(idx), out),
                };
                cap[head.output.0] = Some(value(step.nodes.start, &pre, out));
                let mut stages = step.stages.iter();
                for (idx, tail) in step.nodes.clone().skip(1).zip(&step.tails) {
                    let start = std::time::Instant::now();
                    match (tail, pre.as_mut(), step.fold) {
                        (Tail::Pool, Some(p), Some(geom)) => {
                            let max = PoolMode::Max;
                            pool2d_into(p.data(), geom, max, out, &mut ctx);
                            self.spill = pre.take();
                        }
                        (Tail::Depthwise, Some(p), _) => {
                            if let Some(e) = expanded {
                                let groups = e.depthwise.g.out_c;
                                conv2d_grouped(p.data(), &e.depthwise, groups, out, &mut ctx);
                            }
                            self.spill = pre.take();
                        }
                        (Tail::Stage, buf, _) => {
                            let buf = buf.map_or(&mut *out, Tensor::data_mut);
                            let plane = channel_plane(shape(idx));
                            if let Some(stage) = stages.next() {
                                stage.apply(buf, 0, plane, values);
                            }
                        }
                        _ => {}
                    }
                    if let Some(ns) = durations.as_mut() {
                        ns[idx] = start.elapsed().as_nanos() as u64;
                    }
                    cap[nodes[idx].output.0] = Some(value(idx, &pre, out));
                }
            }
        }
        Ok((durations, captured))
    }
}

/// The data input of `step`'s head, `head`: the f32 values or the codes
/// at its place, or, in a run that captures intermediates (`captured`),
/// a coded value's f32 capture.
fn source<'a>(
    step: &Step<'_>,
    head: &Node,
    values: Values<'a>,
    captured: Option<&'a [Option<Tensor>]>,
) -> Src<'a> {
    let Some(&p) = step.inputs.first() else {
        return Src::F32(&[]);
    };
    match (step.reads_codes, captured) {
        (false, _) => Src::F32(values.f32s(p)),
        (true, None) => Src::Codes(values.codes(p)),
        (true, Some(cap)) => {
            let capture = head.inputs.first().and_then(|t| cap[t.0].as_ref());
            Src::F32(capture.map_or(&[], Tensor::data))
        }
    }
}

/// What [`Runner::forward`] hands back to [`Runner::execute`]: each
/// node's kernel time in schedule order (0 for a fused tail) and the
/// per-tensor-id intermediate snapshot, each present when its
/// [`RunOptions`] flag was set.
type ForwardArtifacts = (Option<Vec<u64>>, Option<Vec<Option<Tensor>>>);

/// Rebuilds the spill buffer for `shape`: a same-shape one is handed
/// back as-is (the kernel fully overwrites it), a differently-shaped one
/// donates its heap allocation, and none allocates fresh.
fn recycle(spill: Option<Tensor>, shape: &Shape) -> Tensor {
    match spill {
        Some(t) if t.shape() == shape => t,
        Some(t) => {
            let mut data = t.into_data();
            resize_exact(&mut data, shape.elem_count());
            Tensor::from_vec(shape.clone(), data).unwrap_or_else(|_| Tensor::zeros(shape.clone()))
        }
        None => Tensor::zeros(shape.clone()),
    }
}

/// Resizes a buffer to `len` elements. A buffer that must grow grows to
/// exactly `len`, not by `Vec`'s amortized doubling, so once a run at the
/// graph's batch has sized them, the arenas hold what
/// [`MemoryPlan::peak_bytes`] counts.
fn resize_exact<T: Clone + Default>(buf: &mut Vec<T>, len: usize) {
    buf.reserve_exact(len.saturating_sub(buf.len()));
    buf.resize(len, T::default());
}

/// A tensor of `shape` holding a copy of `data`, a value at the run's
/// batch.
fn snapshot(shape: &Shape, data: &[f32]) -> Tensor {
    Tensor::from_vec(shape.clone(), data.to_vec()).unwrap_or_else(|_| Tensor::zeros(shape.clone()))
}

/// The static fields of each node's profile record, in schedule order:
/// everything but the measured duration, built once per runner, with
/// the counts over the value shapes `shapes`. A fused tail names its
/// head: its step's, or the depthwise conv an expansion head computes
/// into, whose own record names none; every head that runs an INT8
/// kernel reads [`DataType::I8`].
fn profile_records(graph: &Graph, steps: &[Step<'_>], shapes: &[Shape]) -> Vec<NodeProfile> {
    let nodes = graph.nodes();
    steps
        .iter()
        .flat_map(|step| step.nodes.clone().map(move |idx| (idx, step)))
        .map(|(idx, step)| {
            let node = &nodes[idx];
            let head = match depthwise_of(graph, &step.nodes) {
                Some(d) if idx >= d => d,
                _ => step.nodes.start,
            };
            let (macs, elementwise) = counts(node, shapes);
            NodeProfile {
                name: node.name.clone(),
                op: node.op.to_string(),
                macs,
                elementwise,
                duration_ns: 0,
                precision: if idx == head && step.kernel.is_int8() {
                    DataType::I8
                } else {
                    DataType::F32
                },
                fused_into: (idx != head).then(|| nodes[head].name.clone()),
            }
        })
        .collect()
}

/// Each value's shape at batch `n`, by tensor id: the graph's own at its
/// batch `B`; for another `n` in `1..=B`, each with its batch axis set to
/// `n`, which every value must have at `B`: a rank-0 value has none.
fn shapes_at(graph: &Graph, n: usize) -> Result<Vec<Shape>, NnirError> {
    let b = graph.batch();
    let fail = |why: String| {
        let name = graph.name();
        NnirError::ExecutionFailure(format!("{name} cannot run at batch {n}: {why}"))
    };
    if n != b && (n == 0 || n > b) {
        return Err(fail(format!("a runner built at batch {b} runs 1..={b}")));
    }
    (0..graph.tensor_count())
        .map(|t| match plan::shape(graph, TensorId(t))? {
            s if n == b => Ok(s.clone()),
            s if s.rank() == 0 => Err(fail(format!("tensor t{t} has rank 0"))),
            s if s.batch() != b => Err(fail(format!("tensor t{t} has batch {}", s.batch()))),
            s => Ok(s.with_batch(n)),
        })
        .collect()
}

/// A node's multiply-accumulates and elementwise operations over the
/// value shapes `shapes`, by tensor id.
fn counts(node: &Node, shapes: &[Shape]) -> (u64, u64) {
    let ins: Vec<&Shape> = node.inputs.iter().map(|t| &shapes[t.0]).collect();
    let out = &shapes[node.output.0];
    (node.op.macs(&ins, out), node.op.elementwise_ops(&ins, out))
}

/// Mutable per-step kernel context: the runner's scratch arenas, the
/// parallelism policy, the run's batch and the stages fused into the
/// head's output write.
pub(super) struct KernelCtx<'a> {
    pub(super) scratch: &'a mut Scratch,
    pub(super) par: Parallelism,
    /// Samples in the step's values: the run's batch.
    pub(super) n: usize,
    /// What a head kernel (conv, dense, pool or flatten) applies to
    /// each run of output it writes; empty for every other node.
    pub(super) epi: Epilogue<'a>,
}

impl KernelCtx<'_> {
    /// The context of a kernel call over one batch item, under `epi`.
    pub(super) fn item<'b>(&'b mut self, epi: Epilogue<'b>) -> KernelCtx<'b> {
        KernelCtx {
            scratch: &mut *self.scratch,
            par: self.par,
            n: 1,
            epi,
        }
    }
}

/// Runs a step's kernel into `out`, reading its data input `x` (an INT8
/// kernel, a copy or a lone stage) or its inputs from the values of
/// `ctx` (every other kernel). `fold` is the max-pool an INT8 conv head pools
/// its accumulators by: the step's, except in a run that captures
/// intermediates. Only the INT8 kernels, a copy and a lone `FakeQuant`
/// read or write codes ([`coded_values`]).
fn eval_node_into(
    step: &Step<'_>,
    x: Src<'_>,
    out: Dst<'_>,
    fold: Option<PoolGeom>,
    ctx: &mut KernelCtx<'_>,
) {
    let values = ctx.epi.values;
    let arg = |i: usize| values.f32s(step.inputs[i]);
    match (&step.kernel, out) {
        (Kernel::Int8Gemm(c, plan), out) => conv_int8_gemm(x, c, plan, fold, out, ctx),
        (Kernel::Int8Direct(c, plan), out) => conv_int8_direct(x, c, plan, fold, out, ctx),
        (Kernel::Int8Dense(d, plan), out) => dense_int8(x, d, plan, out, ctx),
        (Kernel::Stage(stage), out) => {
            let stages = std::slice::from_ref(stage);
            copy(x, out, Epilogue { stages, ..ctx.epi });
        }
        (Kernel::Copy, out) => copy(x, out, ctx.epi),
        (Kernel::ConvLanes(c, run), Dst::F32(out)) => conv_lanes(arg(0), c, *run, out, ctx),
        // A run that captures intermediates: the expansion whole, its
        // depthwise reader then runs as its tail.
        (Kernel::Expanded(e), Dst::F32(out)) => conv_lanes(arg(0), &e.expand, e.run, out, ctx),
        (Kernel::ConvGemm(c), Dst::F32(out)) => conv_gemm(arg(0), c, out, ctx),
        (Kernel::ConvBias(c), Dst::F32(out)) => conv_bias(c, out, ctx.epi),
        (Kernel::Grouped(c, groups), Dst::F32(out)) => {
            conv2d_grouped(arg(0), c, *groups, out, ctx);
        }
        (Kernel::MatVec(d), Dst::F32(out)) => dense_into(arg(0), d, out, ctx),
        (Kernel::Pool(g, mode), Dst::F32(out)) => pool2d_into(arg(0), *g, *mode, out, ctx),
        (Kernel::GlobalAvgPool(plane), Dst::F32(out)) => {
            global_avg_pool_into(arg(0), *plane, out);
        }
        (Kernel::Mul(plane), Dst::F32(out)) => mul_broadcast_into(arg(0), arg(1), *plane, out),
        (Kernel::Concat, Dst::F32(out)) => {
            concat_channels_into(&step.inputs.iter().map(|&p| values.f32s(p)), ctx.n, out);
        }
        (Kernel::Upsample { factor, h, w }, Dst::F32(out)) => {
            upsample_nearest_into(arg(0), *factor, *h, *w, out);
        }
        (Kernel::Softmax(last), Dst::F32(out)) => {
            softmax_last_into(arg(0), last.unwrap_or(out.len()), out);
        }
        // No f32 kernel writes codes.
        (_, Dst::Codes(..)) => {}
    }
}

/// Copies `x` into `out` under the stages of `epi`: f32 values into
/// either width, or codes into codes (a copy reads codes only when it
/// writes them and runs no stage).
fn copy(x: Src<'_>, out: Dst<'_>, epi: Epilogue<'_>) {
    match (x, out) {
        (Src::Codes(x), Dst::Codes(out, _)) => out.copy_from_slice(x),
        (Src::F32(x), out) => out.emit(0, epi, |off, xs| xs.copy_from_slice(&x[off..][..xs.len()])),
        (Src::Codes(_), Dst::F32(_)) => {}
    }
}
