//! The plan: what [`RunnerBuilder::build`](super::RunnerBuilder::build)
//! decides once, from the verified graph, so that a run only executes.
//!
//! The schedule runs in *steps*: a head node and the elementwise nodes
//! fused into its output write, or an expansion conv and the depthwise
//! conv that reads it block by block ([`fused_steps`] states the rule). Each
//! fused op is one in-place stage with one implementation, run by the
//! kernel on each run of output while it is still in cache, or over a
//! copy of its input when the node stands alone; either way it computes
//! the same expression on the same operand, so fusion changes no bit.
//! Each step becomes one [`Step`]: its [`Kernel`], chosen by [`kernel`]
//! (the one statement of the kernel-selection rule, DESIGN.md §10) with
//! its geometry read from the verified shapes and its weights taken
//! once, where its operands and output live, and its stages. The verifier
//! ([`crate::analysis::verify_for_execution`]) has proven every shape,
//! attribute and explicit weight layout the kernels rely on, so nothing
//! is checked again per call. The plan holds no batch: every kernel
//! takes it from the run, so one plan runs any batch up to the graph's.

use super::conv::{lane_run, runs_direct, ConvGeom};
use super::grouped::LANES;
use super::int8::CODE_CHUNK;
use super::memory::MemoryPlan;
use super::pool::{PoolGeom, PoolMode};
use super::stage::{Extent, Place, Stage};
use crate::dtype::DataType;
use crate::graph::{Graph, Node, TensorId, WeightInit};
use crate::ops::{ActKind, Conv2dAttrs, Op};
use crate::shape::Shape;
use crate::tensor::Tensor;
use crate::NnirError;
use std::borrow::Cow;
use std::ops::Range;

/// A weight tensor's values as the plan holds them: borrowed from the
/// graph when explicit, materialized once at build when seeded.
pub(super) type Data<'g> = Cow<'g, [f32]>;

/// One step of the plan: a head node, the elementwise nodes fused into
/// its output write, and everything build decided for them.
#[derive(Debug)]
pub(super) struct Step<'g> {
    /// Schedule positions of the step's nodes, the head first.
    pub(super) nodes: Range<usize>,
    /// What the head runs.
    pub(super) kernel: Kernel<'g>,
    /// Where the head's inputs live, in node-input order.
    pub(super) inputs: Vec<Place>,
    /// The stages of the tails that change a bit, in schedule order:
    /// what the kernel runs on each run of output it writes.
    pub(super) stages: Vec<Stage<'g>>,
    /// Every tail in schedule order, for a run that captures each value.
    pub(super) tails: Vec<Tail>,
    /// The max-pool an INT8 conv head folds: the kernel pools its i32
    /// accumulators; a run that captures intermediates pools the head's
    /// full-resolution output instead.
    pub(super) fold: Option<PoolGeom>,
    /// The arena range of the step's last value, the one it writes.
    pub(super) out: Extent,
    /// The scale of the INT8 codes that value is stored as, when the
    /// plan stores it as codes ([`coded_values`]).
    pub(super) code: Option<f32>,
    /// Whether the head's data input is stored as codes.
    pub(super) reads_codes: bool,
}

/// One fused tail, as a run that captures intermediates replays it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(super) enum Tail {
    /// The next of the step's stages.
    Stage,
    /// A `FakeQuant` whose input already lies on its grid
    /// ([`crate::analysis::identity_quants`]): its value is its input.
    Identity,
    /// The folded max-pool.
    Pool,
    /// The depthwise conv an expansion head computes into
    /// ([`Kernel::Expanded`]).
    Depthwise,
}

/// A conv's geometry and f32 weights.
#[derive(Debug)]
pub(super) struct Conv<'g> {
    pub(super) g: ConvGeom,
    /// One row of `K` taps per output channel; on the GEMM, each row
    /// padded with `+0.0` to whole 4-element chunks.
    pub(super) w: Data<'g>,
    pub(super) bias: Option<Data<'g>>,
}

impl Conv<'_> {
    /// Output channels `r` of the conv, over `in_c` input channels: its
    /// geometry with `r.len()` outputs, its weight rows and bias over
    /// `r`, borrowed.
    pub(super) fn channels(&self, r: Range<usize>, in_c: usize) -> Conv<'_> {
        let k = self.w.len() / self.g.out_c.max(1);
        Conv {
            g: ConvGeom {
                in_c,
                out_c: r.len(),
                ..self.g
            },
            w: Cow::Borrowed(&self.w[r.start * k..r.end * k]),
            bias: self.bias.as_deref().map(|b| Cow::Borrowed(&b[r])),
        }
    }
}

/// An expansion conv on the lane kernel and the depthwise conv that is
/// its only reader, run one block of [`LANES`] channels at a time
/// ([`expand_depthwise`](super::grouped::expand_depthwise)).
#[derive(Debug)]
pub(super) struct Expanded<'g> {
    /// The expansion conv and its lane run.
    pub(super) expand: Conv<'g>,
    pub(super) run: usize,
    /// The depthwise conv.
    pub(super) depthwise: Conv<'g>,
    /// How many of the step's stages, the first, the expansion runs; the
    /// depthwise conv runs the rest.
    pub(super) stages: usize,
    /// The arena range of one block of the expansion's value: its
    /// channels of every batch item.
    pub(super) block: Extent,
}

/// A dense layer's geometry and f32 weights.
#[derive(Debug)]
pub(super) struct Dense<'g> {
    pub(super) in_f: usize,
    pub(super) out_f: usize,
    pub(super) w: Data<'g>,
    pub(super) bias: Option<Data<'g>>,
}

/// The kernel a step's head runs, with everything it reads but its
/// inputs.
#[derive(Debug)]
pub(super) enum Kernel<'g> {
    /// A stride-1 dense conv of at most 32 taps over output rows of at
    /// least eight pixels: the lane kernel, over runs of this many.
    ConvLanes(Conv<'g>, usize),
    /// A lane-kernel conv computed into its depthwise reader block by
    /// block.
    Expanded(Expanded<'g>),
    /// Every other dense f32 conv: pixel-blocked im2col and the GEMM.
    ConvGemm(Conv<'g>),
    /// A conv without input or output channels: each output is its bias.
    ConvBias(Conv<'g>),
    /// A grouped or depthwise conv over this many groups,
    /// channel-blocked.
    Grouped(Conv<'g>, usize),
    /// An INT8 conv on the INT8 GEMM.
    Int8Gemm(Conv<'g>, Int8Plan<'g>),
    /// A stride-1 INT8 conv of at most 32 codes per patch, direct.
    Int8Direct(Conv<'g>, Int8Plan<'g>),
    /// An f32 dense layer on the matrix-vector tile.
    MatVec(Dense<'g>),
    /// An INT8 dense layer: the INT8 GEMM, one patch row per sample.
    Int8Dense(Dense<'g>, Int8Plan<'g>),
    Pool(PoolGeom, PoolMode),
    /// Global average pooling over planes of this many values.
    GlobalAvgPool(usize),
    /// A multiply whose second operand holds one value per this many
    /// of the first (1 for two same-shape tensors).
    Mul(usize),
    /// A channel concat.
    Concat,
    /// Nearest upsampling by `factor` of `h × w` planes.
    Upsample {
        factor: usize,
        h: usize,
        w: usize,
    },
    /// Softmax over rows of this many values; `None` for a rank-1 (or
    /// rank-0) tensor, whose last axis is its batch: one row of it all.
    Softmax(Option<usize>),
    /// A standalone elementwise node: its stage over a copy of its first
    /// input.
    Stage(Stage<'g>),
    /// A copy of the input, then the stages: a flatten, or a `FakeQuant`
    /// whose input already lies on its grid.
    Copy,
}

impl Kernel<'_> {
    /// Whether the kernel multiplies INT8 codes.
    pub(super) fn is_int8(&self) -> bool {
        matches!(
            self,
            Kernel::Int8Gemm(..) | Kernel::Int8Direct(..) | Kernel::Int8Dense(..)
        )
    }
}

/// Build-time INT8 plan of one node: the activation scale its input is
/// quantized with, and its weights packed for the GEMM.
#[derive(Debug, Clone)]
pub(super) struct Int8Plan<'g> {
    pub(super) in_scale: f32,
    /// The payload's i8 weight codes widened to i16 once, each row
    /// zero-padded to `row_len`: the GEMM's A operand.
    pub(super) codes: Vec<i16>,
    /// Padded row length, a non-zero multiple of [`CODE_CHUNK`].
    pub(super) row_len: usize,
    /// The payload's per-row weight scales.
    pub(super) scales: &'g [f32],
}

impl Int8Plan<'_> {
    /// Row `r` of the packed codes, as whole chunks.
    pub(super) fn row(&self, r: usize) -> &[[i16; CODE_CHUNK]] {
        self.codes[r * self.row_len..][..self.row_len].as_chunks().0
    }
}

/// Computes the per-node INT8 execution plan: `Some` for every node the
/// runner will execute with the integer-code / i32-accumulator kernel,
/// `None` for the f32 path.
///
/// This is the quant-safety dataflow analysis
/// ([`crate::analysis::QuantSafety`]): a node qualifies when it is a
/// dense (`groups == 1`) convolution or a dense layer whose explicit
/// weights carry an i8 [`QuantPayload`](crate::tensor::QuantPayload),
/// its data input is produced by a `FakeQuant` node — whose scale
/// quantizes incoming activations *exactly*, since they already lie on
/// that grid — and the propagated value ranges *prove* the INT8 path's
/// worst-case error fits under the engine's tolerance contract.
/// Eligibility is per node: one saturating layer no longer forces the
/// whole graph onto the f32 path. A graph without i8 weights plans
/// nothing, and the analysis (which reads every weight) is not run.
///
/// # Errors
///
/// Returns [`NnirError::ShapeMismatch`] when a planned node's payload
/// is not one code per weight and one scale per row.
pub(super) fn int8_plans(graph: &Graph) -> Result<Vec<Option<Int8Plan<'_>>>, NnirError> {
    let has_i8 = graph.nodes().iter().any(|n| match &n.weights {
        WeightInit::Explicit(w) => w
            .first()
            .and_then(Tensor::quant)
            .is_some_and(|q| q.dtype == DataType::I8),
        _ => false,
    });
    if !has_i8 {
        return Ok(Vec::new());
    }
    crate::analysis::QuantSafety::of(graph)
        .verdicts()
        .iter()
        .zip(graph.nodes())
        .map(|(v, node)| {
            let Some(in_scale) = v.input_scale.filter(|_| v.eligible) else {
                return Ok(None);
            };
            let WeightInit::Explicit(weights) = &node.weights else {
                return Ok(None);
            };
            let Some((w, q)) = weights.first().and_then(|w| Some((w, w.quant()?))) else {
                return Ok(None);
            };
            let rows = w.shape().dim(0).unwrap_or(0);
            if q.codes.len() != w.shape().elem_count() || q.scales.len() != rows {
                return Err(NnirError::ShapeMismatch {
                    op: node.op.name().into(),
                    detail: format!(
                        "int8 payload of {} holds {} codes and {} scales for weights {}",
                        node.name,
                        q.codes.len(),
                        q.scales.len(),
                        w.shape()
                    ),
                });
            }
            // One row per scale, at least one chunk long.
            let k = q.codes.len() / rows.max(1);
            let row_len = k.next_multiple_of(CODE_CHUNK).max(CODE_CHUNK);
            let mut codes = vec![0; rows * row_len];
            for (r, dst) in codes.chunks_exact_mut(row_len).enumerate() {
                for (d, &c) in dst.iter_mut().zip(&q.codes[r * k..][..k]) {
                    *d = i16::from(c);
                }
            }
            Ok(Some(Int8Plan {
                in_scale,
                codes,
                row_len,
                scales: &q.scales,
            }))
        })
        .collect()
}

/// Most elementwise nodes one head takes into its output write. It
/// bounds a step, and with it the values live at once in its arenas.
const MAX_TAILS: usize = 8;

/// The schedule cut into steps, each a range of node indices the runner
/// executes as one kernel — the one place the fusion decision is made.
///
/// A step starts at every node. One that starts at a `Conv2d`,
/// `Dense`, `MaxPool2d`, `AvgPool2d` or `Flatten` node (its *head*)
/// extends through the next node in the schedule while that node is a
/// `BatchNorm`, an `Activation`, a `FakeQuant` or an `Add` of two
/// same-shape tensors, it is the only consumer of the value the step
/// has computed so far, and that value is not a graph output; at most
/// [`MAX_TAILS`] nodes join. Those *tails* then run in the head
/// kernel's output write and their inputs never exist as tensors of
/// their own. Because a tail is always the next node, an `Add`'s other
/// operand was produced before the head.
///
/// A conv head with an INT8 plan (`int8`, empty when none is planned)
/// also takes one `MaxPool2d`
/// whose every window holds an input tap, when each node between them
/// is a monotone non-decreasing map whose zeros all come out `+0.0`
/// ([`Zeros`]); the kernel then pools its i32 accumulators and runs
/// every other tail on the pooled values only (DESIGN.md §10, "Fused
/// epilogues"). The tails after the pool follow the rule above.
///
/// A step then takes in the next step when its head runs the f32 lane
/// kernel ([`lane_kernel`]), its value is no graph output and its only
/// reader is the next step's head, a depthwise conv (groups = input
/// channels = output channels, [`Kernel::Grouped`]). The expansion's
/// value is then computed [`LANES`] channels at a time, each block read
/// by the depthwise conv before the next overwrites it, so only one
/// block of it exists ([`Kernel::Expanded`]).
pub(super) fn fused_steps(graph: &Graph, int8: &[Option<Int8Plan<'_>>]) -> Vec<Range<usize>> {
    let nodes = graph.nodes();
    let fanout = graph.fanout();
    let sole = |value: TensorId| fanout[value.0].len() == 1 && !graph.outputs().contains(&value);
    let f32 = |i: usize| int8.get(i).is_none_or(Option::is_none);
    // Whether the step `span` computes its value into the depthwise conv
    // at `next`.
    let expands = |span: &Range<usize>, next: usize| {
        let (head, reader) = (&nodes[span.start], &nodes[next]);
        let value = nodes[span.end - 1].output;
        let (Op::Conv2d(a), Op::Conv2d(d)) = (&head.op, &reader.op) else {
            return false;
        };
        let lanes = conv_geom(graph, a, head).is_ok_and(|g| {
            lane_kernel(a, g).is_some() && (d.groups, d.out_channels) == (g.out_c, g.out_c)
        });
        lanes
            && d.groups > 1
            && f32(span.start)
            && f32(next)
            && sole(value)
            && reader.inputs[..] == [value]
            && depthwise_of(graph, span).is_none()
    };
    let fuses = |value: TensorId, next: &Node| {
        sole(value)
            && match next.op {
                Op::BatchNorm | Op::Activation(_) | Op::FakeQuant { .. } => next.inputs[0] == value,
                Op::Add => {
                    let [a, b] = next.inputs[..] else {
                        return false;
                    };
                    (a == value || b == value) && graph.tensor_shape(a) == graph.tensor_shape(b)
                }
                _ => false,
            }
    };
    let folds = |chain: Option<Zeros>, value: TensorId, next: &Node| {
        matches!(&next.op, Op::MaxPool2d(a) if a.has_taps())
            && next.inputs[0] == value
            && sole(value)
            && chain.is_some_and(|z| !z.negative)
    };
    let mut spans = Vec::new();
    let mut start = 0;
    while start < nodes.len() {
        let mut end = start + 1;
        if matches!(
            nodes[start].op,
            Op::Conv2d(_) | Op::Dense { .. } | Op::MaxPool2d(_) | Op::AvgPool2d(_) | Op::Flatten
        ) {
            // What the chain so far can output, while a pool may still
            // fold into this step.
            let mut chain = int8
                .get(start)
                .and_then(Option::as_ref)
                .and_then(|plan| Zeros::dequantized(graph, &nodes[start], plan));
            while end < nodes.len() && end - start <= MAX_TAILS {
                let (value, next) = (nodes[end - 1].output, &nodes[end]);
                if fuses(value, next) {
                    chain = chain.and_then(|z| z.through(graph, next));
                } else if folds(chain, value, next) {
                    chain = None;
                } else {
                    break;
                }
                end += 1;
            }
        }
        match spans.last_mut() {
            Some(prev) if expands(prev, start) => prev.end = end,
            _ => spans.push(start..end),
        }
        start = end;
    }
    spans
}

/// The schedule position of the depthwise conv step `span` computes its
/// expansion into ([`fused_steps`]): the step's second conv, as no tail
/// is a conv; `None` for every other step.
pub(super) fn depthwise_of(graph: &Graph, span: &Range<usize>) -> Option<usize> {
    (span.start + 1..span.end).find(|&i| matches!(graph.nodes()[i].op, Op::Conv2d(_)))
}

/// The value step `span` computes one block of channels at a time, when
/// it computes an expansion into its depthwise reader, and the elements
/// of one block at the graph's batch: [`LANES`] channels of each item,
/// or all of them when there are fewer.
pub(super) fn block_of(graph: &Graph, span: &Range<usize>) -> Option<(TensorId, usize)> {
    let value = *graph.nodes()[depthwise_of(graph, span)?].inputs.first()?;
    let s = graph.tensor_shape(value)?;
    let channels = s.dims().get(1).copied().unwrap_or(1).max(1);
    Some((value, s.elem_count() / channels * channels.min(LANES)))
}

/// The lane run of an f32 conv of `a` and geometry `g` that runs the
/// lane kernel ([`kernel`]): a dense conv with outputs and taps for which
/// [`lane_run`] finds runs; `None` for any other conv.
fn lane_kernel(a: &Conv2dAttrs, g: ConvGeom) -> Option<usize> {
    (a.groups == 1 && g.out_c > 0 && g.k_len() > 0)
        .then(|| lane_run(g))
        .flatten()
}

/// The values a runner that plans INT8 by `int8` (empty when none is
/// planned) stores as INT8 codes, by tensor id: `Some(s)` for a value
/// stored as codes of scale `s`, `None` for one stored as f32
/// (DESIGN.md §10, "Values stored as codes").
///
/// A step's last value (a fused chain's inner values are never stored)
/// is stored as codes of `s` when it is no graph output, it has a
/// reader, and
/// - each reader is the head of an INT8 conv or dense step that reads
///   it as its data input at an input scale of `s`'s bits, or the head
///   of a copy step (a flatten, or a `FakeQuant` that changes no bit)
///   that runs no stage and whose own value is stored as codes of `s`;
/// - its own step is an INT8 conv or dense step, a lone `FakeQuant` of
///   scale `s`, or a copy step.
///
/// So a coded value's every reader quantizes it at `s`, and its writer
/// stores each value `v` it computes as `quantize_activation(v, 1/s)`,
/// the code each reader would compute from `v` itself: every bit a
/// reader computes is the same as with `v` stored as f32. An f32
/// kernel's output, and so its INT8 readers' input, stays f32.
pub(super) fn coded_values(
    graph: &Graph,
    spans: &[Range<usize>],
    int8: &[Option<Int8Plan<'_>>],
) -> Vec<Option<f32>> {
    let nodes = graph.nodes();
    let identity = crate::analysis::identity_quants(graph);
    // The input scale of a head that runs an INT8 kernel ([`kernel`]).
    let int8_scale = |head: usize| {
        let plan = int8.get(head).and_then(Option::as_ref)?;
        let empty = matches!(&nodes[head].op, Op::Conv2d(a) if a.out_channels == 0);
        (!empty).then_some(plan.in_scale)
    };
    // What each value's readers ask of it, met from the end of the
    // schedule: `None` before its first reader, then `Some(Some(bits))`
    // while each reads codes of the scale with these bits, `Some(None)`
    // once one reads f32 values, as the caller reads a graph output.
    let mut asks: Vec<Option<Option<u32>>> = vec![None; graph.tensor_count()];
    for t in graph.outputs() {
        asks[t.0] = Some(None);
    }
    let mut codes = vec![None; graph.tensor_count()];
    for span in spans.iter().rev() {
        let (head, value) = (&nodes[span.start], nodes[span.end - 1].output);
        let copies = identity[span.start] || matches!(head.op, Op::Flatten);
        if let Some(Some(bits)) = asks[value.0] {
            let quant = matches!(head.op, Op::FakeQuant { scale } if scale.to_bits() == bits);
            if int8_scale(span.start).is_some() || copies || quant {
                codes[value.0] = Some(f32::from_bits(bits));
            }
        }
        // The head reads its data input as codes when it runs an INT8
        // kernel, or copies it into codes with no stage; every other read
        // is of f32 values.
        let pure = span.clone().skip(1).all(|i| identity[i]);
        let reads = int8_scale(span.start).or(codes[value.0].filter(|_| copies && pure));
        for (idx, node) in span.clone().zip(&nodes[span.clone()]) {
            for (i, t) in node.inputs.iter().enumerate() {
                let ask = reads
                    .filter(|_| idx == span.start && i == 0)
                    .map(f32::to_bits);
                asks[t.0] = Some(asks[t.0].map_or(ask, |old| old.filter(|_| old == ask)));
            }
        }
    }
    codes
}

/// The cut a default runner makes of `graph`: its steps, which fold the
/// pools its INT8 plans allow, and the values it stores as codes. A
/// graph whose INT8 payload does not fit its weights, which no runner
/// builds, gets its f32 cut.
pub(super) fn default_cut(graph: &Graph) -> (Vec<Range<usize>>, Vec<Option<f32>>) {
    let int8 = int8_plans(graph).unwrap_or_default();
    let spans = fused_steps(graph, &int8);
    let codes = coded_values(graph, &spans, &int8);
    (spans, codes)
}

/// Builds the plan's steps over `spans`, the cut [`fused_steps`] made,
/// with the INT8 plans `int8` (empty when none is planned), the values
/// `codes` stores as codes and the arena offsets of `memory`.
///
/// # Errors
///
/// Returns [`NnirError::ExecutionFailure`] for a node no kernel runs
/// (an `Input` node, or a weighted node with no weights).
pub(super) fn steps<'g>(
    graph: &'g Graph,
    spans: Vec<Range<usize>>,
    mut int8: Vec<Option<Int8Plan<'g>>>,
    codes: &[Option<f32>],
    memory: &MemoryPlan,
) -> Result<Vec<Step<'g>>, NnirError> {
    let nodes = graph.nodes();
    let identity = crate::analysis::identity_quants(graph);
    let place = |t: TensorId| place(graph, memory, t);
    spans
        .into_iter()
        .map(|span| {
            let head = &nodes[span.start];
            let last = &nodes[span.end - 1];
            let depthwise = depthwise_of(graph, &span);
            let (mut stages, mut tails, mut fold) = (Vec::new(), Vec::new(), None);
            let mut expansion_stages = 0;
            let mut value = head.output;
            for (idx, node) in span.clone().zip(&nodes[span.clone()]).skip(1) {
                tails.push(match &node.op {
                    _ if identity[idx] => Tail::Identity,
                    _ if Some(idx) == depthwise => {
                        expansion_stages = stages.len();
                        Tail::Depthwise
                    }
                    // Only an INT8 conv's fold makes a pool a tail.
                    Op::MaxPool2d(a) => {
                        let [_, _, h, w] = dims(shape(graph, head.output)?)?;
                        fold = Some(PoolGeom::new(a, h, w));
                        Tail::Pool
                    }
                    _ => {
                        stages.push(stage(graph, node, value, &place)?);
                        Tail::Stage
                    }
                });
                value = node.output;
            }
            let kernel = match depthwise {
                _ if identity[span.start] => Kernel::Copy,
                Some(d) => expanded(graph, head, &nodes[d], expansion_stages, memory, &place)?,
                None => {
                    let int8 = int8.get_mut(span.start).and_then(Option::take);
                    kernel(graph, head, int8, &place)?
                }
            };
            Ok(Step {
                inputs: head
                    .inputs
                    .iter()
                    .map(|&t| place(t))
                    .collect::<Result<_, _>>()?,
                out: extent(memory, last.output)?,
                code: codes[last.output.0],
                reads_codes: head.inputs.first().is_some_and(|t| codes[t.0].is_some()),
                nodes: span,
                kernel,
                stages,
                tails,
                fold,
            })
        })
        .collect()
}

/// The kernel `node` runs, given its INT8 plan: the one place a kernel
/// is chosen (DESIGN.md §10, "Kernel-selection rules").
///
/// A conv without outputs runs nothing. An INT8 conv runs direct when
/// it has stride 1 and at most 32 codes per patch ([`runs_direct`]),
/// else the INT8 GEMM. An f32 conv runs channel-blocked when grouped,
/// as its bias when it has no input channel, on the lane kernel when
/// [`lane_run`] finds runs for it, else on the im2col GEMM, whose weight
/// rows are padded here once.
/// A dense layer runs the INT8 GEMM when planned, else the
/// matrix-vector tile.
fn kernel<'g>(
    graph: &'g Graph,
    node: &'g Node,
    int8: Option<Int8Plan<'g>>,
    place: &impl Fn(TensorId) -> Result<Place, NnirError>,
) -> Result<Kernel<'g>, NnirError> {
    let input = || shape(graph, node.inputs[0]);
    let out = shape(graph, node.output)?;
    Ok(match &node.op {
        Op::Conv2d(a) => {
            let g = conv_geom(graph, a, node)?;
            let (w, bias) = weights(graph, node)?;
            let mut conv = Conv { g, w, bias };
            let k = g.k_len();
            match int8 {
                _ if g.out_c == 0 => Kernel::ConvBias(conv),
                Some(plan) if runs_direct(a.stride, k) => Kernel::Int8Direct(conv, plan),
                Some(plan) => Kernel::Int8Gemm(conv, plan),
                None if a.groups > 1 => Kernel::Grouped(conv, a.groups),
                None if k == 0 => Kernel::ConvBias(conv),
                None => match lane_kernel(a, g) {
                    Some(run) => Kernel::ConvLanes(conv, run),
                    None => {
                        let row_len = k.next_multiple_of(4);
                        if row_len > k {
                            let mut w = Vec::with_capacity(g.out_c * row_len);
                            for row in conv.w.chunks_exact(k) {
                                w.extend(row.iter().copied().chain([0.0; 3]).take(row_len));
                            }
                            conv.w = Cow::Owned(w);
                        }
                        Kernel::ConvGemm(conv)
                    }
                },
            }
        }
        Op::Dense { .. } => {
            let ([_, in_f], [_, out_f]) = (dims(input()?)?, dims(out)?);
            let (w, bias) = weights(graph, node)?;
            let dense = Dense {
                in_f,
                out_f,
                w,
                bias,
            };
            match int8 {
                Some(plan) => Kernel::Int8Dense(dense, plan),
                None => Kernel::MatVec(dense),
            }
        }
        Op::MaxPool2d(a) | Op::AvgPool2d(a) => {
            let [_, _, h, w] = dims(input()?)?;
            let mode = match node.op {
                Op::MaxPool2d(_) => PoolMode::Max,
                _ => PoolMode::Avg,
            };
            Kernel::Pool(PoolGeom::new(a, h, w), mode)
        }
        Op::GlobalAvgPool => {
            let [_, _, h, w] = dims(input()?)?;
            Kernel::GlobalAvgPool(h * w)
        }
        Op::Mul => {
            let gate = shape(graph, node.inputs[1])?.elem_count();
            Kernel::Mul((out.elem_count() / gate.max(1)).max(1))
        }
        Op::Concat => Kernel::Concat,
        &Op::Upsample { factor } => {
            let [_, _, h, w] = dims(input()?)?;
            Kernel::Upsample { factor, h, w }
        }
        Op::Softmax => Kernel::Softmax(out.dims().last().copied().filter(|_| out.rank() > 1)),
        Op::Flatten => Kernel::Copy,
        Op::BatchNorm | Op::Activation(_) | Op::FakeQuant { .. } | Op::Add => {
            Kernel::Stage(stage(graph, node, node.inputs[0], place)?)
        }
        Op::Input(_) => {
            return Err(NnirError::ExecutionFailure(format!(
                "input op {} cannot be evaluated",
                node.name
            )))
        }
    })
}

/// The kernel of a step whose expansion conv `head` computes into the
/// depthwise conv `depthwise` ([`fused_steps`]), the first `stages` of
/// the step's stages the expansion's, one block of its value at the
/// arena range `memory` gives it.
fn expanded<'g>(
    graph: &'g Graph,
    head: &'g Node,
    depthwise: &'g Node,
    stages: usize,
    memory: &MemoryPlan,
    place: &impl Fn(TensorId) -> Result<Place, NnirError>,
) -> Result<Kernel<'g>, NnirError> {
    let block = extent(memory, depthwise.inputs[0])?;
    match (
        kernel(graph, head, None, place)?,
        kernel(graph, depthwise, None, place)?,
    ) {
        (Kernel::ConvLanes(expand, run), Kernel::Grouped(depthwise, _)) => {
            Ok(Kernel::Expanded(Expanded {
                expand,
                run,
                depthwise,
                stages,
                block,
            }))
        }
        _ => Err(NnirError::ExecutionFailure(format!(
            "{} does not expand into {} on the lane and grouped kernels",
            head.name, depthwise.name
        ))),
    }
}

/// The geometry of conv `node` of attributes `a`, read from its verified
/// shapes.
fn conv_geom(graph: &Graph, a: &Conv2dAttrs, node: &Node) -> Result<ConvGeom, NnirError> {
    let [_, _, oh, ow] = dims(shape(graph, node.output)?)?;
    let no_input = || NnirError::ExecutionFailure(format!("conv {} has no input", node.name));
    let input = shape(graph, *node.inputs.first().ok_or_else(no_input)?)?;
    Ok(ConvGeom::new(a, dims(input)?, oh, ow))
}

/// The stage of elementwise `node` over `value`, the input it
/// transforms: a standalone node's first input, a fused tail's chain
/// value. An `Add` reads its other operand where that operand lives.
fn stage<'g>(
    graph: &'g Graph,
    node: &'g Node,
    value: TensorId,
    place: &impl Fn(TensorId) -> Result<Place, NnirError>,
) -> Result<Stage<'g>, NnirError> {
    Ok(match node.op {
        Op::BatchNorm => {
            let (scale, shift) = weights(graph, node)?;
            let shift = shift.unwrap_or_default();
            Stage::BatchNorm { scale, shift }
        }
        Op::Activation(kind) => Stage::Activation(kind),
        Op::FakeQuant { scale } => Stage::FakeQuant(scale),
        _ => {
            let other = node.inputs.iter().find(|&&t| t != value);
            Stage::Add {
                other: place(*other.unwrap_or(&value))?,
                value_first: node.inputs.first() == Some(&value),
            }
        }
    })
}

/// A node's first weight tensor (a kernel, or a BatchNorm's scale) and
/// its second (a bias or shift): borrowed when explicit, generated once
/// ([`Graph::node_weights`]) when seeded.
fn weights<'g>(
    graph: &'g Graph,
    node: &'g Node,
) -> Result<(Data<'g>, Option<Data<'g>>), NnirError> {
    let mut data: Vec<Data<'g>> = match graph.node_weights(node)? {
        Cow::Borrowed(tensors) => tensors.iter().map(|t| Cow::Borrowed(t.data())).collect(),
        Cow::Owned(tensors) => tensors.into_iter().map(|t| t.into_data().into()).collect(),
    };
    let second = data.get_mut(1).map(std::mem::take);
    Ok((data.into_iter().next().unwrap_or_default(), second))
}

/// Where tensor `t`, which is no fused chain's inner value, lives during
/// a run: the caller's tensor for a graph input, else its arena range.
pub(super) fn place(graph: &Graph, memory: &MemoryPlan, t: TensorId) -> Result<Place, NnirError> {
    match graph.inputs().iter().position(|&x| x == t) {
        Some(i) => Ok(Place::Input(i)),
        None => extent(memory, t).map(Place::Arena),
    }
}

/// The arena range of tensor `t`, which is neither a graph input nor a
/// fused chain's inner value.
fn extent(memory: &MemoryPlan, t: TensorId) -> Result<Extent, NnirError> {
    memory
        .extent(t)
        .ok_or_else(|| NnirError::ExecutionFailure(format!("tensor {t} has no arena range")))
}

/// The verified shape of tensor `t`.
pub(super) fn shape(graph: &Graph, t: TensorId) -> Result<&Shape, NnirError> {
    graph
        .tensor_shape(t)
        .ok_or_else(|| NnirError::ExecutionFailure(format!("tensor {t} has no shape")))
}

/// The extents of a rank-`R` shape: `[n, c, h, w]` or `[n, f]`.
fn dims<const R: usize>(s: &Shape) -> Result<[usize; R], NnirError> {
    <[usize; R]>::try_from(s.dims())
        .map_err(|_| NnirError::ExecutionFailure(format!("expected a rank-{R} tensor, got {s}")))
}

/// What a chain after an INT8 conv can output as a zero, for the
/// max-pool fold in [`fused_steps`] (the rule and its proof are in
/// DESIGN.md §10, "Fused epilogues").
#[derive(Debug, Clone, Copy)]
struct Zeros {
    /// The chain may output `-0.0`.
    negative: bool,
    /// Every output is `+0.0` or above.
    nonnegative: bool,
}

/// Outputs never below `+0.0`.
const POSITIVE: Zeros = Zeros {
    negative: false,
    nonnegative: true,
};

fn is_negative_zero(x: &f32) -> bool {
    x.to_bits() == (-0.0f32).to_bits()
}

impl Zeros {
    /// A conv head's `bias + acc·dq`: monotone and never NaN when the
    /// bias and every `dq = w_scale·in_scale` are finite and `dq ≥ 0`;
    /// `-0.0` only from a `-0.0` bias (a sum is `-0.0` only when both
    /// operands are).
    fn dequantized(graph: &Graph, head: &Node, plan: &Int8Plan<'_>) -> Option<Zeros> {
        let Op::Conv2d(attrs) = &head.op else {
            return None;
        };
        let weights = graph.node_weights(head).ok()?;
        let bias = if attrs.bias {
            weights.get(1)?.data()
        } else {
            &[]
        };
        let dq_ok = |&s: &f32| (s * plan.in_scale >= 0.0) && (s * plan.in_scale).is_finite();
        (plan.scales.iter().all(dq_ok) && bias.iter().all(|b| b.is_finite())).then(|| Zeros {
            negative: bias.iter().any(is_negative_zero),
            nonnegative: false,
        })
    }

    /// The chain extended by `node`, or `None` unless `node` is a
    /// monotone non-decreasing map per channel that turns no value,
    /// `±∞` included, into a NaN.
    fn through(self, graph: &Graph, node: &Node) -> Option<Zeros> {
        let Zeros {
            negative,
            nonnegative,
        } = self;
        match node.op {
            // Scale 0 fills +0.0; any other sends (-s/2, 0] to -0.0.
            Op::FakeQuant { scale: 0.0 } => Some(POSITIVE),
            Op::FakeQuant { scale } if scale > 0.0 && scale.is_finite() => Some(Zeros {
                negative: !nonnegative,
                nonnegative,
            }),
            Op::Activation(ActKind::Relu | ActKind::HardSigmoid) => Some(POSITIVE),
            // A clamp: negatives go to +0.0, -0.0 stays.
            Op::Activation(ActKind::Relu6) => Some(Zeros {
                negative,
                nonnegative: !negative,
            }),
            // -0.0 stays, and `slope·x` can underflow to -0.0; slope 0
            // is left out, as 0·(-∞) is NaN.
            Op::Activation(ActKind::LeakyRelu(slope)) if slope > 0.0 && slope.is_finite() => {
                Some(Zeros {
                    negative: negative || !nonnegative,
                    nonnegative,
                })
            }
            // `s·x + t` is -0.0 only for a -0.0 shift and product.
            Op::BatchNorm => {
                let weights = graph.node_weights(node).ok()?;
                let [scale, shift, ..] = &weights[..] else {
                    return None;
                };
                let (scale, shift) = (scale.data(), shift.data());
                let ok = scale.iter().all(|&s| s > 0.0 && s.is_finite())
                    && shift.iter().all(|t| t.is_finite());
                ok.then(|| Zeros {
                    negative: shift.iter().any(is_negative_zero) && (negative || !nonnegative),
                    nonnegative: nonnegative && shift.iter().all(|t| t.is_sign_positive()),
                })
            }
            _ => None,
        }
    }
}
