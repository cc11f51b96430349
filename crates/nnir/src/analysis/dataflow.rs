//! Concrete dataflow analyses: tensor liveness, value-range
//! propagation (interval arithmetic) and the quant-safety analysis
//! that proves or refutes per-node INT8 eligibility.
//!
//! All three run over the verified schedule, so one linear sweep is a
//! fixed point (see [`ForwardAnalysis`]). Liveness feeds the arena
//! memory planner in [`crate::exec`]; value ranges feed the I201/W108
//! lint passes and the quantization toolchain; quant safety is what
//! `Runner::build` consults when selecting INT8 kernels.

use super::framework::{propagate, ForwardAnalysis};
use crate::dtype::DataType;
use crate::graph::{Graph, Node, NodeId, TensorId, WeightInit};
use crate::ops::{ActKind, Op};
use crate::tensor::Tensor;

/// Worst-case |activation| a symmetric INT8 grid represents at unit
/// scale; ops whose propagated range exceeds it need calibration
/// (larger per-tensor scales) or saturate.
pub(crate) const INT8_UNIT_GRID: f32 = 127.0;

/// The engine's INT8 tolerance contract, relative to `max(1, |out|_∞)`:
/// INT8 outputs agree with the fake-quant f32 reference to within f32
/// summation rounding of the same quantized operands. Quant safety
/// proves each node's worst-case rounding bound fits under this.
pub(crate) const INT8_TOL_REL: f32 = 1e-4;

// --------------------------------------------------------------------
// Intervals
// --------------------------------------------------------------------

/// A closed value interval `[lo, hi]` — the fact the value-range
/// analysis propagates per tensor.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Interval {
    /// Lower bound (inclusive).
    pub lo: f32,
    /// Upper bound (inclusive).
    pub hi: f32,
}

impl Interval {
    /// The symmetric interval `[-a, a]`.
    #[must_use]
    pub fn symmetric(a: f32) -> Self {
        let a = a.abs();
        Interval { lo: -a, hi: a }
    }

    /// The degenerate interval `[x, x]`.
    #[must_use]
    pub fn point(x: f32) -> Self {
        Interval { lo: x, hi: x }
    }

    /// Largest absolute value the interval contains.
    #[must_use]
    pub fn abs_max(self) -> f32 {
        self.lo.abs().max(self.hi.abs())
    }

    /// Smallest interval containing both.
    #[must_use]
    pub fn hull(self, other: Interval) -> Interval {
        Interval {
            lo: self.lo.min(other.lo),
            hi: self.hi.max(other.hi),
        }
    }

    /// Clamps both endpoints into `[-bound, bound]` — the transfer
    /// function of a `FakeQuant` grid.
    #[must_use]
    pub fn clamp_abs(self, bound: f32) -> Interval {
        Interval {
            lo: self.lo.clamp(-bound, bound),
            hi: self.hi.clamp(-bound, bound),
        }
    }

    /// Whether both endpoints are finite.
    #[must_use]
    pub fn is_finite(self) -> bool {
        self.lo.is_finite() && self.hi.is_finite()
    }
}

/// Interval sum.
impl std::ops::Add for Interval {
    type Output = Interval;

    fn add(self, other: Interval) -> Interval {
        Interval {
            lo: self.lo + other.lo,
            hi: self.hi + other.hi,
        }
    }
}

/// Interval product (min/max over the four endpoint products).
impl std::ops::Mul for Interval {
    type Output = Interval;

    fn mul(self, other: Interval) -> Interval {
        let p = [
            self.lo * other.lo,
            self.lo * other.hi,
            self.hi * other.lo,
            self.hi * other.hi,
        ];
        Interval {
            lo: p.iter().copied().fold(f32::INFINITY, f32::min),
            hi: p.iter().copied().fold(f32::NEG_INFINITY, f32::max),
        }
    }
}

/// Image of an interval under an activation. Endpoint evaluation is
/// exact for the monotone families; the valley-shaped self-gated
/// families (hard-swish, SiLU, mish) additionally dip to a known
/// global minimum when the interval reaches negative inputs.
fn act_interval(kind: ActKind, iv: Interval) -> Interval {
    let (a, b) = (kind.apply(iv.lo), kind.apply(iv.hi));
    let mut lo = a.min(b);
    let hi = a.max(b);
    let valley_min = match kind {
        // hard_swish(-1.5) = -0.375 is the exact minimum.
        ActKind::HardSwish => Some(-0.375),
        // silu(x) >= -0.2785 for all x.
        ActKind::Silu => Some(-0.2785),
        // mish(x) >= -0.3089 for all x.
        ActKind::Mish => Some(-0.3089),
        _ => None,
    };
    if let Some(m) = valley_min {
        if iv.lo < 0.0 {
            lo = lo.min(m);
        }
    }
    Interval { lo, hi }
}

/// Largest L1 row norm plus the bias range of a weighted node's
/// parameters, borrowed when explicit ([`Graph::node_weights`]): `(l1,
/// bias_lo, bias_hi)`. Each output unit `c` of the node satisfies `out_c ∈
/// [bias_lo - l1·a, bias_hi + l1·a]` for inputs bounded by `|x| <= a`.
/// `None` for nodes without weights.
pub(crate) fn weighted_bound(graph: &Graph, node: &Node) -> Option<(f32, f32, f32)> {
    let weights = graph.node_weights(node).ok().filter(|w| !w.is_empty())?;
    let bias_range = |t: Option<&Tensor>| {
        t.map_or((0.0f32, 0.0f32), |b| {
            b.data()
                .iter()
                .fold((f32::INFINITY, f32::NEG_INFINITY), |(lo, hi), &x| {
                    (lo.min(x), hi.max(x))
                })
        })
    };
    match &node.op {
        Op::BatchNorm => {
            let scale = weights[0].data().iter().fold(0.0f32, |m, x| m.max(x.abs()));
            let (lo, hi) = bias_range(weights.get(1));
            Some((scale, lo, hi))
        }
        _ => {
            // Row = one output unit (channel / feature): the kernel is
            // stored [out, ...], so rows are contiguous chunks.
            let w = &weights[0];
            let out_units = w.shape().dim(0).unwrap_or(1).max(1);
            let per_row = w.data().len() / out_units;
            let l1 = if per_row == 0 {
                0.0
            } else {
                w.data()
                    .chunks(per_row)
                    .map(|row| row.iter().map(|x| x.abs()).sum::<f32>())
                    .fold(0.0f32, f32::max)
            };
            let (lo, hi) = bias_range(weights.get(1));
            Some((l1, lo, hi))
        }
    }
}

// --------------------------------------------------------------------
// Value-range propagation
// --------------------------------------------------------------------

/// The value-range analysis: conservative interval arithmetic through
/// every op, seeded at the graph inputs with `[-input_absmax,
/// input_absmax]` and clamped by every `FakeQuant` grid it crosses
/// (calibration data, where present, enters through those scales).
#[derive(Debug, Clone, Copy)]
pub struct ValueRangeAnalysis {
    /// Assumed |x| bound of every graph input (default 1.0).
    pub input_absmax: f32,
}

impl Default for ValueRangeAnalysis {
    fn default() -> Self {
        ValueRangeAnalysis { input_absmax: 1.0 }
    }
}

impl ForwardAnalysis for ValueRangeAnalysis {
    type Fact = Interval;

    fn boundary(&self, _graph: &Graph, _tensor: TensorId) -> Interval {
        Interval::symmetric(self.input_absmax)
    }

    fn transfer(&self, graph: &Graph, node: &Node, inputs: &[Interval]) -> Interval {
        let x = inputs.first().copied().unwrap_or(Interval::point(0.0));
        match &node.op {
            Op::Input(_) | Op::Upsample { .. } | Op::Flatten => x,
            Op::Conv2d(_) | Op::Dense { .. } | Op::BatchNorm => {
                weighted_bound(graph, node).map_or(x, |(l1, bias_lo, bias_hi)| {
                    let a = x.abs_max();
                    Interval {
                        lo: bias_lo - l1 * a,
                        hi: bias_hi + l1 * a,
                    }
                })
            }
            Op::Activation(kind) => act_interval(*kind, x),
            Op::MaxPool2d(attrs) | Op::AvgPool2d(attrs) => {
                // Zero padding can pull window results toward zero.
                if attrs.padding == (0, 0) {
                    x
                } else {
                    x.hull(Interval::point(0.0))
                }
            }
            Op::GlobalAvgPool => x,
            Op::Add => x + inputs.get(1).copied().unwrap_or(Interval::point(0.0)),
            Op::Mul => x * inputs.get(1).copied().unwrap_or(Interval::point(0.0)),
            Op::Concat => inputs.iter().copied().reduce(Interval::hull).unwrap_or(x),
            Op::Softmax => Interval { lo: 0.0, hi: 1.0 },
            Op::FakeQuant { scale } => x.clamp_abs(INT8_UNIT_GRID * scale.abs()),
        }
    }
}

/// Propagated value range per tensor id, seeded with `|x| <=
/// input_absmax` at every graph input.
#[must_use]
pub fn value_ranges(graph: &Graph, input_absmax: f32) -> Vec<Interval> {
    propagate(graph, &ValueRangeAnalysis { input_absmax })
}

// --------------------------------------------------------------------
// Liveness
// --------------------------------------------------------------------

/// The live interval of one tensor over the schedule: defined at
/// position `def` (its producer's schedule index; 0 for graph inputs,
/// which are staged before the first node) and last read at
/// `last_use` (`schedule_len` for graph outputs, which outlive the
/// run).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct LiveRange {
    /// Schedule position where the value comes into existence.
    pub def: usize,
    /// Last schedule position that reads the value (inclusive).
    pub last_use: usize,
}

impl LiveRange {
    /// Whether two live ranges overlap (closed-interval intersection).
    /// Overlapping values must not share an arena slot; in particular a
    /// node's output always overlaps its own inputs at the node's
    /// position, which is what makes arena sharing alias-free.
    #[must_use]
    pub fn overlaps(self, other: LiveRange) -> bool {
        self.def <= other.last_use && other.def <= self.last_use
    }
}

/// Tensor liveness over a graph's schedule: def/use intervals per
/// value, in topological order. The input of the arena memory planner
/// (`nnir::exec::MemoryPlan`) and of the W107 dead-value lint.
#[derive(Debug, Clone)]
pub struct Liveness {
    ranges: Vec<LiveRange>,
    schedule_len: usize,
}

impl Liveness {
    /// Computes liveness for every tensor of `graph` in one backward
    /// pass over the (verified, topological) schedule.
    #[must_use]
    pub fn of(graph: &Graph) -> Self {
        let n = graph.nodes().len();
        let tc = graph.tensor_count();
        let mut def = vec![0usize; tc];
        for (i, node) in graph.nodes().iter().enumerate() {
            if node.output.0 < tc {
                def[node.output.0] = i;
            }
        }
        let mut last = def.clone();
        for (i, node) in graph.nodes().iter().enumerate() {
            for &t in &node.inputs {
                if t.0 < tc && i > last[t.0] {
                    last[t.0] = i;
                }
            }
        }
        // Graph outputs are read after the last node; pin them past the
        // end of the schedule so their arena space is never reused.
        for &t in graph.outputs() {
            if t.0 < tc {
                last[t.0] = n;
            }
        }
        Liveness {
            ranges: def
                .into_iter()
                .zip(last)
                .map(|(def, last_use)| LiveRange { def, last_use })
                .collect(),
            schedule_len: n,
        }
    }

    /// The live range of every tensor, indexed by tensor id.
    #[must_use]
    pub fn ranges(&self) -> &[LiveRange] {
        &self.ranges
    }

    /// The live range of one tensor.
    #[must_use]
    pub fn range(&self, t: TensorId) -> Option<LiveRange> {
        self.ranges.get(t.0).copied()
    }

    /// Number of scheduled nodes (the position past the end that graph
    /// outputs stay live through).
    #[must_use]
    pub fn schedule_len(&self) -> usize {
        self.schedule_len
    }

    /// Tensors some node produces but nothing consumes and the
    /// interface does not export — W107 dead values whose arena slots
    /// are pure waste.
    #[must_use]
    pub fn dead_values(&self, graph: &Graph) -> Vec<TensorId> {
        let fanout = graph.fanout();
        graph
            .nodes()
            .iter()
            .map(|n| n.output)
            .filter(|&t| {
                t.0 < fanout.len() && fanout[t.0].is_empty() && !graph.outputs().contains(&t)
            })
            .collect()
    }

    /// Peak number of simultaneously live values at any schedule
    /// position — the lower bound on arena slots any planner can reach.
    #[must_use]
    pub fn peak_live(&self) -> usize {
        (0..=self.schedule_len)
            .map(|pos| {
                self.ranges
                    .iter()
                    .filter(|r| r.def <= pos && pos <= r.last_use)
                    .count()
            })
            .max()
            .unwrap_or(0)
    }
}

// --------------------------------------------------------------------
// Quant safety
// --------------------------------------------------------------------

/// The `FakeQuant` grid each tensor's values lie on exactly, by tensor
/// id: the `FakeQuant` node that produced them, directly or through
/// ReLU, `Flatten` and max-pools whose every window holds an input tap,
/// when its scale is 0 or a normal `s` with `127·s` finite. Such a value
/// is `+0.0`, `-0.0` or `fl(k·s)` with `|k| ≤ 127` (ReLU sends a
/// negative to `+0.0`; pools and `Flatten` copy values), so re-rounding
/// it to the grid of `s` returns it bit for bit and the INT8 kernels
/// quantize it to exactly `k` (DESIGN.md §10).
#[must_use]
pub fn exact_grids(graph: &Graph) -> Vec<Option<NodeId>> {
    let mut grid: Vec<Option<NodeId>> = vec![None; graph.tensor_count()];
    for (i, node) in graph.nodes().iter().enumerate() {
        let input = node
            .inputs
            .first()
            .and_then(|t| grid.get(t.0).copied().flatten());
        let out = match &node.op {
            Op::FakeQuant { scale: s } => (*s == 0.0 || codes_exactly(*s)).then_some(NodeId(i)),
            Op::Activation(ActKind::Relu) | Op::Flatten => input,
            Op::MaxPool2d(a) if a.has_taps() => input,
            _ => None,
        };
        if let Some(g) = grid.get_mut(node.output.0) {
            *g = out;
        }
    }
    grid
}

/// Whether the INT8 kernels quantize a value on the grid of a positive
/// scale `s` to its code exactly: `s` is normal, so `1/s` is finite,
/// and `127·s` is finite.
fn codes_exactly(s: f32) -> bool {
    s > 0.0 && s.is_normal() && (127.0 * s).is_finite()
}

/// The `FakeQuant` nodes that change no bit of their input, by node
/// index: a `FakeQuant(s)` whose input lies on the [`exact_grids`] grid
/// of a `FakeQuant` with the same scale bits. The runner runs them as
/// no stage, and `QuantizeInt8` does not insert them.
#[must_use]
pub fn identity_quants(graph: &Graph) -> Vec<bool> {
    let grids = exact_grids(graph);
    let scale = |n: NodeId| match graph.nodes()[n.0].op {
        Op::FakeQuant { scale } => Some(scale.to_bits()),
        _ => None,
    };
    graph
        .nodes()
        .iter()
        .enumerate()
        .map(|(i, node)| {
            let on = node
                .inputs
                .first()
                .and_then(|t| grids.get(t.0).copied().flatten());
            grids.get(node.output.0) == Some(&Some(NodeId(i)))
                && on
                    .and_then(scale)
                    .is_some_and(|bits| Some(bits) == scale(NodeId(i)))
        })
        .collect()
}

/// Per-node verdict of the quant-safety dataflow analysis.
#[derive(Debug, Clone)]
pub struct NodeQuantVerdict {
    /// Whether the INT8 kernel path is proven safe for this node.
    pub eligible: bool,
    /// For eligible nodes: the input activation scale of the producing
    /// `FakeQuant` grid (what the INT8 kernel quantizes with).
    pub input_scale: Option<f32>,
    /// Worst-case absolute error of the INT8 path against the
    /// fake-quant f32 reference (summation-rounding bound); 0 for
    /// non-candidates.
    pub error_bound: f32,
    /// Why the node is not eligible (`None` when it is).
    pub reason: Option<String>,
}

impl NodeQuantVerdict {
    fn not_candidate(reason: &str) -> Self {
        NodeQuantVerdict {
            eligible: false,
            input_scale: None,
            error_bound: 0.0,
            reason: Some(reason.to_string()),
        }
    }
}

/// The quant-safety dataflow analysis: propagates value ranges through
/// the graph and, for every quantized conv/dense candidate, bounds the
/// INT8 path's error against the fake-quant f32 reference to *prove or
/// refute* INT8 eligibility per node.
///
/// A node is a candidate when it is a dense (`groups == 1`)
/// convolution or dense layer whose explicit weights carry an i8
/// [`crate::tensor::QuantPayload`] and whose data input is produced by
/// a `FakeQuant` node, or lies on one's grid exactly ([`exact_grids`]),
/// so incoming activations quantize exactly. A candidate is *refuted* when its grid
/// is degenerate, the propagated input range collapses onto one grid
/// endpoint (the W108 full-clamp condition — stale calibration), the
/// range is non-finite, or the summation-rounding bound exceeds the
/// engine's INT8 tolerance contract. This per-node analysis replaces
/// the old whole-graph `int8_ready` gate in kernel selection.
#[derive(Debug, Clone)]
pub struct QuantSafety {
    verdicts: Vec<NodeQuantVerdict>,
}

impl QuantSafety {
    /// Runs the analysis with the default input seed (`|x| <= 1`).
    #[must_use]
    pub fn of(graph: &Graph) -> Self {
        Self::with_input_absmax(graph, 1.0)
    }

    /// Runs the analysis seeding every graph input with `|x| <=
    /// input_absmax`.
    #[must_use]
    pub fn with_input_absmax(graph: &Graph, input_absmax: f32) -> Self {
        let ranges = value_ranges(graph, input_absmax);
        let tc = graph.tensor_count();
        let grids = exact_grids(graph);
        let verdicts = graph
            .nodes()
            .iter()
            .map(|node| {
                let eligible_op = match &node.op {
                    Op::Conv2d(attrs) => attrs.groups == 1,
                    Op::Dense { .. } => true,
                    _ => false,
                };
                if !eligible_op {
                    return NodeQuantVerdict::not_candidate("op has no INT8 kernel");
                }
                let WeightInit::Explicit(tensors) = &node.weights else {
                    return NodeQuantVerdict::not_candidate("weights are not quantized");
                };
                let Some(quant) = tensors.first().and_then(Tensor::quant) else {
                    return NodeQuantVerdict::not_candidate("weights carry no quant payload");
                };
                if quant.dtype != DataType::I8 {
                    return NodeQuantVerdict::not_candidate("quant payload is not i8");
                }
                let Some(&input) = node.inputs.first() else {
                    return NodeQuantVerdict::not_candidate("node has no data input");
                };
                // The input's grid: its producer's, when that is a
                // `FakeQuant`, or one it reached exactly through ReLU,
                // `Flatten` and max-pools.
                let fake_quant = |p: NodeId| {
                    let node = graph.nodes().get(p.0)?;
                    matches!(node.op, Op::FakeQuant { .. }).then_some(node)
                };
                let producer = if input.0 < tc {
                    let direct = graph.producer(input).and_then(fake_quant);
                    direct.or_else(|| grids[input.0].and_then(fake_quant))
                } else {
                    None
                };
                let Some(Op::FakeQuant { scale }) = producer.map(|p| &p.op) else {
                    return NodeQuantVerdict::not_candidate("input is not on a FakeQuant grid");
                };
                let scale = *scale;
                if scale <= 0.0 || !scale.is_finite() {
                    return NodeQuantVerdict::not_candidate("degenerate FakeQuant scale");
                }
                // At a subnormal scale `1/s` overflows, and every nonzero
                // input would quantize to ±127.
                if !codes_exactly(scale) {
                    return NodeQuantVerdict::not_candidate(
                        "FakeQuant scale is subnormal or 127·s overflows",
                    );
                }
                let grid = INT8_UNIT_GRID * scale;
                // Range *entering* the FakeQuant: the producer's input.
                let pre = producer
                    .and_then(|p| p.inputs.first())
                    .and_then(|t| ranges.get(t.0))
                    .copied()
                    .unwrap_or(Interval::symmetric(input_absmax));
                if !pre.is_finite() {
                    return NodeQuantVerdict::not_candidate("propagated input range is non-finite");
                }
                if pre.lo > grid || pre.hi < -grid {
                    return NodeQuantVerdict::not_candidate(
                        "input range lies entirely outside the FakeQuant grid (full clamp)",
                    );
                }
                // On-grid inputs quantize exactly, and the INT8 kernel's
                // i32 accumulation is exact; the only divergence from
                // the fake-quant f32 reference is f32 summation
                // rounding over the K-length reduction.
                let a = ranges
                    .get(input.0)
                    .copied()
                    .unwrap_or(Interval::symmetric(input_absmax))
                    .abs_max();
                let (l1, bias_lo, bias_hi) = weighted_bound(graph, node).unwrap_or((0.0, 0.0, 0.0));
                let out_mag = (l1 * a) + bias_lo.abs().max(bias_hi.abs());
                let k_len = {
                    let w = &tensors[0];
                    let out_units = w.shape().dim(0).unwrap_or(1).max(1);
                    (w.data().len() / out_units).max(1)
                };
                let error_bound = (k_len as f32).log2().ceil().max(1.0) * f32::EPSILON * out_mag;
                let tolerance = INT8_TOL_REL * out_mag.max(1.0);
                if error_bound > tolerance {
                    return NodeQuantVerdict {
                        eligible: false,
                        input_scale: None,
                        error_bound,
                        reason: Some(format!(
                            "summation-rounding bound {error_bound:.3e} exceeds the INT8 \
                             tolerance contract {tolerance:.3e}"
                        )),
                    };
                }
                NodeQuantVerdict {
                    eligible: true,
                    input_scale: Some(scale),
                    error_bound,
                    reason: None,
                }
            })
            .collect();
        QuantSafety { verdicts }
    }

    /// Every verdict, indexed by node schedule position.
    #[must_use]
    pub fn verdicts(&self) -> &[NodeQuantVerdict] {
        &self.verdicts
    }

    /// The verdict for one node.
    #[must_use]
    pub fn verdict(&self, node: NodeId) -> Option<&NodeQuantVerdict> {
        self.verdicts.get(node.0)
    }

    /// Number of nodes proven INT8-eligible.
    #[must_use]
    pub fn eligible_count(&self) -> usize {
        self.verdicts.iter().filter(|v| v.eligible).count()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn interval_arithmetic_is_conservative() {
        let a = Interval { lo: -2.0, hi: 3.0 };
        let b = Interval { lo: 0.5, hi: 4.0 };
        assert_eq!(a + b, Interval { lo: -1.5, hi: 7.0 });
        assert_eq!(a * b, Interval { lo: -8.0, hi: 12.0 });
        assert_eq!(a.hull(b), Interval { lo: -2.0, hi: 4.0 });
        assert_eq!(a.abs_max(), 3.0);
        assert_eq!(a.clamp_abs(1.0), Interval { lo: -1.0, hi: 1.0 });
        assert!(a.is_finite());
        assert!(!Interval {
            lo: f32::NEG_INFINITY,
            hi: 0.0
        }
        .is_finite());
    }

    #[test]
    fn activation_intervals_cover_valley_minima() {
        // Monotone activations are exact at the endpoints.
        let relu = act_interval(ActKind::Relu, Interval { lo: -2.0, hi: 3.0 });
        assert_eq!(relu, Interval { lo: 0.0, hi: 3.0 });
        // Hard-swish dips below both endpoint values on [-3, 0]: the
        // global minimum -0.375 at x = -1.5 must be covered.
        let hs = act_interval(ActKind::HardSwish, Interval { lo: -3.0, hi: 0.0 });
        assert!(hs.lo <= -0.375, "{hs:?}");
        assert!(hs.lo >= -0.376, "{hs:?}");
        // SiLU and mish likewise have interior minima.
        let silu = act_interval(
            ActKind::Silu,
            Interval {
                lo: -10.0,
                hi: 10.0,
            },
        );
        assert!(silu.lo <= -0.278, "{silu:?}");
        let mish = act_interval(
            ActKind::Mish,
            Interval {
                lo: -10.0,
                hi: 10.0,
            },
        );
        assert!(mish.lo <= -0.30, "{mish:?}");
    }
}
