//! f32 execution engine.
//!
//! One door: every forward pass goes through [`Runner`], built with
//! [`Runner::builder`] and driven by [`Runner::execute`] under a
//! [`RunOptions`] (capture-intermediates flag, optional deadline).
//! The runner owns a reusable buffer arena (intermediate tensors, the
//! im2col scratch and materialized weights survive across calls), so
//! repeated inference over a dataset, a benchmark loop or a serving
//! worker amortizes every allocation after the first run. Weight
//! materialization has the same single owner:
//! [`Runner::node_weights`].
//!
//! The pre-redesign surface (the stateless `Executor` facade and the
//! split `run` / `run_with_intermediates` / `materialize_node_weights`
//! entry points) has been removed after a four-release deprecation
//! window; see CHANGELOG.md for the old → new spelling table.
//!
//! Heavy kernels (`conv2d`, `dense`, `pool2d`, `batchnorm`) are data
//! parallel: the output buffer is split into disjoint contiguous tiles
//! and distributed over scoped threads according to a [`Parallelism`]
//! policy. Grouped and depthwise convolutions use a direct loop nest;
//! dense (`groups == 1`) convolutions lower to a *pixel-blocked* im2col
//! plus register-tiled GEMM: patch rows for a cache-sized block of output
//! pixels are gathered (padded positions contribute an exact `0.0`) and
//! multiplied through the 4-lane `dot4` microkernel. Every output
//! scalar is a pure function of its operands — the lane split and
//! combine order are fixed — so serial and threaded runs, any pixel
//! blocking and any batch size produce bit-identical results.
//! [`Parallelism::Serial`] keeps the single-threaded path available for
//! equivalence testing.
//!
//! Nodes whose conv/dense weights carry an i8
//! [`QuantPayload`](crate::tensor::QuantPayload) ([`Tensor::quant`])
//! and whose activations are pinned to the INT8 grid by `FakeQuant`
//! producers are executed — when the quant-safety dataflow analysis
//! proves the worst-case rounding error fits the engine tolerance —
//! with a real INT8 kernel: weight codes × activation codes accumulated
//! in i32 (the arithmetic the CFU/socsim story accelerates), dequantized
//! with one multiply per output scalar. Both operands are held as i16 —
//! weights widened once at build, activations quantized per call —
//! because i16 products are what baseline x86-64 SIMD multiplies
//! (`pmullw`, `pmaddwd`); i8 ones it does not. Dense convolutions take
//! a direct kernel with no im2col (one weight code × a contiguous run
//! of a zero-padded activation plane per tap). Integer accumulation is
//! exact, so every INT8 output is independent of threading, planning
//! and batch size too. See [`RunnerBuilder::int8`].
//!
//! The value arena is laid out by a [`MemoryPlan`]: tensor liveness
//! intervals are colored greedily so values with disjoint live ranges
//! share a buffer slot, cutting peak intermediate memory without
//! changing a single output bit (kernels fully overwrite their output
//! buffers; the proptest suite pins planned ≡ unplanned equality). See
//! [`RunnerBuilder::memory_planning`].
//!
//! Weights declared as [`WeightInit::Seeded`] are materialized on first
//! use with a deterministic fan-in-scaled uniform initialization, so two
//! runs of the same graph always produce identical outputs.

use crate::dtype::DataType;
use crate::graph::{Graph, Node, WeightInit};
use crate::ops::{Conv2dAttrs, Op, Pool2dAttrs};
use crate::profile::{NodeProfile, RunProfile};
use crate::shape::Shape;
use crate::tensor::{round_i8, Tensor};
use crate::NnirError;

// --------------------------------------------------------------------
// Parallelism policy
// --------------------------------------------------------------------

/// Minimum per-kernel scalar-op estimate before threads are spawned;
/// below this the spawn overhead dwarfs the work.
const PAR_MIN_WORK: usize = 1 << 15;

/// How the execution engine distributes kernel work over threads.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum Parallelism {
    /// Single-threaded reference path (equivalence baseline).
    Serial,
    /// Exactly this many worker threads for large kernels.
    Threads(usize),
    /// One worker per available hardware thread (default).
    #[default]
    Auto,
}

impl Parallelism {
    /// Upper bound on worker threads this policy allows.
    #[must_use]
    pub fn max_threads(&self) -> usize {
        match self {
            Parallelism::Serial => 1,
            Parallelism::Threads(n) => (*n).max(1),
            Parallelism::Auto => hardware_threads(),
        }
    }

    /// Workers to use for a kernel that performs roughly `work` scalar
    /// operations: 1 when the kernel is too small to amortize spawning.
    fn workers_for(&self, work: usize) -> usize {
        let t = self.max_threads();
        if t <= 1 || work < PAR_MIN_WORK {
            1
        } else {
            t
        }
    }
}

/// Hardware thread count, probed once: `available_parallelism` is a
/// syscall (plus cgroup reads) and `Auto` consults it on every kernel.
fn hardware_threads() -> usize {
    use std::sync::OnceLock;
    static THREADS: OnceLock<usize> = OnceLock::new();
    *THREADS
        .get_or_init(|| std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get))
}

/// Runs `f(unit_index, chunk)` for every `chunk_len`-sized chunk of
/// `data`, distributing contiguous runs of chunks over `workers` scoped
/// threads. Each chunk is touched by exactly one thread, so results are
/// independent of the worker count.
fn par_chunks<T, F>(workers: usize, data: &mut [T], chunk_len: usize, f: F)
where
    T: Send,
    F: Fn(usize, &mut [T]) + Sync,
{
    let units = data.len().div_ceil(chunk_len.max(1));
    if workers <= 1 || units <= 1 {
        for (i, chunk) in data.chunks_mut(chunk_len.max(1)).enumerate() {
            f(i, chunk);
        }
        return;
    }
    let per_worker = units.div_ceil(workers);
    std::thread::scope(|scope| {
        let f = &f;
        let mut rest = data;
        let mut base = 0usize;
        while !rest.is_empty() {
            let take = (per_worker * chunk_len).min(rest.len());
            let (head, tail) = rest.split_at_mut(take);
            rest = tail;
            scope.spawn(move || {
                for (i, chunk) in head.chunks_mut(chunk_len).enumerate() {
                    f(base + i, chunk);
                }
            });
            base += take.div_ceil(chunk_len);
        }
    });
}

/// [`par_chunks`] for kernels that need private scratch: `scratch` is
/// split into `workers` equal parts and `f(unit_index, chunk, part)`
/// gets its worker's part (the whole of `scratch` when it runs
/// inline), so the kernel allocates nothing per call. A separate body
/// rather than the engine of [`par_chunks`]: routing the f32 kernels
/// through this one measurably slowed them (~3% on LeNet-5).
fn par_chunks_with<T, S, F>(
    workers: usize,
    data: &mut [T],
    chunk_len: usize,
    scratch: &mut [S],
    f: F,
) where
    T: Send,
    S: Send,
    F: Fn(usize, &mut [T], &mut [S]) + Sync,
{
    let units = data.len().div_ceil(chunk_len.max(1));
    if workers <= 1 || units <= 1 {
        for (i, chunk) in data.chunks_mut(chunk_len.max(1)).enumerate() {
            f(i, chunk, scratch);
        }
        return;
    }
    let per_worker = units.div_ceil(workers);
    let part_len = scratch.len() / workers;
    std::thread::scope(|scope| {
        let f = &f;
        let mut rest = data;
        let mut spare = scratch;
        let mut base = 0usize;
        while !rest.is_empty() {
            let take = (per_worker * chunk_len).min(rest.len());
            let (head, tail) = rest.split_at_mut(take);
            rest = tail;
            let (part, others) = spare.split_at_mut(part_len);
            spare = others;
            scope.spawn(move || {
                for (i, chunk) in head.chunks_mut(chunk_len).enumerate() {
                    f(base + i, chunk, part);
                }
            });
            base += take.div_ceil(chunk_len);
        }
    });
}

// --------------------------------------------------------------------
// Microkernels
// --------------------------------------------------------------------

/// Patch elements held in one im2col scratch block: the cache budget
/// for a tile of output pixels (64 KiB of f32). The block size is
/// independent of the batch, which is the E21 cliff fix — the previous
/// kernel materialized `n * opix * k_len` scratch at once, fell out of
/// cache as the batch grew, and made per-sample cost *rise* with batch.
const COL_BLOCK_ELEMS: usize = 16 * 1024;

/// 4-lane f32 dot product — the register tile of every GEMM-shaped
/// kernel here.
///
/// The reduction is a pure function of the operand slices: lane `i`
/// accumulates elements `i, i+4, i+8, …`, the tail lands on lanes
/// `0..len%4` in order, and the lanes combine as `(l0+l1) + (l2+l3)`.
/// Because no call site changes that association, serial and threaded
/// runs, any pixel blocking and any batch size produce bit-identical
/// results — while the four independent accumulators let the compiler
/// keep four scalar FMAs (or one SIMD lane set) in flight instead of
/// serializing on one add chain.
#[inline]
fn dot4(a: &[f32], b: &[f32]) -> f32 {
    debug_assert_eq!(a.len(), b.len());
    let mut lanes = [0.0f32; 4];
    let mut ac = a.chunks_exact(4);
    let mut bc = b.chunks_exact(4);
    for (av, bv) in (&mut ac).zip(&mut bc) {
        lanes[0] += av[0] * bv[0];
        lanes[1] += av[1] * bv[1];
        lanes[2] += av[2] * bv[2];
        lanes[3] += av[3] * bv[3];
    }
    for (i, (&av, &bv)) in ac.remainder().iter().zip(bc.remainder()).enumerate() {
        lanes[i] += av * bv;
    }
    (lanes[0] + lanes[1]) + (lanes[2] + lanes[3])
}

/// i32 dot product of INT8 codes held as i16 — the arithmetic the
/// CFU/socsim accelerator story (E9) implements in hardware. Integer
/// accumulation is exact, so the summation order is free and this
/// plain sum of widened products lowers to `pmaddwd` on baseline
/// x86-64. i32 cannot overflow for any reduction this engine runs:
/// `|a·b| ≤ 128·127` per term allows `K > 130_000`.
#[inline]
fn dot_i16(a: &[i16], b: &[i16]) -> i32 {
    debug_assert_eq!(a.len(), b.len());
    a.iter()
        .zip(b)
        .map(|(&x, &y)| i32::from(x) * i32::from(y))
        .sum()
}

/// INT8 code of one activation, as the i16 the kernels multiply.
/// `inv` is `1 / in_scale`; activations produced by a `FakeQuant` node
/// lie exactly on the grid `k · in_scale` for integer `|k| ≤ 127`, so
/// the rounding recovers `k` exactly and the INT8 path loses nothing at
/// the input boundary.
#[inline]
fn quantize_activation(x: f32, inv: f32) -> i16 {
    /// 1.5 · 2^23: added to an integral `|q| < 2^22`, it leaves `q` in
    /// the low mantissa bits — a conversion that vectorizes where the
    /// saturating `as` cast does not.
    const BIAS: f32 = 12_582_912.0;
    let q = round_i8(x * inv);
    if q.is_nan() {
        0
    } else {
        (q + BIAS).to_bits().wrapping_sub(BIAS.to_bits()) as i16
    }
}

/// Reusable kernel scratch owned by the [`Runner`], grown to the
/// largest kernel seen and reused across runs.
#[derive(Debug, Default)]
struct Scratch {
    /// f32 im2col patch block (one cache-sized pixel tile — never the
    /// whole batch).
    col: Vec<f32>,
    /// Output tile the blocked GEMM writes before scattering into the
    /// strided output planes.
    outb: Vec<f32>,
    /// Quantized input activations (INT8 path; zero-padded planes for
    /// a conv).
    qin: Vec<i16>,
    /// Per-worker i32 accumulator runs (INT8 conv).
    acc: Vec<i32>,
}

// --------------------------------------------------------------------
// Run options and output
// --------------------------------------------------------------------

/// Per-call knobs for [`Runner::execute`] — the one execution
/// entrypoint.
///
/// The default runs plain inference: no intermediate capture, no
/// deadline.
#[derive(Debug, Clone, Copy, Default)]
pub struct RunOptions {
    /// Keep a clone of *every* value tensor, indexed by
    /// [`TensorId`](crate::graph::TensorId) — the hook quantization
    /// calibration uses to observe activation ranges.
    pub capture_intermediates: bool,
    /// Abort with [`NnirError::DeadlineExceeded`] if execution has not
    /// finished by this instant. Checked before every node, so a run
    /// over budget stops within one kernel of the deadline instead of
    /// completing a doomed pass — the primitive the serving layer's
    /// per-request deadlines build on.
    pub deadline: Option<std::time::Instant>,
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

    /// Sets an absolute execution deadline.
    #[must_use]
    pub fn deadline(mut self, at: std::time::Instant) -> Self {
        self.deadline = Some(at);
        self
    }

    /// Sets a deadline relative to now.
    #[must_use]
    pub fn deadline_in(self, budget: std::time::Duration) -> Self {
        self.deadline(std::time::Instant::now() + budget)
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

// --------------------------------------------------------------------
// Builder
// --------------------------------------------------------------------

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
    /// Sets the kernel parallelism policy (default: [`Parallelism::Auto`]).
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
    /// those nodes' weight codes to i16 once; each call quantizes the
    /// input activations to i16 codes and, for a convolution, runs the
    /// direct kernel over zero-padded code planes (no im2col). With it
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
    /// that lets values with disjoint live ranges share one arena slot
    /// — the slot-reuse that shrinks peak intermediate memory on small
    /// devices. Kernels fully overwrite their output buffers and the
    /// plan never aliases overlapping live ranges, so outputs are
    /// bit-identical to the unplanned layout (proptested). Disable to
    /// keep the historical one-slot-per-tensor layout.
    #[must_use]
    pub fn memory_planning(mut self, enabled: bool) -> Self {
        self.memory_planning = enabled;
        self
    }

    /// Builds a runner over `graph`, allocating its (initially empty)
    /// arenas.
    ///
    /// Runs the static verifier's Error-severity passes
    /// ([`crate::analysis::verify_for_execution`]) first: execution is
    /// gated on a provably well-formed graph, so a transform or
    /// deserialization bug surfaces here as a coded diagnostic instead
    /// of a downstream miscompute.
    ///
    /// # Errors
    ///
    /// Returns [`NnirError::VerifierRejected`] if the graph fails any
    /// Error-severity analysis pass.
    pub fn build(self, graph: &Graph) -> Result<Runner<'_>, NnirError> {
        crate::analysis::verify_for_execution(graph)?;
        let int8_plans = if self.int8 {
            int8_plans(graph)
        } else {
            vec![None; graph.nodes().len()]
        };
        let plan = if self.memory_planning {
            MemoryPlan::plan(graph)
        } else {
            MemoryPlan::identity(graph)
        };
        Ok(Runner {
            graph,
            parallelism: self.parallelism,
            weights: vec![None; graph.nodes().len()],
            values: vec![None; plan.slot_count()],
            scratch: Scratch::default(),
            int8_plans,
            plan,
        })
    }
}

/// Build-time INT8 plan of one node: the activation scale its input is
/// quantized with, and its weights packed for the kernel.
#[derive(Debug, Clone)]
struct Int8Plan<'g> {
    in_scale: f32,
    /// The payload's i8 weight codes widened to i16, once.
    codes: Vec<i16>,
    /// The payload's per-row weight scales.
    scales: &'g [f32],
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
/// whole graph onto the f32 path.
fn int8_plans(graph: &Graph) -> Vec<Option<Int8Plan<'_>>> {
    crate::analysis::QuantSafety::of(graph)
        .verdicts()
        .iter()
        .zip(graph.nodes())
        .map(|(v, node)| {
            let in_scale = v.input_scale.filter(|_| v.eligible)?;
            let WeightInit::Explicit(weights) = &node.weights else {
                return None;
            };
            let q = weights.first()?.quant()?;
            Some(Int8Plan {
                in_scale,
                codes: q.codes.iter().map(|&c| i16::from(c)).collect(),
                scales: &q.scales,
            })
        })
        .collect()
}

// --------------------------------------------------------------------
// Arena memory planner
// --------------------------------------------------------------------

/// Bytes one f32 element occupies in the value arena.
const ARENA_ELEM_BYTES: u64 = 4;

/// The arena slot-reuse plan the liveness analysis drives: a mapping
/// from tensor ids to arena slots such that two tensors share a slot
/// only when their live ranges are disjoint.
///
/// Computed once at [`RunnerBuilder::build`] by greedy interval-graph
/// coloring over the [`Liveness`](crate::analysis::Liveness) intervals:
/// tensors are visited in definition order, each taking the free slot
/// that fits its size best (preferring the smallest already-large-enough
/// buffer, then the largest smaller one) or opening a new slot. Graph
/// outputs stay live past the end of the schedule, so their slots are
/// never recycled and output collection is untouched.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct MemoryPlan {
    /// Arena slot per tensor id.
    slot_of: Vec<usize>,
    /// Peak element capacity per slot (the max over its occupants).
    slot_elems: Vec<usize>,
    /// Total element count of the one-slot-per-tensor layout.
    unplanned_elems: u64,
}

impl MemoryPlan {
    /// Computes the slot-reuse plan for `graph` from tensor liveness.
    #[must_use]
    pub fn plan(graph: &Graph) -> Self {
        let live = crate::analysis::Liveness::of(graph);
        let ranges = live.ranges();
        let tc = graph.tensor_count();
        let elems: Vec<usize> = (0..tc)
            .map(|t| {
                graph
                    .tensor_shape(crate::graph::TensorId(t))
                    .map_or(0, Shape::elem_count)
            })
            .collect();
        // Visit tensors in definition order (ties by id — producer
        // order), the order their buffers come alive during a run.
        let mut order: Vec<usize> = (0..tc).collect();
        order.sort_by_key(|&t| (ranges[t].def, t));
        let mut slot_of = vec![0usize; tc];
        let mut slot_elems: Vec<usize> = Vec::new();
        // Schedule position at which each slot's current occupant dies.
        let mut slot_busy_until: Vec<Option<usize>> = Vec::new();
        for &t in &order {
            let r = ranges[t];
            let need = elems[t];
            // Best fit among the free slots: smallest capacity that
            // already holds `need`, else the largest smaller one (grows
            // the arena least).
            let mut best: Option<usize> = None;
            for (s, busy) in slot_busy_until.iter().enumerate() {
                if busy.is_some_and(|until| until >= r.def) {
                    continue; // occupant's live range overlaps ours
                }
                best = match best {
                    None => Some(s),
                    Some(b) => {
                        let (cb, cs) = (slot_elems[b], slot_elems[s]);
                        let better = if cb >= need && cs >= need {
                            cs < cb
                        } else {
                            cs > cb
                        };
                        Some(if better { s } else { b })
                    }
                };
            }
            let s = match best {
                Some(s) => s,
                None => {
                    slot_elems.push(0);
                    slot_busy_until.push(None);
                    slot_elems.len() - 1
                }
            };
            slot_of[t] = s;
            slot_elems[s] = slot_elems[s].max(need);
            slot_busy_until[s] = Some(r.last_use);
        }
        MemoryPlan {
            slot_of,
            slot_elems,
            unplanned_elems: elems.iter().map(|&e| e as u64).sum(),
        }
    }

    /// The identity (one-slot-per-tensor) plan — the historical layout
    /// `memory_planning(false)` keeps.
    #[must_use]
    pub fn identity(graph: &Graph) -> Self {
        let tc = graph.tensor_count();
        let slot_elems: Vec<usize> = (0..tc)
            .map(|t| {
                graph
                    .tensor_shape(crate::graph::TensorId(t))
                    .map_or(0, Shape::elem_count)
            })
            .collect();
        MemoryPlan {
            slot_of: (0..tc).collect(),
            unplanned_elems: slot_elems.iter().map(|&e| e as u64).sum(),
            slot_elems,
        }
    }

    /// The arena slot holding tensor `t` during a run.
    #[must_use]
    pub fn slot_of(&self, t: crate::graph::TensorId) -> usize {
        self.slot_of[t.0]
    }

    /// Number of arena slots the plan allocates.
    #[must_use]
    pub fn slot_count(&self) -> usize {
        self.slot_elems.len()
    }

    /// Peak value-arena bytes under this plan: each slot sized for its
    /// largest occupant, f32 elements.
    #[must_use]
    pub fn peak_bytes(&self) -> u64 {
        self.slot_elems
            .iter()
            .map(|&e| e as u64 * ARENA_ELEM_BYTES)
            .sum()
    }

    /// Value-arena bytes of the one-slot-per-tensor layout — the
    /// baseline the plan is measured against.
    #[must_use]
    pub fn unplanned_bytes(&self) -> u64 {
        self.unplanned_elems * ARENA_ELEM_BYTES
    }

    /// Fractional peak-memory reduction vs the unplanned layout
    /// (`0.25` = 25% smaller).
    #[must_use]
    pub fn reduction(&self) -> f64 {
        if self.unplanned_bytes() == 0 {
            0.0
        } else {
            1.0 - self.peak_bytes() as f64 / self.unplanned_bytes() as f64
        }
    }
}

// --------------------------------------------------------------------
// Runner (arena-backed hot path)
// --------------------------------------------------------------------

/// Reusable execution engine over one graph.
///
/// Holds three arenas that survive across [`execute`](Runner::execute) calls:
/// per-tensor intermediate buffers (reused in place when shapes match),
/// materialized weights (seeded initializations computed once), and the
/// im2col scratch buffer. The first run allocates; subsequent runs with
/// the same shapes are allocation-free on the hot path.
#[derive(Debug)]
pub struct Runner<'g> {
    graph: &'g Graph,
    parallelism: Parallelism,
    /// Lazily materialized weights per node index.
    weights: Vec<Option<Vec<Tensor>>>,
    /// Value arena, one buffer per plan slot, reused across runs and —
    /// under the memory plan — across tensors with disjoint live
    /// ranges.
    values: Vec<Option<Tensor>>,
    /// Kernel scratch (im2col tiles, INT8 code buffers), grown to the
    /// largest kernel seen.
    scratch: Scratch,
    /// Build-time INT8 kernel selection and packed weights for each
    /// node that executes on the INT8 path (see [`int8_plans`]).
    int8_plans: Vec<Option<Int8Plan<'g>>>,
    /// Build-time arena layout: which slot each tensor id lives in.
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
        self.int8_plans.iter().any(Option::is_some)
    }

    /// The arena slot-reuse plan this runner executes under.
    #[must_use]
    pub fn memory_plan(&self) -> &MemoryPlan {
        &self.plan
    }

    /// Runs one forward pass — the one execution entrypoint.
    ///
    /// # Errors
    ///
    /// Returns [`NnirError::ExecutionFailure`] if the number or shapes of
    /// `inputs` do not match the graph inputs, or propagates any graph
    /// inconsistency discovered mid-run. Returns
    /// [`NnirError::DeadlineExceeded`] if [`RunOptions::deadline`] expires
    /// before the pass completes.
    pub fn execute(
        &mut self,
        inputs: &[Tensor],
        options: RunOptions,
    ) -> Result<RunOutput, NnirError> {
        let wall_start = options.profile.then(std::time::Instant::now);
        let (per_node, intermediates) = self.forward(inputs, options)?;
        let outputs = self
            .graph
            .outputs()
            .iter()
            .map(|t| {
                self.values[self.plan.slot_of(*t)].clone().ok_or_else(|| {
                    NnirError::ExecutionFailure(format!("output {t} never produced"))
                })
            })
            .collect::<Result<Vec<_>, _>>()?;
        // Wall time spans input staging through output collection, so
        // coverage (kernel time / wall) honestly reports what the
        // per-node records miss.
        let profile = per_node
            .zip(wall_start)
            .map(|(per_node, start)| RunProfile {
                model: self.graph.name().to_string(),
                batch: self.graph.batch(),
                per_node,
                wall_ns: start.elapsed().as_nanos() as u64,
                arena_peak_bytes: self.plan.peak_bytes(),
                arena_unplanned_bytes: self.plan.unplanned_bytes(),
                arena_slots: self.plan.slot_count(),
            });
        Ok(RunOutput {
            outputs,
            intermediates,
            profile,
        })
    }

    /// Materializes the weight tensors for a node: explicit weights are
    /// cloned, seeded initializations are computed deterministically.
    /// This is the single owner of weight materialization — the
    /// toolchain passes, the safety fault injector and the engine's own
    /// weight arena all come through here.
    ///
    /// # Errors
    ///
    /// Returns [`NnirError::ExecutionFailure`] if explicit weights are
    /// missing for a node that requires them.
    pub fn node_weights(&self, node: &Node) -> Result<Vec<Tensor>, NnirError> {
        let in_shapes = self.graph.node_input_shapes(node);
        let shapes = node.weight_shapes(&in_shapes);
        match &node.weights {
            WeightInit::Explicit(tensors) => Ok(tensors.clone()),
            WeightInit::Seeded(seed) => Ok(materialize_seeded(&node.op, &shapes, *seed)),
            WeightInit::None => {
                if shapes.is_empty() {
                    Ok(Vec::new())
                } else {
                    Err(NnirError::ExecutionFailure(format!(
                        "node {} requires weights but has none",
                        node.name
                    )))
                }
            }
        }
    }

    /// Evaluates every node in topological order into the arena slots
    /// the memory plan assigns, returning per-node timing records when
    /// [`RunOptions::profile`] is set and a per-tensor-id snapshot of
    /// every value when [`RunOptions::capture_intermediates`] is set.
    ///
    /// Intermediates are captured as each value is produced: under slot
    /// reuse a tensor's buffer may be overwritten by a later value
    /// sharing its slot, so the snapshot clones eagerly instead of
    /// reading the arena after the run.
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
        let mut captured: Option<Vec<Option<Tensor>>> = options
            .capture_intermediates
            .then(|| vec![None; self.graph.tensor_count()]);
        for (tid, tensor) in graph_inputs.iter().zip(inputs.iter()) {
            let expected = self.graph.tensor_shape(*tid).ok_or_else(|| {
                NnirError::ExecutionFailure(format!("input {tid} has no declared shape"))
            })?;
            if tensor.shape() != expected {
                return Err(NnirError::ExecutionFailure(format!(
                    "input {tid} expects shape {expected} but got {}",
                    tensor.shape()
                )));
            }
            // Reuse the arena slot when the buffer is already the right
            // size; otherwise take a fresh copy.
            let slot = self.plan.slot_of(*tid);
            match self.values[slot].take() {
                Some(mut buf) if buf.shape() == tensor.shape() => {
                    buf.data_mut().copy_from_slice(tensor.data());
                    self.values[slot] = Some(buf);
                }
                _ => self.values[slot] = Some(tensor.clone()),
            }
            if let Some(cap) = captured.as_mut() {
                cap[tid.0] = Some(tensor.clone());
            }
        }

        let nodes: &'g [Node] = self.graph.nodes();
        let mut profile = options.profile.then(|| Vec::with_capacity(nodes.len()));
        for (idx, node) in nodes.iter().enumerate() {
            // Deadline gate: a run over budget stops before the next
            // kernel rather than finishing a pass nobody will read.
            if let Some(deadline) = options.deadline {
                if std::time::Instant::now() >= deadline {
                    return Err(NnirError::DeadlineExceeded);
                }
            }
            if self.weights[idx].is_none() {
                self.weights[idx] = Some(self.node_weights(node)?);
            }
            let out_shape = self
                .graph
                .tensor_shape(node.output)
                .ok_or_else(|| {
                    NnirError::ExecutionFailure(format!("node {} has no output shape", node.name))
                })?
                .clone();
            let out_slot = self.plan.slot_of(node.output);
            let mut out = recycle(self.values[out_slot].take(), out_shape);
            let mut ins = Vec::with_capacity(node.inputs.len());
            for t in &node.inputs {
                ins.push(self.values[self.plan.slot_of(*t)].as_ref().ok_or_else(|| {
                    NnirError::ExecutionFailure(format!("tensor {t} consumed before production"))
                })?);
            }
            let Some(weights) = self.weights[idx].as_ref() else {
                return Err(NnirError::ExecutionFailure(format!(
                    "weights for node {} were not materialized",
                    node.name
                )));
            };
            let int8 = self.int8_plans[idx].as_ref();
            let node_start = profile.is_some().then(std::time::Instant::now);
            let mut ctx = KernelCtx {
                scratch: &mut self.scratch,
                par: self.parallelism,
                int8,
            };
            eval_node_into(node, &ins, weights, &mut out, &mut ctx)?;
            if let (Some(records), Some(start)) = (profile.as_mut(), node_start) {
                // Stop the clock before the bookkeeping below, so a
                // node's record measures only its kernel.
                let duration_ns = start.elapsed().as_nanos() as u64;
                let in_shapes = self.graph.node_input_shapes(node);
                records.push(NodeProfile {
                    name: node.name.clone(),
                    op: node.op.to_string(),
                    macs: node.op.macs(&in_shapes, out.shape()),
                    elementwise: node.op.elementwise_ops(&in_shapes, out.shape()),
                    duration_ns,
                    precision: if int8.is_some() {
                        DataType::I8
                    } else {
                        DataType::F32
                    },
                });
            }
            if let Some(cap) = captured.as_mut() {
                cap[node.output.0] = Some(out.clone());
            }
            self.values[out_slot] = Some(out);
        }
        Ok((profile, captured))
    }
}

/// What [`Runner::forward`] hands back to [`Runner::execute`]: per-node
/// profile records and the per-tensor-id intermediate snapshot, each
/// present when its [`RunOptions`] flag was set.
type ForwardArtifacts = (Option<Vec<NodeProfile>>, Option<Vec<Option<Tensor>>>);

/// Rebuilds an arena slot's buffer for `shape`: a same-shape occupant
/// is handed back as-is (the kernel fully overwrites it), a
/// differently-shaped one donates its heap allocation, and an empty
/// slot allocates fresh.
fn recycle(slot: Option<Tensor>, shape: Shape) -> Tensor {
    match slot {
        Some(t) if t.shape() == &shape => t,
        Some(t) => {
            let mut data = t.into_data();
            data.resize(shape.elem_count(), 0.0);
            match Tensor::from_vec(shape.clone(), data) {
                Ok(t) => t,
                Err(_) => Tensor::zeros(shape),
            }
        }
        None => Tensor::zeros(shape),
    }
}

/// Mutable per-node kernel context: the runner's scratch arenas, the
/// parallelism policy and the node's INT8 plan.
struct KernelCtx<'a> {
    scratch: &'a mut Scratch,
    par: Parallelism,
    /// `Some` when the build-time plan selected the INT8 kernel for
    /// this node.
    int8: Option<&'a Int8Plan<'a>>,
}

impl<'a> KernelCtx<'a> {
    /// f32-only context (no INT8 plan) over `scratch` — the direct
    /// kernel-call harness the unit tests use.
    #[cfg(test)]
    fn f32(scratch: &'a mut Scratch, par: Parallelism) -> Self {
        KernelCtx {
            scratch,
            par,
            int8: None,
        }
    }
}

/// Dispatches one node evaluation into a preallocated output tensor.
fn eval_node_into(
    node: &Node,
    ins: &[&Tensor],
    weights: &[Tensor],
    out: &mut Tensor,
    ctx: &mut KernelCtx<'_>,
) -> Result<(), NnirError> {
    let par = ctx.par;
    match &node.op {
        Op::Input(_) => Err(NnirError::ExecutionFailure(
            "input op cannot be evaluated".into(),
        )),
        Op::Conv2d(attrs) => conv2d_into(ins[0], attrs, weights, out, ctx),
        Op::Dense { bias, .. } => dense_into(ins[0], weights, *bias, out, ctx),
        Op::BatchNorm => {
            if weights.len() < 2 {
                return Err(NnirError::ExecutionFailure(format!(
                    "batchnorm {} needs scale and shift tensors",
                    node.name
                )));
            }
            batchnorm_into(ins[0], &weights[0], &weights[1], out, par)
        }
        Op::Activation(kind) => {
            map_unary_into(ins[0], out, |x| kind.apply(x));
            Ok(())
        }
        Op::MaxPool2d(attrs) => pool2d_into(ins[0], attrs, PoolMode::Max, out, par),
        Op::AvgPool2d(attrs) => pool2d_into(ins[0], attrs, PoolMode::Avg, out, par),
        Op::GlobalAvgPool => global_avg_pool_into(ins[0], out),
        Op::Add => binary_into(ins[0], ins[1], out, |a, b| a + b),
        Op::Mul => mul_broadcast_into(ins[0], ins[1], out),
        Op::Concat => concat_channels_into(ins, out),
        Op::Upsample { factor } => upsample_nearest_into(ins[0], *factor, out),
        Op::Flatten => {
            // Same element order, different shape: a straight copy.
            out.data_mut().copy_from_slice(ins[0].data());
            Ok(())
        }
        Op::Softmax => {
            softmax_last_into(ins[0], out);
            Ok(())
        }
        Op::FakeQuant { scale } => {
            let scale = *scale;
            map_unary_into(ins[0], out, move |x| {
                if scale == 0.0 {
                    0.0
                } else {
                    round_i8(x / scale) * scale
                }
            });
            Ok(())
        }
    }
}

/// Deterministic fan-in-scaled initialization for seeded weights.
/// `pub(crate)` so the analyzer's quantization-readiness pass can bound
/// per-node weight magnitudes without building a runner.
pub(crate) fn materialize_seeded(op: &Op, shapes: &[Shape], seed: u64) -> Vec<Tensor> {
    shapes
        .iter()
        .enumerate()
        .map(|(i, shape)| {
            let sub_seed = seed.wrapping_mul(1_000_003).wrapping_add(i as u64 + 1);
            match (op, i) {
                // BatchNorm: scale near 1, shift near 0.
                (Op::BatchNorm, 0) => {
                    let mut t = Tensor::random(shape.clone(), sub_seed, 0.05);
                    for x in t.data_mut() {
                        *x += 1.0;
                    }
                    t
                }
                (Op::BatchNorm, _) => Tensor::random(shape.clone(), sub_seed, 0.05),
                // Bias vectors: small.
                (_, i2) if i2 > 0 => Tensor::random(shape.clone(), sub_seed, 0.01),
                // Main weights: uniform in ±sqrt(2 / fan_in).
                _ => {
                    let fan_in: usize = shape.dims()[1..].iter().product::<usize>().max(1);
                    let scale = (2.0 / fan_in as f32).sqrt();
                    Tensor::random(shape.clone(), sub_seed, scale)
                }
            }
        })
        .collect()
}

// --------------------------------------------------------------------
// Elementwise kernels
// --------------------------------------------------------------------

fn map_unary_into(input: &Tensor, out: &mut Tensor, f: impl Fn(f32) -> f32) {
    for (o, &x) in out.data_mut().iter_mut().zip(input.data().iter()) {
        *o = f(x);
    }
}

fn binary_into(
    a: &Tensor,
    b: &Tensor,
    out: &mut Tensor,
    f: impl Fn(f32, f32) -> f32,
) -> Result<(), NnirError> {
    if a.shape() != b.shape() {
        return Err(NnirError::ExecutionFailure(format!(
            "element-wise shape mismatch: {} vs {}",
            a.shape(),
            b.shape()
        )));
    }
    for ((o, &x), &y) in out
        .data_mut()
        .iter_mut()
        .zip(a.data().iter())
        .zip(b.data().iter())
    {
        *o = f(x, y);
    }
    Ok(())
}

fn mul_broadcast_into(a: &Tensor, b: &Tensor, out: &mut Tensor) -> Result<(), NnirError> {
    if a.shape() == b.shape() {
        return binary_into(a, b, out, |x, y| x * y);
    }
    // Squeeze-excite: a is [n,c,h,w], b is [n,c,1,1].
    let [n, c, h, w] = dims4(a.shape())?;
    if b.shape().elem_count() != n * c {
        return Err(NnirError::ExecutionFailure(format!(
            "mul broadcast expects [n,c,1,1] gate, got {}",
            b.shape()
        )));
    }
    let plane = h * w;
    let a_data = a.data();
    let b_data = b.data();
    let out_data = out.data_mut();
    for (u, &gate) in b_data.iter().enumerate().take(n * c) {
        let base = u * plane;
        for i in 0..plane {
            out_data[base + i] = a_data[base + i] * gate;
        }
    }
    Ok(())
}

fn dims4(s: &Shape) -> Result<[usize; 4], NnirError> {
    match *s.dims() {
        [n, c, h, w] => Ok([n, c, h, w]),
        _ => Err(NnirError::ExecutionFailure(format!(
            "expected NCHW tensor, got {s}"
        ))),
    }
}

// --------------------------------------------------------------------
// Convolution
// --------------------------------------------------------------------

/// Validates convolution attributes against the concrete input, returning
/// the derived geometry `(icg, ocg, oh, ow)`.
fn conv2d_geometry(
    attrs: &Conv2dAttrs,
    in_c: usize,
    h: usize,
    w: usize,
) -> Result<(usize, usize, usize, usize), NnirError> {
    let (kh, kw) = attrs.kernel;
    let (sh, sw) = attrs.stride;
    let (ph, pw) = attrs.padding;
    if attrs.groups == 0 || sh == 0 || sw == 0 || kh == 0 || kw == 0 {
        return Err(NnirError::ExecutionFailure(format!(
            "conv2d requires non-zero groups, stride and kernel (groups {}, stride {sh}x{sw}, kernel {kh}x{kw})",
            attrs.groups
        )));
    }
    if !in_c.is_multiple_of(attrs.groups) || !attrs.out_channels.is_multiple_of(attrs.groups) {
        return Err(NnirError::ExecutionFailure(format!(
            "conv2d groups {} must divide in_channels {in_c} and out_channels {}",
            attrs.groups, attrs.out_channels
        )));
    }
    if h + 2 * ph < kh || w + 2 * pw < kw {
        return Err(NnirError::ExecutionFailure(format!(
            "conv2d kernel {kh}x{kw} exceeds padded input {}x{}",
            h + 2 * ph,
            w + 2 * pw
        )));
    }
    let icg = in_c / attrs.groups;
    let ocg = attrs.out_channels / attrs.groups;
    let oh = (h + 2 * ph - kh) / sh + 1;
    let ow = (w + 2 * pw - kw) / sw + 1;
    Ok((icg, ocg, oh, ow))
}

/// Derived dense-conv (`groups == 1`) geometry shared by the f32 im2col
/// and INT8 direct paths.
#[derive(Clone, Copy)]
struct ConvGeom {
    in_c: usize,
    h: usize,
    w: usize,
    out_c: usize,
    kh: usize,
    kw: usize,
    sh: usize,
    sw: usize,
    ph: usize,
    pw: usize,
    ow: usize,
    /// Output pixels per (batch, channel) plane.
    opix: usize,
}

impl ConvGeom {
    /// Patch row length: the GEMM reduction axis.
    fn k_len(self) -> usize {
        self.in_c * self.kh * self.kw
    }
}

/// Gathers the K-length im2col patch row for output pixel `p` of batch
/// item `bi` into `dst`, reading from `src` laid out NCHW. Positions
/// outside the input contribute an exact `0.0`, K in the kernel's own
/// ascending (ic, ky, kx) order.
#[inline]
fn fill_patch(src: &[f32], g: ConvGeom, bi: usize, p: usize, dst: &mut [f32]) {
    let oy = p / g.ow;
    let ox = p % g.ow;
    let mut i = 0usize;
    for ic in 0..g.in_c {
        let plane = &src[(bi * g.in_c + ic) * g.h * g.w..][..g.h * g.w];
        for ky in 0..g.kh {
            let iy = (oy * g.sh + ky) as isize - g.ph as isize;
            let row_ok = iy >= 0 && iy < g.h as isize;
            for kx in 0..g.kw {
                let ix = (ox * g.sw + kx) as isize - g.pw as isize;
                dst[i] = if row_ok && ix >= 0 && ix < g.w as isize {
                    plane[iy as usize * g.w + ix as usize]
                } else {
                    0.0
                };
                i += 1;
            }
        }
    }
}

/// Convolution with groups, stride and symmetric padding.
///
/// Dense (`groups == 1`) convolutions lower to pixel-blocked im2col +
/// a [`dot4`]-tiled GEMM, or to the direct INT8 kernel when the node
/// has an INT8 plan; grouped and depthwise ones use the direct loop
/// nest. Each f32 output scalar is a fixed-association reduction over
/// the patch and each INT8 one an exact integer sum, so results are
/// independent of threading, blocking and batch size.
fn conv2d_into(
    input: &Tensor,
    attrs: &Conv2dAttrs,
    weights: &[Tensor],
    out: &mut Tensor,
    ctx: &mut KernelCtx<'_>,
) -> Result<(), NnirError> {
    let par = ctx.par;
    let [n, in_c, h, w] = dims4(input.shape())?;
    let (kh, kw) = attrs.kernel;
    let (sh, sw) = attrs.stride;
    let (ph, pw) = attrs.padding;
    let out_c = attrs.out_channels;
    let (icg, ocg, oh, ow) = conv2d_geometry(attrs, in_c, h, w)?;

    if weights.is_empty() {
        return Err(NnirError::ExecutionFailure(
            "conv2d called without a kernel tensor".into(),
        ));
    }
    let kernel = &weights[0];
    if kernel.shape().elem_count() != out_c * icg * kh * kw {
        return Err(NnirError::ExecutionFailure(format!(
            "conv2d kernel has {} elements, expected {} ({out_c}x{icg}x{kh}x{kw})",
            kernel.shape().elem_count(),
            out_c * icg * kh * kw
        )));
    }
    let bias = if attrs.bias {
        let b = weights.get(1).ok_or_else(|| {
            NnirError::ExecutionFailure("conv2d declares bias but has no bias tensor".into())
        })?;
        if b.shape().elem_count() != out_c {
            return Err(NnirError::ExecutionFailure(format!(
                "conv2d bias has {} elements, expected {out_c}",
                b.shape().elem_count()
            )));
        }
        Some(b)
    } else {
        None
    };

    debug_assert_eq!(out.shape().elem_count(), n * out_c * oh * ow);
    let opix = oh * ow;
    let in_data = input.data();
    let k_data = kernel.data();
    let bias_data = bias.map(Tensor::data);

    if attrs.groups == 1 {
        // im2col: one K-length patch row per output pixel, K laid out in
        // the kernel's own (ic, ky, kx) order so the GEMM inner loop is a
        // contiguous dot product on both sides. Pixels are processed in
        // cache-sized blocks — scratch never scales with the batch.
        let geom = ConvGeom {
            in_c,
            h,
            w,
            out_c,
            kh,
            kw,
            sh,
            sw,
            ph,
            pw,
            ow,
            opix,
        };
        if let Some(plan) = ctx.int8 {
            return conv2d_int8(input, plan, bias_data, out, ctx, geom);
        }
        let k_len = geom.k_len();

        let block_pix = (COL_BLOCK_ELEMS / k_len).clamp(1, opix);
        let Scratch { col, outb, .. } = ctx.scratch;
        col.resize(block_pix * k_len, 0.0);
        outb.resize(out_c * block_pix, 0.0);
        let out_data = out.data_mut();
        for bi in 0..n {
            let mut p0 = 0usize;
            while p0 < opix {
                let pb = block_pix.min(opix - p0);
                let colb = &mut col[..pb * k_len];
                par_chunks(par.workers_for(pb * k_len), colb, k_len, |j, dst| {
                    fill_patch(in_data, geom, bi, p0 + j, dst);
                });
                let colb: &[f32] = colb;
                // GEMM tile: one out-channel row of `pb` pixels per unit,
                // each pixel a dot4 over the cache-resident patch block.
                let tile = &mut outb[..out_c * pb];
                par_chunks(par.workers_for(out_c * pb * k_len), tile, pb, |oc, dst| {
                    let b0 = bias_data.map_or(0.0, |b| b[oc]);
                    let krow = &k_data[oc * k_len..][..k_len];
                    for (p, o) in dst.iter_mut().enumerate() {
                        *o = b0 + dot4(krow, &colb[p * k_len..][..k_len]);
                    }
                });
                for oc in 0..out_c {
                    out_data[(bi * out_c + oc) * opix + p0..][..pb]
                        .copy_from_slice(&tile[oc * pb..][..pb]);
                }
                p0 += pb;
            }
        }
        return Ok(());
    }

    // Direct loop nest for grouped / depthwise convolutions.
    let work = n * out_c * opix * icg * kh * kw;
    par_chunks(par.workers_for(work), out.data_mut(), opix, |u, dst| {
        let bi = u / out_c;
        let oc = u % out_c;
        let g = oc / ocg;
        let b0 = bias_data.map_or(0.0, |b| b[oc]);
        for oy in 0..oh {
            for ox in 0..ow {
                let mut acc = b0;
                for ic in 0..icg {
                    let in_ch = g * icg + ic;
                    let plane = &in_data[(bi * in_c + in_ch) * h * w..][..h * w];
                    for ky in 0..kh {
                        let iy = (oy * sh + ky) as isize - ph as isize;
                        if iy < 0 || iy >= h as isize {
                            continue;
                        }
                        for kx in 0..kw {
                            let ix = (ox * sw + kx) as isize - pw as isize;
                            if ix < 0 || ix >= w as isize {
                                continue;
                            }
                            let iv = plane[iy as usize * w + ix as usize];
                            let kv = k_data[((oc * icg + ic) * kh + ky) * kw + kx];
                            acc += iv * kv;
                        }
                    }
                }
                dst[oy * ow + ox] = acc;
            }
        }
    });
    Ok(())
}

/// Dense-conv INT8 kernel, direct (no im2col).
///
/// Each input plane is quantized once into a zero-padded i16 code plane
/// (exact, since a `FakeQuant` producer pinned the activations to the
/// grid). Each output plane then accumulates, per (input channel, tap),
/// one i16 weight code × a contiguous run of codes into i32 — exact,
/// so the tap order is free — and is dequantized with one multiply per
/// scalar: `bias + acc · (w_scale[oc] · in_scale)`. At stride 1 the run
/// spans the whole output plane at the padded row pitch (the `kw - 1`
/// accumulators past each output row are computed and dropped), long
/// enough to vectorize; at larger strides it is one output row. Output
/// planes are split over the workers, each with its own accumulator.
fn conv2d_int8(
    input: &Tensor,
    plan: &Int8Plan<'_>,
    bias_data: Option<&[f32]>,
    out: &mut Tensor,
    ctx: &mut KernelCtx<'_>,
    g: ConvGeom,
) -> Result<(), NnirError> {
    let k_len = g.k_len();
    if plan.codes.len() != g.out_c * k_len || plan.scales.len() != g.out_c {
        return Err(NnirError::ExecutionFailure(format!(
            "int8 conv payload mismatch: {} codes / {} scales for a {}x{} kernel",
            plan.codes.len(),
            plan.scales.len(),
            g.out_c,
            k_len
        )));
    }
    let n = input.shape().batch();
    let (hp, wp) = (g.h + 2 * g.ph, g.w + 2 * g.pw);
    let oh = g.opix / g.ow;
    let (runs, rows_per_run) = if g.sh == 1 && g.sw == 1 {
        (1, oh)
    } else {
        (oh, 1)
    };
    let run_len = (rows_per_run - 1) * wp + g.ow;
    let inv = 1.0 / plan.in_scale;
    let Scratch { qin, acc, .. } = ctx.scratch;
    qin.clear();
    qin.resize(n * g.in_c * hp * wp, 0);
    for (p, plane) in qin.chunks_exact_mut(hp * wp).enumerate() {
        for y in 0..g.h {
            let src = &input.data()[(p * g.h + y) * g.w..][..g.w];
            let row = &mut plane[(y + g.ph) * wp + g.pw..][..g.w];
            for (c, &x) in row.iter_mut().zip(src) {
                *c = quantize_activation(x, inv);
            }
        }
    }
    let qin: &[i16] = qin;
    let workers = ctx.par.workers_for(n * g.out_c * g.opix * k_len);
    acc.resize(workers * run_len, 0);
    par_chunks_with(workers, out.data_mut(), g.opix, acc, |u, dst, acc| {
        let (bi, oc) = (u / g.out_c, u % g.out_c);
        let b0 = bias_data.map_or(0.0, |b| b[oc]);
        let dq = plan.scales[oc] * plan.in_scale;
        let krow = &plan.codes[oc * k_len..][..k_len];
        let planes = &qin[bi * g.in_c * hp * wp..][..g.in_c * hp * wp];
        let acc = &mut acc[..run_len];
        for r in 0..runs {
            acc.fill(0);
            for (taps, plane) in krow
                .chunks_exact(g.kh * g.kw)
                .zip(planes.chunks_exact(hp * wp))
            {
                for (t, &w) in taps.iter().enumerate() {
                    let src = &plane[(r * g.sh + t / g.kw) * wp + t % g.kw..];
                    // |w·x| ≤ 128·127: the i16 product is exact.
                    if g.sw == 1 {
                        for (a, &x) in acc.iter_mut().zip(src) {
                            *a += i32::from(w * x);
                        }
                    } else {
                        for (a, &x) in acc.iter_mut().zip(src.iter().step_by(g.sw)) {
                            *a += i32::from(w * x);
                        }
                    }
                }
            }
            for i in 0..rows_per_run {
                let row = &mut dst[(r * rows_per_run + i) * g.ow..][..g.ow];
                for (o, &a) in row.iter_mut().zip(&acc[i * wp..]) {
                    *o = b0 + a as f32 * dq;
                }
            }
        }
    });
    Ok(())
}

// --------------------------------------------------------------------
// Dense
// --------------------------------------------------------------------

fn dense_into(
    input: &Tensor,
    weights: &[Tensor],
    bias: bool,
    out: &mut Tensor,
    ctx: &mut KernelCtx<'_>,
) -> Result<(), NnirError> {
    let par = ctx.par;
    let n = input.shape().batch();
    let in_f = input.shape().dim(1).ok_or_else(|| {
        NnirError::ExecutionFailure(format!("dense expects [n, f] input, got {}", input.shape()))
    })?;
    let weight = weights.first().ok_or_else(|| {
        NnirError::ExecutionFailure("dense called without a weight tensor".into())
    })?;
    if weight.shape().rank() != 2 {
        return Err(NnirError::ExecutionFailure(format!(
            "dense weight must be [out_f, in_f], got {}",
            weight.shape()
        )));
    }
    let out_f = weight.shape().dim(0).unwrap_or(0);
    let w_in_f = weight.shape().dim(1).unwrap_or(0);
    if out_f == 0 {
        // Regression guard: the old per-scalar schedule papered over
        // this with `out_f.max(1)` guards and silently produced an
        // empty tensor.
        return Err(NnirError::ExecutionFailure(format!(
            "dense weight has zero output features: {}",
            weight.shape()
        )));
    }
    if w_in_f != in_f {
        return Err(NnirError::ExecutionFailure(format!(
            "dense weight expects {w_in_f} input features but input has {in_f}"
        )));
    }
    let b = if bias {
        let b = weights.get(1).ok_or_else(|| {
            NnirError::ExecutionFailure("dense declares bias but has no bias tensor".into())
        })?;
        if b.shape().elem_count() != out_f {
            return Err(NnirError::ExecutionFailure(format!(
                "dense bias has {} elements, expected {out_f}",
                b.shape().elem_count()
            )));
        }
        Some(b)
    } else {
        None
    };
    debug_assert_eq!(out.shape().elem_count(), n * out_f);

    let w_data = weight.data();
    let in_data = input.data();
    let bias_data = b.map(Tensor::data);
    let work = n * out_f * in_f;
    let workers = par.workers_for(work);
    // One unit per batch row of the output; a solo row is further split
    // into feature blocks so single-sample heads still use every
    // worker. (The old schedule made one unit per output *scalar* —
    // chunk size 1 — which defeated vectorization of the inner dot and
    // paid scheduling overhead per scalar.) Chunking never affects
    // bits: each output scalar is one dot4 of the same operands.
    let chunk = if n == 1 {
        out_f.div_ceil(workers * 4).max(1)
    } else {
        out_f
    };

    if let Some(plan) = ctx.int8 {
        if plan.codes.len() != out_f * in_f || plan.scales.len() != out_f {
            return Err(NnirError::ExecutionFailure(format!(
                "int8 dense payload mismatch: {} codes / {} scales for [{out_f}, {in_f}]",
                plan.codes.len(),
                plan.scales.len()
            )));
        }
        let inv = 1.0 / plan.in_scale;
        let qin = &mut ctx.scratch.qin;
        qin.clear();
        qin.extend(in_data.iter().map(|&x| quantize_activation(x, inv)));
        let qin: &[i16] = qin;
        par_chunks(workers, out.data_mut(), chunk, |u, dst| {
            let base = u * chunk;
            let bi = base / out_f;
            let of0 = base % out_f;
            let x = &qin[bi * in_f..][..in_f];
            for (i, o) in dst.iter_mut().enumerate() {
                let of = of0 + i;
                let b0 = bias_data.map_or(0.0, |b| b[of]);
                let acc = dot_i16(&plan.codes[of * in_f..][..in_f], x);
                *o = b0 + acc as f32 * (plan.scales[of] * plan.in_scale);
            }
        });
        return Ok(());
    }

    par_chunks(workers, out.data_mut(), chunk, |u, dst| {
        let base = u * chunk;
        let bi = base / out_f;
        let of0 = base % out_f;
        let x = &in_data[bi * in_f..][..in_f];
        for (i, o) in dst.iter_mut().enumerate() {
            let of = of0 + i;
            let b0 = bias_data.map_or(0.0, |b| b[of]);
            *o = b0 + dot4(&w_data[of * in_f..][..in_f], x);
        }
    });
    Ok(())
}

// --------------------------------------------------------------------
// Batch normalization
// --------------------------------------------------------------------

fn batchnorm_into(
    input: &Tensor,
    scale: &Tensor,
    shift: &Tensor,
    out: &mut Tensor,
    par: Parallelism,
) -> Result<(), NnirError> {
    let c = input
        .shape()
        .dim(1)
        .ok_or_else(|| NnirError::ExecutionFailure("batchnorm needs a channel dim".into()))?;
    if scale.shape().elem_count() != c || shift.shape().elem_count() != c {
        return Err(NnirError::ExecutionFailure(
            "batchnorm parameter length mismatch".into(),
        ));
    }
    let per_channel: usize = input.shape().dims()[2..].iter().product::<usize>().max(1);
    let n = input.shape().batch();
    let in_data = input.data();
    let s_data = scale.data();
    let t_data = shift.data();
    let work = n * c * per_channel;
    par_chunks(
        par.workers_for(work),
        out.data_mut(),
        per_channel,
        |u, dst| {
            let ci = u % c;
            let s = s_data[ci];
            let t = t_data[ci];
            let src = &in_data[u * per_channel..][..per_channel];
            for (o, &x) in dst.iter_mut().zip(src.iter()) {
                *o = s * x + t;
            }
        },
    );
    Ok(())
}

// --------------------------------------------------------------------
// Pooling
// --------------------------------------------------------------------

#[derive(Clone, Copy)]
enum PoolMode {
    Max,
    Avg,
}

/// Pooling; average pooling excludes padding from the divisor (ONNX
/// `count_include_pad = 0`).
fn pool2d_into(
    input: &Tensor,
    attrs: &Pool2dAttrs,
    mode: PoolMode,
    out: &mut Tensor,
    par: Parallelism,
) -> Result<(), NnirError> {
    let [n, c, h, w] = dims4(input.shape())?;
    let (kh, kw) = attrs.kernel;
    let (sh, sw) = attrs.stride;
    let (ph, pw) = attrs.padding;
    if sh == 0 || sw == 0 || kh == 0 || kw == 0 {
        return Err(NnirError::ExecutionFailure(format!(
            "pool2d requires non-zero stride and kernel (stride {sh}x{sw}, kernel {kh}x{kw})"
        )));
    }
    if h + 2 * ph < kh || w + 2 * pw < kw {
        return Err(NnirError::ExecutionFailure(format!(
            "pool2d kernel {kh}x{kw} exceeds padded input {}x{}",
            h + 2 * ph,
            w + 2 * pw
        )));
    }
    let oh = (h + 2 * ph - kh) / sh + 1;
    let ow = (w + 2 * pw - kw) / sw + 1;
    debug_assert_eq!(out.shape().elem_count(), n * c * oh * ow);
    let opix = oh * ow;
    let in_data = input.data();
    let is_max = matches!(mode, PoolMode::Max);
    let work = n * c * opix * kh * kw;
    par_chunks(par.workers_for(work), out.data_mut(), opix, |u, dst| {
        let plane = &in_data[u * h * w..][..h * w];
        for oy in 0..oh {
            for ox in 0..ow {
                let mut acc = if is_max { f32::NEG_INFINITY } else { 0.0 };
                let mut count = 0usize;
                for ky in 0..kh {
                    let iy = (oy * sh + ky) as isize - ph as isize;
                    if iy < 0 || iy >= h as isize {
                        continue;
                    }
                    for kx in 0..kw {
                        let ix = (ox * sw + kx) as isize - pw as isize;
                        if ix < 0 || ix >= w as isize {
                            continue;
                        }
                        let v = plane[iy as usize * w + ix as usize];
                        if is_max {
                            acc = acc.max(v);
                        } else {
                            acc += v;
                        }
                        count += 1;
                    }
                }
                dst[oy * ow + ox] = if is_max {
                    acc
                } else if count > 0 {
                    acc / count as f32
                } else {
                    0.0
                };
            }
        }
    });
    Ok(())
}

fn global_avg_pool_into(input: &Tensor, out: &mut Tensor) -> Result<(), NnirError> {
    let [n, c, h, w] = dims4(input.shape())?;
    let area = (h * w) as f32;
    let in_data = input.data();
    let out_data = out.data_mut();
    for u in 0..n * c {
        let plane = &in_data[u * h * w..][..h * w];
        let mut acc = 0.0;
        for &v in plane {
            acc += v;
        }
        out_data[u] = acc / area;
    }
    Ok(())
}

// --------------------------------------------------------------------
// Structural ops
// --------------------------------------------------------------------

fn concat_channels_into(inputs: &[&Tensor], out: &mut Tensor) -> Result<(), NnirError> {
    let [n, _, h, w] = dims4(inputs[0].shape())?;
    let total_c: usize = inputs.iter().map(|t| t.shape().dim(1).unwrap_or(0)).sum();
    let plane = h * w;
    let out_data = out.data_mut();
    let mut c_off = 0usize;
    for t in inputs {
        let [tn, tc, th, tw] = dims4(t.shape())?;
        if tn != n || th != h || tw != w {
            return Err(NnirError::ExecutionFailure(
                "concat spatial mismatch".into(),
            ));
        }
        let t_data = t.data();
        for bi in 0..n {
            for ci in 0..tc {
                let src = &t_data[(bi * tc + ci) * plane..][..plane];
                let dst = &mut out_data[(bi * total_c + c_off + ci) * plane..][..plane];
                dst.copy_from_slice(src);
            }
        }
        c_off += tc;
    }
    Ok(())
}

fn upsample_nearest_into(input: &Tensor, factor: usize, out: &mut Tensor) -> Result<(), NnirError> {
    let [n, c, h, w] = dims4(input.shape())?;
    if factor == 0 {
        return Err(NnirError::ExecutionFailure(
            "upsample factor must be non-zero".into(),
        ));
    }
    let (uh, uw) = (h * factor, w * factor);
    let in_data = input.data();
    let out_data = out.data_mut();
    for u in 0..n * c {
        let src = &in_data[u * h * w..][..h * w];
        let dst = &mut out_data[u * uh * uw..][..uh * uw];
        for hi in 0..uh {
            let src_row = &src[(hi / factor) * w..][..w];
            let dst_row = &mut dst[hi * uw..][..uw];
            for (wi, o) in dst_row.iter_mut().enumerate() {
                *o = src_row[wi / factor];
            }
        }
    }
    Ok(())
}

fn softmax_last_into(input: &Tensor, out: &mut Tensor) {
    let last = *input.shape().dims().last().unwrap_or(&1);
    out.data_mut().copy_from_slice(input.data());
    for chunk in out.data_mut().chunks_mut(last.max(1)) {
        let max = chunk.iter().fold(f32::NEG_INFINITY, |m, &x| m.max(x));
        let mut sum = 0.0;
        for x in chunk.iter_mut() {
            *x = (*x - max).exp();
            sum += *x;
        }
        if sum > 0.0 {
            for x in chunk.iter_mut() {
                *x /= sum;
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::graph::GraphBuilder;
    use crate::ops::Conv2dAttrs;

    fn run_graph(g: &Graph, inputs: &[Tensor]) -> Result<Vec<Tensor>, NnirError> {
        Ok(Runner::builder()
            .build(g)?
            .execute(inputs, RunOptions::default())?
            .into_outputs())
    }

    fn run_single(op: Op, inputs: &[Tensor], weights: Option<WeightInit>) -> Tensor {
        let mut b = GraphBuilder::new("t");
        let ids: Vec<_> = inputs.iter().map(|t| b.input(t.shape().clone())).collect();
        let out = match weights {
            Some(w) => b.apply_with_weights("op", op, &ids, w).unwrap(),
            None => b.apply("op", op, &ids).unwrap(),
        };
        let g = b.finish(vec![out]);
        run_graph(&g, inputs).unwrap().remove(0)
    }

    #[test]
    fn identity_conv_passes_through() {
        // 1x1 conv with identity kernel on 1 channel.
        let input = Tensor::from_vec(Shape::nchw(1, 1, 2, 2), vec![1.0, 2.0, 3.0, 4.0]).unwrap();
        let kernel = Tensor::from_vec(Shape::new(vec![1, 1, 1, 1]), vec![1.0]).unwrap();
        let out = run_single(
            Op::Conv2d(Conv2dAttrs::pointwise(1)),
            std::slice::from_ref(&input),
            Some(WeightInit::Explicit(vec![kernel])),
        );
        assert_eq!(out.data(), input.data());
    }

    #[test]
    fn conv_3x3_box_filter_sums_neighbourhood() {
        // All-ones 3x3 kernel on all-ones input: interior point sees 9.
        let input = Tensor::full(Shape::nchw(1, 1, 5, 5), 1.0);
        let kernel = Tensor::full(Shape::new(vec![1, 1, 3, 3]), 1.0);
        let out = run_single(
            Op::Conv2d(Conv2dAttrs::same(1, 3, 1)),
            &[input],
            Some(WeightInit::Explicit(vec![kernel])),
        );
        assert_eq!(out.at(&[0, 0, 2, 2]), 9.0); // interior
        assert_eq!(out.at(&[0, 0, 0, 0]), 4.0); // corner: 2x2 valid window
    }

    #[test]
    fn depthwise_conv_keeps_channels_independent() {
        // Two channels with distinct per-channel kernels.
        let input = Tensor::from_vec(Shape::nchw(1, 2, 1, 1), vec![2.0, 5.0]).unwrap();
        let kernel = Tensor::from_vec(Shape::new(vec![2, 1, 1, 1]), vec![10.0, 100.0]).unwrap();
        let mut attrs = Conv2dAttrs::depthwise(2, 1, 1);
        attrs.padding = (0, 0);
        let out = run_single(
            Op::Conv2d(attrs),
            &[input],
            Some(WeightInit::Explicit(vec![kernel])),
        );
        assert_eq!(out.data(), &[20.0, 500.0]);
    }

    #[test]
    fn dense_computes_matvec_with_bias() {
        let input = Tensor::from_vec(Shape::nf(1, 3), vec![1.0, 2.0, 3.0]).unwrap();
        let weight = Tensor::from_vec(Shape::nf(2, 3), vec![1.0, 0.0, 0.0, 0.0, 1.0, 1.0]).unwrap();
        let bias = Tensor::from_vec(Shape::new(vec![2]), vec![0.5, -0.5]).unwrap();
        let out = run_single(
            Op::Dense {
                out_features: 2,
                bias: true,
            },
            &[input],
            Some(WeightInit::Explicit(vec![weight, bias])),
        );
        assert_eq!(out.data(), &[1.5, 4.5]);
    }

    #[test]
    fn batchnorm_applies_scale_and_shift() {
        let input = Tensor::from_vec(Shape::nchw(1, 2, 1, 2), vec![1.0, 2.0, 3.0, 4.0]).unwrap();
        let scale = Tensor::from_vec(Shape::new(vec![2]), vec![2.0, 0.5]).unwrap();
        let shift = Tensor::from_vec(Shape::new(vec![2]), vec![1.0, 0.0]).unwrap();
        let out = run_single(
            Op::BatchNorm,
            &[input],
            Some(WeightInit::Explicit(vec![scale, shift])),
        );
        assert_eq!(out.data(), &[3.0, 5.0, 1.5, 2.0]);
    }

    #[test]
    fn maxpool_and_avgpool() {
        let input = Tensor::from_vec(Shape::nchw(1, 1, 2, 2), vec![1.0, 2.0, 3.0, 4.0]).unwrap();
        let max = run_single(
            Op::MaxPool2d(Pool2dAttrs::square(2, 2)),
            std::slice::from_ref(&input),
            None,
        );
        assert_eq!(max.data(), &[4.0]);
        let avg = run_single(Op::AvgPool2d(Pool2dAttrs::square(2, 2)), &[input], None);
        assert_eq!(avg.data(), &[2.5]);
    }

    #[test]
    fn avgpool_excludes_padding_from_divisor() {
        let input = Tensor::full(Shape::nchw(1, 1, 2, 2), 4.0);
        let out = run_single(
            Op::AvgPool2d(Pool2dAttrs::square(3, 1).with_padding(1)),
            &[input],
            None,
        );
        // Corner windows see 4 valid elements of value 4.0 -> average 4.0.
        assert_eq!(out.at(&[0, 0, 0, 0]), 4.0);
    }

    #[test]
    fn global_avg_pool_averages_plane() {
        let input = Tensor::from_vec(Shape::nchw(1, 1, 2, 2), vec![1.0, 2.0, 3.0, 6.0]).unwrap();
        let out = run_single(Op::GlobalAvgPool, &[input], None);
        assert_eq!(out.data(), &[3.0]);
    }

    #[test]
    fn add_mul_and_broadcast() {
        let a = Tensor::full(Shape::nchw(1, 2, 2, 2), 3.0);
        let b = Tensor::full(Shape::nchw(1, 2, 2, 2), 2.0);
        let sum = run_single(Op::Add, &[a.clone(), b.clone()], None);
        assert!(sum.data().iter().all(|&x| x == 5.0));
        let gate = Tensor::from_vec(Shape::nchw(1, 2, 1, 1), vec![0.5, 2.0]).unwrap();
        let scaled = run_single(Op::Mul, &[a, gate], None);
        assert_eq!(scaled.at(&[0, 0, 1, 1]), 1.5);
        assert_eq!(scaled.at(&[0, 1, 1, 1]), 6.0);
    }

    #[test]
    fn concat_stacks_channels_in_order() {
        let a = Tensor::full(Shape::nchw(1, 1, 1, 2), 1.0);
        let b = Tensor::full(Shape::nchw(1, 2, 1, 2), 2.0);
        let out = run_single(Op::Concat, &[a, b], None);
        assert_eq!(out.shape(), &Shape::nchw(1, 3, 1, 2));
        assert_eq!(out.at(&[0, 0, 0, 0]), 1.0);
        assert_eq!(out.at(&[0, 2, 0, 1]), 2.0);
    }

    #[test]
    fn upsample_replicates_nearest() {
        let input = Tensor::from_vec(Shape::nchw(1, 1, 1, 2), vec![1.0, 2.0]).unwrap();
        let out = run_single(Op::Upsample { factor: 2 }, &[input], None);
        assert_eq!(out.shape(), &Shape::nchw(1, 1, 2, 4));
        assert_eq!(out.at(&[0, 0, 1, 0]), 1.0);
        assert_eq!(out.at(&[0, 0, 0, 3]), 2.0);
    }

    #[test]
    fn softmax_rows_sum_to_one() {
        let input = Tensor::from_vec(Shape::nf(2, 3), vec![1.0, 2.0, 3.0, 0.0, 0.0, 0.0]).unwrap();
        let out = run_single(Op::Softmax, &[input], None);
        let row0: f32 = out.data()[0..3].iter().sum();
        let row1: f32 = out.data()[3..6].iter().sum();
        assert!((row0 - 1.0).abs() < 1e-6 && (row1 - 1.0).abs() < 1e-6);
        assert!((out.data()[3] - 1.0 / 3.0).abs() < 1e-6);
    }

    #[test]
    fn seeded_weights_are_reproducible() {
        let mut b = GraphBuilder::new("seeded");
        let x = b.input(Shape::nchw(1, 3, 8, 8));
        let c = b
            .apply("conv", Op::Conv2d(Conv2dAttrs::same(4, 3, 1)), &[x])
            .unwrap();
        let g = b.finish(vec![c]);
        let input = Tensor::random(Shape::nchw(1, 3, 8, 8), 1, 1.0);
        let out1 = run_graph(&g, std::slice::from_ref(&input)).unwrap();
        let out2 = run_graph(&g, &[input]).unwrap();
        assert_eq!(out1, out2);
        assert!(out1[0].abs_max() > 0.0);
    }

    #[test]
    fn wrong_input_shape_is_reported() {
        let mut b = GraphBuilder::new("g");
        let x = b.input(Shape::nf(1, 4));
        let g = b.finish(vec![x]);
        let bad = Tensor::zeros(Shape::nf(1, 5));
        assert!(run_graph(&g, &[bad]).is_err());
    }

    // ---- regression tests for the validation bugfixes ----

    #[test]
    fn conv_rejects_non_dividing_groups() {
        // 3 input channels with groups = 2 used to silently truncate
        // icg = in_c / groups and mis-index the kernel.
        let input = Tensor::full(Shape::nchw(1, 3, 4, 4), 1.0);
        let mut attrs = Conv2dAttrs::same(4, 3, 1);
        attrs.groups = 2;
        let kernel = Tensor::full(Shape::new(vec![4, 1, 3, 3]), 1.0);
        let mut out = Tensor::zeros(Shape::nchw(1, 4, 4, 4));
        let mut scratch = Scratch::default();
        let err = conv2d_into(
            &input,
            &attrs,
            &[kernel],
            &mut out,
            &mut KernelCtx::f32(&mut scratch, Parallelism::Serial),
        );
        assert!(
            matches!(err, Err(NnirError::ExecutionFailure(_))),
            "{err:?}"
        );
    }

    #[test]
    fn conv_rejects_kernel_larger_than_padded_input() {
        // kernel > h + 2*ph used to underflow oh/ow and panic.
        let input = Tensor::full(Shape::nchw(1, 1, 2, 2), 1.0);
        let mut attrs = Conv2dAttrs::same(1, 5, 1);
        attrs.padding = (0, 0);
        let kernel = Tensor::full(Shape::new(vec![1, 1, 5, 5]), 1.0);
        let mut out = Tensor::zeros(Shape::nchw(1, 1, 1, 1));
        let mut scratch = Scratch::default();
        let err = conv2d_into(
            &input,
            &attrs,
            &[kernel],
            &mut out,
            &mut KernelCtx::f32(&mut scratch, Parallelism::Serial),
        );
        assert!(
            matches!(err, Err(NnirError::ExecutionFailure(_))),
            "{err:?}"
        );
    }

    #[test]
    fn pool_rejects_kernel_larger_than_padded_input() {
        let input = Tensor::full(Shape::nchw(1, 1, 2, 2), 1.0);
        let attrs = Pool2dAttrs::square(5, 1);
        let mut out = Tensor::zeros(Shape::nchw(1, 1, 1, 1));
        let err = pool2d_into(&input, &attrs, PoolMode::Max, &mut out, Parallelism::Serial);
        assert!(
            matches!(err, Err(NnirError::ExecutionFailure(_))),
            "{err:?}"
        );
    }

    #[test]
    fn dense_rejects_malformed_weight() {
        // A weight whose in_f doesn't match the input used to produce a
        // silent empty/garbage output via unwrap_or(0).
        let input = Tensor::full(Shape::nf(1, 3), 1.0);
        let bad_rank = Tensor::full(Shape::new(vec![6]), 1.0);
        let mut out = Tensor::zeros(Shape::nf(1, 2));
        let mut scratch = Scratch::default();
        assert!(matches!(
            dense_into(
                &input,
                &[bad_rank],
                false,
                &mut out,
                &mut KernelCtx::f32(&mut scratch, Parallelism::Serial)
            ),
            Err(NnirError::ExecutionFailure(_))
        ));
        let wrong_in_f = Tensor::full(Shape::nf(2, 4), 1.0);
        assert!(matches!(
            dense_into(
                &input,
                &[wrong_in_f],
                false,
                &mut out,
                &mut KernelCtx::f32(&mut scratch, Parallelism::Serial)
            ),
            Err(NnirError::ExecutionFailure(_))
        ));
    }

    #[test]
    fn dense_rejects_zero_output_features() {
        // Regression: the per-scalar schedule's `out_f.max(1)` guards
        // used to let a [0, in_f] weight "succeed" with an empty output.
        let input = Tensor::full(Shape::nf(1, 3), 1.0);
        let empty = Tensor::zeros(Shape::nf(0, 3));
        let mut out = Tensor::zeros(Shape::nf(1, 0));
        let mut scratch = Scratch::default();
        let err = dense_into(
            &input,
            &[empty],
            false,
            &mut out,
            &mut KernelCtx::f32(&mut scratch, Parallelism::Serial),
        );
        assert!(
            matches!(&err, Err(NnirError::ExecutionFailure(msg)) if msg.contains("zero output features")),
            "{err:?}"
        );
    }

    #[test]
    fn dense_rejects_malformed_weight_through_graph() {
        // The builder validates weights at construction time, but a
        // buggy pass can still write a malformed tensor back through
        // `nodes_mut` — the engine-level check must fire there too.
        let mut b = GraphBuilder::new("g");
        let x = b.input(Shape::nf(1, 3));
        let out = b
            .apply(
                "fc",
                Op::Dense {
                    out_features: 2,
                    bias: false,
                },
                &[x],
            )
            .unwrap();
        let mut g = b.finish(vec![out]);
        let bad = Tensor::full(Shape::nf(2, 4), 1.0); // in_f 4 != 3
        g.nodes_mut()[0].weights = WeightInit::Explicit(vec![bad]);
        let input = Tensor::full(Shape::nf(1, 3), 1.0);
        assert!(run_graph(&g, &[input]).is_err());
    }

    // ---- runner arena + parallel equivalence smoke tests ----

    #[test]
    fn runner_reuses_arena_across_runs() {
        let g = crate::zoo::lenet5(10).unwrap();
        let mut runner = Runner::builder().build(&g).unwrap();
        let a = Tensor::random(Shape::nchw(1, 1, 28, 28), 3, 1.0);
        let b = Tensor::random(Shape::nchw(1, 1, 28, 28), 4, 1.0);
        let opts = RunOptions::default();
        let out_a1 = runner.execute(std::slice::from_ref(&a), opts).unwrap();
        let out_b = runner.execute(std::slice::from_ref(&b), opts).unwrap();
        let out_a2 = runner.execute(&[a], opts).unwrap();
        // Re-running the first input through the warm arena reproduces
        // the cold result exactly; the second input differs.
        assert_eq!(out_a1.outputs(), out_a2.outputs());
        assert_ne!(out_a1.outputs(), out_b.outputs());
    }

    #[test]
    fn serial_and_parallel_runners_agree_bitwise() {
        let g = crate::zoo::lenet5(10).unwrap().with_batch(4).unwrap();
        let input = Tensor::random(Shape::nchw(4, 1, 28, 28), 11, 1.0);
        let serial = Runner::builder()
            .parallelism(Parallelism::Serial)
            .build(&g)
            .unwrap()
            .execute(std::slice::from_ref(&input), RunOptions::default())
            .unwrap()
            .into_outputs();
        let parallel = Runner::builder()
            .parallelism(Parallelism::Threads(4))
            .build(&g)
            .unwrap()
            .execute(&[input], RunOptions::default())
            .unwrap()
            .into_outputs();
        assert_eq!(serial, parallel);
    }

    // ---- arena memory planner ----

    #[test]
    fn memory_plan_never_shares_a_slot_between_overlapping_ranges() {
        for g in [
            crate::zoo::lenet5(10).unwrap(),
            crate::zoo::mobilenet_v3_large(1000).unwrap(),
        ] {
            let plan = MemoryPlan::plan(&g);
            let live = crate::analysis::Liveness::of(&g);
            let ranges = live.ranges();
            assert!(plan.slot_count() <= g.tensor_count());
            for a in 0..g.tensor_count() {
                for b in (a + 1)..g.tensor_count() {
                    let (ta, tb) = (crate::graph::TensorId(a), crate::graph::TensorId(b));
                    if plan.slot_of(ta) == plan.slot_of(tb) {
                        assert!(
                            !ranges[a].overlaps(ranges[b]),
                            "{}: tensors t{a} {:?} and t{b} {:?} share slot {}",
                            g.name(),
                            ranges[a],
                            ranges[b],
                            plan.slot_of(ta)
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn memory_plan_cuts_conv_peak_memory_by_a_quarter() {
        // The ISSUE acceptance bar: planned arenas reduce peak bytes by
        // at least 25% on the convolutional zoo models.
        for g in [
            crate::zoo::lenet5(10).unwrap(),
            crate::zoo::tiny_cnn("gesture", Shape::nchw(1, 3, 64, 64), &[8, 16, 32], 10).unwrap(),
            crate::zoo::mobilenet_v3_large(1000).unwrap(),
            crate::zoo::resnet50(1000).unwrap(),
        ] {
            let plan = MemoryPlan::plan(&g);
            assert!(
                plan.reduction() >= 0.25,
                "{}: reduction {:.3} below the 25% bar ({} -> {} bytes)",
                g.name(),
                plan.reduction(),
                plan.unplanned_bytes(),
                plan.peak_bytes()
            );
        }
    }

    #[test]
    fn identity_plan_keeps_one_slot_per_tensor() {
        let g = crate::zoo::lenet5(10).unwrap();
        let plan = MemoryPlan::identity(&g);
        assert_eq!(plan.slot_count(), g.tensor_count());
        assert_eq!(plan.peak_bytes(), plan.unplanned_bytes());
        assert_eq!(plan.reduction(), 0.0);
        let runner = Runner::builder().memory_planning(false).build(&g).unwrap();
        assert_eq!(runner.memory_plan(), &plan);
    }

    #[test]
    fn planned_and_unplanned_runs_are_bit_identical() {
        let g = crate::zoo::lenet5(10).unwrap();
        let input = Tensor::random(Shape::nchw(1, 1, 28, 28), 17, 1.0);
        let opts = RunOptions::new().capture_intermediates(true);
        let mut planned = Runner::builder().build(&g).unwrap();
        let mut unplanned = Runner::builder().memory_planning(false).build(&g).unwrap();
        assert!(planned.memory_plan().slot_count() < unplanned.memory_plan().slot_count());
        for _ in 0..2 {
            // Twice: the second pass runs over a dirty, shape-stable arena.
            let a = planned.execute(std::slice::from_ref(&input), opts).unwrap();
            let b = unplanned
                .execute(std::slice::from_ref(&input), opts)
                .unwrap();
            assert_eq!(a.outputs(), b.outputs());
            assert_eq!(a.intermediates(), b.intermediates());
        }
    }

    #[test]
    fn profile_reports_arena_plan_metrics() {
        let g = crate::zoo::lenet5(10).unwrap();
        let input = Tensor::random(Shape::nchw(1, 1, 28, 28), 9, 1.0);
        let mut runner = Runner::builder().build(&g).unwrap();
        let plan = runner.memory_plan().clone();
        let out = runner
            .execute(&[input], RunOptions::new().profile(true))
            .unwrap();
        let profile = out.profile().expect("profiled");
        assert_eq!(profile.arena_peak_bytes, plan.peak_bytes());
        assert_eq!(profile.arena_unplanned_bytes, plan.unplanned_bytes());
        assert_eq!(profile.arena_slots, plan.slot_count());
        assert!(profile.arena_reduction() >= 0.25);
    }

    // ---- one-door API: options, deadline, deprecated aliases ----

    #[test]
    fn capture_intermediates_returns_every_value() {
        let g = crate::zoo::lenet5(10).unwrap();
        let input = Tensor::random(Shape::nchw(1, 1, 28, 28), 9, 1.0);
        let mut runner = Runner::builder().build(&g).unwrap();
        let out = runner
            .execute(&[input], RunOptions::new().capture_intermediates(true))
            .unwrap();
        let values = out.intermediates().expect("captured");
        assert_eq!(values.len(), g.tensor_count());
        assert!(values.iter().all(Option::is_some));
        // Plain runs do not pay the clone.
        assert!(out.outputs()[0].shape().dims() == [1, 10]);
    }

    #[test]
    fn profiled_run_records_every_node() {
        let g = crate::zoo::lenet5(10).unwrap();
        let input = Tensor::random(Shape::nchw(1, 1, 28, 28), 9, 1.0);
        let mut runner = Runner::builder().build(&g).unwrap();
        // Warm the arenas so the profiled pass measures steady state.
        runner
            .execute(std::slice::from_ref(&input), RunOptions::default())
            .unwrap();
        let out = runner
            .execute(
                std::slice::from_ref(&input),
                RunOptions::new().profile(true),
            )
            .unwrap();
        let profile = out.profile().expect("profiled");
        assert_eq!(profile.model, g.name());
        assert_eq!(profile.per_node.len(), g.nodes().len());
        assert!(profile.wall_ns > 0 && profile.nodes_ns() <= profile.wall_ns);
        // Static op counts agree with the whole-graph cost report.
        let report = crate::cost::CostReport::of(&g).unwrap();
        let macs: u64 = profile.per_node.iter().map(|n| n.macs).sum();
        assert_eq!(macs, report.total_macs);
        // Unprofiled runs carry no profile and match bit-for-bit.
        let plain = runner.execute(&[input], RunOptions::default()).unwrap();
        assert!(plain.profile().is_none());
        assert_eq!(plain.outputs(), out.outputs());
    }

    #[test]
    fn expired_deadline_rejects_before_execution() {
        let g = crate::zoo::lenet5(10).unwrap();
        let input = Tensor::random(Shape::nchw(1, 1, 28, 28), 9, 1.0);
        let mut runner = Runner::builder().build(&g).unwrap();
        let past = std::time::Instant::now() - std::time::Duration::from_millis(1);
        let err = runner.execute(&[input], RunOptions::new().deadline(past));
        assert_eq!(err.unwrap_err(), NnirError::DeadlineExceeded);
    }

    #[test]
    fn generous_deadline_does_not_interfere() {
        let g = crate::zoo::lenet5(10).unwrap();
        let input = Tensor::random(Shape::nchw(1, 1, 28, 28), 9, 1.0);
        let mut runner = Runner::builder().build(&g).unwrap();
        let free = runner.execute(std::slice::from_ref(&input), RunOptions::default());
        let bounded = runner.execute(
            std::slice::from_ref(&input),
            RunOptions::new().deadline_in(std::time::Duration::from_secs(60)),
        );
        assert_eq!(
            free.unwrap().into_outputs(),
            bounded.unwrap().into_outputs()
        );
    }

    #[test]
    fn parallelism_policy_reports_workers() {
        assert_eq!(Parallelism::Serial.max_threads(), 1);
        assert_eq!(Parallelism::Threads(6).max_threads(), 6);
        assert!(Parallelism::Auto.max_threads() >= 1);
        // Tiny kernels never spawn.
        assert_eq!(Parallelism::Threads(8).workers_for(100), 1);
        assert_eq!(Parallelism::Threads(8).workers_for(1 << 20), 8);
    }

    #[test]
    fn par_chunks_covers_every_unit_once() {
        let mut data = vec![0.0f32; 103]; // deliberately non-divisible
        par_chunks(4, &mut data, 10, |u, chunk| {
            for x in chunk.iter_mut() {
                *x += 1.0 + u as f32;
            }
        });
        // Every element written exactly once with its unit index.
        for (i, &x) in data.iter().enumerate() {
            assert_eq!(x, 1.0 + (i / 10) as f32);
        }
    }

    // ---- microkernels ----

    #[test]
    fn dot4_matches_documented_lane_association() {
        // Lane j accumulates elements j, j+4, ... in index order; the
        // combine is (l0+l1)+(l2+l3). Bit-exact by construction for any
        // length, including tails of 1..3.
        for len in [0usize, 1, 2, 3, 4, 5, 7, 8, 13, 127] {
            let a: Vec<f32> = (0..len).map(|i| (i as f32 * 0.37).sin()).collect();
            let b: Vec<f32> = (0..len).map(|i| (i as f32 * 0.11).cos() - 0.4).collect();
            let mut lanes = [0.0f32; 4];
            for i in 0..len {
                lanes[i % 4] += a[i] * b[i];
            }
            let reference = (lanes[0] + lanes[1]) + (lanes[2] + lanes[3]);
            assert_eq!(dot4(&a, &b).to_bits(), reference.to_bits(), "len {len}");
        }
    }

    #[test]
    fn dot_i16_is_exact_against_wide_reference() {
        // i32 accumulation never rounds: compare against an i64 sum, on
        // every length up to a few SIMD widths past the tail and on the
        // extreme codes (an i8 weight may be -128, an activation ±127).
        let a: Vec<i16> = (0..301)
            .map(|i| ((i * 37 + 11) % 256 - 128) as i16)
            .collect();
        let b: Vec<i16> = (0..301)
            .map(|i| ((i * 53 + 7) % 255 - 127) as i16)
            .collect();
        for len in (0..40).chain([255, 301]) {
            let wide: i64 = a[..len]
                .iter()
                .zip(&b[..len])
                .map(|(&x, &y)| i64::from(x) * i64::from(y))
                .sum();
            assert_eq!(i64::from(dot_i16(&a[..len], &b[..len])), wide, "len {len}");
        }
        let extreme = dot_i16(&[-128; 1024], &[-127; 1024]);
        assert_eq!(extreme, 1024 * 128 * 127);
    }

    #[test]
    fn fake_quant_with_zero_scale_yields_zero() {
        let values = vec![1.0, -3.5, 0.0, -0.0, f32::INFINITY, f32::NAN, 1e-40];
        let input = Tensor::from_vec(Shape::nf(1, values.len()), values).unwrap();
        let out = run_single(Op::FakeQuant { scale: 0.0 }, &[input], None);
        assert!(
            out.data().iter().all(|x| x.to_bits() == 0),
            "{:?}",
            out.data()
        );
    }

    // ---- INT8 execution path ----

    #[test]
    fn int8_dense_path_engages_and_matches_fake_quant_reference() {
        // x -> FakeQuant -> Dense with per-channel i8 weights: the plan
        // should select the INT8 kernel, and its output must match the
        // fake-quant f32 reference within the stated tolerance.
        let scale = 1.0 / 127.0;
        let mut b = GraphBuilder::new("q");
        let x = b.input(Shape::nf(2, 8));
        let q = b.apply("x.q", Op::FakeQuant { scale }, &[x]).unwrap();
        let mut w = Tensor::random(Shape::nf(3, 8), 5, 1.0);
        w.quantize_i8_per_channel();
        let fc = b
            .apply_with_weights(
                "fc",
                Op::Dense {
                    out_features: 3,
                    bias: false,
                },
                &[q],
                WeightInit::Explicit(vec![w]),
            )
            .unwrap();
        let g = b.finish(vec![fc]);
        let input = Tensor::random(Shape::nf(2, 8), 9, 1.0);

        let mut int8 = Runner::builder().build(&g).unwrap();
        assert!(
            int8.uses_int8(),
            "I201-clean quantized graph should plan INT8"
        );
        let mut reference = Runner::builder().int8(false).build(&g).unwrap();
        assert!(!reference.uses_int8());

        let got = int8
            .execute(
                std::slice::from_ref(&input),
                RunOptions::new().profile(true),
            )
            .unwrap();
        let want = reference.execute(&[input], RunOptions::default()).unwrap();
        assert_eq!(got.profile().expect("profiled").int8_nodes(), 1);
        let diff = got.outputs()[0].max_abs_diff(&want.outputs()[0]).unwrap();
        let bound = 1e-4 * want.outputs()[0].abs_max().max(1.0);
        assert!(diff <= bound, "int8 vs fake-quant diff {diff} > {bound}");
    }

    #[test]
    fn uncalibrated_graph_never_plans_int8() {
        // No FakeQuant producer -> no activation scale -> f32 path even
        // though the weights carry an i8 payload.
        let mut b = GraphBuilder::new("nq");
        let x = b.input(Shape::nf(1, 8));
        let mut w = Tensor::random(Shape::nf(3, 8), 5, 1.0);
        w.quantize_i8_per_channel();
        let fc = b
            .apply_with_weights(
                "fc",
                Op::Dense {
                    out_features: 3,
                    bias: false,
                },
                &[x],
                WeightInit::Explicit(vec![w]),
            )
            .unwrap();
        let g = b.finish(vec![fc]);
        assert!(!Runner::builder().build(&g).unwrap().uses_int8());
    }
}
