//! f32 execution engine.
//!
//! One door: every forward pass goes through [`Runner`], built with
//! [`Runner::builder`] and driven by [`Runner::execute`] under a
//! [`RunOptions`] (capture-intermediates and profile flags).
//! The runner owns a reusable buffer arena (intermediate tensors, the
//! im2col scratch and materialized weights survive across calls), so
//! repeated inference over a dataset, a benchmark loop or a serving
//! worker amortizes every allocation after the first run. Weights
//! are not the runner's to materialize: it takes each node's tensors
//! once, on first use, from [`Graph::node_weights`], the one owner of
//! that step, borrowing explicit weights and keeping seeded ones.
//!
//! The pre-redesign surface (the stateless `Executor` facade and the
//! split `run` / `run_with_intermediates` / `materialize_node_weights`
//! entry points) has been removed after a four-release deprecation
//! window; see CHANGELOG.md for the old → new spelling table.
//!
//! Heavy kernels (`conv2d`, `dense`, `pool2d`) are data
//! parallel: the output buffer is split into disjoint contiguous tiles
//! and distributed over scoped threads according to a [`Parallelism`]
//! policy. Every f32 dense kernel computes each output as `bias +
//! dot4(w, x)`: lane `i` of four accumulates the products `w[k]·x[k]` of
//! `k = i, i+4, …` in order from `+0.0` (the last `len % 4` on lanes
//! `0..len % 4`), and the lanes combine as `(l0+l1) + (l2+l3)`. Dense
//! (`groups == 1`) convolutions read zero-padded input planes (the input
//! itself when unpadded) through one list of tap offsets: a short
//! stride-1 conv runs eight output pixels as the lanes of its
//! accumulators, every other one a *pixel-blocked* im2col plus a GEMM
//! register-tiled four kernel rows × two patch rows at a time.
//! Grouped and depthwise convolutions are channel-blocked:
//! sixteen output channels run as the lanes of one accumulator, each
//! adding its valid taps in the order of a plain per-output loop. Every
//! output scalar is a pure function of its operands — the lane split
//! and combine order are fixed — so serial and threaded runs, any pixel
//! blocking and any batch size produce bit-identical results. Max and
//! average pooling pad a plane with a value no accumulator changes on
//! (`-∞`, or `-0.0` for the sum) and run each output row eight or four
//! outputs at a time, every tap applied lane-wise in (ky, kx) order:
//! each output sees its valid taps in a per-output loop's order, so it
//! has that loop's bits.
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
//! (`pmullw`, `pmaddwd`); i8 ones it does not. Dense convolutions and
//! dense layers run one INT8 GEMM: weight rows are packed once, zero-
//! padded to whole 16-code chunks, patch rows are gathered from
//! zero-padded code planes (a dense input is one such row), and a
//! micro-kernel reduces each pair of rows to i32 with `pmaddwd`. Only a
//! stride-1 conv of at most 32 codes per patch runs a direct kernel
//! instead (weight-code pairs × contiguous runs of the code planes),
//! chosen once at build. Integer accumulation is exact, so every INT8
//! output is independent of the kernel, threading, planning and batch
//! size too. An INT8 conv followed by monotone stages and a max-pool
//! pools its i32 accumulators first and dequantizes only the pooled
//! values (see the steps below). See [`RunnerBuilder::int8`].
//!
//! The runner executes the schedule in *steps*: a conv, dense, max- or
//! average-pool or flatten node takes the chain of `BatchNorm`,
//! activation, `FakeQuant` and same-shape `Add` nodes that directly
//! follow it, each the sole consumer of the value before it, into its
//! own output write (the rule is `fused_steps`). Each of those ops is
//! one in-place stage with one implementation, run by the kernel on
//! each run of one output channel while it is still in cache — the
//! GEMM's output rows, the grouped kernel's accumulator lanes and
//! scattered rows, the INT8 conv's dequantized rows, the dense rows,
//! each pooled plane, the flattened copy — and over a copy of its input
//! when the node stands alone. A stage computes the same
//! expression on the same operand per element either way, so fusion
//! changes no bit; the chain's inner values are simply never stored.
//! An INT8 conv's step also takes a max-pool after a chain of monotone
//! non-decreasing stages whose zeros all come out `+0.0`: its exact i32
//! accumulators are pooled before the dequantization, and the largest
//! output of a window is then the output of its largest accumulator,
//! bit for bit. A `FakeQuant` whose input already lies on its grid runs
//! as no stage. [`RunOptions::capture_intermediates`] runs the stages
//! one at a time over the step's buffer instead (a folded pool as its
//! own kernel over the full-resolution values), cloning each value, so
//! every intermediate is still returned with the same bits.
//!
//! The value arena is laid out by a [`MemoryPlan`]: tensor liveness
//! intervals, counted in steps, are colored greedily so values with
//! disjoint live ranges share a buffer slot, cutting peak intermediate
//! memory without changing a single output bit (kernels fully overwrite
//! their output buffers; the proptest suite pins planned ≡ unplanned
//! equality). A fused chain's inner values own no slot. See
//! [`RunnerBuilder::memory_planning`].

use crate::dtype::DataType;
use crate::graph::{Graph, Node, TensorId, WeightInit};
use crate::ops::{ActKind, Conv2dAttrs, Op, Pool2dAttrs};
use crate::profile::{NodeProfile, RunProfile};
use crate::shape::Shape;
use crate::tensor::{round_i8, Tensor};
use crate::NnirError;
use std::borrow::Cow;
use std::ops::Range;

// --------------------------------------------------------------------
// Parallelism policy
// --------------------------------------------------------------------

/// Minimum per-kernel scalar-op estimate before threads are spawned;
/// below this the spawn overhead dwarfs the work.
const PAR_MIN_WORK: usize = 1 << 15;

/// How the execution engine distributes kernel work over threads.
///
/// `Serial` is the default: at batch 1 a kernel call is too short to
/// pay for spawning, and `Threads(2)` ran LeNet-5 2.49× slower than
/// `Serial` (medians of alternating rounds on a 2-thread host). Every
/// policy computes the same bits.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum Parallelism {
    /// Single-threaded reference path (equivalence baseline; default).
    #[default]
    Serial,
    /// Exactly this many worker threads for large kernels.
    Threads(usize),
    /// One worker per available hardware thread.
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

/// The GEMM's register tile: four kernel rows `w` against two patch
/// rows `x0`, `x1` of whole 4-element chunks, with `t[r][j]` equal to
/// `bias[r] + dot4(w[r], x_j)` bit for bit: [`dot4_lanes`]' eight lane
/// vectors, each combined as `(l0+l1) + (l2+l3)`, plus the bias. The
/// GEMM pads a reduction that is not a whole number of chunks (its
/// weight rows with `+0.0`, its patch rows with `-0.0`), so the tile
/// has no tail: a padded lane gains `+0.0·-0.0 = -0.0`, and `l + -0.0`
/// is `l` bit for bit.
#[inline]
fn dot4_tile(w: [&[f32]; 4], x0: &[f32], x1: &[f32], bias: [f32; 4]) -> [[f32; 2]; 4] {
    let lanes = dot4_lanes(w, w, x0, x1);
    let sum = |l: [f32; 4]| (l[0] + l[1]) + (l[2] + l[3]);
    std::array::from_fn(|r| [bias[r] + sum(lanes[2 * r]), bias[r] + sum(lanes[2 * r + 1])])
}

/// The lane vectors of eight `dot4`s over operands whose length is a
/// multiple of 4: `[w0·x0, w0·x1, w1·x0, …, w3·x1]`, each one lane `i`
/// accumulating elements `i, i+4, …` in order. The eight named
/// accumulators are independent add chains that share every input
/// load, so eight 4-lane multiply-adds are in flight where a lone
/// `dot4` waits on one.
///
/// Kept out of line on purpose: inlined, the caller's combine of
/// *different* accumulators into adjacent outputs leads LLVM's SLP
/// vectorizer to pack the loop across accumulators instead of across
/// lanes, and the loop compiles to scalar loads and shuffles slower
/// than a lone `dot4`. Returned raw, each accumulator stays one SIMD
/// register.
///
/// The rows come twice, `w` for the products with `x0` and `w_again`
/// (the same rows) for those with `x1`, so each weight load feeds one
/// product and LLVM multiplies into its register: a NaN weight meeting
/// a NaN input keeps the weight's payload, as in the other kernels. With
/// one load per chunk it multiplied some products into an input copy.
#[inline(never)]
fn dot4_lanes(w: [&[f32]; 4], w_again: [&[f32]; 4], x0: &[f32], x1: &[f32]) -> [[f32; 4]; 8] {
    let [mut a00, mut a01, mut a10, mut a11] = [[0.0f32; 4]; 4];
    let [mut a20, mut a21, mut a30, mut a31] = [[0.0f32; 4]; 4];
    let [w0, w1, w2, w3] = w.map(|r| r.chunks_exact(4));
    let [v0, v1, v2, v3] = w_again.map(|r| r.chunks_exact(4));
    let rows = w0.zip(w1).zip(w2.zip(w3)).zip(v0.zip(v1).zip(v2.zip(v3)));
    let cols = x0.chunks_exact(4).zip(x1.chunks_exact(4));
    for ((((c0, c1), (c2, c3)), ((d0, d1), (d2, d3))), (y0, y1)) in rows.zip(cols) {
        for i in 0..4 {
            a00[i] += c0[i] * y0[i];
            a01[i] += d0[i] * y1[i];
            a10[i] += c1[i] * y0[i];
            a11[i] += d1[i] * y1[i];
            a20[i] += c2[i] * y0[i];
            a21[i] += d2[i] * y1[i];
            a30[i] += c3[i] * y0[i];
            a31[i] += d3[i] * y1[i];
        }
    }
    [a00, a01, a10, a11, a20, a21, a30, a31]
}

/// The matrix-vector tile: four kernel rows `w` against one vector `x`,
/// with `t[r]` equal to `bias[r] + dot4(w[r], x)` bit for bit —
/// [`dot4_tile`]'s association with one column. Four independent 4-lane
/// chains share each load of `x` where a lone `dot4` waits on one.
///
/// The tail runs through the same loop as one more chunk, the weights
/// padded with `+0.0` and `x` with `-0.0`: a padded lane gains
/// `+0.0·-0.0 = -0.0`, and `l + -0.0` is `l` bit for bit, so the tail
/// lands on lanes `0..len % 4` exactly as in `dot4`. Out of line, with
/// the combine and the bias, for the reason [`dot4_lanes`] is and so
/// that one codegen serves every caller: drafts that combined the lanes
/// or added the bias in the inlined caller, or ran the tail as scalar
/// code, had LLVM add `l1 + l0` or `sum + bias` or multiply `x·w`, each
/// of which keeps the other payload when both operands are NaN.
#[inline(never)]
fn dot4_col(w: [&[f32]; 4], x: &[f32], bias: [f32; 4]) -> [f32; 4] {
    let body = x.len() / 4 * 4;
    let lanes = dot4_col_lanes(w.map(|r| &r[..body]), &x[..body], [[0.0; 4]; 4]);
    let (mut wt, mut xt) = ([[0.0f32; 4]; 4], [-0.0f32; 4]);
    for (t, r) in wt.iter_mut().zip(w) {
        t[..x.len() - body].copy_from_slice(&r[body..]);
    }
    xt[..x.len() - body].copy_from_slice(&x[body..]);
    let lanes = dot4_col_lanes(wt.each_ref().map(|t| &t[..]), &xt, lanes);
    let sum = lanes.map(|l| (l[0] + l[1]) + (l[2] + l[3]));
    std::array::from_fn(|r| bias[r] + sum[r])
}

/// The lane vectors of [`dot4_col`] over whole 4-element chunks, added
/// onto `acc`, one named accumulator per row: each product lands in the
/// register of the weights it consumes, `x`'s load being shared.
#[inline(never)]
fn dot4_col_lanes(w: [&[f32]; 4], x: &[f32], acc: [[f32; 4]; 4]) -> [[f32; 4]; 4] {
    let [w0, w1, w2, w3] = w;
    let [mut a0, mut a1, mut a2, mut a3] = acc;
    let rows = w0.chunks_exact(4).zip(w1.chunks_exact(4));
    let rows = rows.zip(w2.chunks_exact(4).zip(w3.chunks_exact(4)));
    for (((c0, c1), (c2, c3)), y) in rows.zip(x.chunks_exact(4)) {
        for i in 0..4 {
            a0[i] += c0[i] * y[i];
            a1[i] += c1[i] * y[i];
            a2[i] += c2[i] * y[i];
            a3[i] += c3[i] * y[i];
        }
    }
    [a0, a1, a2, a3]
}

/// Output pixels the lane kernel computes at once, one per f32 lane:
/// each of its four lane accumulators is two 4-lane registers.
const PIX_LANES: usize = 8;

/// Most taps a stride-1 dense conv runs direct with rather than on a
/// GEMM, in both precisions: the f32 lane kernel ([`lane_rows`]) and the
/// INT8 direct kernel ([`conv2d_int8_direct`], two 16-code chunks). Up
/// to it, the GEMM's fixed cost per output — the patch gather, one
/// horizontal sum and a scattered store — outweighs its few
/// multiply-adds; above it, and at any other stride, the GEMM's operand
/// reuse wins (measured per layer in DESIGN.md §10, "Kernel-selection
/// rules").
const DIRECT_MAX_K: usize = 2 * CODE_CHUNK;

/// The dense-conv kernel-selection rule both precisions share: a
/// stride-1 conv of at most [`DIRECT_MAX_K`] taps runs direct.
fn runs_direct(stride: (usize, usize), taps: usize) -> bool {
    stride == (1, 1) && taps <= DIRECT_MAX_K
}

/// The f32 rule, read from the geometry alone: the pixels of one lane
/// run when the conv runs direct ([`runs_direct`]) and its output rows
/// hold at least [`PIX_LANES`] pixels, `None` for the im2col tile. An
/// unpadded 1×1 conv's taps are its input planes, so its output plane
/// is one run.
fn lane_run(g: ConvGeom) -> Option<usize> {
    let run = if g.pointwise() { g.opix } else { g.ow };
    (runs_direct((g.sh, g.sw), g.k_len()) && run >= PIX_LANES).then_some(run)
}

/// Output rows of a direct f32 conv: `dst` holds rows of `len ≥ 8`
/// pixels, and `runs` holds, for each of them, the run of `len` input
/// values each of the `w.len()` taps reads, in tap order. Then
/// `dst[p] = b0 + dot4(w, column p)` bit for bit, where column `p` is
/// pixel `p` of every run of its row.
///
/// Eight adjacent pixels form the SIMD lanes. For each block of eight,
/// [`pixel_lanes`] builds the four lane vectors of their eight `dot4`s
/// — lane `j` summing the taps `k ≡ j (mod 4)` in ascending `k` from
/// `+0.0` — and they combine as `(l0+l1) + (l2+l3)`, then `b0 +` the
/// sum, eight outputs at a time. The last block ends at the row's end,
/// overlapping the one before it when the row is not a multiple of
/// eight; each output is a function of its own column, so the overlap
/// rewrites the same bits, and every output takes one codegen.
fn lane_rows(w: &[f32], runs: &[f32], len: usize, b0: f32, dst: &mut [f32]) {
    // Each weight as a whole lane vector, loaded afresh for each half of
    // a block: the product then lands in the weight's register, so when
    // `w` and `x` are both NaN it keeps `w`'s payload, as `dot4` does. A
    // broadcast register shared by both halves made LLVM multiply into
    // the input's register instead.
    let mut wv = [[0.0f32; PIX_LANES]; DIRECT_MAX_K];
    for (v, &wk) in wv.iter_mut().zip(w) {
        *v = [wk; PIX_LANES];
    }
    let wv = &wv[..w.len()];
    let row_runs = runs.chunks_exact(wv.len() * len);
    for (runs, dst) in row_runs.zip(dst.chunks_exact_mut(len)) {
        for p in (0..len).step_by(PIX_LANES) {
            let p = p.min(len - PIX_LANES);
            let [l0, l1, l2, l3] = pixel_lanes(wv, runs, len, p);
            for (i, o) in dst[p..][..PIX_LANES].iter_mut().enumerate() {
                *o = b0 + ((l0[i] + l1[i]) + (l2[i] + l3[i]));
            }
        }
    }
}

/// The four lane vectors of the `dot4`s of the weights `wv` (each
/// repeated across the lanes) against pixels `p..p + 8` of the runs of
/// `pix` values in `planes`: `acc[j][i]` sums `w[k]·x_k[p + i]` over
/// `k ≡ j (mod 4)` in ascending `k`, the last `K % 4` taps on lanes
/// `0..K % 4`. Every run has the one length `pix`, so the bounds check
/// of `p` is the same for each tap and stays out of the k loop.
#[inline]
fn pixel_lanes(
    wv: &[[f32; PIX_LANES]],
    planes: &[f32],
    pix: usize,
    p: usize,
) -> [[f32; PIX_LANES]; 4] {
    let add = |a: &mut [f32; PIX_LANES], (w, plane): (&[f32; PIX_LANES], &[f32])| {
        let x: [f32; PIX_LANES] = plane[p..p + PIX_LANES].try_into().unwrap_or_default();
        for ((a, w), x) in a.iter_mut().zip(w).zip(x) {
            *a += w * x;
        }
    };
    let mut acc = [[0.0f32; PIX_LANES]; 4];
    let mut cols = wv.iter().zip(planes.chunks_exact(pix));
    // Each pass deals the next (at most) four channels onto lanes 0, 1, …
    while cols.len() > 0 {
        for (a, col) in acc.iter_mut().zip(&mut cols) {
            add(a, col);
        }
    }
    acc
}

/// INT8 codes the GEMM micro-kernel reduces at once: every packed
/// weight row and gathered patch row is a whole number of these chunks.
const CODE_CHUNK: usize = 16;

/// The INT8 GEMM micro-kernel: the i32 dot product of two runs of
/// 16-code chunks, INT8 codes held as i16 — the arithmetic the
/// CFU/socsim accelerator story (E9) implements in hardware. Lane `i`
/// sums elements `i, i+16, …` and the lanes sum once at the end;
/// integer accumulation is exact, so that order is free, and LLVM
/// lowers each chunk to two `pmaddwd` and two `paddd` on baseline
/// x86-64, with no scalar tail. One output is the whole register tile:
/// every tile of two or more outputs per loop that was tried lost the
/// `pmaddwd` form and ran no faster (DESIGN.md §10). i32 cannot
/// overflow for any reduction this engine runs: `|a·b| ≤ 128·127` per
/// term allows `K > 130_000`.
#[inline]
fn dot_codes(a: &[[i16; CODE_CHUNK]], b: &[[i16; CODE_CHUNK]]) -> i32 {
    debug_assert_eq!(a.len(), b.len());
    let mut lanes = [0i32; CODE_CHUNK];
    for (x, y) in a.iter().zip(b) {
        for i in 0..CODE_CHUNK {
            lanes[i] += i32::from(x[i]) * i32::from(y[i]);
        }
    }
    lanes.iter().sum()
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
    /// whole batch) or the lane kernel's strip of runs; the grouped
    /// conv's interleaved strips and the pooling kernel's padded planes
    /// reuse it.
    col: Vec<f32>,
    /// Output tile the blocked GEMM writes before scattering into the
    /// strided output planes.
    outb: Vec<f32>,
    /// The f32 dense conv's zero-padded input planes (an unpadded conv
    /// reads its input in place).
    pad: Vec<f32>,
    /// The f32 GEMM's weight rows, padded to whole 4-element chunks
    /// when K is not a multiple of 4.
    wpad: Vec<f32>,
    /// Quantized input activations (INT8 path): zero-padded code planes
    /// for a conv, rows of a plan's padded length for a dense layer.
    qin: Vec<i16>,
    /// Offsets of a dense conv's patch positions in its staged planes,
    /// in either precision.
    taps: Vec<usize>,
    /// The INT8 conv's patch block: one padded-length code row per
    /// output pixel of a cache-sized block.
    qcol: Vec<i16>,
    /// The INT8 conv's i32 accumulators: the GEMM's tile for one block
    /// or each worker's run of the direct kernel, then, under a folded
    /// max-pool, the planes it pools, their padded copy and the pooled
    /// values.
    acc: Vec<i32>,
}

// --------------------------------------------------------------------
// Run options and output
// --------------------------------------------------------------------

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
    /// one at a time over its output, and a max-pool an INT8 conv would
    /// fold runs as its own kernel, so each value they pass along exists
    /// to be cloned; every value has the bits of the fused run.
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
    /// those nodes' weight codes to i16 rows once; each call quantizes
    /// the input activations to i16 codes and runs the INT8 GEMM (or,
    /// for a short stride-1 conv, the direct kernel) over them. With it
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
    /// devices — and gives the values inside a fused chain (the
    /// full-resolution output of an INT8 conv that folds a max-pool
    /// among them) none.
    /// Kernels fully overwrite their output buffers and the plan never
    /// aliases overlapping live ranges, so outputs are bit-identical to
    /// the unplanned layout (proptested). Disable to keep the historical
    /// one-slot-per-tensor layout.
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
        let steps = fused_steps(graph, &int8_plans);
        let plan = if self.memory_planning {
            MemoryPlan::over(graph, &steps)
        } else {
            MemoryPlan::identity(graph)
        };
        Ok(Runner {
            graph,
            parallelism: self.parallelism,
            weights: vec![None; graph.nodes().len()],
            values: vec![None; plan.slot_count()],
            spill: None,
            scratch: Scratch::default(),
            records: profile_records(graph, &steps, &int8_plans),
            int8_plans,
            identity_quants: crate::analysis::identity_quants(graph),
            steps,
            plan,
        })
    }
}

/// Build-time INT8 plan of one node: the activation scale its input is
/// quantized with, and its weights packed for the GEMM.
#[derive(Debug, Clone)]
struct Int8Plan<'g> {
    in_scale: f32,
    /// The payload's i8 weight codes widened to i16 once, each row
    /// zero-padded to `row_len`: the GEMM's A operand.
    codes: Vec<i16>,
    /// Padded row length, a non-zero multiple of [`CODE_CHUNK`].
    row_len: usize,
    /// Codes in the payload: the kernels check it against the node's
    /// geometry before reading a row.
    payload_len: usize,
    /// Whether the conv runs [`conv2d_int8_direct`] rather than the
    /// GEMM: the one INT8 kernel-selection rule, made in
    /// [`int8_plans`].
    direct: bool,
    /// The payload's per-row weight scales.
    scales: &'g [f32],
}

impl Int8Plan<'_> {
    /// Row `r` of the packed codes, as whole chunks.
    fn row(&self, r: usize) -> &[[i16; CODE_CHUNK]] {
        self.codes[r * self.row_len..][..self.row_len].as_chunks().0
    }

    /// Fails unless the payload is `rows` rows of `k` codes with one
    /// scale each.
    fn check(&self, rows: usize, k: usize, what: &str) -> Result<(), NnirError> {
        if self.payload_len == rows * k && self.scales.len() == rows {
            return Ok(());
        }
        Err(NnirError::ExecutionFailure(format!(
            "int8 {what} payload mismatch: {} codes / {} scales for [{rows}, {k}]",
            self.payload_len,
            self.scales.len()
        )))
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
/// Each plan also fixes its kernel by the rule the f32 convs share
/// ([`runs_direct`]): a stride-1 conv of at most [`DIRECT_MAX_K`] codes
/// per patch runs direct, every other conv and every dense layer the
/// GEMM.
fn int8_plans(graph: &Graph) -> Vec<Option<Int8Plan<'_>>> {
    let has_i8 = graph.nodes().iter().any(|n| match &n.weights {
        WeightInit::Explicit(w) => w
            .first()
            .and_then(Tensor::quant)
            .is_some_and(|q| q.dtype == DataType::I8),
        _ => false,
    });
    if !has_i8 {
        return vec![None; graph.nodes().len()];
    }
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
            // One row per scale, at least one chunk long; a payload that
            // is not a whole number of rows fails the kernel's check
            // before a row is read.
            let k = q.codes.len() / q.scales.len().max(1);
            let row_len = k.next_multiple_of(CODE_CHUNK).max(CODE_CHUNK);
            let mut codes = vec![0; q.scales.len() * row_len];
            for (r, dst) in codes.chunks_exact_mut(row_len).enumerate() {
                for (d, &c) in dst.iter_mut().zip(&q.codes[r * k..][..k]) {
                    *d = i16::from(c);
                }
            }
            Some(Int8Plan {
                in_scale,
                codes,
                row_len,
                payload_len: q.codes.len(),
                direct: matches!(&node.op, Op::Conv2d(a) if runs_direct(a.stride, k)),
                scales: &q.scales,
            })
        })
        .collect()
}

// --------------------------------------------------------------------
// Fused steps
// --------------------------------------------------------------------

/// Most elementwise nodes one head takes into its output write: the
/// runner resolves a step's stages into a stack array of this size, so
/// it allocates nothing per call.
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
/// A conv head with an INT8 plan (`int8`) also takes one `MaxPool2d`
/// whose every window holds an input tap, when each node between them
/// is a monotone non-decreasing map whose zeros all come out `+0.0`
/// ([`Zeros`]); the kernel then pools its i32 accumulators and runs
/// every other tail on the pooled values only (DESIGN.md §10, "Fused
/// epilogues"). The tails after the pool follow the rule above.
fn fused_steps(graph: &Graph, int8: &[Option<Int8Plan<'_>>]) -> Vec<Range<usize>> {
    let nodes = graph.nodes();
    let fanout = graph.fanout();
    let sole = |value: TensorId| fanout[value.0].len() == 1 && !graph.outputs().contains(&value);
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
    let mut steps = Vec::new();
    let mut start = 0;
    while start < nodes.len() {
        let mut end = start + 1;
        if matches!(
            nodes[start].op,
            Op::Conv2d(_) | Op::Dense { .. } | Op::MaxPool2d(_) | Op::AvgPool2d(_) | Op::Flatten
        ) {
            // What the chain so far can output, while a pool may still
            // fold into this step.
            let mut chain = int8[start]
                .as_ref()
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
        steps.push(start..end);
        start = end;
    }
    steps
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
/// coloring over the [`Liveness`](crate::analysis::Liveness) intervals,
/// counted in the runner's *steps* (a head node together with the
/// elementwise nodes, and the max-pool an INT8 conv folds, run in its
/// output write) rather than nodes: a fused chain's inner values — a
/// folded pool's full-resolution input among them — are never written,
/// so they own no slot; its final value is defined, and every operand
/// it reads is live, at the head's step. Tensors are visited in
/// definition order, each taking the free slot that fits its size best
/// (preferring the smallest already-large-enough buffer, then the
/// largest smaller one) or opening a new slot. Graph outputs stay live past the end of the
/// schedule, so their slots are never recycled and output collection is
/// untouched.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct MemoryPlan {
    /// Arena slot per tensor id; `None` for a fused chain's inner value.
    slot_of: Vec<Option<usize>>,
    /// Peak element capacity per slot (the max over its occupants).
    slot_elems: Vec<usize>,
    /// Total element count of the one-slot-per-tensor layout.
    unplanned_elems: u64,
}

impl MemoryPlan {
    /// Computes the slot-reuse plan for `graph` from tensor liveness
    /// over the steps a default runner runs: its INT8 plans, and so the
    /// pools they fold, included.
    #[must_use]
    pub fn plan(graph: &Graph) -> Self {
        Self::over(graph, &fused_steps(graph, &int8_plans(graph)))
    }

    /// The slot-reuse plan over `steps`, the runner's cut of the
    /// schedule.
    fn over(graph: &Graph, steps: &[Range<usize>]) -> Self {
        let live = crate::analysis::Liveness::of(graph);
        // Step of each schedule position; graph outputs, live past the
        // last node, stay live past the last step.
        let mut step_of = vec![steps.len(); graph.nodes().len() + 1];
        let mut owns_slot = vec![true; graph.tensor_count()];
        for (s, step) in steps.iter().enumerate() {
            step_of[step.clone()].fill(s);
            for node in &graph.nodes()[step.start..step.end - 1] {
                owns_slot[node.output.0] = false;
            }
        }
        let ranges: Vec<crate::analysis::LiveRange> = live
            .ranges()
            .iter()
            .map(|r| crate::analysis::LiveRange {
                def: step_of[r.def],
                last_use: step_of[r.last_use],
            })
            .collect();
        let tc = graph.tensor_count();
        let elems: Vec<usize> = (0..tc)
            .map(|t| graph.tensor_shape(TensorId(t)).map_or(0, Shape::elem_count))
            .collect();
        // Visit tensors in definition order (ties by id — producer
        // order), the order their buffers come alive during a run.
        let mut order: Vec<usize> = (0..tc).filter(|&t| owns_slot[t]).collect();
        order.sort_by_key(|&t| (ranges[t].def, t));
        let mut slot_of = vec![None; tc];
        let mut slot_elems: Vec<usize> = Vec::new();
        // Step at which each slot's current occupant dies.
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
            slot_of[t] = Some(s);
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
            .map(|t| graph.tensor_shape(TensorId(t)).map_or(0, Shape::elem_count))
            .collect();
        MemoryPlan {
            slot_of: (0..tc).map(Some).collect(),
            unplanned_elems: slot_elems.iter().map(|&e| e as u64).sum(),
            slot_elems,
        }
    }

    /// The arena slot holding tensor `t` during a run; `None` for the
    /// inner value of a fused chain, which never has a buffer of its
    /// own.
    #[must_use]
    pub fn slot_of(&self, t: TensorId) -> Option<usize> {
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
/// node weights (explicit ones borrowed from the graph, seeded ones
/// materialized once), and the im2col scratch buffer. The first run
/// allocates; subsequent runs with the same shapes are allocation-free
/// on the hot path.
#[derive(Debug)]
pub struct Runner<'g> {
    graph: &'g Graph,
    parallelism: Parallelism,
    /// Each node's weights once first used: borrowed from the graph
    /// when explicit, materialized (owned) when seeded.
    weights: Vec<Option<Cow<'g, [Tensor]>>>,
    /// Value arena, one buffer per plan slot, reused across runs and —
    /// under the memory plan — across tensors with disjoint live
    /// ranges.
    values: Vec<Option<Tensor>>,
    /// The pre-pool values of a step that folds a max-pool, in a run
    /// that captures intermediates (a plain run never holds them).
    spill: Option<Tensor>,
    /// Kernel scratch (im2col tiles, INT8 code buffers), grown to the
    /// largest kernel seen.
    scratch: Scratch,
    /// Build-time INT8 kernel selection and packed weights for each
    /// node that executes on the INT8 path (see [`int8_plans`]).
    int8_plans: Vec<Option<Int8Plan<'g>>>,
    /// The `FakeQuant` nodes that run as no stage, by node index (see
    /// [`crate::analysis::identity_quants`]).
    identity_quants: Vec<bool>,
    /// The schedule as the kernels run it: each step a node, or a head
    /// with the elementwise nodes (and an INT8 conv's max-pool) fused
    /// into its output write (see [`fused_steps`]).
    steps: Vec<Range<usize>>,
    /// Each node's profile record less its duration (see
    /// [`profile_records`]).
    records: Vec<NodeProfile>,
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
    /// inconsistency discovered mid-run.
    pub fn execute(
        &mut self,
        inputs: &[Tensor],
        options: RunOptions,
    ) -> Result<RunOutput, NnirError> {
        let wall_start = options.profile.then(std::time::Instant::now);
        let (durations, intermediates) = self.forward(inputs, options)?;
        let outputs = self
            .graph
            .outputs()
            .iter()
            .map(|t| {
                self.plan
                    .slot_of(*t)
                    .and_then(|s| self.values[s].clone())
                    .ok_or_else(|| {
                        NnirError::ExecutionFailure(format!("output {t} never produced"))
                    })
            })
            .collect::<Result<Vec<_>, _>>()?;
        // Wall time spans input staging through output collection, so
        // coverage (kernel time / wall) honestly reports what the
        // per-node records miss. The records are the build-time static
        // fields with this pass's durations; a run that captures
        // intermediates fused nothing.
        let wall_ns = wall_start.map(|start| start.elapsed().as_nanos() as u64);
        let profile = durations
            .zip(wall_ns)
            .map(|(durations, wall_ns)| RunProfile {
                model: self.graph.name().to_string(),
                batch: self.graph.batch(),
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
                arena_slots: self.plan.slot_count(),
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

    /// Evaluates every step in topological order into the arena slots
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
            // Copy into the arena slot's buffer, whatever value it held
            // last: a slot shared with larger values keeps their
            // capacity, so a warm run allocates nothing here.
            let slot = self.plan.slot_of(*tid).ok_or_else(|| {
                NnirError::ExecutionFailure(format!("input {tid} has no arena slot"))
            })?;
            let mut buf = recycle(self.values[slot].take(), tensor.shape());
            buf.data_mut().copy_from_slice(tensor.data());
            self.values[slot] = Some(buf);
            if let Some(cap) = captured.as_mut() {
                cap[tid.0] = Some(tensor.clone());
            }
        }

        let nodes: &'g [Node] = self.graph.nodes();
        let mut durations = options.profile.then(|| vec![0; nodes.len()]);
        for step in &self.steps {
            for (idx, node) in step.clone().zip(&nodes[step.clone()]) {
                if self.weights[idx].is_none() {
                    self.weights[idx] = Some(self.graph.node_weights(node)?);
                }
            }
            let (head, tails) = (&nodes[step.start], &nodes[step.start + 1..step.end]);
            // The step writes its last value. Every value has the head's
            // output shape, or past a folded max-pool the pool's.
            let last = tails.last().unwrap_or(head);
            let shape_of = |node: &Node| {
                self.graph.tensor_shape(node.output).ok_or_else(|| {
                    NnirError::ExecutionFailure(format!("node {} has no output shape", node.name))
                })
            };
            let out_shape = shape_of(last)?;
            let plane = channel_plane(out_shape);
            let out_slot = self.plan.slot_of(last.output).ok_or_else(|| {
                NnirError::ExecutionFailure(format!("output of {} has no arena slot", last.name))
            })?;
            let mut out = recycle(self.values[out_slot].take(), out_shape);
            // Tails run in the head kernel's output write, unless the
            // caller captures intermediates: then each runs as a pass of
            // its own over the step's buffer, so every value it produces
            // can be cloned, and a max-pool the INT8 conv head folds
            // (see `fused_steps`) runs as its own kernel over the head's
            // full-resolution output, held in a buffer of its own.
            let fused = !options.capture_intermediates;
            let pool = tails
                .iter()
                .position(|n| matches!(n.op, Op::MaxPool2d(_)))
                .map(|i| step.start + 1 + i);
            let mut pre = match pool {
                Some(_) if !fused => Some(recycle(self.spill.take(), shape_of(head)?)),
                _ => None,
            };
            let value = |t: TensorId| {
                self.plan
                    .slot_of(t)
                    .and_then(|s| self.values[s].as_ref())
                    .ok_or_else(|| {
                        NnirError::ExecutionFailure(format!(
                            "tensor {t} consumed before production"
                        ))
                    })
            };
            // Materialized above; a kernel reports missing tensors itself.
            let weights = |idx: usize| self.weights[idx].as_deref().unwrap_or_default();
            // Node `idx`'s stage over the chain value `v` in a buffer of
            // `shape`, its other operand (an `Add`'s) read from the
            // arena; none for a `FakeQuant` that changes no bit.
            let stage = |idx: usize, v: TensorId, shape: &Shape| {
                if self.identity_quants[idx] {
                    return Ok(None);
                }
                let node = &nodes[idx];
                let other = node.inputs.iter().find(|&&t| t != v).map(|&t| value(t));
                Stage::of(node, v, weights(idx), other.transpose()?, shape).map(Some)
            };
            let mut stages = [None; MAX_TAILS];
            let mut staged = 0;
            if fused {
                let mut v = head.output;
                for (idx, tail) in (step.start + 1..step.end).zip(tails) {
                    if Some(idx) != pool {
                        if let Some(s) = stage(idx, v, out_shape)? {
                            stages[staged] = Some(s);
                            staged += 1;
                        }
                    }
                    v = tail.output;
                }
            }
            let head_start = durations.is_some().then(std::time::Instant::now);
            let mut ctx = KernelCtx {
                scratch: &mut self.scratch,
                par: self.parallelism,
                int8: self.int8_plans[step.start].as_ref(),
                pool: match pool.map(|i| &nodes[i].op) {
                    Some(Op::MaxPool2d(a)) if fused => Some(a),
                    _ => None,
                },
                epi: Epilogue {
                    stages: &stages[..staged],
                    plane,
                },
            };
            let head_out = pre.as_mut().unwrap_or(&mut out);
            if self.identity_quants[step.start] {
                // A `FakeQuant` on its input's grid: its value is its
                // input.
                head_out
                    .data_mut()
                    .copy_from_slice(value(head.inputs[0])?.data());
            } else {
                eval_node_into(head, value, weights(step.start), head_out, &mut ctx)?;
            }
            // A record measures only its kernel (a fused head's: the
            // whole step).
            if let (Some(ns), Some(start)) = (durations.as_mut(), head_start) {
                ns[step.start] = start.elapsed().as_nanos() as u64;
            }
            if let Some(cap) = captured.as_mut() {
                cap[head.output.0] = Some(pre.as_ref().unwrap_or(&out).clone());
            }
            let mut v = head.output;
            for (idx, tail) in (step.start + 1..step.end).zip(tails) {
                // The values before a folded pool live in `pre`.
                let in_pre = pool.is_some_and(|p| idx < p);
                if !fused {
                    let start = std::time::Instant::now();
                    match (&tail.op, pre.as_mut()) {
                        (Op::MaxPool2d(attrs), Some(pre)) => {
                            let mut ctx = KernelCtx::f32(&mut self.scratch, self.parallelism);
                            pool2d_into(pre, attrs, PoolMode::Max, &mut out, &mut ctx)?;
                        }
                        (_, pre) => {
                            let buf = match pre {
                                Some(pre) if in_pre => pre,
                                _ => &mut out,
                            };
                            if let Some(stage) = stage(idx, v, buf.shape())? {
                                let plane = channel_plane(buf.shape());
                                stage.apply(buf.data_mut(), 0, plane);
                            }
                        }
                    }
                    if let Some(ns) = durations.as_mut() {
                        ns[idx] = start.elapsed().as_nanos() as u64;
                    }
                }
                if let Some(cap) = captured.as_mut() {
                    let buf = match &pre {
                        Some(pre) if in_pre => pre,
                        _ => &out,
                    };
                    cap[tail.output.0] = Some(buf.clone());
                }
                v = tail.output;
            }
            if pre.is_some() {
                self.spill = pre;
            }
            self.values[out_slot] = Some(out);
        }
        Ok((durations, captured))
    }
}

/// What [`Runner::forward`] hands back to [`Runner::execute`]: each
/// node's kernel time in schedule order (0 for a fused tail) and the
/// per-tensor-id intermediate snapshot, each present when its
/// [`RunOptions`] flag was set.
type ForwardArtifacts = (Option<Vec<u64>>, Option<Vec<Option<Tensor>>>);

/// Rebuilds an arena slot's buffer for `shape`: a same-shape occupant
/// is handed back as-is (the kernel fully overwrites it), a
/// differently-shaped one donates its heap allocation, and an empty
/// slot allocates fresh.
fn recycle(slot: Option<Tensor>, shape: &Shape) -> Tensor {
    match slot {
        Some(t) if t.shape() == shape => t,
        Some(t) => {
            let mut data = t.into_data();
            data.resize(shape.elem_count(), 0.0);
            match Tensor::from_vec(shape.clone(), data) {
                Ok(t) => t,
                Err(_) => Tensor::zeros(shape.clone()),
            }
        }
        None => Tensor::zeros(shape.clone()),
    }
}

/// The static fields of each node's profile record, in schedule order:
/// everything but the measured duration, built once per runner. A fused
/// tail names its step's head; every node an INT8 plan selected reads
/// [`DataType::I8`].
fn profile_records(
    graph: &Graph,
    steps: &[Range<usize>],
    int8_plans: &[Option<Int8Plan<'_>>],
) -> Vec<NodeProfile> {
    let nodes = graph.nodes();
    steps
        .iter()
        .flat_map(|step| step.clone().map(move |idx| (idx, step.start)))
        .map(|(idx, head)| {
            let node = &nodes[idx];
            let in_shapes = graph.node_input_shapes(node);
            let (macs, elementwise) = graph.tensor_shape(node.output).map_or((0, 0), |out| {
                (
                    node.op.macs(&in_shapes, out),
                    node.op.elementwise_ops(&in_shapes, out),
                )
            });
            NodeProfile {
                name: node.name.clone(),
                op: node.op.to_string(),
                macs,
                elementwise,
                duration_ns: 0,
                precision: int8_plans[idx]
                    .as_ref()
                    .map_or(DataType::F32, |_| DataType::I8),
                fused_into: (idx != head).then(|| nodes[head].name.clone()),
            }
        })
        .collect()
}

/// Mutable per-step kernel context: the runner's scratch arenas, the
/// parallelism policy, the head's INT8 plan and the stages fused into
/// its output write.
struct KernelCtx<'a> {
    scratch: &'a mut Scratch,
    par: Parallelism,
    /// `Some` when the build-time plan selected the INT8 kernel for
    /// this node.
    int8: Option<&'a Int8Plan<'a>>,
    /// The max-pool an INT8 conv head folds: its kernel pools the i32
    /// accumulators and writes the pooled output (see [`fused_steps`]).
    pool: Option<&'a Pool2dAttrs>,
    /// What a head kernel (conv, dense, pool or flatten) applies to
    /// each run of output it writes; empty for every other node.
    epi: Epilogue<'a>,
}

impl<'a> KernelCtx<'a> {
    /// f32-only context (no INT8 plan, no folded pool, no fused stages)
    /// over `scratch`: a capture run's split-off pool, and the direct
    /// kernel-call harness the unit tests use.
    fn f32(scratch: &'a mut Scratch, par: Parallelism) -> Self {
        KernelCtx {
            scratch,
            par,
            int8: None,
            pool: None,
            epi: Epilogue {
                stages: &[],
                plane: 1,
            },
        }
    }
}

/// Dispatches one node evaluation into a preallocated output tensor,
/// reading each input tensor from the arena through `value`.
fn eval_node_into<'v>(
    node: &Node,
    value: impl Fn(TensorId) -> Result<&'v Tensor, NnirError>,
    weights: &[Tensor],
    out: &mut Tensor,
    ctx: &mut KernelCtx<'_>,
) -> Result<(), NnirError> {
    let arg = |i: usize| value(node.inputs[i]);
    match &node.op {
        Op::Input(_) => Err(NnirError::ExecutionFailure(
            "input op cannot be evaluated".into(),
        )),
        Op::Conv2d(attrs) => conv2d_into(arg(0)?, attrs, weights, out, ctx),
        Op::Dense { bias, .. } => dense_into(arg(0)?, weights, *bias, out, ctx),
        Op::BatchNorm | Op::Activation(_) | Op::FakeQuant { .. } | Op::Add => {
            // A standalone elementwise node: its stage, run in place
            // over a copy of its first input.
            let other = node.inputs.get(1).map(|&t| value(t)).transpose()?;
            let stage = Stage::of(node, node.inputs[0], weights, other, out.shape())?;
            let plane = channel_plane(out.shape());
            out.data_mut().copy_from_slice(arg(0)?.data());
            stage.apply(out.data_mut(), 0, plane);
            Ok(())
        }
        Op::MaxPool2d(attrs) => pool2d_into(arg(0)?, attrs, PoolMode::Max, out, ctx),
        Op::AvgPool2d(attrs) => pool2d_into(arg(0)?, attrs, PoolMode::Avg, out, ctx),
        Op::GlobalAvgPool => global_avg_pool_into(arg(0)?, out),
        Op::Mul => mul_broadcast_into(arg(0)?, arg(1)?, out),
        Op::Concat => concat_channels_into(node.inputs.iter().map(|&t| value(t)), out),
        Op::Upsample { factor } => upsample_nearest_into(arg(0)?, *factor, out),
        Op::Flatten => {
            // Same element order, different shape: a straight copy, then
            // the fused stages over it.
            out.data_mut().copy_from_slice(arg(0)?.data());
            ctx.epi.apply(out.data_mut(), 0);
            Ok(())
        }
        Op::Softmax => {
            softmax_last_into(arg(0)?, out);
            Ok(())
        }
    }
}

// --------------------------------------------------------------------
// Elementwise stages
// --------------------------------------------------------------------

/// Elements per channel plane of a tensor: everything past the batch
/// and channel dims (1 for a dense layer's `[n, f]` output).
fn channel_plane(shape: &Shape) -> usize {
    shape.dims().iter().skip(2).product::<usize>().max(1)
}

/// BatchNorm's arithmetic, `s·x + t` — the one spelling of it, shared
/// by its run form ([`Stage::apply`]) and the grouped conv's lane form.
#[inline]
fn batchnorm(x: f32, s: f32, t: f32) -> f32 {
    s * x + t
}

/// Applies `kind` to every element of `xs`. The match on the kind sits
/// outside the loops: each arm's loop inlines [`ActKind::apply`] for a
/// constant kind, so the piecewise-linear kinds vectorize, where a match
/// per element keeps the loop scalar.
fn activation(kind: ActKind, xs: &mut [f32]) {
    fn each(xs: &mut [f32], f: impl Fn(f32) -> f32) {
        for x in xs {
            *x = f(*x);
        }
    }
    match kind {
        ActKind::Relu => each(xs, |x| ActKind::Relu.apply(x)),
        ActKind::Relu6 => each(xs, |x| ActKind::Relu6.apply(x)),
        ActKind::LeakyRelu(slope) => each(xs, |x| ActKind::LeakyRelu(slope).apply(x)),
        ActKind::HardSwish => each(xs, |x| ActKind::HardSwish.apply(x)),
        ActKind::HardSigmoid => each(xs, |x| ActKind::HardSigmoid.apply(x)),
        ActKind::Sigmoid => each(xs, |x| ActKind::Sigmoid.apply(x)),
        ActKind::Mish => each(xs, |x| ActKind::Mish.apply(x)),
        ActKind::Silu => each(xs, |x| ActKind::Silu.apply(x)),
        ActKind::Tanh => each(xs, |x| ActKind::Tanh.apply(x)),
    }
}

/// One elementwise node as an in-place pass over a run of output
/// values: the single implementation of its arithmetic, whether it runs
/// fused into a head kernel's output write or as a standalone node over
/// a copy of its input.
#[derive(Debug, Clone, Copy)]
enum Stage<'a> {
    /// `scale[c]·x + shift[c]` for channel `c`.
    BatchNorm {
        scale: &'a [f32],
        shift: &'a [f32],
    },
    Activation(ActKind),
    /// Snaps each value to the INT8 grid of this scale; scale 0 maps
    /// every value to 0.
    FakeQuant(f32),
    /// Adds the element of `other` at the same position, on the side
    /// the graph put it: `x + other` when the running value is the
    /// `Add`'s first input, `other + x` otherwise.
    Add {
        other: &'a [f32],
        value_first: bool,
    },
}

impl<'a> Stage<'a> {
    /// The stage of elementwise `node` over an output of `shape`, where
    /// `value` is the input it transforms (a standalone node's first
    /// input, a fused tail's chain value) and `other` an `Add`'s other
    /// operand.
    fn of(
        node: &Node,
        value: TensorId,
        weights: &'a [Tensor],
        other: Option<&'a Tensor>,
        shape: &Shape,
    ) -> Result<Self, NnirError> {
        let fail = |msg: String| Err(NnirError::ExecutionFailure(msg));
        match node.op {
            Op::BatchNorm => {
                let Some(c) = shape.dim(1) else {
                    return fail("batchnorm needs a channel dim".into());
                };
                match weights {
                    [scale, shift, ..]
                        if scale.shape().elem_count() == c && shift.shape().elem_count() == c =>
                    {
                        Ok(Stage::BatchNorm {
                            scale: scale.data(),
                            shift: shift.data(),
                        })
                    }
                    _ => fail(format!(
                        "batchnorm {} needs a scale and a shift of {c}",
                        node.name
                    )),
                }
            }
            Op::Activation(kind) => Ok(Stage::Activation(kind)),
            Op::FakeQuant { scale } => Ok(Stage::FakeQuant(scale)),
            Op::Add => match other {
                Some(o) if o.shape() == shape => Ok(Stage::Add {
                    other: o.data(),
                    value_first: node.inputs.first() == Some(&value),
                }),
                _ => fail(format!("element-wise shape mismatch at {}", node.name)),
            },
            _ => fail(format!("{} is not an elementwise op", node.name)),
        }
    }

    /// Applies the stage to `xs`, the run of the output that starts at
    /// flat index `at`, in an output of `plane` elements per channel.
    fn apply(self, xs: &mut [f32], at: usize, plane: usize) {
        match self {
            Stage::BatchNorm { scale, shift } => {
                // One channel's parameters per piece of the run.
                let (mut at, mut rest) = (at, xs);
                while !rest.is_empty() {
                    let take = (plane - at % plane).min(rest.len());
                    let (run, tail) = rest.split_at_mut(take);
                    let c = at / plane % scale.len();
                    let (s, t) = (scale[c], shift[c]);
                    for x in run {
                        *x = batchnorm(*x, s, t);
                    }
                    (at, rest) = (at + take, tail);
                }
            }
            Stage::Activation(kind) => activation(kind, xs),
            Stage::FakeQuant(scale) => {
                if scale == 0.0 {
                    xs.fill(0.0);
                } else {
                    for x in xs {
                        *x = round_i8(*x / scale) * scale;
                    }
                }
            }
            Stage::Add { other, value_first } => {
                let other = &other[at..][..xs.len()];
                if value_first {
                    for (x, &y) in xs.iter_mut().zip(other) {
                        *x += y;
                    }
                } else {
                    // Not `+=`: when both operands are NaN, which payload
                    // survives depends on the order.
                    #[allow(clippy::assign_op_pattern)]
                    for (x, &y) in xs.iter_mut().zip(other) {
                        *x = y + *x;
                    }
                }
            }
        }
    }
}

/// The stages fused into a head kernel's output write, and the output's
/// channel plane, which maps a run of output to its channel.
#[derive(Clone, Copy)]
struct Epilogue<'a> {
    /// One per fused tail, in schedule order (all `Some`).
    stages: &'a [Option<Stage<'a>>],
    plane: usize,
}

impl Epilogue<'_> {
    /// Applies every stage, in order, to `xs`: the output run that
    /// starts at flat index `at`, just written by the kernel.
    fn apply(&self, xs: &mut [f32], at: usize) {
        for stage in self.stages.iter().flatten() {
            stage.apply(xs, at, self.plane);
        }
    }
}

// --------------------------------------------------------------------
// Broadcast multiply and structural helpers
// --------------------------------------------------------------------

fn mul_broadcast_into(a: &Tensor, b: &Tensor, out: &mut Tensor) -> Result<(), NnirError> {
    if a.shape() == b.shape() {
        for ((o, &x), &y) in out.data_mut().iter_mut().zip(a.data()).zip(b.data()) {
            *o = x * y;
        }
        return Ok(());
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
/// and the INT8 kernels.
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

    /// Rows and columns of a zero-padded input plane.
    fn padded(self) -> (usize, usize) {
        (self.h + 2 * self.ph, self.w + 2 * self.pw)
    }

    /// Whether the conv is 1×1, stride 1 and unpadded: the patch row of
    /// an output pixel is then its column across the input planes.
    fn pointwise(self) -> bool {
        (self.kh, self.kw, self.sh, self.sw, self.ph, self.pw) == (1, 1, 1, 1, 0, 0)
    }
}

/// Stages a dense conv's input for both precisions: `taps` gets each
/// patch position's offset from its output pixel's first input value,
/// in (ic, ky, kx) order, within the returned planes — `in_place` when
/// given and the conv is unpadded, else `planes`, `f` of each value of
/// the `n` NCHW items of `input` inside a border of `T::default()`
/// (`+0.0` in f32, the zero code in INT8). No tap asks whether it lands
/// in the input.
fn stage_planes<'a, T: Copy + Default>(
    input: &[f32],
    in_place: Option<&'a [T]>,
    g: ConvGeom,
    n: usize,
    f: impl Fn(f32) -> T,
    planes: &'a mut Vec<T>,
    taps: &mut Vec<usize>,
) -> &'a [T] {
    let (hp, wp) = g.padded();
    taps.clear();
    for ic in 0..g.in_c {
        for ky in 0..g.kh {
            taps.extend((0..g.kw).map(|kx| (ic * hp + ky) * wp + kx));
        }
    }
    if let Some(input) = in_place.filter(|_| (g.ph, g.pw) == (0, 0)) {
        return input;
    }
    planes.clear();
    planes.resize(n * g.in_c * hp * wp, T::default());
    for (p, plane) in planes.chunks_exact_mut(hp * wp).enumerate() {
        for y in 0..g.h {
            let src = &input[(p * g.h + y) * g.w..][..g.w];
            let row = &mut plane[(y + g.ph) * wp + g.pw..][..g.w];
            for (d, &x) in row.iter_mut().zip(src) {
                *d = f(x);
            }
        }
    }
    planes
}

/// Fills `col` with the patch rows of output pixels `p0, p0 + 1, …` (as
/// many as it holds, `row_len` values each) from one batch item's
/// staged `planes`, in either precision: pixel by pixel, each value
/// its tap's offset in [`stage_planes`]' list names. A row's padding
/// past K is left as it is: the f32 GEMM fills it with `-0.0` once per
/// conv, and the INT8 GEMM's meets zero weight codes, whatever it holds.
fn gather_patches<T: Copy>(
    planes: &[T],
    g: ConvGeom,
    p0: usize,
    taps: &[usize],
    col: &mut [T],
    row_len: usize,
) {
    let (_, wp) = g.padded();
    for (j, row) in col.chunks_exact_mut(row_len).enumerate() {
        let (oy, ox) = ((p0 + j) / g.ow, (p0 + j) % g.ow);
        let src = &planes[oy * g.sh * wp + ox * g.sw..];
        for (d, &o) in row.iter_mut().zip(taps) {
            *d = src[o];
        }
    }
}

/// One GEMM unit: `dst[r·pb + p] = bias[r] + dot4(w_r, x_p)` for the
/// (at most four) kernel rows `w_r` of `w` and the `pb` patch rows `x_p`
/// of `col`, all `row_len` long, a multiple of 4: [`dot4_tile`] over
/// pixel pairs and [`dot4_col`] over an odd last pixel (every pixel of
/// a one-pixel conv). A unit of fewer than four rows (the last
/// `out_c % 4`) repeats its last row into the spare ones and drops
/// their outputs; each output is a function of its own row, so the
/// repeats change no bit.
fn gemm_rows(row_len: usize, w: &[f32], col: &[f32], bias: Option<&[f32]>, dst: &mut [f32]) {
    let rows = w.len() / row_len;
    let pb = dst.len() / rows;
    let row = |r: usize| r.min(rows - 1);
    let wr: [&[f32]; 4] = std::array::from_fn(|r| &w[row(r) * row_len..][..row_len]);
    let b = std::array::from_fn(|r| bias.map_or(0.0, |b| b[row(r)]));
    for (j, x) in col[..pb * row_len].chunks_exact(2 * row_len).enumerate() {
        let (x0, x1) = x.split_at(row_len);
        for (r, [t0, t1]) in dot4_tile(wr, x0, x1, b).into_iter().take(rows).enumerate() {
            dst[r * pb + 2 * j] = t0;
            dst[r * pb + 2 * j + 1] = t1;
        }
    }
    if pb % 2 == 1 {
        let x = &col[(pb - 1) * row_len..][..row_len];
        for (r, t) in dot4_col(wr, x, b).into_iter().take(rows).enumerate() {
            dst[r * pb + pb - 1] = t;
        }
    }
}

/// Convolution with groups, stride and symmetric padding.
///
/// Dense (`groups == 1`) f32 convolutions read their input through
/// [`stage_planes`]' tap list: a stride-1 conv of at most
/// [`DIRECT_MAX_K`] taps over output rows of at least eight pixels
/// ([`lane_run`]) runs the lane kernel ([`lane_rows`]), every other one
/// pixel-blocked im2col ([`gather_patches`]) and a GEMM over units of
/// four out-channel rows ([`gemm_rows`], register-tiled by
/// [`dot4_tile`]). A node with an INT8 plan runs the INT8 kernels
/// ([`conv2d_int8`]); grouped and depthwise ones take the
/// channel-blocked [`conv2d_grouped`]. Each f32 output
/// scalar is a fixed-association reduction over the patch and each
/// INT8 one an exact integer sum, so results are independent of
/// threading, blocking and batch size.
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
    let (icg, _, oh, ow) = conv2d_geometry(attrs, in_c, h, w)?;

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

    debug_assert!(ctx.pool.is_some() || out.shape().elem_count() == n * out_c * oh * ow);
    let opix = oh * ow;
    let in_data = input.data();
    let k_data = kernel.data();
    let bias_data = bias.map(Tensor::data);

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
    if attrs.groups == 1 {
        if let Some(plan) = ctx.int8 {
            return conv2d_int8(input, plan, bias_data, out, ctx, geom);
        }
        let (k_len, epi) = (geom.k_len(), ctx.epi);
        let out_data = out.data_mut();
        if k_len == 0 {
            // No input channel: every output is its bias plus an empty
            // reduction, which sums to 0.0.
            for (u, dst) in out_data.chunks_exact_mut(opix).enumerate() {
                dst.fill(bias_data.map_or(0.0, |b| b[u % out_c]) + 0.0);
                epi.apply(dst, u * opix);
            }
            return Ok(());
        }
        let s = &mut *ctx.scratch;
        let (pad, taps) = (&mut s.pad, &mut s.taps);
        let src = stage_planes(in_data, Some(in_data), geom, n, |x| x, pad, taps);
        let (col, taps, (hp, wp)) = (&mut s.col, taps.as_slice(), geom.padded());
        let item = in_c * hp * wp;
        let outs = out_data.chunks_exact_mut((out_c * opix).max(1));
        if let Some(len) = lane_run(geom) {
            // Output rows in strips whose runs fit the block budget. Each
            // tap's window is copied once per output row, for every output
            // channel (an unpadded 1×1 conv's runs are its input planes);
            // workers split the output planes, whose strip rows take the
            // fused stages right after they are written.
            let rows = opix / len;
            let strip = (COL_BLOCK_ELEMS / (k_len * len)).clamp(1, rows);
            col.resize(
                if geom.pointwise() {
                    0
                } else {
                    strip * k_len * len
                },
                0.0,
            );
            for (bi, out) in outs.enumerate() {
                let planes = &src[bi * item..][..item];
                for r0 in (0..rows).step_by(strip) {
                    let nr = strip.min(rows - r0);
                    let runs: &[f32] = if geom.pointwise() {
                        planes
                    } else {
                        let runs = &mut col[..nr * k_len * len];
                        for (r, row) in runs.chunks_exact_mut(k_len * len).enumerate() {
                            let src = &planes[(r0 + r) * wp..];
                            for (run, &o) in row.chunks_exact_mut(len).zip(taps) {
                                run.copy_from_slice(&src[o..][..len]);
                            }
                        }
                        runs
                    };
                    let work = out_c * nr * len * k_len;
                    par_chunks(par.workers_for(work), out, opix, |oc, plane| {
                        let dst = &mut plane[r0 * len..][..nr * len];
                        let w = &k_data[oc * k_len..][..k_len];
                        lane_rows(w, runs, len, bias_data.map_or(0.0, |b| b[oc]), dst);
                        epi.apply(dst, (bi * out_c + oc) * opix + r0 * len);
                    });
                }
            }
            return Ok(());
        }

        // im2col: one patch row per output pixel, in cache-sized blocks
        // of pixels. A K that is not a multiple of 4 pads each patch row
        // with -0.0 and each weight row with +0.0: a padded lane gains
        // -0.0, which leaves every sum's bits as `dot4`'s tail does.
        let row_len = k_len.next_multiple_of(4);
        let k_rows: &[f32] = if row_len == k_len {
            k_data
        } else {
            let wpad = &mut s.wpad;
            wpad.clear();
            for row in k_data.chunks_exact(k_len) {
                wpad.extend(row.iter().copied().chain([0.0; 3]).take(row_len));
            }
            wpad
        };
        let block_pix = (COL_BLOCK_ELEMS / row_len).clamp(1, opix);
        if row_len > k_len {
            col.clear();
        }
        col.resize(block_pix * row_len, -0.0);
        s.outb.resize(out_c * block_pix, 0.0);
        for (bi, out) in outs.enumerate() {
            let planes = &src[bi * item..][..item];
            for p0 in (0..opix).step_by(block_pix) {
                let pb = block_pix.min(opix - p0);
                // Filling a block is one worker's job: it holds under
                // PAR_MIN_WORK elements, or a single patch row.
                let colb = &mut col[..pb * row_len];
                gather_patches(planes, geom, p0, taps, colb, row_len);
                let colb: &[f32] = colb;
                // GEMM: four out-channel rows of `pb` pixels per unit,
                // over the cache-resident patch block.
                let workers = par.workers_for(out_c * pb * k_len);
                let tile = &mut s.outb[..out_c * pb];
                par_chunks(workers, tile, 4 * pb, |u, dst| {
                    let rows = 4 * u..4 * u + dst.len() / pb;
                    let w = &k_rows[rows.start * row_len..rows.end * row_len];
                    gemm_rows(row_len, w, colb, bias_data.map(|b| &b[rows]), dst);
                });
                // Each row lands in its output plane and takes the
                // fused stages while it is still in cache.
                for (oc, row) in tile.chunks_exact(pb).enumerate() {
                    let dst = &mut out[oc * opix + p0..][..pb];
                    dst.copy_from_slice(row);
                    epi.apply(dst, (bi * out_c + oc) * opix + p0);
                }
            }
        }
        return Ok(());
    }

    conv2d_grouped(
        in_data,
        k_data,
        bias_data,
        out.data_mut(),
        ctx,
        geom,
        attrs.groups,
    );
    Ok(())
}

/// Output channels a grouped convolution computes at once, one per f32
/// lane: four 4-lane registers of accumulators.
const LANES: usize = 16;

/// Grouped and depthwise convolution, channel-blocked.
///
/// `LANES` output channels run side by side: their input planes are
/// interleaved so that one input pixel of all of them is one contiguous
/// `[f32; LANES]`, and so is one tap of their kernels. Each output then
/// starts at its bias and adds `x·w` over its valid taps in ascending
/// (ic, ky, kx) order — the order of a plain per-output loop, so every
/// bit is that loop's — with the lanes as `LANES` independent add
/// chains. Output rows go in strips whose interleaved input rows fit a
/// cache budget, so scratch does not grow with the plane. Blocks of
/// channels are split over the workers; the spare lanes of a short last
/// block repeat its last channel's input against zero weights and are
/// dropped.
///
/// The fused stages run where they cost least per element: the leading
/// BatchNorms and activations on a row's accumulator lanes (a BatchNorm
/// with its scale and shift packed as lanes too), the rest on each row
/// once it is scattered into its channel plane.
fn conv2d_grouped(
    input: &[f32],
    kernel: &[f32],
    bias: Option<&[f32]>,
    out: &mut [f32],
    ctx: &mut KernelCtx<'_>,
    g: ConvGeom,
    groups: usize,
) {
    let (icg, ocg) = (g.in_c / groups, g.out_c / groups);
    let (oh, taps) = (g.opix / g.ow, g.kh * g.kw);
    // Input rows per strip within the budget (at least one kernel's
    // worth), and the output rows they cover.
    let budget_rows = (4 * COL_BLOCK_ELEMS / (icg * g.w * LANES).max(1)).max(g.kh);
    let strip = ((budget_rows - g.kh) / g.sh + 1).min(oh);
    let strip_rows = (strip - 1) * g.sh + g.kh;
    let epi = ctx.epi;
    let on_lanes = epi
        .stages
        .iter()
        .take_while(|s| matches!(s, Some(Stage::BatchNorm { .. } | Stage::Activation(_))))
        .count();
    let (on_lanes, on_rows) = epi.stages.split_at(on_lanes);
    let on_rows = Epilogue {
        stages: on_rows,
        plane: epi.plane,
    };
    let lane_bns = || {
        on_lanes.iter().filter_map(|s| match s {
            Some(Stage::BatchNorm { scale, shift }) => Some((*scale, *shift)),
            _ => None,
        })
    };

    // Per block: the bias lanes, the kernel lanes in (ic, ky, kx)
    // order, then the scale and shift lanes of each BatchNorm run on
    // the lanes.
    let Scratch { col, outb, .. } = ctx.scratch;
    let conv_lanes = 1 + icg * taps;
    let per_block = conv_lanes + 2 * lane_bns().count();
    outb.clear();
    outb.resize(g.out_c.div_ceil(LANES) * per_block * LANES, 0.0);
    let (packed, _) = outb.as_chunks_mut::<LANES>();
    for oc in 0..g.out_c {
        let (block, lane) = (oc / LANES, oc % LANES);
        let (dst, bn) = packed[block * per_block..][..per_block].split_at_mut(conv_lanes);
        dst[0][lane] = bias.map_or(0.0, |b| b[oc]);
        for (d, &v) in dst[1..]
            .iter_mut()
            .zip(&kernel[oc * icg * taps..][..icg * taps])
        {
            d[lane] = v;
        }
        for (st, (scale, shift)) in bn.chunks_exact_mut(2).zip(lane_bns()) {
            st[0][lane] = scale[oc];
            st[1][lane] = shift[oc];
        }
    }
    let packed: &[[f32; LANES]] = packed;

    // Per worker: each input channel's interleaved strip, then a row of
    // outputs.
    let pitch = strip_rows * g.w;
    let part = (icg * pitch + g.ow) * LANES;
    let workers = ctx.par.workers_for(g.out_c * g.opix * icg * taps);
    col.resize(workers * part, 0.0);
    let plane = g.h * g.w;
    for (bi, out) in out.chunks_exact_mut((g.out_c * g.opix).max(1)).enumerate() {
        let planes = &input[bi * g.in_c * plane..][..g.in_c * plane];
        par_chunks_with(workers, out, LANES * g.opix, col, |block, dst, part| {
            let (part, _) = part.as_chunks_mut::<LANES>();
            let (xi, orow) = part.split_at_mut(icg * pitch);
            let orow = &mut orow[..g.ow];
            let (packed, bn) = packed[block * per_block..][..per_block].split_at(conv_lanes);
            let lanes = dst.len() / g.opix;
            for oy0 in (0..oh).step_by(strip) {
                let oys = oy0..(oy0 + strip).min(oh);
                // Input rows iy0..iy1 feed this strip: interleave them,
                // one pixel of all the block's channels at a time.
                let iy1 = ((oys.end - 1) * g.sh + g.kh).saturating_sub(g.ph).min(g.h);
                let iy0 = (oy0 * g.sh).saturating_sub(g.ph).min(iy1);
                let rows = (iy1 - iy0) * g.w;
                for (ic, xs) in xi.chunks_exact_mut(pitch.max(1)).enumerate() {
                    let src: [&[f32]; LANES] = std::array::from_fn(|lane| {
                        let c = (block * LANES + lane.min(lanes - 1)) / ocg * icg + ic;
                        &planes[c * plane + iy0 * g.w..][..rows]
                    });
                    for (p, d) in xs[..rows].iter_mut().enumerate() {
                        *d = std::array::from_fn(|lane| src[lane][p]);
                    }
                }
                for oy in oys {
                    grouped_row(g, packed, xi, pitch, oy, iy0, orow);
                    let mut bn = bn.chunks_exact(2);
                    for stage in on_lanes.iter().flatten() {
                        if let Stage::Activation(kind) = stage {
                            activation(*kind, orow.as_flattened_mut());
                        } else if let Some([s, t]) = bn.next() {
                            for o in orow.iter_mut() {
                                for l in 0..LANES {
                                    o[l] = batchnorm(o[l], s[l], t[l]);
                                }
                            }
                        }
                    }
                    for (lane, plane) in dst.chunks_exact_mut(g.opix).enumerate() {
                        let row = &mut plane[oy * g.ow..][..g.ow];
                        for (d, a) in row.iter_mut().zip(&*orow) {
                            *d = a[lane];
                        }
                        let channel = bi * g.out_c + block * LANES + lane;
                        on_rows.apply(row, channel * g.opix + oy * g.ow);
                    }
                }
            }
        });
    }
}

/// Output row `oy` of one block of [`conv2d_grouped`] into `orow`.
/// `packed` is the block's bias lanes followed by its kernel taps per
/// input channel; `xi` holds, every `pitch` pixels, an input channel's
/// interleaved strip rows from row `iy0` on. Each column starts at the
/// bias and adds `x·w` over the taps that land inside the input, in
/// (ic, ky, kx) order.
fn grouped_row(
    g: ConvGeom,
    packed: &[[f32; LANES]],
    xi: &[[f32; LANES]],
    pitch: usize,
    oy: usize,
    iy0: usize,
    orow: &mut [[f32; LANES]],
) {
    let (bias, k) = (packed[0], &packed[1..]);
    let ky0 = g.ph.saturating_sub(oy * g.sh);
    let ky1 = g.kh.min((g.h + g.ph).saturating_sub(oy * g.sh));
    for (ox, o) in orow.iter_mut().enumerate() {
        let kx0 = g.pw.saturating_sub(ox * g.sw);
        let kx1 = g.kw.min((g.w + g.pw).saturating_sub(ox * g.sw));
        let mut acc = bias;
        if kx0 < kx1 {
            let ix0 = ox * g.sw + kx0 - g.pw;
            for (ic, ks) in k.chunks_exact(g.kh * g.kw).enumerate() {
                for ky in ky0..ky1 {
                    let xs = &xi[ic * pitch + (oy * g.sh + ky - g.ph - iy0) * g.w + ix0..];
                    for (x, w) in xs.iter().zip(&ks[ky * g.kw..][kx0..kx1]) {
                        for l in 0..LANES {
                            acc[l] += x[l] * w[l];
                        }
                    }
                }
            }
        }
        *o = acc;
    }
}

/// Dense-conv INT8 kernels: the step they share, then the kernel the
/// plan chose at build (see [`int8_plans`]).
///
/// [`stage_planes`] quantizes each input plane once into a zero-padded
/// i16 code plane (exact, since a `FakeQuant` producer pinned the
/// activations to the grid) and lists each patch position's offset in
/// those planes once, in the kernel's (ic, ky, kx) order, as it does for
/// the f32 convs. Both kernels sum exact
/// integer products, so every output is the same i32 whichever runs,
/// and each is dequantized with one multiply, `bias + acc · (w_scale[oc]
/// · in_scale)`, before the fused stages run on it. A folded max-pool
/// (`ctx.pool`) takes each plane of accumulators first
/// ([`pool_plane`], border `i32::MIN`), so the dequantization and the
/// stages run on the pooled values only; the fold's rule makes that
/// exact (DESIGN.md §10).
fn conv2d_int8(
    input: &Tensor,
    plan: &Int8Plan<'_>,
    bias_data: Option<&[f32]>,
    out: &mut Tensor,
    ctx: &mut KernelCtx<'_>,
    g: ConvGeom,
) -> Result<(), NnirError> {
    plan.check(g.out_c, g.k_len(), "conv")?;
    let pool = ctx
        .pool
        .map(|a| PoolGeom::new(a, g.opix / g.ow, g.ow))
        .transpose()?;
    let unit = pool.map_or(g.opix, PoolGeom::opix);
    debug_assert_eq!(
        out.shape().elem_count(),
        input.shape().batch() * g.out_c * unit
    );
    let (inv, n) = (1.0 / plan.in_scale, input.shape().batch());
    let Scratch { qin, taps, .. } = ctx.scratch;
    let q = |x| quantize_activation(x, inv);
    stage_planes(input.data(), None, g, n, q, qin, taps);
    if plan.direct {
        conv2d_int8_direct(plan, bias_data, out.data_mut(), ctx, g, pool);
    } else {
        conv2d_int8_gemm(plan, bias_data, out.data_mut(), ctx, g, pool);
    }
    Ok(())
}

/// Dequantizes a run of i32 accumulators of output channel `oc` into
/// `dst`: `bias + acc · (w_scale · in_scale)`, the one spelling of it
/// the INT8 conv kernels share.
fn dequantize(dst: &mut [f32], acc: &[i32], plan: &Int8Plan<'_>, bias: Option<&[f32]>, oc: usize) {
    let b0 = bias.map_or(0.0, |b| b[oc]);
    let dq = plan.scales[oc] * plan.in_scale;
    for (o, &a) in dst.iter_mut().zip(acc) {
        *o = b0 + a as f32 * dq;
    }
}

/// The INT8 GEMM over 16-code chunks.
///
/// Output pixels go in blocks whose patch rows fit a cache budget:
/// [`gather_patches`] copies each pixel's patch from the code planes
/// into a row of the plan's padded length, and [`dot_codes`] reduces every
/// packed weight row against every patch row into i32. A patch row's
/// tail past K is never cleared: whatever it holds meets the zero codes
/// that pad each weight row and adds 0, and integer sums are exact, so
/// neither the padding nor the chunk order changes a bit. Each row is
/// dequantized into its output plane, where the fused stages run on it;
/// under a folded pool, each block's rows land in whole accumulator
/// planes instead (pooling windows cross block seams), and each plane
/// is pooled, then dequantized, once the batch item's last block is in.
/// Units of four weight rows split over the workers, as in the f32
/// GEMM.
fn conv2d_int8_gemm(
    plan: &Int8Plan<'_>,
    bias_data: Option<&[f32]>,
    out: &mut [f32],
    ctx: &mut KernelCtx<'_>,
    g: ConvGeom,
    pool: Option<PoolGeom>,
) {
    let Scratch {
        qin,
        taps,
        qcol,
        acc,
        ..
    } = ctx.scratch;
    let plane = g.padded().0 * g.padded().1;
    // As many pixels per block as fit the f32 block's bytes.
    let row_len = plan.row_len;
    let block_pix = (2 * COL_BLOCK_ELEMS / row_len).clamp(1, g.opix);
    qcol.resize(block_pix * row_len, 0);
    // The block's tile, then for a folded pool the accumulator planes,
    // the padded plane and the pooled plane.
    let (planes, pad, pooled) =
        pool.map_or((0, 0, 0), |p| (g.out_c * g.opix, p.pad_len(), p.opix()));
    acc.resize(g.out_c * block_pix + planes + pad + pooled, 0);
    let (tile_buf, rest) = acc.split_at_mut(g.out_c * block_pix);
    let (planes, rest) = rest.split_at_mut(planes);
    let (pad, pooled) = rest.split_at_mut(pad);
    pad.fill(i32::MIN);
    let unit = pool.map_or(g.opix, PoolGeom::opix);
    for bi in 0..out.len() / (g.out_c * unit).max(1) {
        let codes = &qin[bi * g.in_c * plane..][..g.in_c * plane];
        for p0 in (0..g.opix).step_by(block_pix) {
            let pb = block_pix.min(g.opix - p0);
            gather_patches(codes, g, p0, taps, &mut qcol[..pb * row_len], row_len);
            let (col, _) = qcol[..pb * row_len].as_chunks();
            let tile = &mut tile_buf[..g.out_c * pb];
            par_chunks(
                ctx.par.workers_for(g.out_c * pb * row_len),
                tile,
                4 * pb,
                |u, dst| {
                    for (r, row) in dst.chunks_exact_mut(pb).enumerate() {
                        let w = plan.row(4 * u + r);
                        for (a, x) in row.iter_mut().zip(col.chunks_exact(w.len())) {
                            *a = dot_codes(w, x);
                        }
                    }
                },
            );
            for (oc, row) in tile.chunks_exact(pb).enumerate() {
                if pool.is_some() {
                    planes[oc * g.opix + p0..][..pb].copy_from_slice(row);
                } else {
                    let at = (bi * g.out_c + oc) * g.opix + p0;
                    let dst = &mut out[at..][..pb];
                    dequantize(dst, row, plan, bias_data, oc);
                    ctx.epi.apply(dst, at);
                }
            }
        }
        if let Some(p) = pool {
            for (oc, accs) in planes.chunks_exact(g.opix).enumerate() {
                pool_plane(accs, g.ow, p, pad, i32::MIN, i32::max, pooled);
                let at = (bi * g.out_c + oc) * unit;
                let dst = &mut out[at..][..unit];
                dequantize(dst, pooled, plan, bias_data, oc);
                ctx.epi.apply(dst, at);
            }
        }
    }
}

/// The direct INT8 conv, for the stride-1 convs with short patch rows
/// that [`int8_plans`] selects it for. Per output plane, each pair of
/// taps multiplies two weight codes by two runs of the code planes,
/// summed in i16 — exact, since two products stay within `2·128·127 =
/// 32512` — and added into an i32 accumulator run, one widening per
/// pair. The run spans the whole output plane at the padded row pitch;
/// the `kw − 1` accumulators past each output row are computed and
/// dropped (a folded pool reads the run in place at that pitch). Output
/// planes split over the workers, each with its own run, and its own
/// padded and pooled planes under a folded pool.
fn conv2d_int8_direct(
    plan: &Int8Plan<'_>,
    bias_data: Option<&[f32]>,
    out: &mut [f32],
    ctx: &mut KernelCtx<'_>,
    g: ConvGeom,
    pool: Option<PoolGeom>,
) {
    let Scratch { qin, taps, acc, .. } = ctx.scratch;
    // Taps go in pairs: an odd K's last tap pairs with the zero code
    // padding its weight row.
    if taps.len() % 2 == 1 {
        taps.push(0);
    }
    let (taps, epi) = (taps.as_slice(), ctx.epi);
    let (hp, wp) = g.padded();
    let (plane, oh) = (hp * wp, g.opix / g.ow);
    let run_len = (oh - 1) * wp + g.ow;
    let (pad, unit) = pool.map_or((0, g.opix), |p| (p.pad_len(), p.opix()));
    // Per worker: the run, whole rows long so a pool's windows can read
    // it at its pitch, then a folded pool's padded and pooled planes.
    let part = oh * wp + pool.map_or(0, |_| pad + unit);
    let workers = ctx.par.workers_for(out.len() / unit * g.opix * taps.len());
    acc.resize(workers * part, 0);
    for part in acc.chunks_exact_mut(part) {
        part[oh * wp..][..pad].fill(i32::MIN);
    }
    par_chunks_with(workers, out, unit, acc, |u, dst, part| {
        let (bi, oc) = (u / g.out_c, u % g.out_c);
        let codes = &qin[bi * g.in_c * plane..][..g.in_c * plane];
        let (run, rest) = part.split_at_mut(oh * wp);
        let sums = &mut run[..run_len];
        sums.fill(0);
        let krow = &plan.codes[oc * plan.row_len..][..taps.len()];
        for (w, t) in krow.chunks_exact(2).zip(taps.chunks_exact(2)) {
            let (s0, s1) = (&codes[t[0]..], &codes[t[1]..]);
            for ((a, &x0), &x1) in sums.iter_mut().zip(s0).zip(s1) {
                *a += i32::from(w[0] * x0 + w[1] * x1);
            }
        }
        match pool {
            Some(p) => {
                let (pad, pooled) = rest.split_at_mut(pad);
                pool_plane(run, wp, p, pad, i32::MIN, i32::max, &mut pooled[..unit]);
                dequantize(dst, pooled, plan, bias_data, oc);
            }
            None => {
                for (row, a) in dst.chunks_exact_mut(g.ow).zip(run.chunks(wp)) {
                    dequantize(row, a, plan, bias_data, oc);
                }
            }
        }
        epi.apply(dst, u * unit);
    });
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
    let epi = ctx.epi;
    let work = n * out_f * in_f;
    let workers = par.workers_for(work);
    // One unit per batch row of the output; a solo row is further split
    // into feature blocks of whole four-row tiles so single-sample
    // heads still use every worker. (The old schedule made one unit per
    // output *scalar* — chunk size 1 — which defeated vectorization of
    // the inner dot and paid scheduling overhead per scalar.) Chunking
    // never affects bits: each output scalar is one dot4 of the same
    // operands.
    let chunk = if n == 1 {
        out_f.div_ceil(workers * 4).next_multiple_of(4)
    } else {
        out_f
    };

    if let Some(plan) = ctx.int8 {
        // The GEMM with one patch row per sample: each input row is
        // quantized into a row of the plan's padded length, whose zero
        // tail meets the zero codes padding the weight rows.
        plan.check(out_f, in_f, "dense")?;
        let (inv, row_len) = (1.0 / plan.in_scale, plan.row_len);
        let qin = &mut ctx.scratch.qin;
        qin.clear();
        qin.resize(n * row_len, 0);
        for (dst, src) in qin
            .chunks_exact_mut(row_len)
            .zip(in_data.chunks_exact(in_f.max(1)))
        {
            for (d, &x) in dst.iter_mut().zip(src) {
                *d = quantize_activation(x, inv);
            }
        }
        let qin: &[i16] = qin;
        par_chunks(workers, out.data_mut(), chunk, |u, dst| {
            let base = u * chunk;
            let bi = base / out_f;
            let of0 = base % out_f;
            let (x, _) = qin[bi * row_len..][..row_len].as_chunks();
            for (i, o) in dst.iter_mut().enumerate() {
                let of = of0 + i;
                let b0 = bias_data.map_or(0.0, |b| b[of]);
                let acc = dot_codes(plan.row(of), x);
                *o = b0 + acc as f32 * (plan.scales[of] * plan.in_scale);
            }
            epi.apply(dst, base);
        });
        return Ok(());
    }

    par_chunks(workers, out.data_mut(), chunk, |u, dst| {
        let base = u * chunk;
        let bi = base / out_f;
        let of0 = base % out_f;
        let x = &in_data[bi * in_f..][..in_f];
        // Four weight rows per matrix-vector tile; a last tile of fewer
        // (`out_f % 4`) repeats its last row and drops the spare outputs.
        for (t, d) in dst.chunks_mut(4).enumerate() {
            let row = |r: usize| of0 + 4 * t + r.min(d.len() - 1);
            let w = std::array::from_fn(|r| &w_data[row(r) * in_f..][..in_f]);
            let b = std::array::from_fn(|r| bias_data.map_or(0.0, |b| b[row(r)]));
            d.copy_from_slice(&dot4_col(w, x, b)[..d.len()]);
        }
        epi.apply(dst, base);
    });
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

/// A pool's windows over planes of `h × w` values: the geometry
/// [`pool_plane`] runs, for a pool node and for the max-pool an INT8
/// conv folds.
#[derive(Clone, Copy)]
struct PoolGeom {
    h: usize,
    w: usize,
    kh: usize,
    kw: usize,
    sh: usize,
    sw: usize,
    ph: usize,
    pw: usize,
    oh: usize,
    ow: usize,
}

impl PoolGeom {
    /// The windows of `a` over an `h × w` plane.
    fn new(a: &Pool2dAttrs, h: usize, w: usize) -> Result<Self, NnirError> {
        let ((kh, kw), (sh, sw), (ph, pw)) = (a.kernel, a.stride, a.padding);
        if sh == 0 || sw == 0 || kh == 0 || kw == 0 {
            return Err(NnirError::ExecutionFailure(format!(
                "pool2d requires non-zero stride and kernel (stride {sh}x{sw}, kernel {kh}x{kw})"
            )));
        }
        let (hp, wp) = (h + 2 * ph, w + 2 * pw);
        if hp < kh || wp < kw {
            return Err(NnirError::ExecutionFailure(format!(
                "pool2d kernel {kh}x{kw} exceeds padded input {hp}x{wp}"
            )));
        }
        Ok(PoolGeom {
            h,
            w,
            kh,
            kw,
            sh,
            sw,
            ph,
            pw,
            oh: (hp - kh) / sh + 1,
            ow: (wp - kw) / sw + 1,
        })
    }

    /// Output values per plane.
    fn opix(self) -> usize {
        self.oh * self.ow
    }

    /// Values of the padded plane [`pool_plane`] copies a plane into;
    /// none for an unpadded pool, which reads its input in place.
    fn pad_len(self) -> usize {
        if self.ph > 0 || self.pw > 0 {
            (self.h + 2 * self.ph) * (self.w + 2 * self.pw)
        } else {
            0
        }
    }
}

/// Max and average pooling, one output plane at a time ([`pool_plane`]).
///
/// A padded plane's border holds a value no accumulator changes on —
/// `-∞` for max, `-0.0` for the average's sum (`x + -0.0` is `x` for
/// every `x`, zeros and NaNs included). Each output row goes a group of
/// outputs at a time ([`pool_row`]): the group's lanes start where a
/// per-output loop starts (`-∞`, or `0.0` for the sum) and take the
/// taps in (ky, kx) order, each tap applied lane-wise. A padded tap
/// leaves its lane unchanged, so every output combines its valid taps
/// in the order of a per-output loop over them, and every bit is that
/// loop's. Average pooling then divides each sum by its output's count
/// of valid taps: padding is excluded from the divisor (ONNX
/// `count_include_pad = 0`), and an output with none is `0.0`. The
/// fused stages run on each finished output plane: per row, their
/// per-call cost outweighed the work on LeNet-5's 14- and 5-wide rows.
/// Planes are split over the workers, each with a padded plane of its
/// own.
fn pool2d_into(
    input: &Tensor,
    attrs: &Pool2dAttrs,
    mode: PoolMode,
    out: &mut Tensor,
    ctx: &mut KernelCtx<'_>,
) -> Result<(), NnirError> {
    let [n, c, h, w] = dims4(input.shape())?;
    let g = PoolGeom::new(attrs, h, w)?;
    let opix = g.opix();
    debug_assert_eq!(out.shape().elem_count(), n * c * opix);
    // What a padded tap reads: a value that leaves every accumulator
    // unchanged.
    let border = match mode {
        PoolMode::Max => f32::NEG_INFINITY,
        PoolMode::Avg => -0.0,
    };
    let workers = ctx.par.workers_for(n * c * opix * g.kh * g.kw);
    let pads = &mut ctx.scratch.col;
    pads.clear();
    pads.resize(workers * g.pad_len(), border);
    let in_data = input.data();
    let epi = ctx.epi;
    par_chunks_with(workers, out.data_mut(), opix, pads, |u, dst, pad| {
        let plane = &in_data[u * h * w..][..h * w];
        match mode {
            PoolMode::Max => pool_plane(plane, w, g, pad, f32::NEG_INFINITY, max_tap, dst),
            PoolMode::Avg => {
                pool_plane(plane, w, g, pad, 0.0, |a, x| a + x, dst);
                for (oy, row) in dst.chunks_exact_mut(g.ow).enumerate() {
                    // The valid taps: kernel rows and columns inside the
                    // input.
                    let ky = g.ph.saturating_sub(oy * g.sh)
                        ..g.kh.min((h + g.ph).saturating_sub(oy * g.sh));
                    for (ox, o) in row.iter_mut().enumerate() {
                        let kx = g.pw.saturating_sub(ox * g.sw)
                            ..g.kw.min((w + g.pw).saturating_sub(ox * g.sw));
                        let count = ky.len() * kx.len();
                        *o = if count > 0 { *o / count as f32 } else { 0.0 };
                    }
                }
            }
        }
        epi.apply(dst, u * opix);
    });
    Ok(())
}

/// `acc.max(x)` for an `acc` that is never NaN (it starts at `-∞` and
/// takes only non-NaN values), with a `±0` tie kept at `acc`: the
/// compare-and-select x86's `maxps` performs. `f32::max` leaves that
/// tie unspecified, and its NaN-safe lowering keeps [`pool_taps`]'s
/// lanes from vectorizing.
#[inline]
fn max_tap(acc: f32, x: f32) -> f32 {
    if x > acc {
        x
    } else {
        acc
    }
}

/// Pools one plane into `dst`, `g.oh` rows of `g.ow` outputs: `src`
/// holds the plane's `g.h` rows, `pitch` values apart. A padded pool
/// first copies the plane into `pad`, whose border the caller filled
/// with a value no accumulator changes on, so every tap of every window
/// lands inside it and none needs a bounds check; an unpadded one reads
/// `src` in place. Each output row then goes through [`pool_row`], its
/// lanes starting at `init` and taking the taps with `f`. One kernel
/// for f32 and i32: a pool node's planes, and the i32 accumulators of
/// an INT8 conv that folds a max-pool.
fn pool_plane<T: Copy>(
    src: &[T],
    pitch: usize,
    g: PoolGeom,
    pad: &mut [T],
    init: T,
    f: impl Fn(T, T) -> T + Copy,
    dst: &mut [T],
) {
    let (plane, wp) = if g.pad_len() > 0 {
        let wp = g.w + 2 * g.pw;
        for y in 0..g.h {
            pad[(y + g.ph) * wp + g.pw..][..g.w].copy_from_slice(&src[y * pitch..][..g.w]);
        }
        (&pad[..g.pad_len()], wp)
    } else {
        (src, pitch)
    };
    for (oy, row) in dst.chunks_exact_mut(g.ow).enumerate() {
        let rows = &plane[oy * g.sh * wp..][..g.kh * wp];
        pool_row(row, rows, wp, g.kw, g.sw, init, f);
    }
}

/// One output row of [`pool_plane`]: `rows` holds, every `wp` values,
/// the input rows its windows span. The outputs go in groups of eight,
/// four or one, as the row's width allows; each group's lanes start at
/// `init` and take every tap with `f` ([`pool_taps`]). A last group
/// that would run past the row's end is moved back to end there,
/// recomputing a few outputs to the same bits.
fn pool_row<T: Copy>(
    row: &mut [T],
    rows: &[T],
    wp: usize,
    kw: usize,
    sw: usize,
    init: T,
    f: impl Fn(T, T) -> T + Copy,
) {
    fn groups<T: Copy, const L: usize>(
        row: &mut [T],
        rows: &[T],
        wp: usize,
        kw: usize,
        sw: usize,
        init: T,
        f: impl Fn(T, T) -> T + Copy,
    ) {
        let ow = row.len();
        for ox in (0..ow).step_by(L) {
            let ox = ox.min(ow - L);
            let mut acc = [init; L];
            for src in rows.chunks_exact(wp) {
                pool_taps(&mut acc, &src[ox * sw..], kw, sw, f);
            }
            row[ox..ox + L].copy_from_slice(&acc);
        }
    }
    match row.len() {
        8.. => groups::<T, 8>(row, rows, wp, kw, sw, init, f),
        4.. => groups::<T, 4>(row, rows, wp, kw, sw, init, f),
        _ => groups::<T, 1>(row, rows, wp, kw, sw, init, f),
    }
}

/// Takes the `kw` taps of one input row into a group of outputs: lane
/// `l` combines `xs[l·sw + kx]` for each tap `kx` in order. Stride 2
/// (LeNet-5's and ResNet-50's pools) reads one run of `2L` per pair of
/// taps, the first tap on its even lanes and the second on its odd ones;
/// other strides gather lane by lane.
#[inline]
fn pool_taps<T: Copy, const L: usize>(
    acc: &mut [T; L],
    xs: &[T],
    kw: usize,
    sw: usize,
    f: impl Fn(T, T) -> T,
) {
    match sw {
        2 => {
            let mut kx = 0;
            while kx + 1 < kw {
                let x = &xs[kx..][..2 * L];
                for l in 0..L {
                    acc[l] = f(f(acc[l], x[2 * l]), x[2 * l + 1]);
                }
                kx += 2;
            }
            if kx < kw {
                let x = &xs[kx..][..2 * L - 1];
                for l in 0..L {
                    acc[l] = f(acc[l], x[2 * l]);
                }
            }
        }
        _ => {
            for kx in 0..kw {
                for l in 0..L {
                    acc[l] = f(acc[l], xs[kx + l * sw]);
                }
            }
        }
    }
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

fn concat_channels_into<'v>(
    inputs: impl Iterator<Item = Result<&'v Tensor, NnirError>>,
    out: &mut Tensor,
) -> Result<(), NnirError> {
    let [n, total_c, h, w] = dims4(out.shape())?;
    let plane = h * w;
    let out_data = out.data_mut();
    let mut c_off = 0usize;
    for t in inputs {
        let t = t?;
        let [tn, tc, th, tw] = dims4(t.shape())?;
        if tn != n || th != h || tw != w || c_off + tc > total_c {
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
    if c_off != total_c {
        return Err(NnirError::ExecutionFailure(format!(
            "concat inputs hold {c_off} channels, its output {total_c}"
        )));
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
        let mut scratch = Scratch::default();
        let mut ctx = KernelCtx::f32(&mut scratch, Parallelism::Serial);
        let err = pool2d_into(&input, &attrs, PoolMode::Max, &mut out, &mut ctx);
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
                    let (sa, sb) = (plan.slot_of(TensorId(a)), plan.slot_of(TensorId(b)));
                    if sa.is_some() && sa == sb {
                        assert!(
                            !ranges[a].overlaps(ranges[b]),
                            "{}: tensors t{a} {:?} and t{b} {:?} share slot {sa:?}",
                            g.name(),
                            ranges[a],
                            ranges[b],
                        );
                    }
                }
            }
            // The tensors that own no slot are exactly the inner values
            // of the fused chains: every output of a step but its last.
            let slotless: Vec<usize> = (0..g.tensor_count())
                .filter(|&t| plan.slot_of(TensorId(t)).is_none())
                .collect();
            let mut inner: Vec<usize> = fused_steps(&g, &int8_plans(&g))
                .into_iter()
                .flat_map(|step| &g.nodes()[step.start..step.end - 1])
                .map(|node| node.output.0)
                .collect();
            inner.sort_unstable();
            assert!(!inner.is_empty(), "{}: no chain fused", g.name());
            assert_eq!(slotless, inner, "{}", g.name());
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

    // ---- one-door API: options ----

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
        // length, including tails of 1..3, in both 4-row kernels: the
        // matrix-vector tile pads the tail itself, the GEMM tile gets
        // rows padded as the GEMM pads them (weights with +0.0, inputs
        // with -0.0), and a `-0.0` bias adds nothing to any sum.
        for len in [0usize, 1, 2, 3, 4, 5, 7, 8, 13, 127] {
            let a: Vec<f32> = (0..len).map(|i| (i as f32 * 0.37).sin()).collect();
            let b: Vec<f32> = (0..len).map(|i| (i as f32 * 0.11).cos() - 0.4).collect();
            let mut lanes = [0.0f32; 4];
            for i in 0..len {
                lanes[i % 4] += a[i] * b[i];
            }
            let reference = (lanes[0] + lanes[1]) + (lanes[2] + lanes[3]);
            let col = dot4_col([&a[..]; 4], &b, [-0.0; 4]);
            let padded = |v: &[f32], fill| {
                let mut v = v.to_vec();
                v.resize(len.next_multiple_of(4), fill);
                v
            };
            let (a, b) = (padded(&a, 0.0), padded(&b, -0.0));
            let tile = dot4_tile([&a[..]; 4], &b, &b, [-0.0; 4]);
            for got in col.into_iter().chain(tile.into_iter().flatten()) {
                assert_eq!(got.to_bits(), reference.to_bits(), "len {len}");
            }
        }
    }

    #[test]
    fn dot_i16_is_exact_against_wide_reference() {
        // i32 accumulation never rounds: compare against an i64 sum, on
        // every length up to a few SIMD widths past the tail and on the
        // extreme codes (an i8 weight may be -128, an activation ±127).
        // Each operand is zero-padded to whole chunks, as the plans and
        // patch rows are.
        let a: Vec<i16> = (0..301)
            .map(|i| ((i * 37 + 11) % 256 - 128) as i16)
            .collect();
        let b: Vec<i16> = (0..301)
            .map(|i| ((i * 53 + 7) % 255 - 127) as i16)
            .collect();
        let dot_i16 = |a: &[i16], b: &[i16]| {
            let chunks = |v: &[i16]| {
                let mut p = v.to_vec();
                p.resize(v.len().next_multiple_of(CODE_CHUNK), 0);
                p.as_chunks::<CODE_CHUNK>().0.to_vec()
            };
            dot_codes(&chunks(a), &chunks(b))
        };
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

    /// LeNet-5 with per-channel i8 weights and a `FakeQuant` after its
    /// input and after every node, each on the grid of the absmax it
    /// sees over four calibration inputs (over 127), as the toolchain's
    /// `QuantizeInt8` builds it from vbench's calibration set.
    fn calibrated_int8_lenet() -> Graph {
        let src = crate::zoo::lenet5(10).unwrap();
        let mut absmax = vec![0.0f32; src.tensor_count()];
        let mut runner = Runner::builder().build(&src).unwrap();
        for seed in 1..=4 {
            let x = Tensor::random(Shape::nchw(1, 1, 28, 28), seed, 1.0);
            let opts = RunOptions::new().capture_intermediates(true);
            let out = runner.execute(&[x], opts).unwrap();
            for (m, t) in absmax.iter_mut().zip(out.intermediates().unwrap()) {
                *m = m.max(t.as_ref().map_or(0.0, Tensor::abs_max));
            }
        }
        let mut b = GraphBuilder::new("lenet5-int8");
        let mut ids = vec![TensorId(0); src.tensor_count()];
        let quant = |b: &mut GraphBuilder, name: String, old: TensorId, new: TensorId| {
            let scale = absmax[old.0] / 127.0;
            if scale > 0.0 {
                b.apply(name, Op::FakeQuant { scale }, &[new]).unwrap()
            } else {
                new
            }
        };
        for &t in src.inputs() {
            let x = b.input(src.tensor_shape(t).unwrap().clone());
            ids[t.0] = quant(&mut b, format!("{t}.quant"), t, x);
        }
        for node in src.nodes() {
            let inputs: Vec<TensorId> = node.inputs.iter().map(|t| ids[t.0]).collect();
            let mut weights = src.node_weights(node).unwrap().into_owned();
            if matches!(node.op, Op::Conv2d(_) | Op::Dense { .. }) {
                weights[0].quantize_i8_per_channel();
            }
            let w = WeightInit::Explicit(weights);
            let out = b
                .apply_with_weights(node.name.clone(), node.op.clone(), &inputs, w)
                .unwrap();
            ids[node.output.0] = quant(&mut b, format!("{}.quant", node.name), node.output, out);
        }
        b.finish(src.outputs().iter().map(|t| ids[t.0]).collect())
    }

    #[test]
    fn int8_lenet_folds_both_pools_and_elides_five_quants() {
        let g = calibrated_int8_lenet();
        let runner = Runner::builder().build(&g).unwrap();
        let named = |idx: usize| g.nodes()[idx].name.as_str();
        // Each INT8 conv's step runs through its pool and the pool's
        // FakeQuant; its pre-pool values own no arena slot.
        for head in ["conv1", "conv2"] {
            let step = runner
                .steps
                .iter()
                .find(|s| named(s.start) == head)
                .unwrap();
            let names: Vec<&str> = step.clone().map(named).collect();
            let pool = if head == "conv1" { "pool1" } else { "pool2" };
            assert_eq!(
                names,
                [
                    head,
                    &format!("{head}.quant"),
                    &format!("{head}.act"),
                    &format!("{head}.act.quant"),
                    pool,
                    &format!("{pool}.quant"),
                ]
            );
        }
        assert_eq!(runner.memory_plan().peak_bytes(), 7840);
        assert_eq!(runner.memory_plan(), &MemoryPlan::plan(&g));
        // The FakeQuants whose input already lies on their grid.
        let identities: Vec<&str> = (0..g.nodes().len())
            .filter(|&i| runner.identity_quants[i])
            .map(named)
            .collect();
        assert_eq!(
            identities,
            [
                "pool1.quant",
                "conv2.act.quant",
                "pool2.quant",
                "flatten.quant",
                "fc2.relu.quant"
            ]
        );
    }

    #[test]
    fn relu_sends_every_zero_negative_and_nan_to_positive_zero() {
        // The INT8 conv's pool fold counts on it in every build: the
        // scalar form and the vectorized stage both.
        let xs = [
            -0.0f32,
            0.0,
            -1.0,
            -f32::MIN_POSITIVE,
            f32::NAN,
            f32::NEG_INFINITY,
        ];
        for x in xs {
            assert_eq!(ActKind::Relu.apply(x).to_bits(), 0, "{x}");
        }
        let mut run: Vec<f32> = xs.iter().cycle().take(67).copied().collect();
        activation(ActKind::Relu, &mut run);
        assert!(run.iter().all(|x| x.to_bits() == 0), "{run:?}");
        assert_eq!(ActKind::Relu.apply(2.5), 2.5);
    }

    #[test]
    fn int8_plans_only_graphs_with_i8_weights() {
        let planned = |g: &Graph| {
            let runner = Runner::builder().build(g).unwrap();
            runner.int8_plans.iter().flatten().count()
        };
        assert_eq!(planned(&crate::zoo::lenet5(10).unwrap()), 0);
        assert_eq!(planned(&calibrated_int8_lenet()), 5);
    }

    #[test]
    fn runner_borrows_explicit_weights_and_owns_seeded_ones() {
        let seeded = crate::zoo::lenet5(10).unwrap();
        let mut explicit = seeded.clone();
        explicit.explicit_weights(|_| true);
        let input = Tensor::random(Shape::nchw(1, 1, 28, 28), 3, 1.0);
        for g in [&explicit, &seeded] {
            let mut runner = Runner::builder().build(g).unwrap();
            runner
                .execute(std::slice::from_ref(&input), RunOptions::default())
                .unwrap();
            for (node, entry) in g.nodes().iter().zip(&runner.weights) {
                match (&node.weights, entry.as_ref().expect("used in the pass")) {
                    (WeightInit::Explicit(held), Cow::Borrowed(lent)) => {
                        assert!(std::ptr::eq(held.as_slice(), *lent), "{}", node.name);
                        for (h, l) in held.iter().zip(lent.iter()) {
                            assert!(std::ptr::eq(h.data(), l.data()), "{}", node.name);
                        }
                    }
                    (WeightInit::Seeded(_), Cow::Owned(_)) => {}
                    (init, _) => panic!("{}: {init:?} held the wrong way", node.name),
                }
            }
        }
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
