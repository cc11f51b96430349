//! Dense (`groups == 1`) f32 convolution: the lane kernel and the
//! im2col GEMM, over planes and a tap list shared with the INT8 convs.

use super::gemm::{gemm_rows, COL_BLOCK_ELEMS};
use super::int8::CODE_CHUNK;
use super::par::par_chunks;
use super::plan::Conv;
use super::runner::KernelCtx;
use super::stage::Epilogue;
use crate::ops::Conv2dAttrs;

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
pub(super) fn runs_direct(stride: (usize, usize), taps: usize) -> bool {
    stride == (1, 1) && taps <= DIRECT_MAX_K
}

/// The f32 rule, read from the geometry alone: the pixels of one lane
/// run when the conv runs direct ([`runs_direct`]) and its output rows
/// hold at least [`PIX_LANES`] pixels, `None` for the im2col tile. An
/// unpadded 1×1 conv's taps are its input planes, so its output plane
/// is one run.
pub(super) fn lane_run(g: ConvGeom) -> Option<usize> {
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

/// A conv's geometry per sample, read from its verified shapes: shared
/// by every conv kernel.
#[derive(Debug, Clone, Copy)]
pub(super) struct ConvGeom {
    pub(super) in_c: usize,
    pub(super) h: usize,
    pub(super) w: usize,
    pub(super) out_c: usize,
    pub(super) kh: usize,
    pub(super) kw: usize,
    pub(super) sh: usize,
    pub(super) sw: usize,
    pub(super) ph: usize,
    pub(super) pw: usize,
    pub(super) ow: usize,
    /// Output pixels per (batch, channel) plane.
    pub(super) opix: usize,
}

impl ConvGeom {
    /// The geometry of a conv of `a` over an `[n, in_c, h, w]` input
    /// with `oh × ow` output planes, for any `n`.
    pub(super) fn new(a: &Conv2dAttrs, [_, in_c, h, w]: [usize; 4], oh: usize, ow: usize) -> Self {
        let ((kh, kw), (sh, sw), (ph, pw)) = (a.kernel, a.stride, a.padding);
        ConvGeom {
            in_c,
            h,
            w,
            out_c: a.out_channels,
            kh,
            kw,
            sh,
            sw,
            ph,
            pw,
            ow,
            opix: oh * ow,
        }
    }

    /// Patch row length: the GEMM reduction axis (saturating: a conv
    /// with outputs has a weight count `V010` proved to fit `usize`).
    pub(super) fn k_len(self) -> usize {
        self.in_c.saturating_mul(self.kh).saturating_mul(self.kw)
    }

    /// Rows and columns of a zero-padded input plane.
    pub(super) fn padded(self) -> (usize, usize) {
        (self.h + 2 * self.ph, self.w + 2 * self.pw)
    }

    /// Whether the conv is 1×1, stride 1 and unpadded: the patch row of
    /// an output pixel is then its column across the input planes.
    pub(super) fn pointwise(self) -> bool {
        (self.kh, self.kw, self.sh, self.sw, self.ph, self.pw) == (1, 1, 1, 1, 0, 0)
    }
}

/// Stages a dense conv's input for both precisions: `taps` gets each
/// patch position's offset from its output pixel's first input value,
/// in (ic, ky, kx) order, within the returned planes — `in_place` when
/// given and the conv is unpadded, else `planes`, `f` of each value of
/// the NCHW items of `input` (f32 values, or INT8 codes) inside a
/// border of `T::default()` (`+0.0` in f32, the zero code in INT8), `n`
/// items. No tap asks whether it lands in the input.
pub(super) fn stage_planes<'a, I: Copy, T: Copy + Default>(
    input: &[I],
    in_place: Option<&'a [T]>,
    g: ConvGeom,
    n: usize,
    f: impl Fn(I) -> T,
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
pub(super) fn gather_patches<T: Copy>(
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

/// The lane kernel over a stride-1 dense conv whose output rows hold
/// runs of `len ≥ 8` pixels ([`lane_run`]): [`lane_rows`] on each output
/// channel.
///
/// Output rows go in strips whose runs fit the block budget. Each tap's
/// window is copied once per output row, for every output channel (an
/// unpadded 1×1 conv's runs are its input planes); workers split the
/// output planes, whose strip rows take the fused stages right after
/// they are written. Each output is a fixed-association reduction over
/// its patch, so results are independent of threading, blocking and
/// batch size.
pub(super) fn conv_lanes(
    input: &[f32],
    c: &Conv<'_>,
    len: usize,
    out: &mut [f32],
    ctx: &mut KernelCtx<'_>,
) {
    let (g, k_len, epi) = (c.g, c.g.k_len(), ctx.epi);
    let s = &mut *ctx.scratch;
    let src = stage_planes(input, Some(input), g, ctx.n, |x| x, &mut s.pad, &mut s.taps);
    let (col, taps, (hp, wp)) = (&mut s.col, s.taps.as_slice(), g.padded());
    let item = g.in_c * hp * wp;
    let rows = g.opix / len;
    let strip = (COL_BLOCK_ELEMS / (k_len * len)).clamp(1, rows);
    // An unpadded 1×1 conv's runs are its input planes: it leaves `col`
    // as it is, so a grouped conv that reads its blocks refills none.
    if !g.pointwise() {
        col.resize(strip * k_len * len, 0.0);
    }
    for (bi, out) in out.chunks_exact_mut((g.out_c * g.opix).max(1)).enumerate() {
        let planes = &src[bi * item..][..item];
        for r0 in (0..rows).step_by(strip) {
            let nr = strip.min(rows - r0);
            let runs: &[f32] = if g.pointwise() {
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
            let work = g.out_c * nr * len * k_len;
            par_chunks(ctx.par.workers_for(work), out, g.opix, |oc, plane| {
                let dst = &mut plane[r0 * len..][..nr * len];
                let w = &c.w[oc * k_len..][..k_len];
                lane_rows(w, runs, len, c.bias.as_ref().map_or(0.0, |b| b[oc]), dst);
                epi.apply(dst, (bi * g.out_c + oc) * g.opix + r0 * len);
            });
        }
    }
}

/// Pixel-blocked im2col ([`gather_patches`]) and a GEMM over units of
/// four out-channel rows ([`gemm_rows`], register-tiled by
/// [`dot4_tile`](super::gemm::dot4_tile)), for every dense f32 conv the
/// lane kernel does not take.
///
/// The patch rows are a K that is not a multiple of 4 padded with
/// `-0.0`, the weight rows (padded once at build) with `+0.0`: a padded
/// lane gains `-0.0`, which leaves every sum's bits as `dot4`'s tail
/// does.
pub(super) fn conv_gemm(input: &[f32], c: &Conv<'_>, out: &mut [f32], ctx: &mut KernelCtx<'_>) {
    let (g, epi) = (c.g, ctx.epi);
    let (k_len, opix, out_c) = (g.k_len(), g.opix, g.out_c);
    let row_len = k_len.next_multiple_of(4);
    let s = &mut *ctx.scratch;
    let src = stage_planes(input, Some(input), g, ctx.n, |x| x, &mut s.pad, &mut s.taps);
    let (col, taps, (hp, wp)) = (&mut s.col, s.taps.as_slice(), g.padded());
    let item = g.in_c * hp * wp;
    let block_pix = (COL_BLOCK_ELEMS / row_len).clamp(1, opix);
    if row_len > k_len {
        col.clear();
    }
    col.resize(block_pix * row_len, -0.0);
    s.outb.resize(out_c * block_pix, 0.0);
    let bias = c.bias.as_deref();
    for (bi, out) in out.chunks_exact_mut((out_c * opix).max(1)).enumerate() {
        let planes = &src[bi * item..][..item];
        for p0 in (0..opix).step_by(block_pix) {
            let pb = block_pix.min(opix - p0);
            // Filling a block is one worker's job: it holds under
            // PAR_MIN_WORK elements, or a single patch row.
            let colb = &mut col[..pb * row_len];
            gather_patches(planes, g, p0, taps, colb, row_len);
            let colb: &[f32] = colb;
            // GEMM: four out-channel rows of `pb` pixels per unit,
            // over the cache-resident patch block.
            let workers = ctx.par.workers_for(out_c * pb * k_len);
            let tile = &mut s.outb[..out_c * pb];
            par_chunks(workers, tile, 4 * pb, |u, dst| {
                let rows = 4 * u..4 * u + dst.len() / pb;
                let w = &c.w[rows.start * row_len..rows.end * row_len];
                gemm_rows(row_len, w, colb, bias.map(|b| &b[rows]), dst);
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
}

/// A dense conv without input channels: every output is its bias plus
/// an empty reduction, which sums to `0.0`.
pub(super) fn conv_bias(c: &Conv<'_>, out: &mut [f32], epi: Epilogue<'_>) {
    let (opix, out_c) = (c.g.opix, c.g.out_c);
    for (u, dst) in out.chunks_exact_mut(opix.max(1)).enumerate() {
        dst.fill(c.bias.as_ref().map_or(0.0, |b| b[u % out_c]) + 0.0);
        epi.apply(dst, u * opix);
    }
}
