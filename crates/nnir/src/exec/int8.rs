//! The INT8 kernels (see [`RunnerBuilder::int8`](super::RunnerBuilder::int8)).
//! Weight codes × activation codes accumulate exactly in i32, both held
//! as i16 — weights widened once at build, activations quantized per
//! call from f32 values, or widened from the i8 codes of a value the
//! plan stores as codes ([`Src`]) — because i16 products are what
//! baseline x86-64 SIMD multiplies (`pmullw`, `pmaddwd`); i8 ones it
//! does not. A kernel writes its output as f32 values, or as codes of
//! its readers' scale ([`Dst`]). Integer sums are exact, so every INT8
//! output is independent of the kernel, threading, planning, the width
//! its input is stored at and batch size.

use super::conv::{gather_patches, stage_planes, ConvGeom};
use super::dense::feature_chunk;
use super::gemm::COL_BLOCK_ELEMS;
use super::par::par_chunks;
use super::plan::{Conv, Dense, Int8Plan};
use super::pool::{pool_plane, PoolGeom};
use super::runner::{KernelCtx, Scratch};
use super::stage::{Dst, Src};
use crate::tensor::round_i8;

/// INT8 codes the GEMM micro-kernel reduces at once: every packed
/// weight row and gathered patch row is a whole number of these chunks.
pub(super) const CODE_CHUNK: usize = 16;

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
pub(super) fn dot_codes(a: &[[i16; CODE_CHUNK]], b: &[[i16; CODE_CHUNK]]) -> i32 {
    debug_assert_eq!(a.len(), b.len());
    let mut lanes = [0i32; CODE_CHUNK];
    for (x, y) in a.iter().zip(b) {
        for i in 0..CODE_CHUNK {
            lanes[i] += i32::from(x[i]) * i32::from(y[i]);
        }
    }
    lanes.iter().sum()
}

/// INT8 code of one activation, as the i16 the kernels multiply; `inv`
/// is `1 / in_scale`. NaN maps to 0, ±∞ to ±127.
///
/// A `FakeQuant` node of scale `s` outputs `k · s` for an integer
/// `|k| ≤ 127`, and this recovers `k` from it at every normal `s` up to
/// `f32::MAX / 126` (≈ 2.70e36), so the INT8 path loses nothing at the
/// input boundary there. It does not above that scale (`126 · s`
/// overflows to ∞, which maps to 127) nor at subnormal scales below
/// 2^-128 (≈ 2.94e-39), where `1 / s` overflows (a probe over every
/// code at every subnormal and every 97th normal scale, and every scale
/// in the lowest normal binade and above 6.6e35).
/// [`exact_grids`](crate::analysis::exact_grids)'s build check
/// (`s` normal and `127 · s` finite) keeps inside that range, and
/// [`identity_quants`](crate::analysis::identity_quants), which lets a
/// copy stand in for a `FakeQuant`, relies on it. A value stored as
/// codes relies on no such check: its writer stores each value it
/// computes as this function's code of it, the code its readers would
/// compute from the f32 value.
#[inline]
pub(super) fn quantize_activation(x: f32, inv: f32) -> i16 {
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

/// Stages a dense conv's input of `n` items for both INT8 conv
/// kernels: [`stage_planes`] turns each input plane once into a
/// zero-padded i16 code plane, quantizing f32 values or widening codes,
/// and lists each patch position's offset in those planes once, in the
/// kernel's (ic, ky, kx) order, as it does for the f32 convs.
///
/// Both kernels sum exact integer products, so every output is the same
/// i32 whichever runs, and each is dequantized with one multiply,
/// `bias + acc · (w_scale[oc] · in_scale)`, before the fused stages run
/// on it. A folded max-pool (`pool`) takes each plane of accumulators
/// first ([`pool_plane`], border `i32::MIN`), so the dequantization and
/// the stages run on the pooled values only; the fold's rule makes that
/// exact (DESIGN.md §10).
fn stage_codes(input: Src<'_>, g: ConvGeom, n: usize, plan: &Int8Plan<'_>, s: &mut Scratch) {
    let inv = 1.0 / plan.in_scale;
    let (planes, taps) = (&mut s.qin, &mut s.taps);
    match input {
        Src::F32(x) => stage_planes(x, None, g, n, |x| quantize_activation(x, inv), planes, taps),
        Src::Codes(x) => stage_planes(x, None, g, n, i16::from, planes, taps),
    };
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
pub(super) fn conv_int8_gemm(
    input: Src<'_>,
    c: &Conv<'_>,
    plan: &Int8Plan<'_>,
    pool: Option<PoolGeom>,
    mut out: Dst<'_>,
    ctx: &mut KernelCtx<'_>,
) {
    let (g, bias_data) = (c.g, c.bias.as_deref());
    stage_codes(input, g, ctx.n, plan, ctx.scratch);
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
                    out.run(at, pb).emit(at, ctx.epi, |off, xs| {
                        dequantize(xs, &row[off..], plan, bias_data, oc);
                    });
                }
            }
        }
        if let Some(p) = pool {
            for (oc, accs) in planes.chunks_exact(g.opix).enumerate() {
                pool_plane(accs, g.ow, p, pad, i32::MIN, i32::max, pooled);
                let at = (bi * g.out_c + oc) * unit;
                out.run(at, unit).emit(at, ctx.epi, |off, xs| {
                    dequantize(xs, &pooled[off..], plan, bias_data, oc);
                });
            }
        }
    }
}

/// The direct INT8 conv, for the stride-1 convs with short patch rows
/// the plan selects it for. Per output plane, each pair of
/// taps multiplies two weight codes by two runs of the code planes,
/// summed in i16 — exact, since two products stay within `2·128·127 =
/// 32512` — and added into an i32 accumulator run, one widening per
/// pair. The run spans the whole output plane at the padded row pitch;
/// the `kw − 1` accumulators past each output row are computed and
/// dropped (a folded pool reads the run in place at that pitch). Output
/// planes split over the workers, each with its own run, and its own
/// padded and pooled planes under a folded pool.
pub(super) fn conv_int8_direct(
    input: Src<'_>,
    c: &Conv<'_>,
    plan: &Int8Plan<'_>,
    pool: Option<PoolGeom>,
    out: Dst<'_>,
    ctx: &mut KernelCtx<'_>,
) {
    let (g, bias_data) = (c.g, c.bias.as_deref());
    stage_codes(input, g, ctx.n, plan, ctx.scratch);
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
    out.par_chunks_with(workers, unit, acc, |u, dst, part| {
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
                dst.emit(u * unit, epi, |off, xs| {
                    dequantize(xs, &pooled[off..], plan, bias_data, oc);
                });
            }
            // Elements `off..` of the plane, row by row from the run at
            // its padded pitch.
            None => dst.emit(u * unit, epi, |mut off, mut xs| {
                while !xs.is_empty() {
                    let (y, x) = (off / g.ow, off % g.ow);
                    let (row, rest) = xs.split_at_mut((g.ow - x).min(xs.len()));
                    dequantize(row, &run[y * wp + x..], plan, bias_data, oc);
                    (off, xs) = (off + row.len(), rest);
                }
            }),
        }
    });
}

/// An INT8 dense layer: the GEMM with one patch row per sample. Each
/// input row is quantized, or its codes widened, into a row of the
/// plan's padded length, whose zero tail meets the zero codes padding
/// the weight rows.
pub(super) fn dense_int8(
    input: Src<'_>,
    d: &Dense<'_>,
    plan: &Int8Plan<'_>,
    out: Dst<'_>,
    ctx: &mut KernelCtx<'_>,
) {
    fn widen<I: Copy>(
        qin: &mut [i16],
        row_len: usize,
        input: &[I],
        in_f: usize,
        f: impl Fn(I) -> i16,
    ) {
        for (dst, src) in qin
            .chunks_exact_mut(row_len)
            .zip(input.chunks_exact(in_f.max(1)))
        {
            for (dst, &x) in dst.iter_mut().zip(src) {
                *dst = f(x);
            }
        }
    }
    let (inv, row_len, epi) = (1.0 / plan.in_scale, plan.row_len, ctx.epi);
    let qin = &mut ctx.scratch.qin;
    qin.clear();
    qin.resize(ctx.n * row_len, 0);
    match input {
        Src::F32(x) => widen(qin, row_len, x, d.in_f, |x| quantize_activation(x, inv)),
        Src::Codes(x) => widen(qin, row_len, x, d.in_f, i16::from),
    }
    let qin: &[i16] = qin;
    let (workers, chunk) = feature_chunk(d, ctx.n, ctx.par);
    let bias = d.bias.as_deref();
    out.par_chunks(workers, chunk, |u, dst| {
        let base = u * chunk;
        let (bi, of0) = (base / d.out_f, base % d.out_f);
        let (x, _) = qin[bi * row_len..][..row_len].as_chunks();
        dst.emit(base, epi, |off, xs| {
            for (i, o) in xs.iter_mut().enumerate() {
                let of = of0 + off + i;
                let b0 = bias.map_or(0.0, |b| b[of]);
                let acc = dot_codes(plan.row(of), x);
                *o = b0 + acc as f32 * (plan.scales[of] * plan.in_scale);
            }
        });
    });
}
