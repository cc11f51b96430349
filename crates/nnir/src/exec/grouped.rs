//! Grouped and depthwise f32 convolution, channel-blocked: sixteen
//! output channels run as the lanes of one accumulator.

use super::conv::{conv_lanes, ConvGeom};
use super::gemm::COL_BLOCK_ELEMS;
use super::par::par_chunks_with;
use super::plan::{Conv, Expanded};
use super::runner::{KernelCtx, Scratch};
use super::stage::{activation, batchnorm, Epilogue, Stage};
use std::time::Instant;

/// Output channels a grouped convolution computes at once, one per f32
/// lane: four 4-lane registers of accumulators. An expansion conv
/// fused into its depthwise reader computes this many channels at a
/// time too ([`expand_depthwise`]).
pub(super) const LANES: usize = 16;

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
pub(super) fn conv2d_grouped(
    input: &[f32],
    c: &Conv<'_>,
    groups: usize,
    out: &mut [f32],
    ctx: &mut KernelCtx<'_>,
) {
    let (g, kernel, bias) = (c.g, &c.w[..], c.bias.as_deref());
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
        .take_while(|s| matches!(s, Stage::BatchNorm { .. } | Stage::Activation(_)))
        .count();
    let (on_lanes, on_rows) = epi.stages.split_at(on_lanes);
    let on_rows = Epilogue {
        stages: on_rows,
        ..epi
    };
    let lane_bns = || {
        on_lanes.iter().filter_map(|s| match s {
            Stage::BatchNorm { scale, shift } => Some((&scale[..], &shift[..])),
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
            let c = epi.channel(oc, scale.len());
            st[0][lane] = scale[c];
            st[1][lane] = shift[c];
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
                    for stage in on_lanes {
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

/// An expansion conv and the depthwise conv that is its only reader
/// ([`Expanded`]), [`LANES`] channels at a time: for each block, the lane
/// kernel ([`conv_lanes`]) writes the block's expansion planes into
/// `block` and runs the expansion's stages on them, then
/// [`conv2d_grouped`] reads them into their depthwise output planes of
/// `out` and runs the rest of the stages, before the next block
/// overwrites `block`.
///
/// Each kernel runs on a channel slice of its conv (its weight rows and
/// bias) for one batch item at a time, its stages indexed as over the
/// whole value ([`Epilogue::base`]): every output is the reduction, and
/// every stage the pass, that the two convs run whole compute, so every
/// bit is theirs. The lane kernel splits a block's planes over the
/// workers. With `phases`, each conv's time over every block is added
/// to its entry, the expansion's first.
pub(super) fn expand_depthwise(
    x: &[f32],
    e: &Expanded<'_>,
    out: &mut [f32],
    block: &mut [f32],
    ctx: &mut KernelCtx<'_>,
    mut phases: Option<&mut [u64; 2]>,
) {
    let (ex, dw) = (&e.expand, &e.depthwise);
    let (c, item, values) = (ex.g.out_c, ex.g.in_c * ex.g.h * ex.g.w, ctx.epi.values);
    let (stages, dw_stages) = ctx.epi.stages.split_at(e.stages);
    for c0 in (0..c).step_by(LANES) {
        let cs = c0..c.min(c0 + LANES);
        let (ex, dw) = (
            ex.channels(cs.clone(), ex.g.in_c),
            dw.channels(cs.clone(), cs.len()),
        );
        let (planes, outs) = (cs.len() * ex.g.opix, cs.len() * dw.g.opix);
        let start = phases.is_some().then(Instant::now);
        for bi in 0..ctx.n {
            let base = (bi * c + c0) * ex.g.opix;
            let epi = Epilogue {
                stages,
                plane: ex.g.opix,
                base,
                values,
            };
            let (x, block) = (&x[bi * item..][..item], &mut block[bi * planes..][..planes]);
            conv_lanes(x, &ex, e.run, block, &mut ctx.item(epi));
        }
        let mid = phases.is_some().then(Instant::now);
        for bi in 0..ctx.n {
            let base = (bi * c + c0) * dw.g.opix;
            let epi = Epilogue {
                stages: dw_stages,
                plane: dw.g.opix,
                base,
                values,
            };
            let (block, out) = (&block[bi * planes..][..planes], &mut out[base..][..outs]);
            conv2d_grouped(block, &dw, cs.len(), out, &mut ctx.item(epi));
        }
        if let (Some(ns), Some(start), Some(mid)) = (phases.as_deref_mut(), start, mid) {
            ns[0] += (mid - start).as_nanos() as u64;
            ns[1] += mid.elapsed().as_nanos() as u64;
        }
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
