//! Max, average and global-average pooling, one plane at a time over
//! a padded copy whose border no accumulator changes on.

use super::par::par_chunks_with;
use super::runner::KernelCtx;
use crate::ops::Pool2dAttrs;

#[derive(Debug, Clone, Copy)]
pub(super) enum PoolMode {
    Max,
    Avg,
}

/// A pool's windows over planes of `h × w` values: the geometry
/// [`pool_plane`] runs, for a pool node and for the max-pool an INT8
/// conv folds.
#[derive(Debug, Clone, Copy)]
pub(super) struct PoolGeom {
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
    /// The windows of `a` over an `h × w` plane, which shape inference
    /// ([`crate::ops::Op::infer_shape`]) has proven to fit it.
    pub(super) fn new(a: &Pool2dAttrs, h: usize, w: usize) -> Self {
        let ((kh, kw), (sh, sw), (ph, pw)) = (a.kernel, a.stride, a.padding);
        let (hp, wp) = (h + 2 * ph, w + 2 * pw);
        PoolGeom {
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
        }
    }

    /// Output values per plane.
    pub(super) fn opix(self) -> usize {
        self.oh * self.ow
    }

    /// Values of the padded plane [`pool_plane`] copies a plane into;
    /// none for an unpadded pool, which reads its input in place.
    pub(super) fn pad_len(self) -> usize {
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
pub(super) fn pool2d_into(
    input: &[f32],
    g: PoolGeom,
    mode: PoolMode,
    out: &mut [f32],
    ctx: &mut KernelCtx<'_>,
) {
    let (h, w, opix) = (g.h, g.w, g.opix());
    // What a padded tap reads: a value that leaves every accumulator
    // unchanged.
    let border = match mode {
        PoolMode::Max => f32::NEG_INFINITY,
        PoolMode::Avg => -0.0,
    };
    let workers = ctx.par.workers_for(out.len() * g.kh * g.kw);
    let pads = &mut ctx.scratch.col;
    pads.clear();
    pads.resize(workers * g.pad_len(), border);
    let epi = ctx.epi;
    par_chunks_with(workers, out, opix, pads, |u, dst, pad| {
        let plane = &input[u * h * w..][..h * w];
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
pub(super) fn pool_plane<T: Copy>(
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

/// Global average pooling: each plane of `plane` values summed in order
/// from `0.0`, then divided by its size.
pub(super) fn global_avg_pool_into(input: &[f32], plane: usize, out: &mut [f32]) {
    let area = plane as f32;
    for (o, plane) in out.iter_mut().zip(input.chunks_exact(plane.max(1))) {
        let mut acc = 0.0;
        for &v in plane {
            acc += v;
        }
        *o = acc / area;
    }
}
