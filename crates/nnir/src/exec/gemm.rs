//! The f32 reduction micro-kernels the im2col GEMM and the dense layers
//! share. Each output is `bias + dot4(w, x)`: lane `i` of four
//! accumulates the products `w[k]·x[k]` of `k = i, i+4, …` in order from
//! `+0.0` (the last `len % 4` on lanes `0..len % 4`), and the lanes
//! combine as `(l0+l1) + (l2+l3)`.

/// Patch elements held in one im2col scratch block: the cache budget
/// for a tile of output pixels (64 KiB of f32). The block size is
/// independent of the batch, which is the E21 cliff fix — the previous
/// kernel materialized `n * opix * k_len` scratch at once, fell out of
/// cache as the batch grew, and made per-sample cost *rise* with batch.
pub(super) const COL_BLOCK_ELEMS: usize = 16 * 1024;

/// The GEMM's register tile: four kernel rows `w` against two patch
/// rows `x0`, `x1` of whole 4-element chunks, with `t[r][j]` equal to
/// `bias[r] + dot4(w[r], x_j)` bit for bit: [`dot4_lanes`]' eight lane
/// vectors, each combined as `(l0+l1) + (l2+l3)`, plus the bias. The
/// GEMM pads a reduction that is not a whole number of chunks (its
/// weight rows with `+0.0`, its patch rows with `-0.0`), so the tile
/// has no tail: a padded lane gains `+0.0·-0.0 = -0.0`, and `l + -0.0`
/// is `l` bit for bit.
#[inline]
pub(super) fn dot4_tile(w: [&[f32]; 4], x0: &[f32], x1: &[f32], bias: [f32; 4]) -> [[f32; 2]; 4] {
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
pub(super) fn dot4_col(w: [&[f32]; 4], x: &[f32], bias: [f32; 4]) -> [f32; 4] {
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

/// One GEMM unit: `dst[r·pb + p] = bias[r] + dot4(w_r, x_p)` for the
/// (at most four) kernel rows `w_r` of `w` and the `pb` patch rows `x_p`
/// of `col`, all `row_len` long, a multiple of 4: [`dot4_tile`] over
/// pixel pairs and [`dot4_col`] over an odd last pixel (every pixel of
/// a one-pixel conv). A unit of fewer than four rows (the last
/// `out_c % 4`) repeats its last row into the spare ones and drops
/// their outputs; each output is a function of its own row, so the
/// repeats change no bit.
pub(super) fn gemm_rows(
    row_len: usize,
    w: &[f32],
    col: &[f32],
    bias: Option<&[f32]>,
    dst: &mut [f32],
) {
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
