//! The structural ops: broadcast multiply, channel concat, nearest
//! upsampling and softmax.

/// `a · b`, where `b` holds one value per `plane` values of `a`: the
/// squeeze-excite gate of `[n, c, 1, 1]` over `[n, c, h, w]`, or, at
/// `plane` 1, a same-shape product.
pub(super) fn mul_broadcast_into(a: &[f32], b: &[f32], plane: usize, out: &mut [f32]) {
    for ((out, a), &gate) in out
        .chunks_exact_mut(plane)
        .zip(a.chunks_exact(plane))
        .zip(b)
    {
        for (o, &x) in out.iter_mut().zip(a) {
            *o = x * gate;
        }
    }
}

/// Channel concat of NCHW `inputs` over a batch of `n`: each batch item
/// of the output is each input's item in turn.
pub(super) fn concat_channels_into<'v>(
    inputs: &(impl Iterator<Item = &'v [f32]> + Clone),
    n: usize,
    out: &mut [f32],
) {
    let mut at = 0;
    for bi in 0..n {
        for t in inputs.clone() {
            let item = t.len() / n;
            out[at..][..item].copy_from_slice(&t[bi * item..][..item]);
            at += item;
        }
    }
}

/// Nearest upsampling by `factor` of `h × w` planes.
pub(super) fn upsample_nearest_into(
    input: &[f32],
    factor: usize,
    h: usize,
    w: usize,
    out: &mut [f32],
) {
    let (uh, uw) = (h * factor, w * factor);
    let planes = input.chunks_exact((h * w).max(1));
    for (src, dst) in planes.zip(out.chunks_exact_mut((uh * uw).max(1))) {
        for hi in 0..uh {
            let src_row = &src[(hi / factor) * w..][..w];
            let dst_row = &mut dst[hi * uw..][..uw];
            for (wi, o) in dst_row.iter_mut().enumerate() {
                *o = src_row[wi / factor];
            }
        }
    }
}

/// Softmax over each row of `last` values.
pub(super) fn softmax_last_into(input: &[f32], last: usize, out: &mut [f32]) {
    out.copy_from_slice(input);
    for chunk in out.chunks_mut(last.max(1)) {
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
