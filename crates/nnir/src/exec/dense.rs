//! f32 dense layers on the matrix-vector tile (the INT8 ones are in
//! `int8`).

use super::gemm::dot4_col;
use super::par::{par_chunks, Parallelism};
use super::plan::Dense;
use super::runner::KernelCtx;

/// Workers for a dense layer over `n` samples and the output values
/// each unit of work holds. One unit per batch row of the output; a
/// solo row is further split into feature blocks of whole four-row
/// tiles so single-sample heads still use every worker. Chunking never
/// affects bits: each output scalar is one `dot4` of the same operands.
pub(super) fn feature_chunk(d: &Dense<'_>, n: usize, par: Parallelism) -> (usize, usize) {
    let workers = par.workers_for(n * d.out_f * d.in_f);
    let chunk = if n == 1 {
        d.out_f.div_ceil(workers * 4).next_multiple_of(4)
    } else {
        d.out_f
    };
    (workers, chunk)
}

/// An f32 dense layer: each output is `bias + dot4(w, x)`, four weight
/// rows per matrix-vector tile ([`dot4_col`]); a last tile of fewer
/// (`out_f % 4`) repeats its last row and drops the spare outputs.
pub(super) fn dense_into(input: &[f32], d: &Dense<'_>, out: &mut [f32], ctx: &mut KernelCtx<'_>) {
    let (workers, chunk) = feature_chunk(d, ctx.n, ctx.par);
    let (in_f, epi, bias) = (d.in_f, ctx.epi, d.bias.as_deref());
    par_chunks(workers, out, chunk, |u, dst| {
        let base = u * chunk;
        let (bi, of0) = (base / d.out_f, base % d.out_f);
        let x = &input[bi * in_f..][..in_f];
        for (t, dst) in dst.chunks_mut(4).enumerate() {
            let row = |r: usize| of0 + 4 * t + r.min(dst.len() - 1);
            let w = std::array::from_fn(|r| &d.w[row(r) * in_f..][..in_f]);
            let b = std::array::from_fn(|r| bias.map_or(0.0, |b| b[row(r)]));
            dst.copy_from_slice(&dot4_col(w, x, b)[..dst.len()]);
        }
        epi.apply(dst, base);
    });
}
