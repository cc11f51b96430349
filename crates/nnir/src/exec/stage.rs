//! The elementwise stages a head kernel runs on its output as it writes
//! it, and standalone elementwise nodes run over a copy of their input.

use super::plan::Data;
use crate::ops::ActKind;
use crate::shape::Shape;
use crate::tensor::{round_i8, Tensor};

/// Elements per channel plane of a tensor: everything past the batch
/// and channel dims (1 for a dense layer's `[n, f]` output).
pub(super) fn channel_plane(shape: &Shape) -> usize {
    shape.dims().iter().skip(2).product::<usize>().max(1)
}

/// BatchNorm's arithmetic, `s·x + t` — the one spelling of it, shared
/// by its run form ([`Stage::apply`]) and the grouped conv's lane form.
#[inline]
pub(super) fn batchnorm(x: f32, s: f32, t: f32) -> f32 {
    s * x + t
}

/// Applies `kind` to every element of `xs`. The match on the kind sits
/// outside the loops: each arm's loop inlines [`ActKind::apply`] for a
/// constant kind, so the piecewise-linear kinds vectorize, where a match
/// per element keeps the loop scalar.
pub(super) fn activation(kind: ActKind, xs: &mut [f32]) {
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
#[derive(Debug)]
pub(super) enum Stage<'g> {
    /// `scale[c]·x + shift[c]` for channel `c`.
    BatchNorm {
        scale: Data<'g>,
        shift: Data<'g>,
    },
    Activation(ActKind),
    /// Snaps each value to the INT8 grid of this scale; scale 0 maps
    /// every value to 0.
    FakeQuant(f32),
    /// Adds the element at the same position of the value in arena slot
    /// `other`, on the side the graph put it: `x + other` when the
    /// running value is the `Add`'s first input, `other + x` otherwise.
    Add {
        other: usize,
        value_first: bool,
    },
}

impl Stage<'_> {
    /// Applies the stage to `xs`, the run of the output that starts at
    /// flat index `at`, in an output of `plane` elements per channel; an
    /// `Add` reads its other operand from the arena `values`.
    pub(super) fn apply(&self, xs: &mut [f32], at: usize, plane: usize, values: &[Option<Tensor>]) {
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
            Stage::Activation(kind) => activation(*kind, xs),
            Stage::FakeQuant(scale) => {
                let scale = *scale;
                if scale == 0.0 {
                    xs.fill(0.0);
                } else {
                    for x in xs {
                        *x = round_i8(*x / scale) * scale;
                    }
                }
            }
            Stage::Add { other, value_first } => {
                let other = &slot(values, *other)[at..][..xs.len()];
                if *value_first {
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

/// The values in arena slot `s`: every slot a step reads was written
/// earlier in the pass.
pub(super) fn slot(values: &[Option<Tensor>], s: usize) -> &[f32] {
    values[s].as_ref().map_or(&[], Tensor::data)
}

/// The stages fused into a head kernel's output write, the output's
/// channel plane, which maps a run of output to its channel, and the
/// arena an `Add` reads its other operand from.
#[derive(Clone, Copy)]
pub(super) struct Epilogue<'a> {
    pub(super) stages: &'a [Stage<'a>],
    pub(super) plane: usize,
    pub(super) values: &'a [Option<Tensor>],
}

impl Epilogue<'_> {
    /// Applies every stage, in order, to `xs`: the output run that
    /// starts at flat index `at`, just written by the kernel.
    pub(super) fn apply(&self, xs: &mut [f32], at: usize) {
        for stage in self.stages {
            stage.apply(xs, at, self.plane, self.values);
        }
    }
}
