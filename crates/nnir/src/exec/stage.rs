//! The elementwise stages a head kernel runs on its output as it writes
//! it, and standalone elementwise nodes run over a copy of their input;
//! the values a kernel reads and the output it writes, f32 values or
//! INT8 codes.

use super::int8::quantize_activation;
use super::par::{par_chunks, par_chunks_with};
use super::plan::Data;
use crate::ops::ActKind;
use crate::shape::Shape;
use crate::tensor::{round_i8, Tensor};
use std::ops::Range;

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
    /// Adds the element at the same position of the value at `other`,
    /// on the side the graph put it: `x + other` when the running value
    /// is the `Add`'s first input, `other + x` otherwise.
    Add {
        other: Place,
        value_first: bool,
    },
}

impl Stage<'_> {
    /// Applies the stage to `xs`, the run of the output that starts at
    /// flat index `at`, in an output of `plane` elements per channel; an
    /// `Add` reads its other operand from `values`.
    pub(super) fn apply(&self, xs: &mut [f32], at: usize, plane: usize, values: Values<'_>) {
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
                let other = &values.f32s(*other)[at..][..xs.len()];
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

/// A value's range of its width's arena: `len` elements from `at`, both
/// at the graph's batch.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(super) struct Extent {
    pub(super) at: usize,
    pub(super) len: usize,
}

impl Extent {
    /// The elements the extent covers in a run at batch `n` of a plan
    /// made at batch `b`: `len·n/b` of them from `at·n/b`. On a graph
    /// that runs at another batch, every value's size is a multiple of
    /// `b`, and so is every offset, a sum of sizes: both scale exactly.
    pub(super) fn at_batch(self, n: usize, b: usize) -> Range<usize> {
        let scale = |x: usize| if n == b { x } else { x / b * n };
        scale(self.at)..scale(self.at) + scale(self.len)
    }
}

/// Where a value a step reads lives during a run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(super) enum Place {
    /// The caller's input tensor of this index: a graph input, read in
    /// place.
    Input(usize),
    /// A range of the arena of the value's width.
    Arena(Extent),
}

/// One arena less the ranges a step writes: the pieces around them,
/// each with the offset it starts at, in arena order.
#[derive(Clone, Copy)]
pub(super) struct Around<'a, T> {
    pieces: [(usize, &'a [T]); 3],
}

/// Splits `arena` around `a` and `b`, the disjoint ranges a step writes
/// into it (`None` for one it writes elsewhere): the two, each empty for
/// a `None`, and the rest, which it reads.
pub(super) fn split<T>(
    arena: &mut [T],
    a: Option<Range<usize>>,
    b: Option<Range<usize>>,
) -> (&mut [T], &mut [T], Around<'_, T>) {
    let end = arena.len()..arena.len();
    let (a, b) = (a.unwrap_or(end.clone()), b.unwrap_or(end));
    let swap = b.start < a.start;
    let (lo, hi) = if swap { (&b, &a) } else { (&a, &b) };
    let (below, rest) = arena.split_at_mut(lo.start);
    let (lo_out, rest) = rest.split_at_mut(lo.len());
    let (between, rest) = rest.split_at_mut(hi.start - lo.end);
    let (hi_out, above) = rest.split_at_mut(hi.len());
    let pieces = [(0, &*below), (lo.end, &*between), (hi.end, &*above)];
    let around = Around { pieces };
    if swap {
        (hi_out, lo_out, around)
    } else {
        (lo_out, hi_out, around)
    }
}

impl<'a, T> Around<'a, T> {
    /// All of `arena`, when a step writes none of it.
    pub(super) fn whole(arena: &'a [T]) -> Self {
        let end = (arena.len(), &arena[arena.len()..]);
        Around {
            pieces: [(0, arena), end, end],
        }
    }

    /// The elements in `r`, which lies in one piece: a value a step reads
    /// is live at its step, so the plan keeps it clear of every range the
    /// step writes.
    fn get(&self, r: Range<usize>) -> &'a [T] {
        let last = self.pieces.partition_point(|&(at, _)| at <= r.start);
        let (at, piece) = self.pieces[last.saturating_sub(1)];
        &piece[r.start - at..r.end - at]
    }
}

/// Every value a step can read during a run at batch `n` of a runner
/// built at batch `b`: the caller's inputs and both arenas around the
/// step's output.
#[derive(Clone, Copy)]
pub(super) struct Values<'a> {
    pub(super) inputs: &'a [Tensor],
    pub(super) f32s: Around<'a, f32>,
    pub(super) codes: Around<'a, i8>,
    pub(super) n: usize,
    pub(super) b: usize,
}

impl<'a> Values<'a> {
    /// The f32 values at `p`.
    pub(super) fn f32s(&self, p: Place) -> &'a [f32] {
        match p {
            Place::Input(i) => self.inputs[i].data(),
            Place::Arena(e) => self.f32s.get(e.at_batch(self.n, self.b)),
        }
    }

    /// The codes at `p`, which is in the code arena: no graph input is
    /// stored as codes.
    pub(super) fn codes(&self, p: Place) -> &'a [i8] {
        match p {
            Place::Input(_) => &[],
            Place::Arena(e) => self.codes.get(e.at_batch(self.n, self.b)),
        }
    }
}

/// The stages fused into a head kernel's output write, the output's
/// channel plane, which maps a run of output to its channel, and the
/// values an `Add` reads its other operand from.
#[derive(Clone, Copy)]
pub(super) struct Epilogue<'a> {
    pub(super) stages: &'a [Stage<'a>],
    pub(super) plane: usize,
    /// The flat index, in the value the stages run over, of the kernel
    /// output's first element: 0, but for a kernel that computes a
    /// channel slice of one batch item.
    pub(super) base: usize,
    pub(super) values: Values<'a>,
}

impl Epilogue<'_> {
    /// Applies every stage, in order, to `xs`: the output run that
    /// starts at flat index `at` of the kernel's output, just written by
    /// the kernel.
    pub(super) fn apply(&self, xs: &mut [f32], at: usize) {
        for stage in self.stages {
            stage.apply(xs, self.base + at, self.plane, self.values);
        }
    }

    /// The channel, of a value of `channels`, that the kernel's output
    /// channel `c` is: the index a BatchNorm's parameters take
    /// ([`Stage::apply`]).
    pub(super) fn channel(&self, c: usize, channels: usize) -> usize {
        (self.base / self.plane + c) % channels
    }
}

/// Values a writer of codes holds in f32 at once, on its stack: each run
/// of output is computed, takes its stages and is encoded this many
/// values at a time, so no f32 copy of a coded value exists.
const CODE_RUN: usize = 256;

/// The value a kernel reads as its data input: f32 values, or the INT8
/// codes of a value the plan stores as codes
/// ([`coded_values`](super::plan::coded_values)).
#[derive(Clone, Copy)]
pub(super) enum Src<'a> {
    F32(&'a [f32]),
    Codes(&'a [i8]),
}

/// Where a kernel writes its output: f32 values, or codes with `1 / s`
/// for the scale `s` they are of.
pub(super) enum Dst<'a> {
    F32(&'a mut [f32]),
    Codes(&'a mut [i8], f32),
}

impl Dst<'_> {
    /// Values in the output.
    pub(super) fn len(&self) -> usize {
        match self {
            Dst::F32(xs) => xs.len(),
            Dst::Codes(codes, _) => codes.len(),
        }
    }

    /// The run of `len` values of the output from `from`.
    pub(super) fn run(&mut self, from: usize, len: usize) -> Dst<'_> {
        match self {
            Dst::F32(xs) => Dst::F32(&mut xs[from..][..len]),
            Dst::Codes(codes, inv) => Dst::Codes(&mut codes[from..][..len], *inv),
        }
    }

    /// Writes the whole output, the run that starts at flat index `at`:
    /// `fill(off, xs)` computes the kernel's values of elements `off..`
    /// into `xs`, and `epi` runs the fused stages on them. An f32 output
    /// is filled and staged in place, whole. A code output is filled
    /// [`CODE_RUN`] values at a time into a stack buffer, and each value
    /// `v` is stored as `quantize_activation(v, 1/s)`: the code an INT8
    /// reader computes from `v` itself, NaN, ±∞ and -0.0 included, so
    /// storing codes changes no code a reader sees.
    pub(super) fn emit(
        self,
        at: usize,
        epi: Epilogue<'_>,
        mut fill: impl FnMut(usize, &mut [f32]),
    ) {
        match self {
            Dst::F32(xs) => {
                fill(0, xs);
                epi.apply(xs, at);
            }
            Dst::Codes(codes, inv) => {
                let mut buf = [0.0; CODE_RUN];
                for (i, codes) in codes.chunks_mut(CODE_RUN).enumerate() {
                    let (off, xs) = (i * CODE_RUN, &mut buf[..codes.len()]);
                    fill(off, xs);
                    epi.apply(xs, at + off);
                    for (c, &x) in codes.iter_mut().zip(&*xs) {
                        // `quantize_activation` is within ±127.
                        *c = quantize_activation(x, inv) as i8;
                    }
                }
            }
        }
    }

    /// [`par_chunks`] over the output: `f(unit, run)` for each run of
    /// `chunk_len` values.
    pub(super) fn par_chunks(
        self,
        workers: usize,
        chunk_len: usize,
        f: impl Fn(usize, Dst<'_>) + Sync,
    ) {
        match self {
            Dst::F32(xs) => par_chunks(workers, xs, chunk_len, |u, run| f(u, Dst::F32(run))),
            Dst::Codes(codes, inv) => par_chunks(workers, codes, chunk_len, |u, run| {
                f(u, Dst::Codes(run, inv));
            }),
        }
    }

    /// [`par_chunks_with`] over the output: `f(unit, run, part)` for each
    /// run of `chunk_len` values, with its worker's part of `scratch`.
    pub(super) fn par_chunks_with<S: Send>(
        self,
        workers: usize,
        chunk_len: usize,
        scratch: &mut [S],
        f: impl Fn(usize, Dst<'_>, &mut [S]) + Sync,
    ) {
        match self {
            Dst::F32(xs) => par_chunks_with(workers, xs, chunk_len, scratch, |u, run, part| {
                f(u, Dst::F32(run), part);
            }),
            Dst::Codes(codes, inv) => {
                par_chunks_with(workers, codes, chunk_len, scratch, |u, run, part| {
                    f(u, Dst::Codes(run, inv), part);
                });
            }
        }
    }
}
