// Test/bench/example target: panics are the failure report.
#![allow(clippy::unwrap_used, clippy::expect_used)]

//! Property-based tests for the IR core: shape algebra, graph invariants
//! and executor/shape-inference agreement.

use proptest::prelude::*;
use vedliot_nnir::exec::{Parallelism, RunOptions, RunOutput, Runner};
use vedliot_nnir::graph::WeightInit;
use vedliot_nnir::ops::{ActKind, Conv2dAttrs, Op, Pool2dAttrs};
use vedliot_nnir::{DataType, Graph, GraphBuilder, NnirError, Shape, Tensor, TensorId};

/// One forward pass through a fresh runner with the given parallelism.
fn run_with(g: &Graph, par: Parallelism, inputs: &[Tensor]) -> Result<Vec<Tensor>, NnirError> {
    Ok(Runner::builder()
        .parallelism(par)
        .build(g)?
        .execute(inputs, RunOptions::default())?
        .into_outputs())
}

/// One forward pass with the default (Serial) parallelism.
fn run_once(g: &Graph, inputs: &[Tensor]) -> Result<Vec<Tensor>, NnirError> {
    run_with(g, Parallelism::default(), inputs)
}

proptest! {
    /// Row-major offset is a bijection onto 0..elem_count.
    #[test]
    fn shape_offset_is_bijective(dims in proptest::collection::vec(1usize..5, 1..4)) {
        let shape = Shape::new(dims.clone());
        let mut seen = vec![false; shape.elem_count()];
        let mut idx = vec![0usize; dims.len()];
        loop {
            let off = shape.offset(&idx);
            prop_assert!(!seen[off], "offset {off} visited twice");
            seen[off] = true;
            // Odometer increment.
            let mut d = dims.len();
            loop {
                if d == 0 { break; }
                d -= 1;
                idx[d] += 1;
                if idx[d] < dims[d] { break; }
                idx[d] = 0;
                if d == 0 {
                    prop_assert!(seen.iter().all(|&s| s));
                    return Ok(());
                }
            }
            if idx.iter().all(|&x| x == 0) { break; }
        }
        prop_assert!(seen.iter().all(|&s| s));
    }

    /// Conv2d shape inference always matches what the executor produces.
    #[test]
    fn conv_inference_matches_execution(
        in_c in 1usize..4,
        out_c in 1usize..5,
        h in 3usize..10,
        w in 3usize..10,
        kernel in 1usize..4,
        stride in 1usize..3,
    ) {
        let attrs = Conv2dAttrs::same(out_c, kernel, stride);
        let mut b = GraphBuilder::new("p");
        let x = b.input(Shape::nchw(1, in_c, h, w));
        let c = b.apply("conv", Op::Conv2d(attrs), &[x]).unwrap();
        let g = b.finish(vec![c]);
        let input = Tensor::random(Shape::nchw(1, in_c, h, w), 1, 1.0);
        let out = run_once(&g, &[input]).unwrap();
        prop_assert_eq!(out[0].shape(), g.tensor_shape(c).unwrap());
    }

    /// Pooling shape inference matches execution for any legal window.
    #[test]
    fn pool_inference_matches_execution(
        c in 1usize..4,
        h in 4usize..12,
        kernel in 1usize..4,
        stride in 1usize..3,
    ) {
        let attrs = Pool2dAttrs::square(kernel, stride);
        let mut b = GraphBuilder::new("p");
        let x = b.input(Shape::nchw(1, c, h, h));
        let m = b.apply("pool", Op::MaxPool2d(attrs), &[x]).unwrap();
        let g = b.finish(vec![m]);
        let input = Tensor::random(Shape::nchw(1, c, h, h), 2, 1.0);
        let out = run_once(&g, &[input]).unwrap();
        prop_assert_eq!(out[0].shape(), g.tensor_shape(m).unwrap());
    }

    /// Activations are monotone where they claim to be and bounded where
    /// they claim to be.
    #[test]
    fn activation_envelopes(x in -20.0f32..20.0) {
        prop_assert!(ActKind::Relu.apply(x) >= 0.0);
        prop_assert!((0.0..=6.0).contains(&ActKind::Relu6.apply(x)));
        prop_assert!((0.0..=1.0).contains(&ActKind::Sigmoid.apply(x)));
        prop_assert!((0.0..=1.0).contains(&ActKind::HardSigmoid.apply(x)));
        prop_assert!((-1.0..=1.0).contains(&ActKind::Tanh.apply(x)));
        // Leaky ReLU preserves sign for positive slope.
        let leaky = ActKind::LeakyRelu(0.1).apply(x);
        prop_assert_eq!(leaky >= 0.0, x >= 0.0);
    }

    /// Rebatching never changes parameters, and scales MACs linearly.
    #[test]
    fn rebatch_scaling(batch in 1usize..6, stages in proptest::collection::vec(1usize..8, 1..3)) {
        let g: Graph = vedliot_nnir::zoo::tiny_cnn("p", Shape::nchw(1, 3, 16, 16), &stages, 4).unwrap();
        let c1 = vedliot_nnir::cost::CostReport::of(&g).unwrap();
        let gb = g.with_batch(batch).unwrap();
        gb.validate().unwrap();
        let cb = vedliot_nnir::cost::CostReport::of(&gb).unwrap();
        prop_assert_eq!(cb.total_params, c1.total_params);
        prop_assert_eq!(cb.total_macs, batch as u64 * c1.total_macs);
    }

    /// Softmax outputs always form a probability distribution.
    #[test]
    fn softmax_is_distribution(values in proptest::collection::vec(-10.0f32..10.0, 2..8)) {
        let n = values.len();
        let mut b = GraphBuilder::new("s");
        let x = b.input(Shape::nf(1, n));
        let s = b.apply("softmax", Op::Softmax, &[x]).unwrap();
        let g = b.finish(vec![s]);
        let input = Tensor::from_vec(Shape::nf(1, n), values).unwrap();
        let out = run_once(&g, &[input]).unwrap();
        let sum: f32 = out[0].data().iter().sum();
        prop_assert!((sum - 1.0).abs() < 1e-4);
        prop_assert!(out[0].data().iter().all(|&p| (0.0..=1.0).contains(&p)));
    }
}

/// Each tensor's shape and bits, for an exact comparison (`==` on f32
/// equates `-0.0` and `+0.0`).
fn exact<'t>(ts: impl IntoIterator<Item = Option<&'t Tensor>>) -> Vec<Option<(Shape, Vec<u32>)>> {
    ts.into_iter()
        .map(|t| t.map(|t| (t.shape().clone(), bits(t.data()))))
        .collect()
}

/// A run's output and captured intermediate bits, and its profile's
/// batch and per-node MAC and elementwise counts.
type Observed = (
    Vec<Option<(Shape, Vec<u32>)>>,
    Option<Vec<Option<(Shape, Vec<u32>)>>>,
    usize,
    Vec<(u64, u64)>,
);

fn observed(out: &RunOutput) -> Observed {
    let profile = out.profile().unwrap();
    (
        exact(out.outputs().iter().map(Some)),
        out.intermediates()
            .map(|v| exact(v.iter().map(Option::as_ref))),
        profile.batch,
        profile
            .per_node
            .iter()
            .map(|r| (r.macs, r.elementwise))
            .collect(),
    )
}

/// One runner built over `g` runs each batch `n` of `runs` as a runner
/// built over `g.with_batch(n)` does: the same outputs and captured
/// intermediates, bit for bit, and a profile of batch `n` with the same
/// counts per node. Planned and unplanned; every other run captures.
fn runs_every_batch_as_built(g: &Graph, runs: &[usize], seed: u64) -> Result<(), TestCaseError> {
    for planning in [true, false] {
        let mut runner = Runner::builder()
            .memory_planning(planning)
            .build(g)
            .unwrap();
        for (i, &n) in runs.iter().enumerate() {
            let at_n = g.with_batch(n).unwrap();
            let inputs: Vec<Tensor> = at_n
                .inputs()
                .iter()
                .map(|&t| {
                    Tensor::random(at_n.tensor_shape(t).unwrap().clone(), seed + i as u64, 1.0)
                })
                .collect();
            let opts = RunOptions::new()
                .capture_intermediates(i % 2 == 1)
                .profile(true);
            let got = observed(&runner.execute(&inputs, opts).unwrap());
            let mut fresh = Runner::builder()
                .memory_planning(planning)
                .build(&at_n)
                .unwrap();
            let want = observed(&fresh.execute(&inputs, opts).unwrap());
            prop_assert_eq!(got.2, n);
            prop_assert_eq!(
                &got,
                &want,
                "{} built at {}, run {} at {}",
                g.name(),
                g.batch(),
                i,
                n
            );
        }
    }
    Ok(())
}

/// A graph over the f32 kernels, those that take their batch from the
/// run among them: a stride-1 conv on the lane kernel, a depthwise conv,
/// a channel concat, a 1×1 expansion on the lane kernel computed into
/// the depthwise conv that is its only reader, a squeeze-excite gate
/// (global average pool, sigmoid, broadcast multiply), max and average
/// pools, nearest upsampling, a flatten, a dense layer and a softmax
/// over its rows; seeded weights.
fn every_kernel() -> Graph {
    let mut b = GraphBuilder::new("every-kernel");
    let x = b.input(Shape::nchw(1, 2, 12, 12));
    let c1 = b
        .apply("lanes", Op::Conv2d(Conv2dAttrs::same(4, 3, 1)), &[x])
        .unwrap();
    let dw = b
        .apply("dw", Op::Conv2d(Conv2dAttrs::depthwise(4, 3, 1)), &[c1])
        .unwrap();
    let cat = b.apply("cat", Op::Concat, &[c1, dw]).unwrap();
    let expand = b
        .apply("expand", Op::Conv2d(Conv2dAttrs::pointwise(20)), &[cat])
        .unwrap();
    let act = Op::Activation(ActKind::HardSwish);
    let expand = b.apply("expand.act", act, &[expand]).unwrap();
    let dw = Op::Conv2d(Conv2dAttrs::depthwise(20, 3, 1));
    let dw = b.apply("expand.dw", dw, &[expand]).unwrap();
    let gap = b.apply("gap", Op::GlobalAvgPool, &[dw]).unwrap();
    let gate = b
        .apply("gate", Op::Activation(ActKind::Sigmoid), &[gap])
        .unwrap();
    let se = b.apply("se", Op::Mul, &[dw, gate]).unwrap();
    let max = b
        .apply("max", Op::MaxPool2d(Pool2dAttrs::square(2, 2)), &[se])
        .unwrap();
    let pool = Pool2dAttrs::square(3, 1).with_padding(1);
    let avg = b.apply("avg", Op::AvgPool2d(pool), &[max]).unwrap();
    let up = b.apply("up", Op::Upsample { factor: 2 }, &[avg]).unwrap();
    let flat = b.apply("flatten", Op::Flatten, &[up]).unwrap();
    let fc = b
        .apply(
            "fc",
            Op::Dense {
                out_features: 5,
                bias: true,
            },
            &[flat],
        )
        .unwrap();
    let sm = b.apply("softmax", Op::Softmax, &[fc]).unwrap();
    b.finish(vec![sm])
}

proptest! {
    /// Coalescing single-sample requests into one batched run along
    /// axis 0 is **bit-identical** to running each sample on its own —
    /// the contract `Tensor::{split_batch, concat_batch}` and the
    /// serving layer's dynamic batcher are built on. Every kernel
    /// reduces batch rows independently in the same element order, so
    /// equality here is exact, not approximate.
    ///
    /// And one runner runs every batch up to its own: built at a random
    /// batch, it runs a random sequence of smaller and equal batches,
    /// then growing, repeating and shrinking ones, each as a runner
    /// built at that batch does ([`runs_every_batch_as_built`]). The
    /// graphs: the random CNN, [`every_kernel`], the INT8 conv and
    /// dense layer [`int8_case`] builds, and a rank-1 softmax, whose
    /// one row is its batch axis.
    #[test]
    fn batched_execution_matches_single_sample_runs(
        batch in 1usize..6,
        stages in proptest::collection::vec(1usize..8, 1..3),
        classes in 2usize..6,
        seed in 0u64..1_000,
        runs in proptest::collection::vec(0usize..5, 0..5),
        (in_c, out_c, out_f) in (1usize..5, 1usize..5, 1usize..6),
        (h, w, kernel, stride, pad) in (3usize..10, 3usize..10, 1usize..4, 1usize..3, 0usize..2),
    ) {
        let single = vedliot_nnir::zoo::tiny_cnn("b", Shape::nchw(1, 3, 16, 16), &stages, classes).unwrap();
        let batched_graph = single.with_batch(batch).unwrap();
        let input = Tensor::random(Shape::nchw(batch, 3, 16, 16), seed, 1.0);

        let batched_out = run_once(&batched_graph, std::slice::from_ref(&input)).unwrap().remove(0);

        let mut runner = Runner::builder().build(&single).unwrap();
        let per_sample: Vec<Tensor> = input
            .split_batch()
            .unwrap()
            .into_iter()
            .map(|row| {
                runner
                    .execute(&[row], RunOptions::default())
                    .unwrap()
                    .into_outputs()
                    .remove(0)
            })
            .collect();
        let merged = Tensor::concat_batch(&per_sample).unwrap();
        prop_assert_eq!(batched_out, merged);

        let runs: Vec<usize> = runs.iter().map(|r| 1 + r % batch).chain([1, batch, batch, 1]).collect();
        runs_every_batch_as_built(&batched_graph, &runs, seed)?;
        runs_every_batch_as_built(&every_kernel().with_batch(batch).unwrap(), &runs, seed)?;
        let mut b = GraphBuilder::new("softmax-rank-1");
        let x = b.input(Shape::new(vec![batch]));
        let s = b.apply("softmax", Op::Softmax, &[x]).unwrap();
        runs_every_batch_as_built(&b.finish(vec![s]), &runs, seed)?;
        let attrs = Conv2dAttrs {
            out_channels: out_c,
            kernel: (kernel, kernel),
            stride: (stride, stride),
            padding: (pad, pad),
            groups: 1,
            bias: true,
        };
        let case = int8_case(batch, in_c, (h, w), attrs, out_f, seed).unwrap();
        prop_assert!(Runner::builder().build(&case.graph).unwrap().uses_int8());
        runs_every_batch_as_built(&case.graph, &runs, seed)?;
    }

    /// `split_batch` / `concat_batch` are exact inverses.
    #[test]
    fn split_concat_batch_round_trips(
        batch in 1usize..6,
        features in 1usize..10,
        seed in 0u64..1_000,
    ) {
        let t = Tensor::random(Shape::nf(batch, features), seed, 1.0);
        let rows = t.split_batch().unwrap();
        prop_assert_eq!(rows.len(), batch);
        prop_assert!(rows.iter().all(|r| r.shape().batch() == 1));
        prop_assert_eq!(Tensor::concat_batch(&rows).unwrap(), t);
    }

    /// Random linear CNN chains survive the textual-format round trip
    /// with identical cost profiles and bit-identical execution.
    #[test]
    fn textual_format_round_trips_random_chains(
        stages in proptest::collection::vec(1usize..12, 1..4),
        classes in 2usize..6,
        channels in 1usize..4,
    ) {
        let model = vedliot_nnir::zoo::tiny_cnn(
            "prop-chain",
            Shape::nchw(1, channels, 16, 16),
            &stages,
            classes,
        )
        .unwrap();
        let text = vedliot_nnir::textual::write(&model).unwrap();
        let parsed = vedliot_nnir::textual::read(&text).unwrap();
        parsed.validate().unwrap();
        let a = vedliot_nnir::cost::CostReport::of(&model).unwrap();
        let b = vedliot_nnir::cost::CostReport::of(&parsed).unwrap();
        prop_assert_eq!(a.total_macs, b.total_macs);
        prop_assert_eq!(a.total_params, b.total_params);
        let input = Tensor::random(Shape::nchw(1, channels, 16, 16), 7, 1.0);
        let out_a = run_once(&model, std::slice::from_ref(&input)).unwrap();
        let out_b = run_once(&parsed, std::slice::from_ref(&input)).unwrap();
        prop_assert_eq!(out_a, out_b);
    }
}

/// Largest elementwise |a - b| across two output sets.
fn max_abs_diff(a: &[Tensor], b: &[Tensor]) -> f32 {
    assert_eq!(a.len(), b.len());
    a.iter()
        .zip(b.iter())
        .flat_map(|(ta, tb)| {
            assert_eq!(ta.shape(), tb.shape());
            ta.data()
                .iter()
                .zip(tb.data().iter())
                .map(|(x, y)| (x - y).abs())
        })
        .fold(0.0f32, f32::max)
}

proptest! {
    /// The threaded engine (im2col + blocked GEMM, worker fan-out)
    /// matches the serial reference within 1e-5 on random conv/dense/
    /// pool shapes, including grouped convolutions and batch > 1. The
    /// two paths are designed to be bit-identical; the tolerance
    /// leaves headroom for future reassociating kernels.
    #[test]
    fn parallel_matches_serial_on_random_shapes(
        batch in 1usize..5,
        groups in 1usize..4,
        icg in 1usize..4,
        ocg in 1usize..4,
        h in 6usize..14,
        kernel in 1usize..4,
        stride in 1usize..3,
        hidden in 1usize..24,
        seed in 0u64..1_000,
    ) {
        let in_c = groups * icg;
        let mut attrs = Conv2dAttrs::same(groups * ocg, kernel, stride);
        attrs.groups = groups;
        let mut b = GraphBuilder::new("eq");
        let x = b.input(Shape::nchw(batch, in_c, h, h));
        let c = b.apply("conv", Op::Conv2d(attrs), &[x]).unwrap();
        let bn = b.apply("bn", Op::BatchNorm, &[c]).unwrap();
        let p = b.apply("pool", Op::MaxPool2d(Pool2dAttrs::square(2, 2)), &[bn]).unwrap();
        let f = b.apply("flatten", Op::Flatten, &[p]).unwrap();
        let d = b.apply("fc", Op::Dense { out_features: hidden, bias: true }, &[f]).unwrap();
        let g = b.finish(vec![d]);
        let input = Tensor::random(Shape::nchw(batch, in_c, h, h), seed, 1.0);

        let reference = run_with(&g, Parallelism::Serial, std::slice::from_ref(&input)).unwrap();
        let parallel = run_with(&g, Parallelism::Threads(4), std::slice::from_ref(&input)).unwrap();
        prop_assert!(
            max_abs_diff(&reference, &parallel) <= 1e-5,
            "parallel diverged from serial by {}",
            max_abs_diff(&reference, &parallel)
        );
        // The host-sized (Auto) parallelism agrees too.
        let auto = run_with(&g, Parallelism::Auto, std::slice::from_ref(&input)).unwrap();
        prop_assert!(max_abs_diff(&reference, &auto) <= 1e-5);
    }
}

proptest! {
    /// The cache-blocked kernels are **bit-identical** to the serial
    /// schedule — the 4-lane microkernel is a pure function of the
    /// operand slices, so thread count, pixel blocking, and batch
    /// grouping cannot change a single ULP. Exercised across odd
    /// shapes: `K = in_c*kh*kw` deliberately not a multiple of the
    /// 4-lane tile, stride/padding edge cases, and dense tail lengths.
    #[test]
    fn blocked_kernels_are_bit_identical_to_serial(
        batch in 1usize..5,
        in_c in 1usize..5,
        out_c in 1usize..6,
        h in 5usize..12,
        w in 5usize..12,
        kernel in 1usize..5,
        stride in 1usize..4,
        pad in 0usize..3,
        hidden in 1usize..30,
        seed in 0u64..1_000,
    ) {
        let mut attrs = Conv2dAttrs::same(out_c, kernel, stride);
        attrs.padding = (pad, pad);
        let mut b = GraphBuilder::new("bits");
        let x = b.input(Shape::nchw(batch, in_c, h, w));
        let Ok(c) = b.apply("conv", Op::Conv2d(attrs), &[x]) else {
            // Kernel larger than the padded input: rejected at build
            // time, nothing to compare.
            return Ok(());
        };
        let f = b.apply("flatten", Op::Flatten, &[c]).unwrap();
        let d = b.apply("fc", Op::Dense { out_features: hidden, bias: true }, &[f]).unwrap();
        let g = b.finish(vec![d]);
        let input = Tensor::random(Shape::nchw(batch, in_c, h, w), seed, 1.0);
        let serial = run_with(&g, Parallelism::Serial, std::slice::from_ref(&input)).unwrap();
        for threads in [2usize, 4, 7] {
            let threaded =
                run_with(&g, Parallelism::Threads(threads), std::slice::from_ref(&input)).unwrap();
            prop_assert_eq!(&serial, &threaded, "diverged at {} threads", threads);
        }
    }
}

proptest! {
    /// The arena memory plan is transparent: a runner with offset
    /// planning produces **bit-identical** outputs and intermediates to
    /// one with a range of its own per value, on random
    /// CNN chains, across repeated warm runs. This is the safety
    /// contract of `RunnerBuilder::memory_planning`.
    #[test]
    fn memory_planning_is_bit_identical_on_random_chains(
        batch in 1usize..4,
        stages in proptest::collection::vec(1usize..10, 1..4),
        classes in 2usize..6,
        seed in 0u64..1_000,
    ) {
        let g = vedliot_nnir::zoo::tiny_cnn("plan", Shape::nchw(1, 3, 16, 16), &stages, classes)
            .unwrap()
            .with_batch(batch)
            .unwrap();
        let input = Tensor::random(Shape::nchw(batch, 3, 16, 16), seed, 1.0);
        let opts = RunOptions::new().capture_intermediates(true);
        let mut planned = Runner::builder().build(&g).unwrap();
        let mut unplanned = Runner::builder().memory_planning(false).build(&g).unwrap();
        for _ in 0..2 {
            let a = planned.execute(std::slice::from_ref(&input), opts).unwrap();
            let b = unplanned.execute(std::slice::from_ref(&input), opts).unwrap();
            prop_assert_eq!(a.outputs(), b.outputs());
            prop_assert_eq!(a.intermediates(), b.intermediates());
        }
    }
}

/// `FakeQuant`'s f32 arithmetic, spelled with libm's `round`.
fn fake_quant(x: f32, scale: f32) -> f32 {
    (x / scale).round().clamp(-127.0, 127.0) * scale
}

/// The INT8 code the kernels quantize an on-grid activation to.
fn code(x: f32, scale: f32) -> i32 {
    (x * (1.0 / scale)).round().clamp(-127.0, 127.0) as i32
}

/// Symmetric per-channel INT8 weights: `[rows, ..]` codes and scales.
fn quantized(shape: Shape, seed: u64) -> Tensor {
    let mut w = Tensor::random(shape, seed, 1.0);
    w.quantize_i8_per_channel();
    w
}

/// What [`int8_kernels_match_scalar_integer_reference`] checks: a
/// groups=1 conv of `attrs` over a `batch × in_c × h × w` input on the
/// INT8 grid of `1/127`, then flatten, the grid of the conv outputs'
/// absmax and a dense layer of `out_f` features, all weights INT8 per
/// channel; and the scalar integer reference's conv and dense outputs.
struct Int8Case {
    graph: Graph,
    conv: TensorId,
    input: Tensor,
    want_conv: Vec<f32>,
    want: Vec<f32>,
}

/// The [`Int8Case`] of these parameters; `None` when the kernel does
/// not fit the padded input.
fn int8_case(
    batch: usize,
    in_c: usize,
    (h, w): (usize, usize),
    attrs: Conv2dAttrs,
    out_f: usize,
    seed: u64,
) -> Option<Int8Case> {
    let (out_c, (kh, kw), (sh, sw), (ph, pw)) = (
        attrs.out_channels,
        attrs.kernel,
        attrs.stride,
        attrs.padding,
    );
    if h + 2 * ph < kh || w + 2 * pw < kw {
        return None;
    }
    let (oh, ow) = ((h + 2 * ph - kh) / sh + 1, (w + 2 * pw - kw) / sw + 1);
    let in_f = out_c * oh * ow;
    let kernel = quantized(Shape::new(vec![out_c, in_c, kh, kw]), seed);
    let conv_bias = Tensor::random(Shape::new(vec![out_c]), seed + 1, 0.1);
    let fc = quantized(Shape::nf(out_f, in_f), seed + 2);
    let fc_bias = Tensor::random(Shape::new(vec![out_f]), seed + 3, 0.1);
    let input = Tensor::random(Shape::nchw(batch, in_c, h, w), seed + 4, 1.0);
    let s_in = 1.0 / 127.0;

    // The scalar integer reference.
    let x_codes: Vec<i32> = input
        .data()
        .iter()
        .map(|&x| code(fake_quant(x, s_in), s_in))
        .collect();
    let (k_codes, k_scales) = kernel.quant().map(|q| (&q.codes, &q.scales)).unwrap();
    let mut want_conv = vec![0.0f32; batch * in_f];
    for (u, o) in want_conv.iter_mut().enumerate() {
        let (bi, oc, oy, ox) = (u / in_f, u / (oh * ow) % out_c, u / ow % oh, u % ow);
        let mut acc = 0i32;
        for ic in 0..in_c {
            for ky in 0..kh {
                for kx in 0..kw {
                    let iy = (oy * sh + ky) as isize - ph as isize;
                    let ix = (ox * sw + kx) as isize - pw as isize;
                    if iy < 0 || ix < 0 || iy >= h as isize || ix >= w as isize {
                        continue;
                    }
                    let x = x_codes[((bi * in_c + ic) * h + iy as usize) * w + ix as usize];
                    acc += i32::from(k_codes[((oc * in_c + ic) * kh + ky) * kw + kx]) * x;
                }
            }
        }
        *o = conv_bias.data()[oc] + acc as f32 * (k_scales[oc] * s_in);
    }
    let s_mid = want_conv
        .iter()
        .fold(0.0f32, |m, &x| m.max(x.abs()))
        .max(1e-3)
        / 127.0;
    let (fc_codes, fc_scales) = fc.quant().map(|q| (&q.codes, &q.scales)).unwrap();
    let mut want = vec![0.0f32; batch * out_f];
    for (u, o) in want.iter_mut().enumerate() {
        let (bi, of) = (u / out_f, u % out_f);
        let acc: i32 = (0..in_f)
            .map(|i| {
                let x = code(fake_quant(want_conv[bi * in_f + i], s_mid), s_mid);
                i32::from(fc_codes[of * in_f + i]) * x
            })
            .sum();
        *o = fc_bias.data()[of] + acc as f32 * (fc_scales[of] * s_mid);
    }

    let mut b = GraphBuilder::new("int8");
    let x = b.input(Shape::nchw(batch, in_c, h, w));
    let xq = b.apply("x.q", Op::FakeQuant { scale: s_in }, &[x]).unwrap();
    let conv_weights = WeightInit::Explicit(vec![kernel, conv_bias]);
    let conv = b
        .apply_with_weights("conv", Op::Conv2d(attrs), &[xq], conv_weights)
        .unwrap();
    let f = b.apply("flatten", Op::Flatten, &[conv]).unwrap();
    let fq = b
        .apply("flatten.q", Op::FakeQuant { scale: s_mid }, &[f])
        .unwrap();
    let fc_weights = WeightInit::Explicit(vec![fc, fc_bias]);
    let dense = Op::Dense {
        out_features: out_f,
        bias: true,
    };
    let d = b
        .apply_with_weights("fc", dense, &[fq], fc_weights)
        .unwrap();
    Some(Int8Case {
        graph: b.finish(vec![d]),
        conv,
        input,
        want_conv,
        want,
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// The INT8 kernels against a scalar integer reference: a random
    /// groups=1 conv (1×k kernels and strides up to 3 included) followed
    /// by a dense layer, both on the INT8 path, is **bit-equal** to a
    /// naive `Σ i32(code)·i32(q(x))` per output plus the documented
    /// epilogue `bias + acc · (w_scale · in_scale)`, serial and threaded,
    /// planned and unplanned. Integer accumulation is exact, so no
    /// schedule may change a bit.
    #[test]
    fn int8_kernels_match_scalar_integer_reference(
        batch in 1usize..4,
        in_c in 1usize..9,
        out_c in 1usize..9,
        (h, w) in (3usize..14, 3usize..14),
        (kh, kw) in (1usize..4, 1usize..6),
        (sh, sw) in (1usize..4, 1usize..4),
        (ph, pw) in (0usize..3, 0usize..3),
        out_f in 1usize..9,
        seed in 0u64..1_000,
    ) {
        let attrs = Conv2dAttrs {
            out_channels: out_c,
            kernel: (kh, kw),
            stride: (sh, sw),
            padding: (ph, pw),
            groups: 1,
            bias: true,
        };
        let Some(case) = int8_case(batch, in_c, (h, w), attrs, out_f, seed) else {
            return Ok(());
        };
        for par in [Parallelism::Serial, Parallelism::Threads(2)] {
            for planning in [true, false] {
                let mut runner = Runner::builder()
                    .parallelism(par)
                    .memory_planning(planning)
                    .build(&case.graph)
                    .unwrap();
                let opts = RunOptions::new().capture_intermediates(true).profile(true);
                let got = runner.execute(std::slice::from_ref(&case.input), opts).unwrap();
                prop_assert_eq!(got.profile().unwrap().int8_nodes(), 2);
                let conv_out = got.intermediates().unwrap()[case.conv.0].as_ref().unwrap();
                prop_assert_eq!(bits(conv_out.data()), bits(&case.want_conv), "conv under {:?}", par);
                let out = got.outputs()[0].data();
                prop_assert_eq!(bits(out), bits(&case.want), "dense under {:?}", par);
            }
        }
    }
}

/// A graph of one conv over an input of `shape` with explicit weights.
fn conv_graph(attrs: Conv2dAttrs, shape: &Shape, weights: Vec<Tensor>) -> Graph {
    let mut b = GraphBuilder::new("conv");
    let x = b.input(shape.clone());
    let c = b
        .apply_with_weights(
            "conv",
            Op::Conv2d(attrs),
            &[x],
            WeightInit::Explicit(weights),
        )
        .unwrap();
    b.finish(vec![c])
}

fn bits(v: &[f32]) -> Vec<u32> {
    v.iter().map(|x| x.to_bits()).collect()
}

/// The f32 conv arithmetic, spelled out one output at a time: the value
/// at `(bi, oc, oy, ox)` of `x` convolved with `k` (plus `bias`).
///
/// * Dense (`groups == 1`): the bias plus the engine's `dot4`-ordered
///   reduction of the kernel row against the zero-padded patch —
///   element `i` of the `(ic, ky, kx)`-ordered patch on lane `i % 4`,
///   the lanes combined as `(l0+l1) + (l2+l3)`.
/// * Grouped and depthwise: the bias, then `+= x·w` over the taps that
///   land inside the input, in `(ic, ky, kx)` order.
fn conv_reference(x: &Tensor, k: &Tensor, bias: Option<&Tensor>, a: &Conv2dAttrs) -> Vec<f32> {
    let [n, in_c, h, w] = x.shape().dims()[..] else {
        panic!("NCHW input expected");
    };
    let ((kh, kw), (sh, sw), (ph, pw)) = (a.kernel, a.stride, a.padding);
    let (out_c, icg) = (a.out_channels, in_c / a.groups);
    let (oh, ow) = ((h + 2 * ph - kh) / sh + 1, (w + 2 * pw - kw) / sw + 1);
    let mut out = vec![0.0f32; n * out_c * oh * ow];
    for (u, o) in out.iter_mut().enumerate() {
        let (bi, oc, oy, ox) = (
            u / (out_c * oh * ow),
            u / (oh * ow) % out_c,
            u / ow % oh,
            u % ow,
        );
        let b0 = bias.map_or(0.0, |b| b.data()[oc]);
        let mut lanes = [0.0f32; 4];
        let mut acc = b0;
        let mut i = 0;
        for ic in 0..icg {
            let plane = (bi * in_c + oc / (out_c / a.groups) * icg + ic) * h * w;
            for ky in 0..kh {
                for kx in 0..kw {
                    let wv = k.data()[((oc * icg + ic) * kh + ky) * kw + kx];
                    let iy = (oy * sh + ky).checked_sub(ph).filter(|&iy| iy < h);
                    let ix = (ox * sw + kx).checked_sub(pw).filter(|&ix| ix < w);
                    let xv = iy.zip(ix).map(|(iy, ix)| x.data()[plane + iy * w + ix]);
                    if a.groups == 1 {
                        lanes[i % 4] += wv * xv.unwrap_or(0.0);
                    } else if let Some(xv) = xv {
                        acc += xv * wv;
                    }
                    i += 1;
                }
            }
        }
        *o = if a.groups == 1 {
            b0 + ((lanes[0] + lanes[1]) + (lanes[2] + lanes[3]))
        } else {
            acc
        };
    }
    out
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// The f32 conv kernels against [`conv_reference`]: the register-tiled
    /// GEMM, the 1×1/s1/p0 lane kernel (these draws have at most 9 input
    /// channels) and the channel-blocked grouped kernel are **bit-equal**
    /// to the documented per-output arithmetic, serial and threaded,
    /// planned and unplanned.
    /// Channel counts straddle the 4-row GEMM unit and the 16-channel
    /// grouped block, and kernels are asymmetric.
    #[test]
    fn f32_conv_kernels_match_scalar_reference(
        kind in 0usize..3,
        (a, b, c) in (1usize..40, 1usize..10, 1usize..20),
        batch in 1usize..4,
        (h, w) in (1usize..12, 1usize..12),
        (kh, kw) in (1usize..6, 1usize..6),
        (sh, sw) in (1usize..4, 1usize..4),
        (ph, pw) in (0usize..3, 0usize..3),
        pointwise in 0usize..5,
        bias in any::<bool>(),
        seed in 0u64..1_000,
    ) {
        // Dense (1..10 → 1..20 channels), depthwise (1..40 channels), or
        // 2..4 groups of 2..3 input and 1..6 output channels each.
        let (groups, icg, ocg) = match kind {
            0 => (1, b, c),
            1 => (a, 1, 1),
            _ => (2 + a % 3, 2 + b % 2, 1 + c % 6),
        };
        let (in_c, out_c) = (groups * icg, groups * ocg);
        let ((kh, kw), (sh, sw), (ph, pw)) = if pointwise == 0 {
            ((1, 1), (1, 1), (0, 0))
        } else {
            ((kh, kw), (sh, sw), (ph, pw))
        };
        if h + 2 * ph < kh || w + 2 * pw < kw {
            return Ok(());
        }
        let attrs = Conv2dAttrs {
            out_channels: out_c,
            kernel: (kh, kw),
            stride: (sh, sw),
            padding: (ph, pw),
            groups,
            bias,
        };
        let kernel = Tensor::random(Shape::new(vec![out_c, icg, kh, kw]), seed, 1.0);
        let bias_t = Tensor::random(Shape::new(vec![out_c]), seed + 1, 0.5);
        let input = Tensor::random(Shape::nchw(batch, in_c, h, w), seed + 2, 1.0);
        let want = conv_reference(&input, &kernel, bias.then_some(&bias_t), &attrs);

        let weights = if bias { vec![kernel, bias_t] } else { vec![kernel] };
        let g = conv_graph(attrs, input.shape(), weights);
        for par in [Parallelism::Serial, Parallelism::Threads(2)] {
            for planning in [true, false] {
                let got = Runner::builder()
                    .parallelism(par)
                    .memory_planning(planning)
                    .build(&g)
                    .unwrap()
                    .execute(std::slice::from_ref(&input), RunOptions::default())
                    .unwrap();
                prop_assert_eq!(
                    bits(got.outputs()[0].data()),
                    bits(&want),
                    "groups {} under {:?}, planned {}",
                    groups,
                    par,
                    planning
                );
            }
        }
    }
}

/// Wide planes take every f32 conv path past its first cache block:
/// the grouped kernel through several row strips (its budget holds only
/// a few interleaved input rows), the GEMM through several pixel
/// blocks, for the 1×1 transpose fill (40 input channels, past the lane
/// kernel's bound) and the general patch gather alike, and the 1×1 lane
/// kernel over one 7,500-pixel plane per output channel. Serial and
/// over two workers, no seam may change a bit against
/// [`conv_reference`]. The depthwise case spans a full and a one-channel
/// block; the grouped one has three input channels per group.
#[test]
fn wide_planes_match_scalar_reference() {
    for (groups, icg, ocg, kernel, stride, padding, (h, w)) in [
        (17, 1, 1, (3, 5), (1, 2), (1, 2), (21, 500)),
        (2, 3, 5, (5, 3), (2, 1), (2, 0), (30, 300)),
        (1, 5, 7, (1, 1), (1, 1), (0, 0), (30, 250)),
        (1, 40, 6, (1, 1), (1, 1), (0, 0), (20, 61)),
        (1, 3, 6, (3, 2), (1, 1), (1, 0), (20, 61)),
    ] {
        let attrs = Conv2dAttrs {
            out_channels: groups * ocg,
            kernel,
            stride,
            padding,
            groups,
            bias: true,
        };
        let k = Tensor::random(
            Shape::new(vec![groups * ocg, icg, kernel.0, kernel.1]),
            5,
            1.0,
        );
        let b = Tensor::random(Shape::new(vec![groups * ocg]), 6, 0.5);
        let input = Tensor::random(Shape::nchw(1, groups * icg, h, w), 7, 1.0);
        let want = conv_reference(&input, &k, Some(&b), &attrs);
        let g = conv_graph(attrs, input.shape(), vec![k, b]);
        for par in [Parallelism::Serial, Parallelism::Threads(2)] {
            let got = run_with(&g, par, std::slice::from_ref(&input)).unwrap();
            assert_eq!(
                bits(got[0].data()),
                bits(&want),
                "groups {groups} under {par:?}"
            );
        }
    }
}

/// Runs `g` on `inputs` serial and over two workers, planned and
/// unplanned, plain and capturing every intermediate, and asserts that
/// every output and every captured value is bit-equal to `want`
/// (one value per tensor, as [`reference_values`] returns them).
fn assert_matches_values(g: &Graph, inputs: &[Tensor], want: &[Option<Tensor>], label: &str) {
    for par in [Parallelism::Serial, Parallelism::Threads(2)] {
        for planning in [true, false] {
            let mut runner = Runner::builder()
                .parallelism(par)
                .memory_planning(planning)
                .build(g)
                .unwrap();
            let plain = runner.execute(inputs, RunOptions::default()).unwrap();
            for (got, t) in plain.outputs().iter().zip(g.outputs()) {
                let wanted = want[t.0].as_ref().unwrap();
                assert_eq!(
                    bits(got.data()),
                    bits(wanted.data()),
                    "{label} under {par:?}, planned {planning}"
                );
            }
            let opts = RunOptions::new().capture_intermediates(true);
            let captured = runner.execute(inputs, opts).unwrap();
            for (t, (got, wanted)) in captured
                .intermediates()
                .unwrap()
                .iter()
                .zip(want)
                .enumerate()
            {
                let (got, wanted) = (got.as_ref().unwrap(), wanted.as_ref().unwrap());
                assert_eq!(
                    bits(got.data()),
                    bits(wanted.data()),
                    "{label} under {par:?}, planned {planning}: tensor {t}"
                );
            }
        }
    }
}

/// [`assert_matches_values`] against [`reference_values`].
fn assert_matches_reference(g: &Graph, inputs: &[Tensor], label: &str) {
    assert_matches_values(g, inputs, &reference_values(g, inputs), label);
}

/// `x → conv` (1×1, stride 1, unpadded, `out_c` channels, `bias`) over
/// `x`, optionally followed by a fused BatchNorm, HardSwish and a
/// residual `Add` of a second input `r` (the chain value on the left
/// when `chain_first`).
fn pointwise_graph(
    x: &Tensor,
    out_c: usize,
    bias: Option<Tensor>,
    kernel: Tensor,
    residual: Option<(&Tensor, bool)>,
) -> Graph {
    let attrs = Conv2dAttrs {
        out_channels: out_c,
        kernel: (1, 1),
        stride: (1, 1),
        padding: (0, 0),
        groups: 1,
        bias: bias.is_some(),
    };
    conv_chain_graph(x, attrs, bias, kernel, residual)
}

/// [`pointwise_graph`] for a conv of any `attrs`.
fn conv_chain_graph(
    x: &Tensor,
    attrs: Conv2dAttrs,
    bias: Option<Tensor>,
    kernel: Tensor,
    residual: Option<(&Tensor, bool)>,
) -> Graph {
    let out_c = attrs.out_channels;
    let mut b = GraphBuilder::new("conv-chain");
    let xi = b.input(x.shape().clone());
    let weights = std::iter::once(kernel).chain(bias).collect();
    let conv = Op::Conv2d(attrs);
    let c = b
        .apply_with_weights("conv", conv, &[xi], WeightInit::Explicit(weights))
        .unwrap();
    let Some((r, chain_first)) = residual else {
        return b.finish(vec![c]);
    };
    let ri = b.input(r.shape().clone());
    let bn = WeightInit::Explicit(vec![
        Tensor::random(Shape::new(vec![out_c]), 31, 1.0),
        Tensor::random(Shape::new(vec![out_c]), 32, 0.5),
    ]);
    let c = b.apply_with_weights("bn", Op::BatchNorm, &[c], bn).unwrap();
    let c = b
        .apply("act", Op::Activation(ActKind::HardSwish), &[c])
        .unwrap();
    let pair = if chain_first { [c, ri] } else { [ri, c] };
    let c = b.apply("add", Op::Add, &pair).unwrap();
    b.finish(vec![c])
}

/// The f32 kernel-selection rule at its seams: 1×1, stride-1, unpadded
/// convs of K ∈ {1, 2, 3, 4, 5, 8, 15, 16, 17, 31, 32, 33} input
/// channels (the lane kernel's bound of 32 ± 1) over planes of 1, 7, 8,
/// 9, 15, 16 and 17 pixels (its threshold of 8 ± 1), each with 1, 3, 4,
/// 5 and 9 output channels, with and without bias, at batch 1 and 3,
/// plus one 64×65 plane per K. Every output and captured value is
/// `bias + dot4(w, column)` bit for bit ([`conv_reference`]), on the
/// lane kernel and on the im2col tile alike, and so are the values of a
/// BatchNorm, HardSwish and residual `Add` fused into the conv.
#[test]
fn pointwise_rule_seams_match_scalar_reference() {
    let ks = [1, 2, 3, 4, 5, 8, 15, 16, 17, 31, 32, 33];
    let planes = [(1, 1), (1, 7), (2, 4), (3, 3), (3, 5), (4, 4), (1, 17)];
    let out_cs = [1, 3, 4, 5, 9];
    let mut case = 0u64;
    for (i, &k) in ks.iter().enumerate() {
        let mut shapes: Vec<((usize, usize), usize, bool, usize)> = Vec::new();
        for &hw in &planes {
            for &out_c in &out_cs {
                for (bias, batch) in [(false, 1), (true, 1), (false, 3), (true, 3)] {
                    shapes.push((hw, out_c, bias, batch));
                }
            }
        }
        shapes.push(((64, 65), out_cs[i % 5], i % 2 == 0, 1 + 2 * (i / 2 % 2)));
        for ((h, w), out_c, bias, batch) in shapes {
            case += 1;
            let x = Tensor::random(Shape::nchw(batch, k, h, w), case, 1.0);
            let kernel = Tensor::random(Shape::new(vec![out_c, k, 1, 1]), case + 1, 1.0);
            let b = bias.then(|| Tensor::random(Shape::new(vec![out_c]), case + 2, 0.5));
            let g = pointwise_graph(&x, out_c, b, kernel, None);
            let label = format!("K {k}, {h}x{w}, out_c {out_c}, bias {bias}, batch {batch}");
            assert_matches_reference(&g, std::slice::from_ref(&x), &label);
        }
    }
    for (k, (h, w), batch, chain_first) in [
        (16, (3, 3), 3, true),
        (16, (64, 64), 1, false),
        (40, (9, 9), 2, false),
        (40, (64, 64), 1, true),
    ] {
        let x = Tensor::random(Shape::nchw(batch, k, h, w), 41, 1.0);
        let r = Tensor::random(Shape::nchw(batch, 5, h, w), 42, 1.0);
        let kernel = Tensor::random(Shape::new(vec![5, k, 1, 1]), 43, 1.0);
        let b = Tensor::random(Shape::new(vec![5]), 44, 0.5);
        let g = pointwise_graph(&x, 5, Some(b), kernel, Some((&r, chain_first)));
        let label = format!("fused K {k}, {h}x{w}, batch {batch}");
        assert_matches_reference(&g, &[x, r], &label);
    }
}

/// What reads a [`pair_graph`]'s expansion besides its depthwise conv.
#[derive(Debug, Clone, Copy)]
enum Reader {
    /// Nothing.
    Depthwise,
    /// A ReLU, whose value is a graph output.
    Relu,
    /// The caller: the expansion is a graph output.
    Output,
}

/// One [`pair_graph`]: the expansion's input channels, kernel and
/// padding and output channels, the depthwise conv's kernel and stride,
/// the input plane, the expansion's other reader, and whether the runner
/// computes the expansion into the depthwise conv a block at a time.
struct PairCase {
    in_c: usize,
    expand: (usize, usize),
    out_c: usize,
    depthwise: (usize, usize),
    plane: (usize, usize),
    reader: Reader,
    fused: bool,
}

/// `relu(x) → expansion conv (stride 1, bias) → BatchNorm → HardSwish →
/// depthwise conv (padding kernel / 2, bias) → BatchNorm → ReLU → Add`
/// of `relu(r)`, at `batch`, explicit weights, plus `case.reader`: the
/// operands the expansion and the residual `Add` read both live in the
/// arena.
fn pair_graph(batch: usize, case: &PairCase) -> Graph {
    let ((k, p), (dk, ds), (h, w), c) = (case.expand, case.depthwise, case.plane, case.out_c);
    let (oh, ow) = (
        (h + 2 * (dk / 2) - dk) / ds + 1,
        (w + 2 * (dk / 2) - dk) / ds + 1,
    );
    let mut b = GraphBuilder::new("expand-depthwise");
    let x = b.input(Shape::nchw(batch, case.in_c, h, w));
    let r = b.input(Shape::nchw(batch, c, oh, ow));
    let relu = Op::Activation(ActKind::Relu);
    let xr = b.apply("x.relu", relu.clone(), &[x]).unwrap();
    let rr = b.apply("r.relu", relu.clone(), &[r]).unwrap();
    let t = |dims: Vec<usize>, seed: u64, scale: f32| Tensor::random(Shape::new(dims), seed, scale);
    let conv = |kernel: Vec<usize>, seed: u64| {
        WeightInit::Explicit(vec![t(kernel, seed, 1.0), t(vec![c], seed + 1, 0.5)])
    };
    let bn =
        |seed: u64| WeightInit::Explicit(vec![t(vec![c], seed, 1.0), t(vec![c], seed + 1, 0.5)]);
    let attrs = |kernel, stride, padding, groups| Conv2dAttrs {
        out_channels: c,
        kernel: (kernel, kernel),
        stride: (stride, stride),
        padding: (padding, padding),
        groups,
        bias: true,
    };
    let e = Op::Conv2d(attrs(k, 1, p, 1));
    let e = b.apply_with_weights("expand", e, &[xr], conv(vec![c, case.in_c, k, k], 1));
    let e = b.apply_with_weights("expand.bn", Op::BatchNorm, &[e.unwrap()], bn(3));
    let act = Op::Activation(ActKind::HardSwish);
    let e = b.apply("expand.act", act, &[e.unwrap()]).unwrap();
    let d = Op::Conv2d(attrs(dk, ds, dk / 2, c));
    let d = b.apply_with_weights("dw", d, &[e], conv(vec![c, 1, dk, dk], 5));
    let d = b.apply_with_weights("dw.bn", Op::BatchNorm, &[d.unwrap()], bn(7));
    let d = b.apply("dw.relu", relu.clone(), &[d.unwrap()]).unwrap();
    let d = b.apply("add", Op::Add, &[d, rr]).unwrap();
    let outputs = match case.reader {
        Reader::Depthwise => vec![d],
        Reader::Relu => vec![d, b.apply("expand.relu", relu, &[e]).unwrap()],
        Reader::Output => vec![d, e],
    };
    b.finish(outputs)
}

/// The fusion rule at its seams: an expansion conv on the lane kernel
/// (1×1 over K = 16 and 32 input channels, and a padded 3×3 over 2)
/// whose only reader is a depthwise conv (3×3 and 5×5, stride 1 and 2,
/// padded) is computed into it 16 channels at a time, over 8, 16, 17
/// and 72 channels, so some blocks are short; one on the GEMM (K = 33),
/// one with a second reader, one that is a graph output and one over
/// 6 pixels are not. The plan's bytes tell which: a fused expansion
/// owns one block, live only at the pair's step. One runner built at
/// batch 3 runs batches 3, 1, 2 and 3, serial and over two workers,
/// planned and unplanned; each output, and each captured value (every
/// expansion in full), is [`conv_reference`]'s arithmetic bit for bit,
/// with the expansion's BatchNorm and HardSwish and the depthwise conv's
/// BatchNorm, ReLU and residual `Add`. Both convs keep profile records
/// of their own time, each naming none, and each tail names its conv.
#[test]
fn expansion_into_depthwise_seams_match_scalar_reference() {
    let pair = |in_c, expand, out_c, depthwise, plane, reader, fused| PairCase {
        in_c,
        expand,
        out_c,
        depthwise,
        plane,
        reader,
        fused,
    };
    let cases = [
        pair(16, (1, 0), 8, (3, 1), (9, 10), Reader::Depthwise, true),
        pair(16, (1, 0), 16, (5, 2), (9, 10), Reader::Depthwise, true),
        pair(32, (1, 0), 17, (3, 2), (9, 10), Reader::Depthwise, true),
        pair(32, (1, 0), 72, (5, 1), (12, 16), Reader::Depthwise, true),
        pair(2, (3, 1), 17, (5, 2), (9, 10), Reader::Depthwise, true),
        pair(33, (1, 0), 17, (3, 1), (9, 10), Reader::Depthwise, false),
        pair(16, (1, 0), 17, (3, 1), (9, 10), Reader::Relu, false),
        pair(16, (1, 0), 17, (3, 1), (9, 10), Reader::Output, false),
        pair(16, (1, 0), 17, (3, 1), (2, 3), Reader::Depthwise, false),
    ];
    for (i, case) in cases.iter().enumerate() {
        let g = pair_graph(3, case);
        let label = |at: String| format!("case {i} ({:?}, out_c {}) {at}", case.reader, case.out_c);
        let named = |name: &str| g.nodes().iter().find(|n| n.name == name).unwrap().output;
        let bytes = |t: TensorId| 4 * g.tensor_shape(t).unwrap().elem_count() as u64;
        let expansion = bytes(named("expand.act"));
        let block = expansion / case.out_c as u64 * case.out_c.min(16) as u64;
        let whole: u64 = (0..g.tensor_count())
            .map(TensorId)
            .filter(|t| !g.inputs().contains(t))
            .map(bytes)
            .sum();
        let plan = vedliot_nnir::exec::MemoryPlan::plan(&g);
        if case.fused {
            assert_eq!(
                plan.unplanned_bytes(),
                whole - expansion + block,
                "{}",
                label(String::new())
            );
            let live = ["x.relu", "r.relu", "add"].map(|n| bytes(named(n)));
            assert_eq!(
                plan.peak_bytes(),
                live.iter().sum::<u64>() + block,
                "{}",
                label(String::new())
            );
        } else {
            assert_eq!(plan.unplanned_bytes(), whole, "{}", label(String::new()));
        }
        for par in [Parallelism::Serial, Parallelism::Threads(2)] {
            for planning in [true, false] {
                let mut runner = Runner::builder()
                    .parallelism(par)
                    .memory_planning(planning)
                    .build(&g)
                    .unwrap();
                for (j, n) in [3, 1, 2, 3].into_iter().enumerate() {
                    let at_n = g.with_batch(n).unwrap();
                    let seed = 100 * i as u64 + j as u64;
                    let inputs: Vec<Tensor> = at_n
                        .inputs()
                        .iter()
                        .zip(seed..)
                        .map(|(&t, seed)| {
                            Tensor::random(at_n.tensor_shape(t).unwrap().clone(), seed, 1.0)
                        })
                        .collect();
                    let want = reference_values(&at_n, &inputs);
                    let at = format!("under {par:?}, planned {planning}, batch {n}");
                    let opts = RunOptions::new().profile(true);
                    let plain = runner.execute(&inputs, opts).unwrap();
                    for (got, t) in plain.outputs().iter().zip(g.outputs()) {
                        let want = want[t.0].as_ref().unwrap();
                        assert_eq!(bits(got.data()), bits(want.data()), "{}", label(at.clone()));
                    }
                    // Each conv keeps a record of its own time, and its
                    // tails name it, fused or not.
                    for record in &plain.profile().unwrap().per_node {
                        let name = record.name.as_str();
                        let head = match name {
                            "expand.bn" | "expand.act" => Some("expand"),
                            "dw.bn" | "dw.relu" | "add" => Some("dw"),
                            _ => None,
                        };
                        assert_eq!(
                            record.fused_into.as_deref(),
                            head,
                            "{} {name}",
                            label(at.clone())
                        );
                        if matches!(name, "expand" | "dw") {
                            assert!(record.duration_ns > 0, "{} {name}", label(at.clone()));
                        }
                    }
                    let opts = RunOptions::new().capture_intermediates(true);
                    let captured = runner.execute(&inputs, opts).unwrap();
                    let values = captured.intermediates().unwrap().iter().zip(&want);
                    for (t, (got, want)) in values.enumerate() {
                        let (got, want) = (got.as_ref().unwrap(), want.as_ref().unwrap());
                        assert_eq!(got.shape(), want.shape(), "{} t{t}", label(at.clone()));
                        assert_eq!(
                            bits(got.data()),
                            bits(want.data()),
                            "{} t{t}",
                            label(at.clone())
                        );
                    }
                }
            }
        }
    }
}

/// The f32 kernel-selection rule for spatial convs at its seams: a
/// stride-1 conv of at most 32 taps whose output rows hold at least 8
/// pixels runs the lane kernel, every other one the im2col tile, and
/// both read the same zero-padded planes through one tap list. Kernels
/// 1×5, 5×1, 3×3, 5×5 and 7×7 (plus 2×2 and 3×1 to reach K = 32 and
/// 33) over K ∈ {9, 25, 27, 32, 33, 49}, every padding from 0 to the
/// kernel's extent − 1, stride 1 and 2, and output rows of 1, 7, 8, 9,
/// 15, 16 and 17 pixels; the cases take 1, 4 and 5 output channels,
/// with and without bias, at batch 1 and 3 in turn. Every output and
/// captured value is `bias + dot4(w, patch)` bit for bit
/// ([`conv_reference`]), serial and over two workers, planned and
/// unplanned, and so are the values of a BatchNorm, HardSwish and
/// residual `Add` fused into a padded 5×5 conv on either kernel.
#[test]
fn spatial_rule_seams_match_scalar_reference() {
    let kernels = [
        ((3, 3), 1),
        ((3, 3), 3),
        ((5, 5), 1),
        ((1, 5), 5),
        ((5, 1), 5),
        ((2, 2), 8),
        ((3, 1), 11),
        ((7, 7), 1),
    ];
    let turns = [
        (1, false, 1),
        (4, true, 3),
        (5, true, 1),
        (1, true, 3),
        (4, false, 1),
        (5, false, 3),
    ];
    let mut case = 0usize;
    for ((kh, kw), in_c) in kernels {
        for p in 0..kh.max(kw) {
            let (ph, pw) = (p.min(kh - 1), p.min(kw - 1));
            for stride in [1, 2] {
                for ow in [1, 7, 8, 9, 15, 16, 17] {
                    // Input extents that give `ow` columns and 3 rows.
                    let w = (ow - 1) * stride + kw;
                    let h = 2 * stride + kh;
                    if w <= 2 * pw || h <= 2 * ph {
                        continue;
                    }
                    let (h, w) = (h - 2 * ph, w - 2 * pw);
                    case += 1;
                    let (out_c, bias, batch) = turns[case % turns.len()];
                    let attrs = Conv2dAttrs {
                        out_channels: out_c,
                        kernel: (kh, kw),
                        stride: (stride, stride),
                        padding: (ph, pw),
                        groups: 1,
                        bias,
                    };
                    let seed = case as u64 * 3;
                    let x = Tensor::random(Shape::nchw(batch, in_c, h, w), seed, 1.0);
                    let kshape = Shape::new(vec![out_c, in_c, kh, kw]);
                    let kernel = Tensor::random(kshape, seed + 1, 1.0);
                    let b = bias.then(|| Tensor::random(Shape::new(vec![out_c]), seed + 2, 0.5));
                    let g = conv_chain_graph(&x, attrs, b, kernel, None);
                    let label = format!(
                        "{kh}x{kw} K {}, pad {ph}x{pw}, stride {stride}, {h}x{w} -> row of {ow}, \
                         out_c {out_c}, bias {bias}, batch {batch}",
                        in_c * kh * kw
                    );
                    assert_matches_reference(&g, std::slice::from_ref(&x), &label);
                }
            }
        }
    }
    for (in_c, (h, w), batch, chain_first) in [(1, (9, 12), 3, true), (2, (6, 9), 1, false)] {
        let attrs = Conv2dAttrs {
            out_channels: 5,
            kernel: (5, 5),
            stride: (1, 1),
            padding: (2, 2),
            groups: 1,
            bias: true,
        };
        let x = Tensor::random(Shape::nchw(batch, in_c, h, w), 61, 1.0);
        let r = Tensor::random(Shape::nchw(batch, 5, h, w), 62, 1.0);
        let kernel = Tensor::random(Shape::new(vec![5, in_c, 5, 5]), 63, 1.0);
        let b = Tensor::random(Shape::new(vec![5]), 64, 0.5);
        let g = conv_chain_graph(&x, attrs, Some(b), kernel, Some((&r, chain_first)));
        let label = format!("fused padded 5x5, K {}, {h}x{w}, batch {batch}", 25 * in_c);
        assert_matches_reference(&g, &[x, r], &label);
    }
}

/// The matrix-vector tile against [`dense_reference`]: dense layers of
/// 1..=9 output features (whole four-row tiles and the one-row rest)
/// over 1..=33 input features, at batch 1 and 3, with and without a
/// bias, and a one-pixel 1×1 conv (squeeze-excite's shape), whose every
/// four-row GEMM unit is one tile.
#[test]
fn matrix_vector_tile_matches_scalar_reference() {
    for out_f in 1..=9 {
        for in_f in 1..=33 {
            for batch in [1, 3] {
                let seed = (out_f * 100 + in_f * 3 + batch) as u64;
                let x = Tensor::random(Shape::nf(batch, in_f), seed, 1.0);
                let w = Tensor::random(Shape::nf(out_f, in_f), seed + 1, 1.0);
                let bias = Tensor::random(Shape::new(vec![out_f]), seed + 2, 0.5);
                let g = dense_graph(x.shape(), w, bias);
                let label = format!("dense {in_f} -> {out_f}, batch {batch}");
                assert_matches_reference(&g, std::slice::from_ref(&x), &label);
            }
        }
    }
    for (k, out_c, batch) in [(960, 240, 1), (17, 9, 3), (3, 4, 1)] {
        let x = Tensor::random(Shape::nchw(batch, k, 1, 1), 51, 1.0);
        let kernel = Tensor::random(Shape::new(vec![out_c, k, 1, 1]), 52, 1.0);
        let g = pointwise_graph(&x, out_c, None, kernel, None);
        let label = format!("one-pixel conv K {k}, out_c {out_c}, batch {batch}");
        assert_matches_reference(&g, std::slice::from_ref(&x), &label);
    }
}

/// A one-layer dense graph of `w` (`[out_f, in_f]`) and `bias` over an
/// input of `shape`.
fn dense_graph(shape: &Shape, w: Tensor, bias: Tensor) -> Graph {
    let mut b = GraphBuilder::new("dense");
    let x = b.input(shape.clone());
    let dense = Op::Dense {
        out_features: w.shape().dims()[0],
        bias: true,
    };
    let d = b
        .apply_with_weights("fc", dense, &[x], WeightInit::Explicit(vec![w, bias]))
        .unwrap();
    b.finish(vec![d])
}

/// Special values through every f32 dense kernel: 1×1 convs of K up to
/// 31 (the tail on every lane) over planes of 9, 16 and 81 pixels (the
/// lane kernel), of K 33 and 40 over the same planes (the im2col tile,
/// pixel pairs and an odd last pixel), over one pixel (the
/// matrix-vector tile), through the tile as a dense layer, and with 4
/// and 5 output channels (5 leaves a unit of one row):
///
/// * products that are all `-0.0`: every lane starts at `+0.0`, so the
///   sum is `+0.0`, and a `-0.0` bias plus it is `+0.0`;
/// * ±inf, zeros of both signs and subnormals among ordinary values,
///   against the scalar reference (no input is a NaN, so every NaN a
///   product or a sum makes is the default NaN, whose bits no
///   evaluation order changes);
/// * one NaN of payload A in every kernel row and one of payload B in
///   every input column, at the same channel `c`, everything else
///   finite: each output holds exactly one NaN product, and it must keep
///   A, the payload of `w` in `w·x`. Which payload a product keeps is
///   the compiler's choice of destination register (`fmul` is
///   commutative to LLVM), so this holds for the optimized build the
///   kernels ship in, where ci.sh runs these tests; an unoptimized
///   build of the lane kernel keeps B.
///
/// Then a padded 5×5 conv on the lane kernel and on the tile (two input
/// channels, 50 taps): ±inf and NaN weights meet the `+0.0` of padded
/// taps (`inf·+0.0` is NaN) against the scalar reference — each NaN
/// weight is the NaN the host's `inf·0` makes, so every NaN is one
/// value, whose bits no evaluation order changes — and with every
/// weight a NaN of payload A and every input one of payload B, every
/// product, padded taps included, and so every output must keep A.
#[test]
fn pointwise_and_matrix_vector_kernels_keep_special_value_bits() {
    let nan_w = f32::from_bits(0x7fc0_0001);
    let nan_x = f32::from_bits(0xffc0_0002);
    let finite = |shape: Shape, seed: u64| {
        let t = special_values(shape.clone(), seed, false);
        let v = t.data().iter().map(|&v| if v.is_nan() { 1.5 } else { v });
        Tensor::from_vec(shape, v.collect()).unwrap()
    };
    for k in [3, 5, 7, 16, 17, 31, 33, 40] {
        for ((h, w), out_c) in [(1, 1), (3, 3), (4, 4), (9, 9)]
            .into_iter()
            .flat_map(|hw| [(hw, 4), (hw, 5)])
        {
            let (pix, kshape) = (h * w, Shape::new(vec![out_c, k, 1, 1]));
            let zeros = Tensor::zeros(Shape::nchw(1, k, h, w));
            let kernel = Tensor::from_vec(kshape.clone(), vec![-1.0; out_c * k]).unwrap();
            for bias in [None, Some(-0.0)] {
                let b = bias
                    .map(|v| Tensor::from_vec(Shape::new(vec![out_c]), vec![v; out_c]).unwrap());
                let g = pointwise_graph(&zeros, out_c, b, kernel.clone(), None);
                let label = format!("-0.0 products, K {k}, {h}x{w}, out_c {out_c}, bias {bias:?}");
                let out = run_once(&g, std::slice::from_ref(&zeros)).unwrap();
                assert!(out[0].data().iter().all(|v| v.to_bits() == 0), "{label}");
                assert_matches_reference(&g, std::slice::from_ref(&zeros), &label);
            }

            let x = finite(Shape::nchw(1, k, h, w), pix as u64);
            let kernel = finite(kshape.clone(), k as u64);
            let b = finite(Shape::new(vec![out_c]), 3);
            let g = pointwise_graph(&x, out_c, Some(b.clone()), kernel.clone(), None);
            let label = format!("±inf, ±0, subnormals, K {k}, {h}x{w}, out_c {out_c}");
            assert_matches_reference(&g, std::slice::from_ref(&x), &label);
            let column: Vec<f32> = x.data().iter().step_by(pix).copied().collect();
            let column = Tensor::from_vec(Shape::nf(1, k), column).unwrap();
            let dense_w = kernel.reshape(Shape::nf(out_c, k)).unwrap();
            let g = dense_graph(column.shape(), dense_w, b);
            assert_matches_reference(&g, &[column], &format!("dense {label}"));

            if cfg!(debug_assertions) {
                continue;
            }
            let c = pix % k;
            let mut xdata = Tensor::random(Shape::nchw(1, k, h, w), 7, 1.0)
                .data()
                .to_vec();
            xdata[c * pix..][..pix].fill(nan_x);
            let x = Tensor::from_vec(Shape::nchw(1, k, h, w), xdata).unwrap();
            let mut kdata = Tensor::random(kshape.clone(), 8, 1.0).data().to_vec();
            for row in kdata.chunks_exact_mut(k) {
                row[c] = nan_w;
            }
            let kernel = Tensor::from_vec(kshape, kdata).unwrap();
            let b = Tensor::random(Shape::new(vec![out_c]), 9, 0.5);
            let label = format!("payload NaNs at channel {c}, K {k}, {h}x{w}, out_c {out_c}");
            let g = pointwise_graph(&x, out_c, Some(b.clone()), kernel.clone(), None);
            let out = Tensor::from_vec(Shape::nchw(1, out_c, h, w), vec![nan_w; out_c * pix]);
            assert_matches_values(
                &g,
                std::slice::from_ref(&x),
                &[Some(x.clone()), Some(out.unwrap())],
                &label,
            );
            let column = Tensor::from_vec(
                Shape::nf(1, k),
                x.data().iter().step_by(pix).copied().collect(),
            )
            .unwrap();
            let dense_w = kernel.reshape(Shape::nf(out_c, k)).unwrap();
            let g = dense_graph(column.shape(), dense_w, b);
            let out = Tensor::from_vec(Shape::nf(1, out_c), vec![nan_w; out_c]).unwrap();
            let want = [Some(column.clone()), Some(out)];
            let label = format!("dense {label}");
            assert_matches_values(&g, std::slice::from_ref(&column), &want, &label);
        }
    }
    for in_c in [1, 2] {
        let attrs = Conv2dAttrs {
            out_channels: 5,
            kernel: (5, 5),
            stride: (1, 1),
            padding: (2, 2),
            groups: 1,
            bias: true,
        };
        let (xshape, kshape) = (Shape::nchw(1, in_c, 9, 11), Shape::new(vec![5, in_c, 5, 5]));
        let x = finite(xshape.clone(), 21);
        let host_nan = std::hint::black_box(f32::INFINITY) * 0.0;
        let k = special_values(kshape.clone(), 22, false).data().to_vec();
        let k = k.iter().map(|&v| if v.is_nan() { host_nan } else { v });
        let k = Tensor::from_vec(kshape.clone(), k.collect()).unwrap();
        let b = Tensor::random(Shape::new(vec![5]), 23, 0.5);
        let g = conv_graph(attrs, &xshape, vec![k, b.clone()]);
        let label = format!("inf and NaN weights on padded taps, {in_c} input channels");
        assert_matches_reference(&g, std::slice::from_ref(&x), &label);
        if cfg!(debug_assertions) {
            continue;
        }
        let x = Tensor::from_vec(xshape.clone(), vec![nan_x; xshape.elem_count()]).unwrap();
        let k = Tensor::from_vec(kshape.clone(), vec![nan_w; kshape.elem_count()]).unwrap();
        let g = conv_graph(attrs, &xshape, vec![k, b]);
        let out = Tensor::from_vec(Shape::nchw(1, 5, 9, 11), vec![nan_w; 5 * 99]).unwrap();
        let label = format!("payload NaNs everywhere, padded 5x5, {in_c} input channels");
        assert_matches_values(
            &g,
            std::slice::from_ref(&x),
            &[Some(x.clone()), Some(out)],
            &label,
        );
    }
}

/// Empty inputs reach the grouped kernel too: a zero-width plane, zero
/// input channels or zero output channels. Every output is its bias
/// (there is no tap to add), or there is no output at all.
#[test]
fn degenerate_grouped_convs_match_scalar_reference() {
    for (groups, in_c, out_c, (h, w)) in [(3, 3, 3, (4, 0)), (2, 0, 2, (4, 4)), (2, 4, 0, (4, 4))] {
        let attrs = Conv2dAttrs {
            out_channels: out_c,
            kernel: (2, 2),
            stride: (1, 1),
            padding: (1, 1),
            groups,
            bias: true,
        };
        let k = Tensor::random(Shape::new(vec![out_c, in_c / groups, 2, 2]), 5, 1.0);
        let b = Tensor::random(Shape::new(vec![out_c]), 6, 0.5);
        let input = Tensor::random(Shape::nchw(1, in_c, h, w), 7, 1.0);
        let want = conv_reference(&input, &k, Some(&b), &attrs);
        let g = conv_graph(attrs, input.shape(), vec![k, b]);
        let got = run_with(&g, Parallelism::Serial, std::slice::from_ref(&input)).unwrap();
        assert_eq!(
            bits(got[0].data()),
            bits(&want),
            "{in_c} -> {out_c} channels, {h}x{w}"
        );
    }
}

/// The planner is transparent on the multi-consumer SE-gate stem too,
/// where a value (the depthwise output) stays live across several
/// nodes while unrelated values come and go.
#[test]
fn memory_planning_is_bit_identical_on_branching_graphs() {
    let g = mobilenet_stem(2);
    let input = Tensor::random(Shape::nchw(2, 3, 32, 32), 21, 1.0);
    let opts = RunOptions::new().capture_intermediates(true);
    let mut planned = Runner::builder().build(&g).unwrap();
    let mut unplanned = Runner::builder().memory_planning(false).build(&g).unwrap();
    let a = planned.execute(std::slice::from_ref(&input), opts).unwrap();
    let b = unplanned
        .execute(std::slice::from_ref(&input), opts)
        .unwrap();
    assert_eq!(a.outputs(), b.outputs());
    assert_eq!(a.intermediates(), b.intermediates());
    assert!(planned.memory_plan().reduction() > 0.0);
}

/// MobileNetV3-style stem at 32x32: strided conv + BN + hard-swish,
/// a depthwise conv, a squeeze-excite gate (GAP, 1x1 reduce/expand,
/// channel-wise Mul) and a pointwise projection — the op mix the
/// grouped/direct fallback and broadcast kernels must handle.
fn mobilenet_stem(batch: usize) -> Graph {
    let mut b = GraphBuilder::new("mnv3-stem");
    let x = b.input(Shape::nchw(batch, 3, 32, 32));
    let c = b
        .apply("stem", Op::Conv2d(Conv2dAttrs::same(16, 3, 2)), &[x])
        .unwrap();
    let c = b.apply("stem.bn", Op::BatchNorm, &[c]).unwrap();
    let c = b
        .apply("stem.hs", Op::Activation(ActKind::HardSwish), &[c])
        .unwrap();
    let dw = b
        .apply("dw", Op::Conv2d(Conv2dAttrs::depthwise(16, 3, 1)), &[c])
        .unwrap();
    let dw = b.apply("dw.bn", Op::BatchNorm, &[dw]).unwrap();
    let dw = b
        .apply("dw.relu", Op::Activation(ActKind::Relu), &[dw])
        .unwrap();
    let se = b.apply("se.pool", Op::GlobalAvgPool, &[dw]).unwrap();
    let se = b
        .apply(
            "se.reduce",
            Op::Conv2d(Conv2dAttrs::pointwise(8).with_bias()),
            &[se],
        )
        .unwrap();
    let se = b
        .apply("se.relu", Op::Activation(ActKind::Relu), &[se])
        .unwrap();
    let se = b
        .apply(
            "se.expand",
            Op::Conv2d(Conv2dAttrs::pointwise(16).with_bias()),
            &[se],
        )
        .unwrap();
    let gate = b
        .apply("se.gate", Op::Activation(ActKind::HardSigmoid), &[se])
        .unwrap();
    let scaled = b.apply("se.scale", Op::Mul, &[dw, gate]).unwrap();
    let proj = b
        .apply("proj", Op::Conv2d(Conv2dAttrs::pointwise(24)), &[scaled])
        .unwrap();
    b.finish(vec![proj])
}

/// On LeNet-5 (batch 4) the serial and threaded engines agree
/// *exactly* — the blocked-GEMM path accumulates in the same order as
/// the direct kernel, so no tolerance is needed.
#[test]
fn zoo_lenet5_parallel_is_bit_identical() {
    let g = vedliot_nnir::zoo::lenet5(10)
        .unwrap()
        .with_batch(4)
        .unwrap();
    let input = Tensor::random(Shape::nchw(4, 1, 28, 28), 3, 1.0);
    let a = run_with(&g, Parallelism::Serial, std::slice::from_ref(&input)).unwrap();
    let b = run_with(&g, Parallelism::Threads(4), std::slice::from_ref(&input)).unwrap();
    assert_eq!(a, b);
}

/// Same bit-exactness on the MobileNetV3-style stem, which exercises
/// the depthwise/grouped direct fallback and the SE broadcast Mul.
#[test]
fn zoo_mobilenet_stem_parallel_is_bit_identical() {
    let g = mobilenet_stem(2);
    let input = Tensor::random(Shape::nchw(2, 3, 32, 32), 9, 1.0);
    let a = run_with(&g, Parallelism::Serial, std::slice::from_ref(&input)).unwrap();
    let b = run_with(&g, Parallelism::Threads(4), std::slice::from_ref(&input)).unwrap();
    assert_eq!(a, b);
}

/// Regression: groups that do not divide the channel counts are
/// rejected at graph-construction time (they used to truncate
/// `in_c / groups` and mis-index the kernel at execution time).
#[test]
fn builder_rejects_non_dividing_groups() {
    let mut attrs = Conv2dAttrs::same(4, 3, 1);
    attrs.groups = 2;
    let mut b = GraphBuilder::new("bad");
    let x = b.input(Shape::nchw(1, 3, 8, 8));
    assert!(b.apply("conv", Op::Conv2d(attrs), &[x]).is_err());
}

/// Regression: a kernel larger than the padded input is rejected at
/// graph-construction time (it used to underflow the output extent).
#[test]
fn builder_rejects_oversized_kernel() {
    let mut b = GraphBuilder::new("bad");
    let x = b.input(Shape::nchw(1, 1, 4, 4));
    let mut attrs = Conv2dAttrs::same(2, 7, 1);
    attrs.padding = (0, 0); // `same` pads kernel/2; drop it so 7x7 > 4x4
    assert!(b.apply("conv", Op::Conv2d(attrs), &[x]).is_err());
    let y = b.input(Shape::nchw(1, 1, 4, 4));
    assert!(b
        .apply("pool", Op::MaxPool2d(Pool2dAttrs::square(7, 1)), &[y])
        .is_err());
}

/// Regression: a malformed dense weight written back into the graph
/// (e.g. by a buggy transformation pass) surfaces as an execution
/// error instead of a silently empty output.
#[test]
fn malformed_dense_weight_is_an_execution_error() {
    let mut b = GraphBuilder::new("bad-dense");
    let x = b.input(Shape::nf(1, 8));
    let d = b
        .apply(
            "fc",
            Op::Dense {
                out_features: 4,
                bias: false,
            },
            &[x],
        )
        .unwrap();
    let mut g = b.finish(vec![d]);
    let bad = Tensor::zeros(Shape::new(vec![4, 5])); // in_f should be 8
    g.nodes_mut()[0].weights = WeightInit::Explicit(vec![bad]);
    let input = Tensor::random(Shape::nf(1, 8), 1, 1.0);
    let err = run_once(&g, std::slice::from_ref(&input));
    assert!(err.is_err(), "malformed weight must not produce output");
}

/// A dense layer's arithmetic, spelled out one output at a time: `bias
/// + dot4`-ordered lanes of `w`'s row against the input row, or, with
/// `s_in` (an INT8 node), `bias + Σ code·q(x) · (w_scale · s_in)`.
fn dense_reference(x: &Tensor, w: &Tensor, bias: &Tensor, s_in: Option<f32>) -> Vec<f32> {
    let (in_f, out_f) = (x.shape().dims()[1], w.shape().dims()[0]);
    let rows = x.data().chunks_exact(in_f.max(1));
    let rows = rows.take(x.shape().batch());
    rows.flat_map(|xs| {
        (0..out_f).map(move |of| {
            let b0 = bias.data()[of];
            match s_in {
                Some(s) => {
                    let q = w.quant().unwrap();
                    let acc: i32 = (0..in_f)
                        .map(|i| i32::from(q.codes[of * in_f + i]) * code(xs[i], s))
                        .sum();
                    b0 + acc as f32 * (q.scales[of] * s)
                }
                None => {
                    let mut lanes = [0.0f32; 4];
                    for (i, &x) in xs.iter().enumerate() {
                        lanes[i % 4] += w.data()[of * in_f + i] * x;
                    }
                    b0 + ((lanes[0] + lanes[1]) + (lanes[2] + lanes[3]))
                }
            }
        })
    })
    .collect()
}

/// A dense (`groups == 1`) INT8 conv, spelled out: per output, the i32
/// sum of weight code × activation code over the taps inside the input,
/// then `bias + acc · (w_scale · s_in)`.
fn conv_int8_reference(
    x: &Tensor,
    k: &Tensor,
    bias: &Tensor,
    a: &Conv2dAttrs,
    s_in: f32,
) -> Vec<f32> {
    let [n, in_c, h, w] = x.shape().dims()[..] else {
        panic!("NCHW input expected");
    };
    let ((kh, kw), (sh, sw), (ph, pw)) = (a.kernel, a.stride, a.padding);
    let (oh, ow) = ((h + 2 * ph - kh) / sh + 1, (w + 2 * pw - kw) / sw + 1);
    let q = k.quant().unwrap();
    (0..n * a.out_channels * oh * ow)
        .map(|u| {
            let (bi, oc, oy, ox) = (
                u / (a.out_channels * oh * ow),
                u / (oh * ow) % a.out_channels,
                u / ow % oh,
                u % ow,
            );
            let mut acc = 0i32;
            for ic in 0..in_c {
                for ky in 0..kh {
                    for kx in 0..kw {
                        let iy = (oy * sh + ky).checked_sub(ph).filter(|&iy| iy < h);
                        let ix = (ox * sw + kx).checked_sub(pw).filter(|&ix| ix < w);
                        if let Some((iy, ix)) = iy.zip(ix) {
                            let xv = x.data()[((bi * in_c + ic) * h + iy) * w + ix];
                            acc += i32::from(q.codes[((oc * in_c + ic) * kh + ky) * kw + kx])
                                * code(xv, s_in);
                        }
                    }
                }
            }
            bias.data()[oc] + acc as f32 * (q.scales[oc] * s_in)
        })
        .collect()
}

/// Pooling spelled out one output at a time — the per-output nest the
/// engine ran before its row kernel, kept as the oracle. Max starts at
/// `-∞` and takes `acc.max(v)` over the taps inside the input in (ky,
/// kx) order; average adds them to `0.0` in that order and divides by
/// their count, `0.0` when there are none.
fn pool_reference(x: &Tensor, a: &Pool2dAttrs, max: bool) -> Vec<f32> {
    let [n, c, h, w] = x.shape().dims()[..] else {
        panic!("NCHW input expected");
    };
    let ((kh, kw), (sh, sw), (ph, pw)) = (a.kernel, a.stride, a.padding);
    let (oh, ow) = ((h + 2 * ph - kh) / sh + 1, (w + 2 * pw - kw) / sw + 1);
    (0..n * c * oh * ow)
        .map(|u| {
            let (plane, oy, ox) = (u / (oh * ow), u / ow % oh, u % ow);
            let mut acc = if max { f32::NEG_INFINITY } else { 0.0 };
            let mut count = 0usize;
            for ky in 0..kh {
                for kx in 0..kw {
                    let iy = (oy * sh + ky).checked_sub(ph).filter(|&iy| iy < h);
                    let ix = (ox * sw + kx).checked_sub(pw).filter(|&ix| ix < w);
                    if let Some((iy, ix)) = iy.zip(ix) {
                        let v = x.data()[(plane * h + iy) * w + ix];
                        acc = if max { acc.max(v) } else { acc + v };
                        count += 1;
                    }
                }
            }
            if max {
                acc
            } else if count > 0 {
                acc / count as f32
            } else {
                0.0
            }
        })
        .collect()
}

/// A seeded input with about one element in three replaced by a NaN of
/// either sign, a zero of either sign, an infinity or a subnormal. With
/// `nonpositive`, every other value is negative too, so most windows
/// peak at a zero and a max pool meets `+0`/`-0` ties.
fn special_values(shape: Shape, seed: u64, nonpositive: bool) -> Tensor {
    let mut s = seed.wrapping_mul(0x9E37_79B9_7F4A_7C15) | 1;
    let data = (0..shape.elem_count())
        .map(|_| {
            s ^= s << 13;
            s ^= s >> 7;
            s ^= s << 17;
            let r = (s >> 32) as u32;
            let subnormal = f32::from_bits(1 + r % 0x007f_ffff);
            match r % 24 {
                0 => f32::NAN,
                1 => -f32::NAN,
                2 | 3 => 0.0,
                4 | 5 => -0.0,
                6 => f32::INFINITY,
                7 => f32::NEG_INFINITY,
                8 => subnormal,
                9 => -subnormal,
                _ if nonpositive => -((r % 2000) as f32) / 1000.0,
                _ => (r % 4000) as f32 / 1000.0 - 2.0,
            }
        })
        .collect();
    Tensor::from_vec(shape, data).unwrap()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// The row-vectorized pooling kernel is **bit-identical** to the
    /// per-output nest ([`pool_reference`]) for max and average pooling,
    /// serial and over two workers: random sizes (widths that are not
    /// multiples of 4 or 8 included), kernels of 1–13, strides of 1–3,
    /// padding up to and past the kernel (so some outputs have no valid
    /// tap), and inputs sprinkled with NaNs, `±0`, `±∞` and subnormals —
    /// `±0` ties included, where `f32::max` leaves the result
    /// unspecified, so the kernel's vector and scalar lanes must agree
    /// with the nest's lowering. A NaN output matches any NaN: which NaN
    /// an add returns is unspecified too (LLVM may commute it), and the
    /// nest itself returns NaNs of different signs in debug and release
    /// builds.
    #[test]
    fn pool_kernel_equals_per_output_nest(
        (n, c) in (1usize..3, 1usize..4),
        (h, w) in (1usize..18, 1usize..27),
        (kh, kw) in (1usize..14, 1usize..14),
        (sh, sw) in (1usize..4, 1usize..4),
        (ph, pw) in (0usize..64, 0usize..64),
        seed in 0u64..100_000,
    ) {
        // Padding from 0 to two past the kernel, at least enough for
        // one window.
        let pad = |p: usize, k: usize, len: usize| (p % (k + 3)).max(k.saturating_sub(len).div_ceil(2));
        let attrs = Pool2dAttrs {
            kernel: (kh, kw),
            stride: (sh, sw),
            padding: (pad(ph, kh, h), pad(pw, kw, w)),
        };
        let shape = Shape::nchw(n, c, h, w);
        let input = special_values(shape.clone(), seed, seed % 2 == 0);
        let nan_as_one = |v: &[f32]| -> Vec<u32> {
            v.iter().map(|x| if x.is_nan() { f32::NAN.to_bits() } else { x.to_bits() }).collect()
        };
        for max in [true, false] {
            let op = if max { Op::MaxPool2d(attrs) } else { Op::AvgPool2d(attrs) };
            let mut b = GraphBuilder::new("pool");
            let x = b.input(shape.clone());
            let y = b.apply("pool", op, &[x]).unwrap();
            let g = b.finish(vec![y]);
            let want = nan_as_one(&pool_reference(&input, &attrs, max));
            for par in [Parallelism::Serial, Parallelism::Threads(2)] {
                let got = run_with(&g, par, std::slice::from_ref(&input)).unwrap();
                prop_assert_eq!(
                    nan_as_one(got[0].data()),
                    want.clone(),
                    "{:?} max {} under {:?}",
                    attrs,
                    max,
                    par
                );
            }
        }
    }
}

/// Every value tensor of `g` on `inputs`, evaluated node by node with
/// each op spelled out per element — no fusion, no arena, no blocking.
/// A conv or dense node whose weights carry an i8 payload is evaluated
/// as the INT8 kernel computes it, with its `FakeQuant` producer's
/// scale.
fn reference_values(g: &Graph, inputs: &[Tensor]) -> Vec<Option<Tensor>> {
    let mut vals: Vec<Option<Tensor>> = vec![None; g.tensor_count()];
    for (t, x) in g.inputs().iter().zip(inputs) {
        vals[t.0] = Some(x.clone());
    }
    for node in g.nodes() {
        let arg = |i: usize| vals[node.inputs[i].0].clone().unwrap();
        let x = arg(0);
        let shape = g.tensor_shape(node.output).unwrap().clone();
        let w = g.node_weights(node).unwrap();
        let s_in = || match g.producer(node.inputs[0]).map(|p| &g.nodes()[p.0].op) {
            Some(Op::FakeQuant { scale }) => *scale,
            _ => panic!("an INT8 node reads a FakeQuant"),
        };
        let plane = shape.dims().iter().skip(2).product::<usize>().max(1);
        let channels = shape.dims()[1];
        let out: Vec<f32> = match &node.op {
            Op::Conv2d(a) if w[0].quant().is_some() => {
                conv_int8_reference(&x, &w[0], &w[1], a, s_in())
            }
            Op::Conv2d(a) => conv_reference(&x, &w[0], w.get(1), a),
            Op::Dense { .. } => dense_reference(&x, &w[0], &w[1], w[0].quant().map(|_| s_in())),
            Op::BatchNorm => x
                .data()
                .iter()
                .enumerate()
                .map(|(i, &v)| {
                    w[0].data()[i / plane % channels] * v + w[1].data()[i / plane % channels]
                })
                .collect(),
            Op::Activation(kind) => x.data().iter().map(|&v| kind.apply(v)).collect(),
            Op::FakeQuant { scale } if *scale == 0.0 => vec![0.0; x.data().len()],
            Op::FakeQuant { scale } => x.data().iter().map(|&v| fake_quant(v, *scale)).collect(),
            Op::Add => x
                .data()
                .iter()
                .zip(arg(1).data())
                .map(|(&a, &b)| a + b)
                .collect(),
            Op::MaxPool2d(a) => pool_reference(&x, a, true),
            Op::AvgPool2d(a) => pool_reference(&x, a, false),
            Op::Flatten => x.data().to_vec(),
            op => panic!("no reference for {op}"),
        };
        vals[node.output.0] = Some(Tensor::from_vec(shape, out).unwrap());
    }
    vals
}

/// The elementwise tails the fused-chain property draws from: BatchNorm,
/// every activation kind, `FakeQuant` (scale 0 included, and at two
/// scales, so a repeat of the first can run as no stage and one of the
/// second must not) and `Add` with the chain value on either side.
const TAIL_KINDS: usize = 15;

/// One case of the fused-chain property: a head and the chain after it.
#[derive(Debug)]
struct ChainCase {
    /// 0 dense conv, 1 depthwise conv, 2 grouped conv, 3 dense layer (all
    /// f32); 4 dense conv, 5 dense layer (both INT8); 6 max pool, 7
    /// average pool, 8 flatten.
    head: usize,
    /// Depthwise, pool or flatten channels or dense input features (`a`),
    /// dense conv input (`b`) and output (`c`) channels or dense output
    /// features (`c`).
    abc: (usize, usize, usize),
    batch: usize,
    hw: (usize, usize),
    kernel: usize,
    stride: usize,
    /// Tail kinds, each below [`TAIL_KINDS`].
    tails: Vec<usize>,
    /// 0 none, 1 a second consumer, 2 a graph output, 3 a node between
    /// two tails (an `Add` that does not read the chain value); placed
    /// after `at % (tails + 1)` tails.
    breaker: usize,
    at: usize,
    /// After a conv head's tails, a max-pool (`kernel`, `stride`,
    /// `padding < kernel`) followed by a `FakeQuant` of its own. An
    /// INT8 conv folds it when nothing broke the chain and the tails
    /// pass [`folds_after`].
    pool: Option<(usize, usize, usize)>,
    seed: u64,
}

/// Whether an INT8 conv's max-pool fold admits a chain: `zeros` is what
/// the chain so far can output, `(-0.0 possible, never below +0.0)`,
/// and `kind` (with a BatchNorm's `scale` and `shift`) the next tail.
/// `None` once a tail is not a monotone non-decreasing map; the fold
/// needs `Some((false, _))` at the pool. The rule of DESIGN.md §10,
/// spelled out for the tail kinds the property draws.
fn folds_after(
    zeros: Option<(bool, bool)>,
    kind: usize,
    bn: Option<(&Tensor, &Tensor)>,
) -> Option<(bool, bool)> {
    let neg_zero = |t: &Tensor| t.data().iter().any(|x| *x == 0.0 && x.is_sign_negative());
    let (neg, nonneg) = zeros?;
    match kind {
        0 => {
            let (scale, shift) = bn?;
            scale.data().iter().all(|&s| s > 0.0).then(|| {
                (
                    neg_zero(shift) && (neg || !nonneg),
                    nonneg && shift.data().iter().all(|t| t.is_sign_positive()),
                )
            })
        }
        // ReLU, HardSigmoid, FakeQuant(0): never below +0.0.
        1 | 5 | 11 => Some((false, true)),
        // ReLU6 keeps -0.0; LeakyReLU(0.1) and FakeQuant(s > 0) can
        // make one out of a negative.
        2 => Some((neg, !neg)),
        3 => Some((neg || !nonneg, nonneg)),
        10 | 14 => Some((!nonneg, nonneg)),
        _ => None,
    }
}

/// Builds `case`'s graph and checks that a plain run, a run capturing
/// every intermediate and [`reference_values`] agree bit for bit on the
/// outputs, that every captured intermediate equals its reference, and
/// that the profile shows exactly the tails before the break running
/// inside the head — serial and over two workers, planned and unplanned.
fn check_fused_chain(case: &ChainCase) -> Result<(), TestCaseError> {
    let ChainCase {
        head,
        abc: (a, b, c),
        batch,
        hw: (h, w),
        kernel,
        stride,
        seed,
        ..
    } = *case;
    let (tails, breaker) = (&case.tails, case.breaker);
    let int8 = head == 4 || head == 5;
    let s_in = 1.0 / 127.0;
    let mut bld = GraphBuilder::new("fused");
    let mut inputs = Vec::new();
    // The head, fed by a FakeQuant for the INT8 kernel.
    let groups = match head {
        1 => a,
        2 => 2 + a % 2,
        _ => 1,
    };
    let pad = kernel / 2;
    let (oh, ow) = (
        (h + 2 * pad - kernel) / stride + 1,
        (w + 2 * pad - kernel) / stride + 1,
    );
    let (in_shape, chain_shape) = match head {
        3 | 5 => (Shape::nf(batch, a), Shape::nf(batch, c)),
        6 | 7 => (Shape::nchw(batch, a, h, w), Shape::nchw(batch, a, oh, ow)),
        8 => (Shape::nchw(batch, a, h, w), Shape::nf(batch, a * h * w)),
        _ => {
            let (icg, ocg) = match head {
                1 => (1, 1),
                2 => (2, 1 + c % 4),
                _ => (b, c),
            };
            (
                Shape::nchw(batch, groups * icg, h, w),
                Shape::nchw(batch, groups * ocg, oh, ow),
            )
        }
    };
    let x = bld.input(in_shape.clone());
    inputs.push(Tensor::random(in_shape.clone(), seed, 1.0));
    // The INT8 head reads its activation grid; a pool or flatten head
    // reads the grid of tail kind 10, so a tail of that kind after a
    // max-pool or a flatten changes no bit.
    let src = match head {
        4 | 5 => bld.apply("x.q", Op::FakeQuant { scale: s_in }, &[x]),
        6..=8 => bld.apply("x.q", Op::FakeQuant { scale: 0.05 }, &[x]),
        _ => Ok(x),
    }
    .unwrap();
    let out_c = chain_shape.dims()[1];
    let bias = Tensor::random(Shape::new(vec![out_c]), seed + 1, 0.5);
    let window = Pool2dAttrs::square(kernel, stride).with_padding(pad);
    let head_out = match head {
        6 => bld.apply("head", Op::MaxPool2d(window), &[src]),
        7 => bld.apply("head", Op::AvgPool2d(window), &[src]),
        8 => bld.apply("head", Op::Flatten, &[src]),
        _ => {
            let (op, mut weight) = if chain_shape.rank() == 2 {
                let op = Op::Dense {
                    out_features: out_c,
                    bias: true,
                };
                (op, Tensor::random(Shape::nf(out_c, a), seed + 2, 1.0))
            } else {
                let attrs = Conv2dAttrs {
                    out_channels: out_c,
                    kernel: (kernel, kernel),
                    stride: (stride, stride),
                    padding: (pad, pad),
                    groups,
                    bias: true,
                };
                let icg = in_shape.dims()[1] / groups;
                let k = Tensor::random(Shape::new(vec![out_c, icg, kernel, kernel]), seed + 2, 1.0);
                (Op::Conv2d(attrs), k)
            };
            if int8 {
                weight.quantize_i8_per_channel();
            }
            let weights = WeightInit::Explicit(vec![weight, bias.clone()]);
            bld.apply_with_weights("head", op, &[src], weights)
        }
    }
    .unwrap();
    // The Add operand: produced before the head.
    let addend = bld.input(chain_shape.clone());
    inputs.push(Tensor::random(chain_shape.clone(), seed + 3, 2.0));
    // The chain, broken after `k` tails.
    let k = case.at % (tails.len() + 1);
    let mut outputs = Vec::new();
    let mut v = head_out;
    let mut values = vec![v];
    let neg_zero = bias
        .data()
        .iter()
        .any(|b| *b == 0.0 && b.is_sign_negative());
    let mut zeros = Some((neg_zero, false));
    let acts = [
        ActKind::Relu,
        ActKind::Relu6,
        ActKind::LeakyRelu(0.1),
        ActKind::HardSwish,
        ActKind::HardSigmoid,
        ActKind::Sigmoid,
        ActKind::Mish,
        ActKind::Silu,
        ActKind::Tanh,
    ];
    for (i, &kind) in tails.iter().enumerate() {
        if i == k && breaker == 3 {
            // An `Add` of two same-shape tensors, but not of the chain's.
            let other = bld.apply("other", Op::Add, &[addend, addend]).unwrap();
            outputs.push(other);
        }
        let name = format!("t{i}");
        v = match kind {
            0 => {
                let scale = Tensor::random(Shape::new(vec![out_c]), seed + 10 + i as u64, 1.5);
                let shift = Tensor::random(Shape::new(vec![out_c]), seed + 20 + i as u64, 0.5);
                zeros = folds_after(zeros, kind, Some((&scale, &shift)));
                let bn = WeightInit::Explicit(vec![scale, shift]);
                bld.apply_with_weights(name, Op::BatchNorm, &[v], bn)
                    .unwrap()
            }
            1..=9 => bld
                .apply(name, Op::Activation(acts[kind - 1]), &[v])
                .unwrap(),
            10 => bld
                .apply(name, Op::FakeQuant { scale: 0.05 }, &[v])
                .unwrap(),
            11 => bld.apply(name, Op::FakeQuant { scale: 0.0 }, &[v]).unwrap(),
            12 => bld.apply(name, Op::Add, &[v, addend]).unwrap(),
            13 => bld.apply(name, Op::Add, &[addend, v]).unwrap(),
            _ => bld.apply(name, Op::FakeQuant { scale: 0.1 }, &[v]).unwrap(),
        };
        if kind != 0 {
            zeros = folds_after(zeros, kind, None);
        }
        values.push(v);
    }
    // The trailing pool and its own tail.
    let pool = case.pool.filter(|_| matches!(head, 0 | 1 | 2 | 4));
    if let Some((pk, ps, pp)) = pool {
        // Padding below the kernel, and at least enough for one window.
        let pp = (pp % pk).max(pk.saturating_sub(oh.min(ow)).div_ceil(2));
        let attrs = Pool2dAttrs::square(pk, ps).with_padding(pp);
        v = bld.apply("pool", Op::MaxPool2d(attrs), &[v]).unwrap();
        v = bld
            .apply("pool.q", Op::FakeQuant { scale: 0.05 }, &[v])
            .unwrap();
    }
    outputs.insert(0, v);
    if k < tails.len() {
        match breaker {
            1 => outputs.push(
                bld.apply("second", Op::Activation(ActKind::Relu), &[values[k]])
                    .unwrap(),
            ),
            2 => outputs.push(values[k]),
            _ => {}
        }
    }
    let g = bld.finish(outputs);
    let fused = if breaker == 0 { tails.len() } else { k };
    let folded = pool.is_some() && int8 && fused == tails.len() && zeros.is_some_and(|z| !z.0);

    let want = reference_values(&g, &inputs);
    let want_out: Vec<Vec<u32>> = g
        .outputs()
        .iter()
        .map(|t| bits(want[t.0].as_ref().unwrap().data()))
        .collect();
    for par in [Parallelism::Serial, Parallelism::Threads(2)] {
        for planning in [true, false] {
            let mut runner = Runner::builder()
                .parallelism(par)
                .memory_planning(planning)
                .build(&g)
                .unwrap();
            let plain = runner
                .execute(&inputs, RunOptions::new().profile(true))
                .unwrap();
            let captured = runner
                .execute(&inputs, RunOptions::new().capture_intermediates(true))
                .unwrap();
            let got: Vec<Vec<u32>> = plain.outputs().iter().map(|t| bits(t.data())).collect();
            let got_cap: Vec<Vec<u32>> =
                captured.outputs().iter().map(|t| bits(t.data())).collect();
            prop_assert_eq!(
                &got,
                &want_out,
                "plain run, {:?} under {:?}, planned {}",
                case,
                par,
                planning
            );
            prop_assert_eq!(
                &got_cap,
                &want_out,
                "capture run, {:?} under {:?}",
                case,
                par
            );
            let intermediates = captured.intermediates().unwrap();
            for (t, (got, want)) in intermediates.iter().zip(&want).enumerate() {
                let (got, want) = (got.as_ref().unwrap(), want.as_ref().unwrap());
                prop_assert_eq!(
                    bits(got.data()),
                    bits(want.data()),
                    "t{} of {:?} under {:?}",
                    t,
                    case,
                    par
                );
            }
            for record in &plain.profile().unwrap().per_node {
                let tail = record
                    .name
                    .strip_prefix('t')
                    .and_then(|i| i.parse::<usize>().ok());
                let want_head = match record.name.as_str() {
                    "pool" | "pool.q" if folded => Some("head"),
                    "pool.q" => Some("pool"),
                    _ => tail.filter(|&i| i < fused).map(|_| "head"),
                };
                prop_assert_eq!(
                    record.fused_into.as_deref(),
                    want_head,
                    "{} of {:?}",
                    &record.name,
                    case
                );
                if record.name == "head" {
                    let precision = if int8 { DataType::I8 } else { DataType::F32 };
                    prop_assert_eq!(record.precision, precision, "{:?}", case);
                }
            }
        }
    }
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Fusion is transparent: a head (dense, depthwise and grouped
    /// convs and a dense layer in f32; a dense conv and a dense layer on
    /// the INT8 kernel; a max pool, an average pool and a flatten)
    /// followed by a random chain of
    /// elementwise nodes gives **bit-equal** outputs in a plain run, in
    /// a run capturing every intermediate, and in a per-node scalar
    /// reference, and every captured intermediate equals its reference
    /// value — serial and threaded, planned and unplanned. A second
    /// consumer, a graph output in mid-chain or a consumer that is not
    /// the next node breaks the chain there, and the profile shows
    /// exactly the tails before the break running inside the head.
    #[test]
    fn fused_chains_equal_unfused_execution(
        head in 0usize..9,
        abc in (1usize..20, 1usize..6, 1usize..9),
        batch in 1usize..3,
        hw in (1usize..8, 1usize..8),
        (kernel, stride) in (1usize..4, 1usize..3),
        tails in proptest::collection::vec(0usize..TAIL_KINDS, 0..6),
        (breaker, at) in (0usize..4, 0usize..6),
        (pooled, pk, ps, pp) in (0usize..3, 1usize..4, 1usize..3, 0usize..3),
        seed in 0u64..1_000,
    ) {
        let pool = (pooled > 0).then_some((pk, ps, pp));
        let case = ChainCase { head, abc, batch, hw, kernel, stride, tails, breaker, at, pool, seed };
        check_fused_chain(&case)?;
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// The fused-chain property on an INT8 conv always followed by a
    /// max-pool (kernel 1–3, stride 1–2, padding below the kernel) and
    /// the pool's own `FakeQuant`, its tails drawn mostly from the kinds
    /// the fold admits (ReLU, ReLU6, LeakyReLU, HardSigmoid, `FakeQuant`
    /// at scale 0, 0.05 and 0.1, BatchNorm) with HardSwish and `Add`
    /// mixed in: the pool folds exactly when [`folds_after`] says so,
    /// and every output and captured intermediate — the pre-pool values
    /// included — equals its reference bit for bit.
    #[test]
    fn int8_conv_folds_max_pools_bit_exactly(
        abc in (1usize..4, 1usize..6, 1usize..9),
        batch in 1usize..3,
        hw in (1usize..10, 1usize..10),
        (kernel, stride) in (1usize..4, 1usize..3),
        picks in proptest::collection::vec(0usize..10, 0..5),
        (pk, ps, pp) in (1usize..4, 1usize..3, 0usize..3),
        seed in 0u64..1_000,
    ) {
        let tails = picks.iter().map(|&p| [1, 2, 3, 5, 10, 11, 14, 0, 4, 12][p]).collect();
        let case = ChainCase {
            head: 4,
            abc,
            batch,
            hw,
            kernel,
            stride,
            tails,
            breaker: 0,
            at: 0,
            pool: Some((pk, ps, pp)),
            seed,
        };
        check_fused_chain(&case)?;
    }
}

/// The fused-chain property on heads large enough that two workers
/// split them (the random cases stay under the threading threshold):
/// every kernel applies its stages at the right output offset in each
/// worker's share, and an INT8 conv that folds a max-pool — on the GEMM
/// (K = 45) and on the direct kernel (K = 27), padded and not — pools
/// each worker's planes.
#[test]
fn fused_chains_split_over_workers_equal_unfused_execution() {
    let wide = |head, abc, batch, hw, tails: &[usize]| ChainCase {
        head,
        abc,
        batch,
        hw,
        kernel: 3,
        stride: 1,
        tails: tails.to_vec(),
        breaker: 0,
        at: 0,
        pool: None,
        seed: 7,
    };
    let pooled = |abc, tails: &[usize], pool| ChainCase {
        pool: Some(pool),
        ..wide(4, abc, 2, (16, 16), tails)
    };
    for case in [
        wide(0, (1, 5, 9), 2, (16, 16), &[0, 13, 10, 4]),
        wide(1, (48, 1, 1), 2, (16, 16), &[10, 12, 0, 4]),
        wide(1, (48, 1, 1), 1, (16, 16), &[0, 8, 13, 11]),
        wide(3, (512, 1, 96), 1, (1, 1), &[0, 13, 10, 1]),
        wide(3, (256, 1, 96), 2, (1, 1), &[12, 0, 4]),
        wide(4, (1, 5, 8), 2, (16, 16), &[10, 0, 12, 1]),
        wide(5, (512, 1, 96), 1, (1, 1), &[12, 0, 10, 4]),
        wide(6, (16, 1, 1), 2, (24, 24), &[10, 0, 13, 4]),
        wide(7, (16, 1, 1), 2, (24, 24), &[12, 10, 1]),
        pooled((1, 5, 8), &[10, 1, 10], (2, 2, 0)),
        pooled((1, 3, 8), &[1, 10], (3, 2, 1)),
        pooled((1, 3, 8), &[2, 5], (2, 1, 1)),
    ] {
        check_fused_chain(&case).unwrap();
    }
}

/// A dense conv over zero input channels reduces over nothing: every
/// output is its bias plus the empty sum, `bias + 0.0`, exactly as
/// [`conv_reference`] defines it — and a fused activation still
/// applies.
#[test]
fn dense_conv_over_zero_input_channels_is_its_bias() {
    let attrs = Conv2dAttrs::same(3, 3, 1).with_bias();
    let k = Tensor::zeros(Shape::new(vec![3, 0, 3, 3]));
    let b = Tensor::from_vec(Shape::new(vec![3]), vec![-0.0, 1.5, -2.0]).unwrap();
    let input = Tensor::zeros(Shape::nchw(1, 0, 4, 4));
    let want = conv_reference(&input, &k, Some(&b), &attrs);
    let g = conv_graph(attrs, input.shape(), vec![k.clone(), b.clone()]);
    let got = run_with(&g, Parallelism::Serial, std::slice::from_ref(&input)).unwrap();
    assert_eq!(bits(got[0].data()), bits(&want));
    assert_eq!(
        got[0].data()[0].to_bits(),
        0.0f32.to_bits(),
        "-0.0 + 0.0 is +0.0"
    );

    let mut bld = GraphBuilder::new("conv-relu");
    let x = bld.input(input.shape().clone());
    let c = bld
        .apply_with_weights(
            "conv",
            Op::Conv2d(attrs),
            &[x],
            WeightInit::Explicit(vec![k, b]),
        )
        .unwrap();
    let r = bld
        .apply("relu", Op::Activation(ActKind::Relu), &[c])
        .unwrap();
    let g = bld.finish(vec![r]);
    let got = run_with(&g, Parallelism::Serial, &[input]).unwrap();
    let relu: Vec<f32> = want.iter().map(|&v| ActKind::Relu.apply(v)).collect();
    assert_eq!(bits(got[0].data()), bits(&relu));
}

/// The INT8 kernels at their seams, bit for bit against
/// [`conv_int8_reference`] and [`dense_reference`] (through
/// [`reference_values`]): patch rows of K ∈ {1, 15, 16, 17, 25, 31, 32,
/// 33, 150} codes, each at stride 1 (unpadded, batch 1) and at stride 2
/// (padding 1, batch 2), so both sides of every 16-code chunk edge run
/// on the GEMM and the short stride-1 rows on the direct kernel; 1, 3,
/// 4, 5 and 9 output channels, so some four-row units are partial; and
/// one 28×28 output plane whose 160-code patch rows span four 64 KiB
/// pixel blocks. Each conv takes a fused ReLU + `FakeQuant` tail and
/// feeds a dense layer through `Flatten` and a `FakeQuant`, its input
/// length mostly not a multiple of 16. Three more convs fold a max-pool
/// after that tail: the 28×28 plane under a padded 3×3/s2 pool whose
/// windows cross the block seams, and a batch of two 7×7 planes on the
/// direct kernel under 2×2/s2 and 3×3/s1 pools. Serial and over two
/// workers, planned and unplanned, plain and capturing every
/// intermediate.
#[test]
fn int8_kernels_match_references_at_chunk_and_block_seams() {
    let s_in = 1.0 / 127.0;
    // (in_c, kernel): K = in_c · kh · kw.
    let ks = [
        (1, (1, 1)),
        (3, (1, 5)),
        (16, (1, 1)),
        (17, (1, 1)),
        (1, (5, 5)),
        (31, (1, 1)),
        (2, (4, 4)),
        (11, (3, 1)),
        (6, (5, 5)),
    ];
    let out_cs = [1, 3, 4, 5, 9];
    let mut cases = Vec::new();
    for (i, &(in_c, kernel)) in ks.iter().enumerate() {
        for (j, (stride, padding, batch)) in [(1, 0, 1), (2, 1, 2)].into_iter().enumerate() {
            let out_c = out_cs[(2 * i + j) % out_cs.len()];
            cases.push((in_c, kernel, out_c, stride, padding, batch, 7, None));
        }
    }
    cases.push((6, (5, 5), 5, 1, 2, 1, 28, None));
    let pool = |k, s, p| Some(Pool2dAttrs::square(k, s).with_padding(p));
    cases.push((6, (5, 5), 5, 1, 2, 1, 28, pool(3, 2, 1)));
    cases.push((1, (5, 5), 3, 1, 2, 2, 7, pool(2, 2, 0)));
    cases.push((1, (5, 5), 4, 1, 2, 2, 7, pool(3, 1, 1)));
    let mut dense_off_chunk = 0;
    for (case, &(in_c, (kh, kw), out_c, stride, padding, batch, hw, pool)) in
        cases.iter().enumerate()
    {
        let seed = case as u64 * 10;
        let attrs = Conv2dAttrs {
            out_channels: out_c,
            kernel: (kh, kw),
            stride: (stride, stride),
            padding: (padding, padding),
            groups: 1,
            bias: true,
        };
        let (oh, ow) = (
            (hw + 2 * padding - kh) / stride + 1,
            (hw + 2 * padding - kw) / stride + 1,
        );
        let (oh, ow) = pool.map_or((oh, ow), |p: Pool2dAttrs| {
            (
                (oh + 2 * p.padding.0 - p.kernel.0) / p.stride.0 + 1,
                (ow + 2 * p.padding.1 - p.kernel.1) / p.stride.1 + 1,
            )
        });
        let in_f = out_c * oh * ow;
        dense_off_chunk += usize::from(in_f % 16 != 0);
        let kernel = quantized(Shape::new(vec![out_c, in_c, kh, kw]), seed);
        let conv_bias = Tensor::random(Shape::new(vec![out_c]), seed + 1, 0.1);
        let input = Tensor::random(Shape::nchw(batch, in_c, hw, hw), seed + 2, 1.0);
        // The tail's grid spans the ReLU'd conv output, as calibration
        // would set it.
        let xq: Vec<f32> = input.data().iter().map(|&x| fake_quant(x, s_in)).collect();
        let xq = Tensor::from_vec(input.shape().clone(), xq).unwrap();
        let conv = conv_int8_reference(&xq, &kernel, &conv_bias, &attrs, s_in);
        let s_mid = conv.iter().fold(0.0f32, |m, &x| m.max(x)).max(1e-3) / 127.0;
        let out_f = out_cs[case % out_cs.len()];
        let mut b = GraphBuilder::new("int8-seams");
        let x = b.input(input.shape().clone());
        let x = b.apply("x.q", Op::FakeQuant { scale: s_in }, &[x]).unwrap();
        let conv_weights = WeightInit::Explicit(vec![kernel, conv_bias]);
        let c = b
            .apply_with_weights("conv", Op::Conv2d(attrs), &[x], conv_weights)
            .unwrap();
        let c = b
            .apply("conv.relu", Op::Activation(ActKind::Relu), &[c])
            .unwrap();
        let c = b
            .apply("conv.q", Op::FakeQuant { scale: s_mid }, &[c])
            .unwrap();
        let c = match pool {
            Some(p) => b.apply("pool", Op::MaxPool2d(p), &[c]).unwrap(),
            None => c,
        };
        let f = b.apply("flatten", Op::Flatten, &[c]).unwrap();
        let f = b
            .apply("flatten.q", Op::FakeQuant { scale: s_mid }, &[f])
            .unwrap();
        let dense = Op::Dense {
            out_features: out_f,
            bias: true,
        };
        let fc = quantized(Shape::nf(out_f, in_f), seed + 3);
        let fc_bias = Tensor::random(Shape::new(vec![out_f]), seed + 4, 0.1);
        let d = b
            .apply_with_weights("fc", dense, &[f], WeightInit::Explicit(vec![fc, fc_bias]))
            .unwrap();
        let g = b.finish(vec![d]);
        let want = reference_values(&g, std::slice::from_ref(&input));
        let label = format!(
            "K {} out_c {out_c} stride {stride} batch {batch}",
            in_c * kh * kw
        );
        for par in [Parallelism::Serial, Parallelism::Threads(2)] {
            for planning in [true, false] {
                let mut runner = Runner::builder()
                    .parallelism(par)
                    .memory_planning(planning)
                    .build(&g)
                    .unwrap();
                let plain = runner.execute(
                    std::slice::from_ref(&input),
                    RunOptions::new().profile(true),
                );
                let plain = plain.unwrap();
                let profile = plain.profile().unwrap();
                assert_eq!(profile.int8_nodes(), 2, "{label}");
                if pool.is_some() {
                    let record = profile.per_node.iter().find(|r| r.name == "pool");
                    assert_eq!(
                        record.unwrap().fused_into.as_deref(),
                        Some("conv"),
                        "{label}"
                    );
                }
                let wanted = want[d.0].as_ref().unwrap();
                assert_eq!(
                    bits(plain.outputs()[0].data()),
                    bits(wanted.data()),
                    "{label} {par:?}"
                );
                let opts = RunOptions::new().capture_intermediates(true);
                let captured = runner.execute(std::slice::from_ref(&input), opts).unwrap();
                for (t, (got, wanted)) in captured
                    .intermediates()
                    .unwrap()
                    .iter()
                    .zip(&want)
                    .enumerate()
                {
                    let (got, wanted) = (got.as_ref().unwrap(), wanted.as_ref().unwrap());
                    assert_eq!(
                        bits(got.data()),
                        bits(wanted.data()),
                        "{label} {par:?} tensor {t}"
                    );
                }
            }
        }
    }
    assert!(
        dense_off_chunk > 0,
        "some dense input is not a whole number of chunks"
    );
}

/// `x → FakeQuant(1/127) → conv "conv" (1×1 over one channel, weight
/// code 127, `bias`, INT8 unless `f32_head`) → chain → MaxPool "pool"`
/// (2×2/s2 unless `window` says otherwise), where `chain` builds the
/// nodes between conv and pool from the conv's output and returns the
/// pool's input, plus any extra graph outputs. The pool's output is the
/// first graph output.
fn pooled_conv(
    bias: f32,
    f32_head: bool,
    window: Option<Pool2dAttrs>,
    chain: impl FnOnce(
        &mut GraphBuilder,
        vedliot_nnir::TensorId,
    ) -> (vedliot_nnir::TensorId, Vec<vedliot_nnir::TensorId>),
) -> Graph {
    let mut b = GraphBuilder::new("pooled");
    let x = b.input(Shape::nchw(1, 1, 4, 4));
    let x = b
        .apply("x.q", Op::FakeQuant { scale: 1.0 / 127.0 }, &[x])
        .unwrap();
    let mut k = Tensor::full(Shape::new(vec![1, 1, 1, 1]), 1.0);
    if !f32_head {
        k.quantize_i8_per_channel();
    }
    let bias = Tensor::full(Shape::new(vec![1]), bias);
    let c = b
        .apply_with_weights(
            "conv",
            Op::Conv2d(Conv2dAttrs::pointwise(1).with_bias()),
            &[x],
            WeightInit::Explicit(vec![k, bias]),
        )
        .unwrap();
    let (v, extra) = chain(&mut b, c);
    let window = window.unwrap_or(Pool2dAttrs::square(2, 2));
    let p = b.apply("pool", Op::MaxPool2d(window), &[v]).unwrap();
    b.finish(std::iter::once(p).chain(extra).collect())
}

/// Four 2×2 windows of one 4×4 plane: all negative, all zero, a mix
/// whose first tap is a small negative and whose largest is a zero, and
/// a mix with a positive.
fn signed_zero_windows() -> Tensor {
    #[rustfmt::skip]
    let data = vec![
        -0.2, -0.3, 0.0, 0.0,
        -0.1, -0.4, 0.0, 0.0,
        -0.2, 0.0, -0.3, 0.6,
        0.0, -0.1, 0.0, 0.2,
    ];
    Tensor::from_vec(Shape::nchw(1, 1, 4, 4), data).unwrap()
}

/// Runs `g` on `input` under every runner configuration (and with the
/// INT8 path off when `int8` is false), checks every output and captured
/// intermediate against [`reference_values`] bit for bit, and returns
/// the output and whether the conv folded the pool.
fn run_pooled(g: &Graph, input: &Tensor, int8: bool) -> (Tensor, bool) {
    let want = reference_values(g, std::slice::from_ref(input));
    let mut folded = Vec::new();
    for par in [Parallelism::Serial, Parallelism::Threads(2)] {
        for planning in [true, false] {
            let mut runner = Runner::builder()
                .parallelism(par)
                .memory_planning(planning)
                .int8(int8)
                .build(g)
                .unwrap();
            let plain = runner
                .execute(std::slice::from_ref(input), RunOptions::new().profile(true))
                .unwrap();
            for (t, got) in g.outputs().iter().zip(plain.outputs()) {
                assert_eq!(
                    bits(got.data()),
                    bits(want[t.0].as_ref().unwrap().data()),
                    "{par:?}"
                );
            }
            let pool = plain
                .profile()
                .unwrap()
                .per_node
                .iter()
                .find(|r| r.name == "pool");
            folded.push(pool.unwrap().fused_into.as_deref() == Some("conv"));
            let opts = RunOptions::new().capture_intermediates(true);
            let captured = runner.execute(std::slice::from_ref(input), opts).unwrap();
            for (t, got) in captured.intermediates().unwrap().iter().enumerate() {
                let (got, want) = (got.as_ref().unwrap(), want[t].as_ref().unwrap());
                assert_eq!(bits(got.data()), bits(want.data()), "t{t} {par:?}");
            }
        }
    }
    assert!(folded.iter().all(|&f| f == folded[0]), "{folded:?}");
    (want[g.outputs()[0].0].clone().unwrap(), folded[0])
}

/// The INT8 conv's max-pool fold at signed zeros: windows whose
/// accumulators are all negative, all zero, or a mix. Behind a ReLU
/// every zero is `+0.0`, so the pool folds (with or without a
/// `FakeQuant` that makes `-0.0`s before the ReLU); behind a `FakeQuant`
/// alone a window's first tap can be `-0.0` where its largest
/// accumulator gives `+0.0`, so the pool must not fold — and the f32
/// pool does keep that `-0.0`.
#[test]
fn max_pool_folds_only_where_every_zero_is_positive() {
    let input = signed_zero_windows();
    let relu = |b: &mut GraphBuilder, v| {
        let r = b
            .apply("relu", Op::Activation(ActKind::Relu), &[v])
            .unwrap();
        (r, vec![])
    };
    let (out, folded) = run_pooled(&pooled_conv(0.0, false, None, relu), &input, true);
    assert!(folded);
    assert_eq!(bits(&out.data()[..3]), [0; 3]);
    assert!(out.data()[3] > 0.5, "{out:?}");

    let quant_relu = |b: &mut GraphBuilder, v| {
        let q = b.apply("q", Op::FakeQuant { scale: 1.0 }, &[v]).unwrap();
        let r = b
            .apply("relu", Op::Activation(ActKind::Relu), &[q])
            .unwrap();
        (r, vec![])
    };
    let (out, folded) = run_pooled(&pooled_conv(0.0, false, None, quant_relu), &input, true);
    assert!(folded);
    assert!(
        out.data().iter().all(|x| x.to_bits() == 0 || *x == 1.0),
        "{out:?}"
    );

    let quant = |b: &mut GraphBuilder, v| {
        let q = b.apply("q", Op::FakeQuant { scale: 1.0 }, &[v]).unwrap();
        (q, vec![])
    };
    let (out, folded) = run_pooled(&pooled_conv(0.0, false, None, quant), &input, true);
    assert!(!folded);
    let signs: Vec<bool> = out.data().iter().map(|x| x.is_sign_negative()).collect();
    assert_eq!(signs, [true, false, true, false], "{out:?}");

    // A -0.0 bias: `-0.0 + (-0.0)` is the one sum that stays -0.0, so
    // ReLU6, which keeps -0.0, must not let the pool fold.
    let relu6 = |b: &mut GraphBuilder, v| {
        let r = b
            .apply("relu6", Op::Activation(ActKind::Relu6), &[v])
            .unwrap();
        (r, vec![])
    };
    assert!(!run_pooled(&pooled_conv(-0.0, false, None, relu6), &input, true).1);
    assert!(run_pooled(&pooled_conv(0.5, false, None, relu6), &input, true).1);
}

/// What keeps a max-pool out of the INT8 conv's step: a stage that is
/// not monotone non-decreasing (a BatchNorm with a negative scale,
/// HardSwish, an `Add`), a non-finite bias, an f32 head, a runner with
/// the INT8 path off, a pool input with a second consumer, and windows
/// that hold no input tap (padding as wide as the kernel: the f32 pool
/// gives `-∞` there). Each runs bit-equal to its reference all the
/// same.
#[test]
fn max_pool_stays_out_of_steps_its_rule_refuses() {
    let input = signed_zero_windows();
    let relu = |b: &mut GraphBuilder, v| {
        let r = b
            .apply("relu", Op::Activation(ActKind::Relu), &[v])
            .unwrap();
        (r, vec![])
    };
    let bn = |scale: f32| {
        move |b: &mut GraphBuilder, v| {
            let w = vec![
                Tensor::full(Shape::new(vec![1]), scale),
                Tensor::full(Shape::new(vec![1]), 0.25),
            ];
            let n = b
                .apply_with_weights("bn", Op::BatchNorm, &[v], WeightInit::Explicit(w))
                .unwrap();
            (n, vec![])
        }
    };
    let hswish = |b: &mut GraphBuilder, v| {
        let h = b
            .apply("hswish", Op::Activation(ActKind::HardSwish), &[v])
            .unwrap();
        (h, vec![])
    };
    let add = |b: &mut GraphBuilder, v| {
        let other = b.input(Shape::nchw(1, 1, 4, 4));
        let a = b.apply("add", Op::Add, &[v, other]).unwrap();
        (a, vec![])
    };
    let shared = |b: &mut GraphBuilder, v| {
        let r = b
            .apply("relu", Op::Activation(ActKind::Relu), &[v])
            .unwrap();
        let second = b
            .apply("second", Op::Activation(ActKind::Relu6), &[r])
            .unwrap();
        (r, vec![second])
    };
    assert!(run_pooled(&pooled_conv(0.0, false, None, relu), &input, true).1);
    assert!(run_pooled(&pooled_conv(0.0, false, None, bn(2.0)), &input, true).1);
    assert!(!run_pooled(&pooled_conv(0.0, false, None, bn(-2.0)), &input, true).1);
    assert!(!run_pooled(&pooled_conv(0.0, false, None, hswish), &input, true).1);
    assert!(!run_pooled(&pooled_conv(f32::INFINITY, false, None, relu), &input, true).1);
    assert!(!run_pooled(&pooled_conv(0.0, true, None, relu), &input, true).1);
    assert!(!run_pooled(&pooled_conv(0.0, false, None, relu), &input, false).1);
    assert!(!run_pooled(&pooled_conv(0.0, false, None, shared), &input, true).1);
    let empty_windows = Some(Pool2dAttrs::square(2, 2).with_padding(2));
    let (out, folded) = run_pooled(&pooled_conv(0.0, false, empty_windows, relu), &input, true);
    assert!(!folded);
    assert!(out.data().contains(&f32::NEG_INFINITY), "{out:?}");
    let g = pooled_conv(0.0, false, None, add);
    let addend = Tensor::random(Shape::nchw(1, 1, 4, 4), 5, 1.0);
    let want = reference_values(&g, &[input.clone(), addend.clone()]);
    let mut runner = Runner::builder().build(&g).unwrap();
    let out = runner
        .execute(&[input, addend], RunOptions::new().profile(true))
        .unwrap();
    assert_eq!(
        bits(out.outputs()[0].data()),
        bits(want[g.outputs()[0].0].as_ref().unwrap().data())
    );
    let pool = out
        .profile()
        .unwrap()
        .per_node
        .iter()
        .find(|r| r.name == "pool");
    assert_eq!(pool.unwrap().fused_into, None);
}
