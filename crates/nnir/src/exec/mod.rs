//! f32 and INT8 execution engine.
//!
//! One door: every forward pass goes through [`Runner`], built with
//! [`Runner::builder`] and driven by [`Runner::execute`] under a
//! [`RunOptions`] (capture-intermediates and profile flags). `build`
//! verifies the graph and makes the plan once: each step's kernel,
//! geometry, weights, arena ranges and fused stages (`plan`), and the
//! arena layout ([`MemoryPlan`], `memory`). A run executes it over two
//! reusable arenas, f32 values and INT8 codes, reading graph inputs in
//! place, so repeated inference over a dataset, a benchmark loop or a
//! serving worker allocates nothing after the first run (`runner`).
//!
//! The kernels, one file per family: the f32 dense conv (`conv`) and
//! the `dot4` micro-kernels it shares with dense layers (`gemm`),
//! grouped and depthwise convs, with an expansion conv computed into its
//! depthwise reader a block of channels at a time (`grouped`), the INT8
//! conv and dense kernels (`int8`), f32 dense layers (`dense`), pooling
//! (`pool`), the structural ops (`structural`) and the elementwise
//! stages every head kernel runs on its output (`stage`). Each output scalar is a fixed
//! function of its operands, so serial and threaded runs ([`Parallelism`],
//! `par`), planned and unplanned arenas, fused and captured runs, any
//! blocking and any batch size produce bit-identical results.

mod conv;
mod dense;
mod gemm;
mod grouped;
mod int8;
mod memory;
mod par;
mod plan;
mod pool;
mod runner;
mod stage;
mod structural;

pub use memory::MemoryPlan;
pub use par::Parallelism;
pub use runner::{RunOptions, RunOutput, Runner, RunnerBuilder};

#[cfg(test)]
mod tests {
    use super::gemm::*;
    use super::int8::*;
    use super::par::*;
    use super::plan::*;
    use super::pool::PoolMode;
    use super::stage::*;
    use super::*;
    use crate::graph::GraphBuilder;
    use crate::graph::{Graph, TensorId, WeightInit};
    use crate::ops::Conv2dAttrs;
    use crate::ops::{ActKind, Op, Pool2dAttrs};
    use crate::shape::Shape;
    use crate::tensor::Tensor;
    use crate::NnirError;
    use std::borrow::Cow;

    fn run_graph(g: &Graph, inputs: &[Tensor]) -> Result<Vec<Tensor>, NnirError> {
        Ok(Runner::builder()
            .build(g)?
            .execute(inputs, RunOptions::default())?
            .into_outputs())
    }

    fn run_single(op: Op, inputs: &[Tensor], weights: Option<WeightInit>) -> Tensor {
        let mut b = GraphBuilder::new("t");
        let ids: Vec<_> = inputs.iter().map(|t| b.input(t.shape().clone())).collect();
        let out = match weights {
            Some(w) => b.apply_with_weights("op", op, &ids, w).unwrap(),
            None => b.apply("op", op, &ids).unwrap(),
        };
        let g = b.finish(vec![out]);
        run_graph(&g, inputs).unwrap().remove(0)
    }

    #[test]
    fn identity_conv_passes_through() {
        // 1x1 conv with identity kernel on 1 channel.
        let input = Tensor::from_vec(Shape::nchw(1, 1, 2, 2), vec![1.0, 2.0, 3.0, 4.0]).unwrap();
        let kernel = Tensor::from_vec(Shape::new(vec![1, 1, 1, 1]), vec![1.0]).unwrap();
        let out = run_single(
            Op::Conv2d(Conv2dAttrs::pointwise(1)),
            std::slice::from_ref(&input),
            Some(WeightInit::Explicit(vec![kernel])),
        );
        assert_eq!(out.data(), input.data());
    }

    #[test]
    fn conv_3x3_box_filter_sums_neighbourhood() {
        // All-ones 3x3 kernel on all-ones input: interior point sees 9.
        let input = Tensor::full(Shape::nchw(1, 1, 5, 5), 1.0);
        let kernel = Tensor::full(Shape::new(vec![1, 1, 3, 3]), 1.0);
        let out = run_single(
            Op::Conv2d(Conv2dAttrs::same(1, 3, 1)),
            &[input],
            Some(WeightInit::Explicit(vec![kernel])),
        );
        assert_eq!(out.at(&[0, 0, 2, 2]), 9.0); // interior
        assert_eq!(out.at(&[0, 0, 0, 0]), 4.0); // corner: 2x2 valid window
    }

    #[test]
    fn depthwise_conv_keeps_channels_independent() {
        // Two channels with distinct per-channel kernels.
        let input = Tensor::from_vec(Shape::nchw(1, 2, 1, 1), vec![2.0, 5.0]).unwrap();
        let kernel = Tensor::from_vec(Shape::new(vec![2, 1, 1, 1]), vec![10.0, 100.0]).unwrap();
        let mut attrs = Conv2dAttrs::depthwise(2, 1, 1);
        attrs.padding = (0, 0);
        let out = run_single(
            Op::Conv2d(attrs),
            &[input],
            Some(WeightInit::Explicit(vec![kernel])),
        );
        assert_eq!(out.data(), &[20.0, 500.0]);
    }

    #[test]
    fn dense_computes_matvec_with_bias() {
        let input = Tensor::from_vec(Shape::nf(1, 3), vec![1.0, 2.0, 3.0]).unwrap();
        let weight = Tensor::from_vec(Shape::nf(2, 3), vec![1.0, 0.0, 0.0, 0.0, 1.0, 1.0]).unwrap();
        let bias = Tensor::from_vec(Shape::new(vec![2]), vec![0.5, -0.5]).unwrap();
        let out = run_single(
            Op::Dense {
                out_features: 2,
                bias: true,
            },
            &[input],
            Some(WeightInit::Explicit(vec![weight, bias])),
        );
        assert_eq!(out.data(), &[1.5, 4.5]);
    }

    #[test]
    fn batchnorm_applies_scale_and_shift() {
        let input = Tensor::from_vec(Shape::nchw(1, 2, 1, 2), vec![1.0, 2.0, 3.0, 4.0]).unwrap();
        let scale = Tensor::from_vec(Shape::new(vec![2]), vec![2.0, 0.5]).unwrap();
        let shift = Tensor::from_vec(Shape::new(vec![2]), vec![1.0, 0.0]).unwrap();
        let out = run_single(
            Op::BatchNorm,
            &[input],
            Some(WeightInit::Explicit(vec![scale, shift])),
        );
        assert_eq!(out.data(), &[3.0, 5.0, 1.5, 2.0]);
    }

    #[test]
    fn maxpool_and_avgpool() {
        let input = Tensor::from_vec(Shape::nchw(1, 1, 2, 2), vec![1.0, 2.0, 3.0, 4.0]).unwrap();
        let max = run_single(
            Op::MaxPool2d(Pool2dAttrs::square(2, 2)),
            std::slice::from_ref(&input),
            None,
        );
        assert_eq!(max.data(), &[4.0]);
        let avg = run_single(Op::AvgPool2d(Pool2dAttrs::square(2, 2)), &[input], None);
        assert_eq!(avg.data(), &[2.5]);
    }

    #[test]
    fn avgpool_excludes_padding_from_divisor() {
        let input = Tensor::full(Shape::nchw(1, 1, 2, 2), 4.0);
        let out = run_single(
            Op::AvgPool2d(Pool2dAttrs::square(3, 1).with_padding(1)),
            &[input],
            None,
        );
        // Corner windows see 4 valid elements of value 4.0 -> average 4.0.
        assert_eq!(out.at(&[0, 0, 0, 0]), 4.0);
    }

    #[test]
    fn global_avg_pool_averages_plane() {
        let input = Tensor::from_vec(Shape::nchw(1, 1, 2, 2), vec![1.0, 2.0, 3.0, 6.0]).unwrap();
        let out = run_single(Op::GlobalAvgPool, &[input], None);
        assert_eq!(out.data(), &[3.0]);
    }

    #[test]
    fn add_mul_and_broadcast() {
        let a = Tensor::full(Shape::nchw(1, 2, 2, 2), 3.0);
        let b = Tensor::full(Shape::nchw(1, 2, 2, 2), 2.0);
        let sum = run_single(Op::Add, &[a.clone(), b.clone()], None);
        assert!(sum.data().iter().all(|&x| x == 5.0));
        let gate = Tensor::from_vec(Shape::nchw(1, 2, 1, 1), vec![0.5, 2.0]).unwrap();
        let scaled = run_single(Op::Mul, &[a, gate], None);
        assert_eq!(scaled.at(&[0, 0, 1, 1]), 1.5);
        assert_eq!(scaled.at(&[0, 1, 1, 1]), 6.0);
    }

    #[test]
    fn concat_stacks_channels_in_order() {
        let a = Tensor::full(Shape::nchw(1, 1, 1, 2), 1.0);
        let b = Tensor::full(Shape::nchw(1, 2, 1, 2), 2.0);
        let out = run_single(Op::Concat, &[a, b], None);
        assert_eq!(out.shape(), &Shape::nchw(1, 3, 1, 2));
        assert_eq!(out.at(&[0, 0, 0, 0]), 1.0);
        assert_eq!(out.at(&[0, 2, 0, 1]), 2.0);
    }

    #[test]
    fn upsample_replicates_nearest() {
        let input = Tensor::from_vec(Shape::nchw(1, 1, 1, 2), vec![1.0, 2.0]).unwrap();
        let out = run_single(Op::Upsample { factor: 2 }, &[input], None);
        assert_eq!(out.shape(), &Shape::nchw(1, 1, 2, 4));
        assert_eq!(out.at(&[0, 0, 1, 0]), 1.0);
        assert_eq!(out.at(&[0, 0, 0, 3]), 2.0);
    }

    #[test]
    fn softmax_rows_sum_to_one() {
        let input = Tensor::from_vec(Shape::nf(2, 3), vec![1.0, 2.0, 3.0, 0.0, 0.0, 0.0]).unwrap();
        let out = run_single(Op::Softmax, &[input], None);
        let row0: f32 = out.data()[0..3].iter().sum();
        let row1: f32 = out.data()[3..6].iter().sum();
        assert!((row0 - 1.0).abs() < 1e-6 && (row1 - 1.0).abs() < 1e-6);
        assert!((out.data()[3] - 1.0 / 3.0).abs() < 1e-6);
    }

    #[test]
    fn seeded_weights_are_reproducible() {
        let mut b = GraphBuilder::new("seeded");
        let x = b.input(Shape::nchw(1, 3, 8, 8));
        let c = b
            .apply("conv", Op::Conv2d(Conv2dAttrs::same(4, 3, 1)), &[x])
            .unwrap();
        let g = b.finish(vec![c]);
        let input = Tensor::random(Shape::nchw(1, 3, 8, 8), 1, 1.0);
        let out1 = run_graph(&g, std::slice::from_ref(&input)).unwrap();
        let out2 = run_graph(&g, &[input]).unwrap();
        assert_eq!(out1, out2);
        assert!(out1[0].abs_max() > 0.0);
    }

    #[test]
    fn wrong_input_shape_is_reported() {
        let mut b = GraphBuilder::new("g");
        let x = b.input(Shape::nf(1, 4));
        let g = b.finish(vec![x]);
        let bad = Tensor::zeros(Shape::nf(1, 5));
        assert!(run_graph(&g, &[bad]).is_err());

        // A runner over batch 3 runs batches 1 to 3 of its inputs' per-sample
        // shapes, the same batch for every input; anything else fails,
        // and leaves the runner running.
        let mut b = GraphBuilder::new("two-inputs");
        let x = b.input(Shape::nf(3, 4));
        let y = b.input(Shape::nchw(3, 2, 2, 2));
        let rx = b.apply("rx", Op::Activation(ActKind::Relu), &[x]).unwrap();
        let ry = b.apply("ry", Op::Activation(ActKind::Relu), &[y]).unwrap();
        let g = b.finish(vec![rx, ry]);
        let mut runner = Runner::builder().build(&g).unwrap();
        let x = |n| Tensor::zeros(Shape::nf(n, 4));
        let y = |n| Tensor::zeros(Shape::nchw(n, 2, 2, 2));
        let mut fails = |inputs: &[Tensor]| {
            let got = runner.execute(inputs, RunOptions::default());
            matches!(got, Err(NnirError::ExecutionFailure(_)))
        };
        assert!(fails(&[x(0), y(0)]), "batch 0");
        assert!(fails(&[x(4), y(4)]), "batch above the runner's");
        assert!(
            fails(&[Tensor::zeros(Shape::nf(2, 5)), y(2)]),
            "per-sample dims"
        );
        assert!(fails(&[x(2), y(1)]), "two batches");
        for n in [2, 1, 3, 1] {
            let out = runner.execute(&[x(n), y(n)], RunOptions::default());
            assert_eq!(out.unwrap().outputs()[1].shape(), &Shape::nchw(n, 2, 2, 2));
        }
        // A rank-0 value has no batch axis: its graph runs at its own
        // batch only.
        let mut b = GraphBuilder::new("scalar");
        let xs = b.input(Shape::nf(3, 4));
        let s = b.input(Shape::new(Vec::new()));
        let rs = b.apply("rs", Op::Activation(ActKind::Relu), &[s]).unwrap();
        let g = b.finish(vec![xs, rs]);
        let mut runner = Runner::builder().build(&g).unwrap();
        let scalar = Tensor::zeros(Shape::new(Vec::new()));
        for n in [2, 1] {
            let got = runner.execute(&[x(n), scalar.clone()], RunOptions::default());
            assert!(
                matches!(got, Err(NnirError::ExecutionFailure(_))),
                "{got:?}"
            );
        }
        assert!(runner
            .execute(&[x(3), scalar], RunOptions::default())
            .is_ok());
    }

    // ---- regression tests for the validation bugfixes ----

    /// A one-node graph built with `op` over an input of `shape`, whose
    /// node a buggy pass then rewrites to `bad` with `weights` through
    /// `nodes_mut`, past the builder's checks.
    fn tampered(shape: Shape, op: Op, bad: Op, weights: WeightInit) -> Graph {
        let mut b = GraphBuilder::new("tampered");
        let x = b.input(shape);
        let y = b.apply("op", op, &[x]).unwrap();
        let mut g = b.finish(vec![y]);
        g.nodes_mut()[0].op = bad;
        g.nodes_mut()[0].weights = weights;
        g
    }

    /// The verifier code `Runner::build` rejects `g` with.
    fn rejection(g: &Graph) -> String {
        match Runner::builder().build(g) {
            Err(NnirError::VerifierRejected { code, .. }) => code,
            other => panic!("expected a verifier rejection, got {other:?}"),
        }
    }

    #[test]
    fn conv_rejects_non_dividing_groups() {
        // 3 input channels with groups = 2 used to silently truncate
        // icg = in_c / groups and mis-index the kernel.
        let attrs = Conv2dAttrs::same(4, 3, 1);
        let kernel = Tensor::full(Shape::new(vec![4, 1, 3, 3]), 1.0);
        let g = tampered(
            Shape::nchw(1, 3, 4, 4),
            Op::Conv2d(attrs),
            Op::Conv2d(Conv2dAttrs { groups: 2, ..attrs }),
            WeightInit::Explicit(vec![kernel]),
        );
        assert_eq!(rejection(&g), "V008");
    }

    #[test]
    fn conv_rejects_kernel_larger_than_padded_input() {
        // kernel > h + 2*ph used to underflow oh/ow and panic.
        let attrs = Conv2dAttrs {
            padding: (0, 0),
            ..Conv2dAttrs::same(1, 1, 1)
        };
        let kernel = Tensor::full(Shape::new(vec![1, 1, 5, 5]), 1.0);
        let g = tampered(
            Shape::nchw(1, 1, 2, 2),
            Op::Conv2d(attrs),
            Op::Conv2d(Conv2dAttrs {
                kernel: (5, 5),
                ..attrs
            }),
            WeightInit::Explicit(vec![kernel]),
        );
        assert_eq!(rejection(&g), "V008");
    }

    #[test]
    fn pool_rejects_kernel_larger_than_padded_input() {
        let g = tampered(
            Shape::nchw(1, 1, 2, 2),
            Op::MaxPool2d(Pool2dAttrs::square(1, 1)),
            Op::MaxPool2d(Pool2dAttrs::square(5, 1)),
            WeightInit::None,
        );
        assert_eq!(rejection(&g), "V008");
    }

    #[test]
    fn dense_rejects_malformed_weight() {
        // A weight whose in_f doesn't match the input used to produce a
        // silent empty/garbage output via unwrap_or(0).
        let dense = Op::Dense {
            out_features: 2,
            bias: false,
        };
        let bad_rank = Tensor::full(Shape::new(vec![6]), 1.0);
        let wrong_in_f = Tensor::full(Shape::nf(2, 4), 1.0);
        for bad in [bad_rank, wrong_in_f] {
            let w = WeightInit::Explicit(vec![bad]);
            let g = tampered(Shape::nf(1, 3), dense.clone(), dense.clone(), w);
            assert_eq!(rejection(&g), "V005");
        }
    }

    #[test]
    fn dense_rejects_zero_output_features() {
        // Regression: the per-scalar schedule's `out_f.max(1)` guards
        // used to let a [0, in_f] weight "succeed" with an empty output.
        let empty = Op::Dense {
            out_features: 0,
            bias: false,
        };
        let g = tampered(
            Shape::nf(1, 3),
            Op::Dense {
                out_features: 2,
                bias: false,
            },
            empty.clone(),
            WeightInit::Explicit(vec![Tensor::zeros(Shape::nf(0, 3))]),
        );
        assert_eq!(rejection(&g), "V008");
        let mut b = GraphBuilder::new("g");
        let x = b.input(Shape::nf(1, 3));
        let err = b.apply("fc", empty, &[x]);
        assert!(
            matches!(&err, Err(NnirError::InvalidAttribute { detail, .. }) if detail.contains("output features")),
            "{err:?}"
        );
    }

    #[test]
    fn dense_rejects_malformed_weight_through_graph() {
        // The builder validates weights at construction time, but a
        // buggy pass can still write a malformed tensor back through
        // `nodes_mut` — the engine-level check must fire there too.
        let mut b = GraphBuilder::new("g");
        let x = b.input(Shape::nf(1, 3));
        let out = b
            .apply(
                "fc",
                Op::Dense {
                    out_features: 2,
                    bias: false,
                },
                &[x],
            )
            .unwrap();
        let mut g = b.finish(vec![out]);
        let bad = Tensor::full(Shape::nf(2, 4), 1.0); // in_f 4 != 3
        g.nodes_mut()[0].weights = WeightInit::Explicit(vec![bad]);
        let input = Tensor::full(Shape::nf(1, 3), 1.0);
        assert!(run_graph(&g, &[input]).is_err());
    }

    // ---- runner arena + parallel equivalence smoke tests ----

    #[test]
    fn runner_reuses_arena_across_runs() {
        let g = crate::zoo::lenet5(10).unwrap();
        let mut runner = Runner::builder().build(&g).unwrap();
        let a = Tensor::random(Shape::nchw(1, 1, 28, 28), 3, 1.0);
        let b = Tensor::random(Shape::nchw(1, 1, 28, 28), 4, 1.0);
        let opts = RunOptions::default();
        let out_a1 = runner.execute(std::slice::from_ref(&a), opts).unwrap();
        let out_b = runner.execute(std::slice::from_ref(&b), opts).unwrap();
        let out_a2 = runner.execute(&[a], opts).unwrap();
        // Re-running the first input through the warm arena reproduces
        // the cold result exactly; the second input differs.
        assert_eq!(out_a1.outputs(), out_a2.outputs());
        assert_ne!(out_a1.outputs(), out_b.outputs());
    }

    #[test]
    fn serial_and_parallel_runners_agree_bitwise() {
        let g = crate::zoo::lenet5(10).unwrap().with_batch(4).unwrap();
        let input = Tensor::random(Shape::nchw(4, 1, 28, 28), 11, 1.0);
        let serial = Runner::builder()
            .parallelism(Parallelism::Serial)
            .build(&g)
            .unwrap()
            .execute(std::slice::from_ref(&input), RunOptions::default())
            .unwrap()
            .into_outputs();
        let parallel = Runner::builder()
            .parallelism(Parallelism::Threads(4))
            .build(&g)
            .unwrap()
            .execute(&[input], RunOptions::default())
            .unwrap()
            .into_outputs();
        assert_eq!(serial, parallel);
    }

    // ---- arena memory planner ----

    /// Each tensor's live range over the steps of a default runner's cut
    /// of `g`, from [`crate::analysis::Liveness`], with the elements of
    /// the arena range it owns: `None` for a graph input and a fused
    /// chain's inner value, 16 channels of each item for the value a
    /// step's second conv (a depthwise conv) reads, its value's for
    /// every other.
    fn step_liveness(g: &Graph) -> (Vec<crate::analysis::LiveRange>, Vec<Option<usize>>) {
        let steps = fused_steps(g, &int8_plans(g).unwrap());
        let mut step_of = vec![steps.len(); g.nodes().len() + 1];
        let mut sizes: Vec<Option<usize>> = (0..g.tensor_count())
            .map(|t| (!g.inputs().contains(&TensorId(t))).then(|| elems(g, t)))
            .collect();
        for (s, step) in steps.iter().enumerate() {
            step_of[step.clone()].fill(s);
            for node in &g.nodes()[step.start..step.end - 1] {
                sizes[node.output.0] = None;
            }
            for node in &g.nodes()[step.start + 1..step.end] {
                if let Op::Conv2d(_) = node.op {
                    let t = node.inputs[0];
                    let c = g.tensor_shape(t).unwrap().dims()[1];
                    sizes[t.0] = Some(elems(g, t.0) / c * c.min(16));
                }
            }
        }
        let live = crate::analysis::Liveness::of(g);
        let ranges = live.ranges().iter().map(|r| crate::analysis::LiveRange {
            def: step_of[r.def],
            last_use: step_of[r.last_use],
        });
        (ranges.collect(), sizes)
    }

    /// Elements of tensor `t` of `g` at its batch.
    fn elems(g: &Graph, t: usize) -> usize {
        g.tensor_shape(TensorId(t)).unwrap().elem_count()
    }

    #[test]
    fn memory_plan_never_overlaps_values_live_at_once() {
        for g in [
            crate::zoo::lenet5(10).unwrap(),
            calibrated_int8_lenet(),
            crate::zoo::mobilenet_v3_large(1000).unwrap(),
        ] {
            let plan = MemoryPlan::plan(&g);
            let (ranges, sizes) = step_liveness(&g);
            let extent = |t: usize| {
                let at = plan.offset_of(TensorId(t))?;
                Some(at..at + sizes[t]?)
            };
            for a in 0..g.tensor_count() {
                for b in (a + 1)..g.tensor_count() {
                    let same_width = plan.is_coded(TensorId(a)) == plan.is_coded(TensorId(b));
                    let (Some(ea), Some(eb)) = (extent(a), extent(b)) else {
                        continue;
                    };
                    if same_width && ranges[a].overlaps(ranges[b]) {
                        assert!(
                            ea.end <= eb.start || eb.end <= ea.start,
                            "{}: t{a} {:?} at {ea:?} and t{b} {:?} at {eb:?}",
                            g.name(),
                            ranges[a],
                            ranges[b],
                        );
                    }
                }
            }
            // The tensors that own no arena space are exactly the graph
            // inputs and the inner values of the fused chains: every
            // output of a step but its last, and but the value its
            // depthwise conv reads.
            let placeless: Vec<usize> = (0..g.tensor_count())
                .filter(|&t| plan.offset_of(TensorId(t)).is_none())
                .collect();
            let steps = fused_steps(&g, &int8_plans(&g).unwrap());
            let read = |node: &crate::graph::Node| matches!(node.op, Op::Conv2d(_));
            let inner = steps.into_iter().flat_map(|step| {
                let nodes = &g.nodes()[step.start..step.end];
                let read: Vec<_> = nodes[1..].iter().filter(|n| read(n)).collect();
                let inner = nodes[..nodes.len() - 1].iter().map(|node| node.output);
                inner.filter(move |t| read.iter().all(|n| n.inputs[0] != *t))
            });
            let mut want: Vec<usize> = g
                .inputs()
                .iter()
                .map(|t| t.0)
                .chain(inner.map(|t| t.0))
                .collect();
            want.sort_unstable();
            assert!(
                want.len() > g.inputs().len(),
                "{}: no chain fused",
                g.name()
            );
            assert_eq!(placeless, want, "{}", g.name());
        }
    }

    #[test]
    fn plan_peak_is_the_liveness_bound() {
        // Each arena's planned length is the most elements of its width
        // live at one step, so no placement of whole values does better.
        let mut models = vec![
            crate::zoo::lenet5(10).unwrap(),
            crate::zoo::tiny_cnn("tiny-cnn", Shape::nchw(1, 3, 16, 16), &[8, 16], 4).unwrap(),
            crate::zoo::conv1d_classifier("conv1d-classifier", 1, 64, &[8, 16], 3).unwrap(),
            crate::zoo::mobilenet_v3_large(1000).unwrap(),
            crate::zoo::resnet50(1000).unwrap(),
            crate::zoo::efficientnet_v2_s(1000).unwrap(),
            crate::zoo::yolov4(416, 80).unwrap(),
            crate::zoo::lenet5(10).unwrap().with_batch(8).unwrap(),
            calibrated_int8_lenet(),
        ];
        // Calibrating MobileNetV3 takes about a minute unoptimized.
        if !cfg!(debug_assertions) {
            models.push(calibrated_int8(
                &crate::zoo::mobilenet_v3_large(1000).unwrap(),
                2,
            ));
        }
        for g in &models {
            let plan = MemoryPlan::plan(g);
            let (ranges, sizes) = step_liveness(g);
            let steps = ranges.iter().map(|r| r.last_use).max().unwrap_or(0);
            let mut bound = [0usize; 2];
            for s in 0..=steps {
                let mut live = [0usize; 2];
                for t in 0..g.tensor_count() {
                    let Some(size) = sizes[t] else { continue };
                    if ranges[t].def <= s && s <= ranges[t].last_use {
                        live[usize::from(plan.is_coded(TensorId(t)))] += size;
                    }
                }
                bound = [bound[0].max(live[0]), bound[1].max(live[1])];
            }
            let (f32s, codes) = plan.arena_lens();
            assert_eq!([f32s, codes], bound, "{}", g.name());
            assert_eq!(plan.peak_bytes(), 4 * f32s as u64 + codes as u64);
        }
    }

    /// `x → conv → relu → conv → conv + x → a` and `x + a`, with `a` and
    /// the sum both graph outputs: the input is read by a conv, by the
    /// `Add` fused into the third conv three steps after it, and by a
    /// standalone `Add` step.
    fn residual_over_input(batch: usize) -> Graph {
        let mut b = GraphBuilder::new("residual");
        let x = b.input(Shape::nchw(batch, 4, 6, 6));
        let conv = Op::Conv2d(Conv2dAttrs::same(4, 3, 1));
        let c1 = b.apply("conv1", conv.clone(), &[x]).unwrap();
        let r1 = b
            .apply("relu1", Op::Activation(ActKind::Relu), &[c1])
            .unwrap();
        let c2 = b.apply("conv2", conv.clone(), &[r1]).unwrap();
        let c3 = b.apply("conv3", conv, &[c2]).unwrap();
        let a = b.apply("residual", Op::Add, &[c3, x]).unwrap();
        let sum = b.apply("sum", Op::Add, &[x, a]).unwrap();
        b.finish(vec![a, sum])
    }

    #[test]
    fn graph_inputs_are_read_in_place_at_every_batch() {
        let big = residual_over_input(3);
        let x = big.inputs()[0];
        for par in [Parallelism::Serial, Parallelism::Threads(2)] {
            for planned in [true, false] {
                let mut runner = Runner::builder()
                    .parallelism(par)
                    .memory_planning(planned)
                    .build(&big)
                    .unwrap();
                assert_eq!(runner.memory_plan().offset_of(x), None);
                // The third conv's fused `Add` and the `sum` step both
                // read the input where the caller holds it.
                let adds_input = |s: &Step<'_>| {
                    let input = Place::Input(0);
                    let fused =
                        |st: &Stage<'_>| matches!(st, Stage::Add { other, .. } if *other == input);
                    s.stages.iter().any(fused)
                        || matches!(s.kernel, Kernel::Stage(_)) && s.inputs.first() == Some(&input)
                };
                assert_eq!(runner.steps.iter().filter(|s| adds_input(s)).count(), 2);
                for n in [3, 1, 2, 3] {
                    let input = Tensor::random(Shape::nchw(n, 4, 6, 6), n as u64, 1.0);
                    let opts = RunOptions::new().capture_intermediates(true);
                    let reference = Runner::builder()
                        .memory_planning(false)
                        .build(&residual_over_input(n))
                        .unwrap()
                        .execute(std::slice::from_ref(&input), opts)
                        .unwrap();
                    for opts in [opts, RunOptions::new()] {
                        let got = runner.execute(std::slice::from_ref(&input), opts).unwrap();
                        let at = format!("{par:?} planned {planned} batch {n}");
                        assert_eq!(got.outputs(), reference.outputs(), "{at}");
                        if let Some(values) = got.intermediates() {
                            assert_eq!(values, reference.intermediates().unwrap(), "{at}");
                            assert_eq!(values[x.0].as_ref(), Some(&input), "{at}");
                        }
                    }
                }
            }
        }
    }

    /// `x [1,1,1,1] → Upsample(2^30) → u`, `k` activations of `u`, and
    /// the sum of `u` and all of them, added one by one: `k + 2` values
    /// of 2^60 f32 values each are live at the first `Add`.
    fn wide_upsample(k: usize) -> Graph {
        let mut b = GraphBuilder::new("wide");
        let x = b.input(Shape::nchw(1, 1, 1, 1));
        let factor = 1 << 30;
        let u = b.apply("u", Op::Upsample { factor }, &[x]).unwrap();
        let acts: Vec<TensorId> = (0..k)
            .map(|i| {
                b.apply(format!("r{i}"), Op::Activation(ActKind::Relu), &[u])
                    .unwrap()
            })
            .collect();
        let mut sum = u;
        for (i, &r) in acts.iter().enumerate() {
            sum = b.apply(format!("add{i}"), Op::Add, &[sum, r]).unwrap();
        }
        b.finish(vec![sum])
    }

    #[test]
    fn arenas_past_isize_max_are_refused_before_allocating() {
        // Three live values of 2^62 bytes: 3·2^62 bytes of f32 arena.
        let g = wide_upsample(1);
        let plan = MemoryPlan::plan(&g);
        assert_eq!(plan.arena_lens(), (3 << 60, 0));
        assert_eq!(plan.peak_bytes(), 3 << 62);
        let refused = |g: &Graph| match Runner::builder().build(g).map(drop) {
            Err(NnirError::ArenaTooLarge { bytes, .. }) => bytes,
            other => panic!("expected ArenaTooLarge, got {other:?}"),
        };
        assert_eq!(refused(&g), 3 << 62);
        // Eighteen live values: the f32 arena's end saturates in
        // elements, and its bytes and the unplanned layout's in u64.
        let g = wide_upsample(17);
        let plan = MemoryPlan::plan(&g);
        assert_eq!(plan.arena_lens().0, usize::MAX);
        assert_eq!(plan.peak_bytes(), u64::MAX);
        assert_eq!(plan.unplanned_bytes(), u64::MAX);
        assert_eq!(refused(&g), u64::MAX);
        let unplanned = Runner::builder().memory_planning(false).build(&g);
        assert!(matches!(unplanned, Err(NnirError::ArenaTooLarge { .. })));
    }

    #[test]
    fn memory_plan_cuts_conv_peak_memory_by_a_quarter() {
        // The ISSUE acceptance bar: planned arenas reduce peak bytes by
        // at least 25% on the convolutional zoo models.
        for g in [
            crate::zoo::lenet5(10).unwrap(),
            crate::zoo::tiny_cnn("gesture", Shape::nchw(1, 3, 64, 64), &[8, 16, 32], 10).unwrap(),
            crate::zoo::mobilenet_v3_large(1000).unwrap(),
            crate::zoo::resnet50(1000).unwrap(),
        ] {
            let plan = MemoryPlan::plan(&g);
            assert!(
                plan.reduction() >= 0.25,
                "{}: reduction {:.3} below the 25% bar ({} -> {} bytes)",
                g.name(),
                plan.reduction(),
                plan.unplanned_bytes(),
                plan.peak_bytes()
            );
        }
    }

    #[test]
    fn identity_plan_keeps_one_slot_per_tensor() {
        let g = crate::zoo::lenet5(10).unwrap();
        let plan = MemoryPlan::identity(&g);
        assert_eq!(plan.peak_bytes(), plan.unplanned_bytes());
        assert_eq!(plan.reduction(), 0.0);
        let runner = Runner::builder().memory_planning(false).build(&g).unwrap();
        assert_eq!(runner.memory_plan(), &plan);
    }

    #[test]
    fn planned_and_unplanned_runs_are_bit_identical() {
        let g = crate::zoo::lenet5(10).unwrap();
        let input = Tensor::random(Shape::nchw(1, 1, 28, 28), 17, 1.0);
        let opts = RunOptions::new().capture_intermediates(true);
        let mut planned = Runner::builder().build(&g).unwrap();
        let mut unplanned = Runner::builder().memory_planning(false).build(&g).unwrap();
        for _ in 0..2 {
            // Twice: the second pass runs over a dirty, shape-stable arena.
            let a = planned.execute(std::slice::from_ref(&input), opts).unwrap();
            let b = unplanned
                .execute(std::slice::from_ref(&input), opts)
                .unwrap();
            assert_eq!(a.outputs(), b.outputs());
            assert_eq!(a.intermediates(), b.intermediates());
        }
    }

    #[test]
    fn profile_reports_arena_plan_metrics() {
        let g = crate::zoo::lenet5(10).unwrap();
        let input = Tensor::random(Shape::nchw(1, 1, 28, 28), 9, 1.0);
        let mut runner = Runner::builder().build(&g).unwrap();
        let plan = runner.memory_plan().clone();
        let out = runner
            .execute(&[input], RunOptions::new().profile(true))
            .unwrap();
        let profile = out.profile().expect("profiled");
        assert_eq!(profile.arena_peak_bytes, plan.peak_bytes());
        assert_eq!(profile.arena_unplanned_bytes, plan.unplanned_bytes());
        assert!(profile.arena_reduction() >= 0.25);
    }

    // ---- one-door API: options ----

    #[test]
    fn capture_intermediates_returns_every_value() {
        let g = crate::zoo::lenet5(10).unwrap();
        let input = Tensor::random(Shape::nchw(1, 1, 28, 28), 9, 1.0);
        let mut runner = Runner::builder().build(&g).unwrap();
        let out = runner
            .execute(&[input], RunOptions::new().capture_intermediates(true))
            .unwrap();
        let values = out.intermediates().expect("captured");
        assert_eq!(values.len(), g.tensor_count());
        assert!(values.iter().all(Option::is_some));
        // Plain runs do not pay the clone.
        assert!(out.outputs()[0].shape().dims() == [1, 10]);
    }

    #[test]
    fn profiled_run_records_every_node() {
        let g = crate::zoo::lenet5(10).unwrap();
        let input = Tensor::random(Shape::nchw(1, 1, 28, 28), 9, 1.0);
        let mut runner = Runner::builder().build(&g).unwrap();
        // Warm the arenas so the profiled pass measures steady state.
        runner
            .execute(std::slice::from_ref(&input), RunOptions::default())
            .unwrap();
        let out = runner
            .execute(
                std::slice::from_ref(&input),
                RunOptions::new().profile(true),
            )
            .unwrap();
        let profile = out.profile().expect("profiled");
        assert_eq!(profile.model, g.name());
        assert_eq!(profile.per_node.len(), g.nodes().len());
        assert!(profile.wall_ns > 0 && profile.nodes_ns() <= profile.wall_ns);
        // Static op counts agree with the whole-graph cost report.
        let report = crate::cost::CostReport::of(&g).unwrap();
        let macs: u64 = profile.per_node.iter().map(|n| n.macs).sum();
        assert_eq!(macs, report.total_macs);
        // Unprofiled runs carry no profile and match bit-for-bit.
        let plain = runner.execute(&[input], RunOptions::default()).unwrap();
        assert!(plain.profile().is_none());
        assert_eq!(plain.outputs(), out.outputs());
    }

    #[test]
    fn parallelism_policy_reports_workers() {
        assert_eq!(Parallelism::Serial.max_threads(), 1);
        assert_eq!(Parallelism::Threads(6).max_threads(), 6);
        assert!(Parallelism::Auto.max_threads() >= 1);
        // Tiny kernels never spawn.
        assert_eq!(Parallelism::Threads(8).workers_for(100), 1);
        assert_eq!(Parallelism::Threads(8).workers_for(1 << 20), 8);
    }

    #[test]
    fn par_chunks_covers_every_unit_once() {
        let mut data = vec![0.0f32; 103]; // deliberately non-divisible
        par_chunks(4, &mut data, 10, |u, chunk| {
            for x in chunk.iter_mut() {
                *x += 1.0 + u as f32;
            }
        });
        // Every element written exactly once with its unit index.
        for (i, &x) in data.iter().enumerate() {
            assert_eq!(x, 1.0 + (i / 10) as f32);
        }
    }

    // ---- microkernels ----

    #[test]
    fn dot4_matches_documented_lane_association() {
        // Lane j accumulates elements j, j+4, ... in index order; the
        // combine is (l0+l1)+(l2+l3). Bit-exact by construction for any
        // length, including tails of 1..3, in both 4-row kernels: the
        // matrix-vector tile pads the tail itself, the GEMM tile gets
        // rows padded as the GEMM pads them (weights with +0.0, inputs
        // with -0.0), and a `-0.0` bias adds nothing to any sum.
        for len in [0usize, 1, 2, 3, 4, 5, 7, 8, 13, 127] {
            let a: Vec<f32> = (0..len).map(|i| (i as f32 * 0.37).sin()).collect();
            let b: Vec<f32> = (0..len).map(|i| (i as f32 * 0.11).cos() - 0.4).collect();
            let mut lanes = [0.0f32; 4];
            for i in 0..len {
                lanes[i % 4] += a[i] * b[i];
            }
            let reference = (lanes[0] + lanes[1]) + (lanes[2] + lanes[3]);
            let col = dot4_col([&a[..]; 4], &b, [-0.0; 4]);
            let padded = |v: &[f32], fill| {
                let mut v = v.to_vec();
                v.resize(len.next_multiple_of(4), fill);
                v
            };
            let (a, b) = (padded(&a, 0.0), padded(&b, -0.0));
            let tile = dot4_tile([&a[..]; 4], &b, &b, [-0.0; 4]);
            for got in col.into_iter().chain(tile.into_iter().flatten()) {
                assert_eq!(got.to_bits(), reference.to_bits(), "len {len}");
            }
        }
    }

    #[test]
    fn dot_i16_is_exact_against_wide_reference() {
        // i32 accumulation never rounds: compare against an i64 sum, on
        // every length up to a few SIMD widths past the tail and on the
        // extreme codes (an i8 weight may be -128, an activation ±127).
        // Each operand is zero-padded to whole chunks, as the plans and
        // patch rows are.
        let a: Vec<i16> = (0..301)
            .map(|i| ((i * 37 + 11) % 256 - 128) as i16)
            .collect();
        let b: Vec<i16> = (0..301)
            .map(|i| ((i * 53 + 7) % 255 - 127) as i16)
            .collect();
        let dot_i16 = |a: &[i16], b: &[i16]| {
            let chunks = |v: &[i16]| {
                let mut p = v.to_vec();
                p.resize(v.len().next_multiple_of(CODE_CHUNK), 0);
                p.as_chunks::<CODE_CHUNK>().0.to_vec()
            };
            dot_codes(&chunks(a), &chunks(b))
        };
        for len in (0..40).chain([255, 301]) {
            let wide: i64 = a[..len]
                .iter()
                .zip(&b[..len])
                .map(|(&x, &y)| i64::from(x) * i64::from(y))
                .sum();
            assert_eq!(i64::from(dot_i16(&a[..len], &b[..len])), wide, "len {len}");
        }
        let extreme = dot_i16(&[-128; 1024], &[-127; 1024]);
        assert_eq!(extreme, 1024 * 128 * 127);
    }

    #[test]
    fn fake_quant_with_zero_scale_yields_zero() {
        let values = vec![1.0, -3.5, 0.0, -0.0, f32::INFINITY, f32::NAN, 1e-40];
        let input = Tensor::from_vec(Shape::nf(1, values.len()), values).unwrap();
        let out = run_single(Op::FakeQuant { scale: 0.0 }, &[input], None);
        assert!(
            out.data().iter().all(|x| x.to_bits() == 0),
            "{:?}",
            out.data()
        );
    }

    // ---- INT8 execution path ----

    #[test]
    fn int8_dense_path_engages_and_matches_fake_quant_reference() {
        // x -> FakeQuant -> Dense with per-channel i8 weights: the plan
        // should select the INT8 kernel, and its output must match the
        // fake-quant f32 reference within the stated tolerance.
        let scale = 1.0 / 127.0;
        let mut b = GraphBuilder::new("q");
        let x = b.input(Shape::nf(2, 8));
        let q = b.apply("x.q", Op::FakeQuant { scale }, &[x]).unwrap();
        let mut w = Tensor::random(Shape::nf(3, 8), 5, 1.0);
        w.quantize_i8_per_channel();
        let fc = b
            .apply_with_weights(
                "fc",
                Op::Dense {
                    out_features: 3,
                    bias: false,
                },
                &[q],
                WeightInit::Explicit(vec![w]),
            )
            .unwrap();
        let g = b.finish(vec![fc]);
        let input = Tensor::random(Shape::nf(2, 8), 9, 1.0);

        let mut int8 = Runner::builder().build(&g).unwrap();
        assert!(
            int8.uses_int8(),
            "I201-clean quantized graph should plan INT8"
        );
        let mut reference = Runner::builder().int8(false).build(&g).unwrap();
        assert!(!reference.uses_int8());

        let got = int8
            .execute(
                std::slice::from_ref(&input),
                RunOptions::new().profile(true),
            )
            .unwrap();
        let want = reference.execute(&[input], RunOptions::default()).unwrap();
        assert_eq!(got.profile().expect("profiled").int8_nodes(), 1);
        let diff = got.outputs()[0].max_abs_diff(&want.outputs()[0]).unwrap();
        let bound = 1e-4 * want.outputs()[0].abs_max().max(1.0);
        assert!(diff <= bound, "int8 vs fake-quant diff {diff} > {bound}");
    }

    /// LeNet-5 with per-channel i8 weights and a `FakeQuant` after its
    /// input and after every node, each on the grid of the absmax it
    /// sees over four calibration inputs (over 127), as the toolchain's
    /// `QuantizeInt8` builds it from vbench's calibration set.
    fn calibrated_int8_lenet() -> Graph {
        calibrated_int8(&crate::zoo::lenet5(10).unwrap(), 4)
    }

    /// `src` quantized as [`calibrated_int8_lenet`] is, over `samples`
    /// seeded calibration inputs.
    fn calibrated_int8(src: &Graph, samples: u64) -> Graph {
        let mut absmax = vec![0.0f32; src.tensor_count()];
        let mut runner = Runner::builder().build(src).unwrap();
        let shape = src.tensor_shape(src.inputs()[0]).unwrap();
        for seed in 1..=samples {
            let x = Tensor::random(shape.clone(), seed, 1.0);
            let opts = RunOptions::new().capture_intermediates(true);
            let out = runner.execute(&[x], opts).unwrap();
            for (m, t) in absmax.iter_mut().zip(out.intermediates().unwrap()) {
                *m = m.max(t.as_ref().map_or(0.0, Tensor::abs_max));
            }
        }
        let mut b = GraphBuilder::new(format!("{}-int8", src.name()));
        let mut ids = vec![TensorId(0); src.tensor_count()];
        let quant = |b: &mut GraphBuilder, name: String, old: TensorId, new: TensorId| {
            let scale = absmax[old.0] / 127.0;
            if scale > 0.0 {
                b.apply(name, Op::FakeQuant { scale }, &[new]).unwrap()
            } else {
                new
            }
        };
        for &t in src.inputs() {
            let x = b.input(src.tensor_shape(t).unwrap().clone());
            ids[t.0] = quant(&mut b, format!("{t}.quant"), t, x);
        }
        for node in src.nodes() {
            let inputs: Vec<TensorId> = node.inputs.iter().map(|t| ids[t.0]).collect();
            let mut weights = src.node_weights(node).unwrap().into_owned();
            if matches!(node.op, Op::Conv2d(_) | Op::Dense { .. }) {
                weights[0].quantize_i8_per_channel();
            }
            let w = WeightInit::Explicit(weights);
            let out = b
                .apply_with_weights(node.name.clone(), node.op.clone(), &inputs, w)
                .unwrap();
            ids[node.output.0] = quant(&mut b, format!("{}.quant", node.name), node.output, out);
        }
        b.finish(src.outputs().iter().map(|t| ids[t.0]).collect())
    }

    /// The kernel a step runs, by its name in DESIGN.md §10's table.
    fn kernel_name(k: &Kernel<'_>) -> &'static str {
        match k {
            Kernel::ConvLanes(..) => "lanes",
            Kernel::Expanded(_) => "expanded",
            Kernel::ConvGemm(_) => "gemm",
            Kernel::ConvBias(_) => "bias",
            Kernel::Grouped(..) => "grouped",
            Kernel::Int8Gemm(..) => "int8-gemm",
            Kernel::Int8Direct(..) => "int8-direct",
            Kernel::MatVec(_) => "matvec",
            Kernel::Int8Dense(..) => "int8-dense",
            Kernel::Pool(_, PoolMode::Max) => "max-pool",
            Kernel::Pool(_, PoolMode::Avg) => "avg-pool",
            Kernel::GlobalAvgPool(_) => "global-avg-pool",
            Kernel::Mul(_) => "mul",
            Kernel::Concat => "concat",
            Kernel::Upsample { .. } => "upsample",
            Kernel::Softmax(_) => "softmax",
            Kernel::Stage(_) => "stage",
            Kernel::Copy => "copy",
        }
    }

    /// Each step's head and the kernel the plan picks for it.
    fn plan_of(g: &Graph) -> Vec<(String, &'static str)> {
        let runner = Runner::builder().build(g).unwrap();
        let named = |s: &Step<'_>| g.nodes()[s.nodes.start].name.clone();
        runner
            .steps
            .iter()
            .map(|s| (named(s), kernel_name(&s.kernel)))
            .collect()
    }

    #[test]
    fn plan_pins_every_steps_kernel() {
        // Every kernel computes the same bits, so only this test sees a
        // change in kernel selection (DESIGN.md §10, "Kernel-selection
        // rules").
        let pinned = |g: &Graph, want: &[(&str, &str)]| {
            let got = plan_of(g);
            let got: Vec<(&str, &str)> = got.iter().map(|(n, k)| (n.as_str(), *k)).collect();
            assert_eq!(got, want, "{}", g.name());
        };
        pinned(
            &crate::zoo::lenet5(10).unwrap(),
            &[
                ("conv1", "lanes"),
                ("pool1", "max-pool"),
                ("conv2", "gemm"),
                ("pool2", "max-pool"),
                ("flatten", "copy"),
                ("fc1", "matvec"),
                ("fc2", "matvec"),
                ("fc3", "matvec"),
            ],
        );
        // The INT8 convs' steps fold their pools.
        pinned(
            &calibrated_int8_lenet(),
            &[
                ("t0.quant", "stage"),
                ("conv1", "int8-direct"),
                ("conv2", "int8-gemm"),
                ("flatten", "copy"),
                ("fc1", "int8-dense"),
                ("fc2", "int8-dense"),
                ("fc3", "int8-dense"),
            ],
        );
        let plan = plan_of(&crate::zoo::mobilenet_v3_large(1000).unwrap());
        let mut counts = std::collections::BTreeMap::new();
        for (_, kernel) in &plan {
            *counts.entry(*kernel).or_insert(0) += 1;
        }
        let want = [
            ("copy", 1),
            ("expanded", 3),
            ("gemm", 44),
            ("global-avg-pool", 9),
            ("grouped", 12),
            ("lanes", 1),
            ("matvec", 1),
            ("mul", 8),
        ];
        assert_eq!(counts, want.into_iter().collect());
        let named = |kernel: &str| -> Vec<&str> {
            let steps = plan.iter().filter(|(_, k)| *k == kernel);
            steps.map(|(n, _)| n.as_str()).collect()
        };
        assert_eq!(named("lanes"), ["conv3"]);
        // The lane-kernel expansions whose only reader is a depthwise
        // conv take it into their steps.
        assert_eq!(named("expanded"), ["conv5", "conv8", "conv12"]);
    }

    #[test]
    fn int8_lenet_folds_both_pools_and_elides_five_quants() {
        let g = calibrated_int8_lenet();
        let runner = Runner::builder().build(&g).unwrap();
        let named = |idx: usize| g.nodes()[idx].name.as_str();
        // Each INT8 conv's step runs through its pool and the pool's
        // FakeQuant; its pre-pool values own no arena space.
        for head in ["conv1", "conv2"] {
            let step = runner
                .steps
                .iter()
                .find(|s| named(s.nodes.start) == head)
                .unwrap();
            let names: Vec<&str> = step.nodes.clone().map(named).collect();
            let pool = if head == "conv1" { "pool1" } else { "pool2" };
            assert_eq!(
                names,
                [
                    head,
                    &format!("{head}.quant"),
                    &format!("{head}.act"),
                    &format!("{head}.act.quant"),
                    pool,
                    &format!("{pool}.quant"),
                ]
            );
        }
        assert_eq!(runner.memory_plan().peak_bytes(), 2000);
        assert_eq!(runner.memory_plan(), &MemoryPlan::plan(&g));
        // The FakeQuants whose input already lies on their grid: a lone
        // one copies its input, a fused one runs no stage.
        let mut identities: Vec<usize> = runner
            .steps
            .iter()
            .flat_map(|s| {
                let head = matches!(s.kernel, Kernel::Copy)
                    && matches!(g.nodes()[s.nodes.start].op, Op::FakeQuant { .. });
                let tails = s.nodes.clone().skip(1).zip(&s.tails);
                let tails = tails.filter(|(_, t)| **t == Tail::Identity).map(|(i, _)| i);
                head.then_some(s.nodes.start).into_iter().chain(tails)
            })
            .collect();
        identities.sort_unstable();
        assert_eq!(
            identities.into_iter().map(named).collect::<Vec<_>>(),
            [
                "pool1.quant",
                "conv2.act.quant",
                "pool2.quant",
                "flatten.quant",
                "fc2.relu.quant"
            ]
        );
        // A runner over batch 3 runs smaller batches through the folds
        // as runners built at them do, capturing the pre-pool values too.
        let big = g.with_batch(3).unwrap();
        let mut runner = Runner::builder().build(&big).unwrap();
        for (n, capture) in [(2, true), (1, false), (3, true), (1, true), (2, false)] {
            let at_n = g.with_batch(n).unwrap();
            let x = [Tensor::random(Shape::nchw(n, 1, 28, 28), n as u64, 1.0)];
            let opts = RunOptions::new().capture_intermediates(capture);
            let got = runner.execute(&x, opts).unwrap();
            let want = Runner::builder()
                .build(&at_n)
                .unwrap()
                .execute(&x, opts)
                .unwrap();
            assert_eq!(got.outputs(), want.outputs(), "batch {n}");
            assert_eq!(got.intermediates(), want.intermediates(), "batch {n}");
        }
    }

    #[test]
    fn relu_sends_every_zero_negative_and_nan_to_positive_zero() {
        // The INT8 conv's pool fold counts on it in every build: the
        // scalar form and the vectorized stage both.
        let xs = [
            -0.0f32,
            0.0,
            -1.0,
            -f32::MIN_POSITIVE,
            f32::NAN,
            f32::NEG_INFINITY,
        ];
        for x in xs {
            assert_eq!(ActKind::Relu.apply(x).to_bits(), 0, "{x}");
        }
        let mut run: Vec<f32> = xs.iter().cycle().take(67).copied().collect();
        activation(ActKind::Relu, &mut run);
        assert!(run.iter().all(|x| x.to_bits() == 0), "{run:?}");
        assert_eq!(ActKind::Relu.apply(2.5), 2.5);
    }

    #[test]
    fn int8_plans_only_graphs_with_i8_weights() {
        let planned = |g: &Graph| {
            let runner = Runner::builder().build(g).unwrap();
            runner.steps.iter().filter(|s| s.kernel.is_int8()).count()
        };
        assert_eq!(planned(&crate::zoo::lenet5(10).unwrap()), 0);
        assert_eq!(planned(&calibrated_int8_lenet()), 5);
    }

    #[test]
    fn runner_borrows_explicit_weights_and_owns_seeded_ones() {
        let seeded = crate::zoo::lenet5(10).unwrap();
        let mut explicit = seeded.clone();
        explicit.explicit_weights(|_| true);
        for g in [&explicit, &seeded] {
            let runner = Runner::builder().build(g).unwrap();
            let mut held = 0;
            for step in &runner.steps {
                // The conv and dense weights the head's kernel holds, and
                // each BatchNorm's scale and shift.
                let (head, padded) = match &step.kernel {
                    Kernel::ConvLanes(c, _) | Kernel::ConvBias(c) | Kernel::Grouped(c, _) => {
                        (vec![Some(&c.w), c.bias.as_ref()], false)
                    }
                    Kernel::ConvGemm(c) => {
                        (vec![Some(&c.w), c.bias.as_ref()], c.g.k_len() % 4 != 0)
                    }
                    Kernel::MatVec(d) => (vec![Some(&d.w), d.bias.as_ref()], false),
                    _ => (Vec::new(), false),
                };
                let stages = step.stages.iter().filter_map(|s| match s {
                    Stage::BatchNorm { scale, shift } => Some([scale, shift]),
                    _ => None,
                });
                assert_eq!(stages.count(), 0, "lenet5 has no BatchNorm");
                let node = &g.nodes()[step.nodes.start];
                for (i, data) in head.into_iter().flatten().enumerate() {
                    held += 1;
                    match (&node.weights, data) {
                        (WeightInit::Explicit(t), Cow::Borrowed(lent)) => {
                            assert!(std::ptr::eq(t[i].data(), *lent), "{}", node.name);
                        }
                        // The GEMM pads a K that is not a multiple of 4
                        // into rows of its own, once.
                        (WeightInit::Explicit(t), Cow::Owned(rows)) if i == 0 && padded => {
                            let k = t[0].data().len() / rows.len().max(1);
                            assert!(rows.len() > t[0].data().len(), "{} {k}", node.name);
                        }
                        (WeightInit::Seeded(_), Cow::Owned(_)) => {}
                        (init, _) => panic!("{}: {init:?} held the wrong way", node.name),
                    }
                }
            }
            // Two convs and three dense layers, each with a bias.
            assert_eq!(held, 10, "{}", g.name());
        }
    }

    #[test]
    fn arena_allocates_what_it_plans() {
        // Each arena grows to exactly its length at the run's batch, so
        // after runs at several batches the arenas hold what the plan
        // counts: their lengths at the graph's batch.
        let lenet = crate::zoo::lenet5(10).unwrap();
        let mut models = vec![
            lenet.clone(),
            calibrated_int8_lenet(),
            lenet.with_batch(8).unwrap(),
        ];
        // About 3 s and 31 s a pass unoptimized; `ci.sh` also runs these
        // tests in release, where they take a second.
        if !cfg!(debug_assertions) {
            let mobilenet = crate::zoo::mobilenet_v3_large(1000).unwrap();
            let int8 = calibrated_int8(&mobilenet, 2);
            assert_eq!(MemoryPlan::plan(&mobilenet).peak_bytes(), 2_408_448);
            assert_eq!(MemoryPlan::plan(&int8).peak_bytes(), 4_214_784);
            models.extend([int8, mobilenet]);
            models.push(crate::zoo::resnet50(1000).unwrap());
        }
        for g in &models {
            let mut runner = Runner::builder().build(g).unwrap();
            assert_eq!(runner.memory_plan(), &MemoryPlan::plan(g), "{}", g.name());
            let b = g.batch();
            let item = g.tensor_shape(g.inputs()[0]).unwrap();
            for n in [b, 1, 3, b].into_iter().filter(|&n| n <= b) {
                let x = Tensor::random(item.with_batch(n), n as u64, 1.0);
                runner.execute(&[x], RunOptions::default()).unwrap();
            }
            let plan = runner.memory_plan().peak_bytes();
            assert_eq!(runner.arena_capacity_bytes(), plan, "{}", g.name());
        }
    }

    #[test]
    fn scratch_holds_no_cut_of_the_arena() {
        // Computing an expansion a block at a time moves none of its
        // bytes into the kernels' scratch: after warm runs, f32
        // MobileNetV3-Large's scratch holds what it held with every
        // expansion whole. About 3 s a pass unoptimized.
        if cfg!(debug_assertions) {
            return;
        }
        let g = crate::zoo::mobilenet_v3_large(1000).unwrap();
        let item = g.tensor_shape(g.inputs()[0]).unwrap();
        for (par, bytes) in [
            (Parallelism::Serial, 1_278_960),
            (Parallelism::Threads(2), 1_544_176),
        ] {
            let mut runner = Runner::builder().parallelism(par).build(&g).unwrap();
            for seed in 1..=2 {
                let x = Tensor::random(item.clone(), seed, 1.0);
                runner.execute(&[x], RunOptions::default()).unwrap();
            }
            assert_eq!(runner.scratch_bytes(), bytes, "{par:?}");
        }
    }

    /// `x → FakeQuant(s) → conv (3×3, the direct kernel) → FakeQuant(s) →
    /// conv (3×3 stride 2, the GEMM) → FakeQuant(s) → flatten →
    /// FakeQuant(s) → dense`, every conv and dense layer on INT8 weights.
    fn coded_chain(s: f32) -> Graph {
        let mut b = GraphBuilder::new("coded");
        let x = b.input(Shape::nchw(2, 1, 12, 12));
        let quant = |b: &mut GraphBuilder, name: &str, t| {
            b.apply(name, Op::FakeQuant { scale: s }, &[t]).unwrap()
        };
        let weights = |shape: Shape, seed| {
            let mut w = Tensor::random(shape, seed, 1.0);
            w.quantize_i8_per_channel();
            WeightInit::Explicit(vec![w])
        };
        let q = quant(&mut b, "x.quant", x);
        let attrs = Conv2dAttrs::same(2, 3, 1);
        let w = weights(Shape::new(vec![2, 1, 3, 3]), 5);
        let conv1 = b.apply_with_weights("conv1", Op::Conv2d(attrs), &[q], w);
        let q = quant(&mut b, "conv1.quant", conv1.unwrap());
        let attrs = Conv2dAttrs::same(2, 3, 2);
        let w = weights(Shape::new(vec![2, 2, 3, 3]), 6);
        let conv2 = b.apply_with_weights("conv2", Op::Conv2d(attrs), &[q], w);
        let q = quant(&mut b, "conv2.quant", conv2.unwrap());
        let flat = b.apply("flatten", Op::Flatten, &[q]).unwrap();
        let q = quant(&mut b, "flatten.quant", flat);
        let dense = Op::Dense {
            out_features: 3,
            bias: false,
        };
        let w = weights(Shape::nf(3, 72), 7);
        let fc = b.apply_with_weights("fc", dense, &[q], w).unwrap();
        b.finish(vec![fc])
    }

    #[test]
    fn coded_values_hold_the_codes_their_readers_computed() {
        // At a normal scale, the least normal one, one just under
        // `f32::MAX / 127`, a subnormal one and one whose 127·s
        // overflows; over NaN, ±∞, ±0.0 and every rounding boundary of
        // the scale. A plain run, which passes codes, and a run that
        // captures intermediates, which computes every value in f32, agree
        // bit for bit; each coded value holds `quantize_activation` of
        // its f32 value. The last two scales plan no INT8 node: their
        // codes would not be exact, so the chain runs in f32.
        let bits = |t: &[Tensor]| -> Vec<Vec<u32>> {
            t.iter()
                .map(|t| t.data().iter().map(|x| x.to_bits()).collect())
                .collect()
        };
        let scales = [
            (0.01f32, 4, 3),
            (f32::MIN_POSITIVE, 4, 3),
            (2.6e36, 4, 3),
            (1e-40, 0, 0),
            (3e36, 0, 0),
        ];
        for (s, coded, int8) in scales {
            let g = coded_chain(s);
            let mut xs = vec![f32::NAN, f32::INFINITY, f32::NEG_INFINITY, -0.0, 0.0];
            xs.extend((-128..128).map(|k| (k as f32 + 0.5) * s));
            xs.extend((0..27).map(|i| (i as f32 - 13.0) * 0.37 * s));
            let x = Tensor::from_vec(Shape::nchw(2, 1, 12, 12), xs).unwrap();
            let plan = MemoryPlan::plan(&g);
            let n = (0..g.tensor_count()).filter(|&t| plan.is_coded(TensorId(t)));
            assert_eq!(n.count(), coded, "scale {s}");
            let mut want = None;
            for par in [Parallelism::Serial, Parallelism::Threads(2)] {
                for planned in [true, false] {
                    let mut runner = Runner::builder()
                        .parallelism(par)
                        .memory_planning(planned)
                        .build(&g)
                        .unwrap();
                    assert_eq!(
                        runner.steps.iter().filter(|s| s.kernel.is_int8()).count(),
                        int8,
                        "scale {s}"
                    );
                    let opts = RunOptions::new().capture_intermediates(true);
                    let captured = runner.execute(std::slice::from_ref(&x), opts).unwrap();
                    let plain = runner
                        .execute(std::slice::from_ref(&x), RunOptions::new())
                        .unwrap();
                    assert_eq!(bits(plain.outputs()), bits(captured.outputs()), "scale {s}");
                    let want = want.get_or_insert_with(|| bits(plain.outputs()));
                    assert_eq!(&bits(plain.outputs()), want, "scale {s} {par:?} {planned}");
                    if planned {
                        continue;
                    }
                    // One range per value: each coded one still holds its
                    // value's codes.
                    let values = captured.intermediates().unwrap();
                    for step in runner.steps.iter().filter(|s| s.code.is_some()) {
                        let t = g.nodes()[step.nodes.end - 1].output;
                        let inv = 1.0 / step.code.unwrap();
                        let f32s = values[t.0].as_ref().unwrap().data();
                        let codes: Vec<i8> = f32s
                            .iter()
                            .map(|&v| quantize_activation(v, inv) as i8)
                            .collect();
                        assert_eq!(runner.codes_of(t), Some(&codes[..]), "scale {s} {t}");
                    }
                }
            }
        }
    }

    #[test]
    fn uncalibrated_graph_never_plans_int8() {
        // No FakeQuant producer -> no activation scale -> f32 path even
        // though the weights carry an i8 payload.
        let mut b = GraphBuilder::new("nq");
        let x = b.input(Shape::nf(1, 8));
        let mut w = Tensor::random(Shape::nf(3, 8), 5, 1.0);
        w.quantize_i8_per_channel();
        let fc = b
            .apply_with_weights(
                "fc",
                Op::Dense {
                    out_features: 3,
                    bias: false,
                },
                &[x],
                WeightInit::Explicit(vec![w]),
            )
            .unwrap();
        let g = b.finish(vec![fc]);
        assert!(!Runner::builder().build(&g).unwrap().uses_int8());
    }
}
