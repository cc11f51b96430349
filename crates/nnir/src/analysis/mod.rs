//! Multi-pass static analysis over NNIR graphs.
//!
//! The toolchain's contract is "compile → verify → deploy": every graph
//! that reaches an executor or a deployment target must be *provably*
//! well-formed first. This module is the verify stage — a set of
//! [`AnalysisPass`]es that re-derive every invariant from first
//! principles (never trusting stored annotations) and report violations
//! as structured [`Diagnostic`]s with stable codes, severities and
//! node provenance pointing back into the textual interchange format.
//!
//! The module splits into four layers:
//!
//! * [`diagnostics`](self) — severities, stable codes, findings,
//!   per-severity [`Totals`] and the [`Report`] renderer: the single
//!   source of truth for how a finding is displayed.
//! * framework — the [`AnalysisPass`] pipeline ([`Analyzer`]), the
//!   execution/transform gates, and the generic [`ForwardAnalysis`]
//!   dataflow driver ([`propagate`]): one fact per tensor, pushed
//!   through the schedule in topological order.
//! * dataflow — the concrete analyses: tensor [`Liveness`] (def/use
//!   intervals per value, feeding the arena memory planner in
//!   [`crate::exec`]), value-range propagation ([`value_ranges`],
//!   interval arithmetic through every op) and [`QuantSafety`]
//!   (per-node proofs of INT8 eligibility).
//! * passes — the lint passes built on the above.
//!
//! Three gate points consume the analyzer:
//!
//! * [`Runner::build`](crate::exec::RunnerBuilder::build) runs the
//!   Error-severity pass set ([`Analyzer::error_gate`]) as a hard gate
//!   before execution; rejected graphs surface as
//!   [`NnirError`](crate::error::NnirError)`::VerifierRejected` with
//!   the diagnostic code. It also consults [`QuantSafety`] for INT8
//!   kernel selection and [`Liveness`] for arena planning.
//! * `vedliot-toolchain` wraps every optimization pass in
//!   [`verify_transform`] — a pass that breaks an invariant becomes a
//!   typed error at the transform boundary, not a downstream
//!   miscompute.
//! * `harness lint` / `vedliot lint` run the full pass set
//!   ([`Analyzer::full`]) over the model zoo and its compressed /
//!   quantized variants and print a [`Report`].
//!
//! Diagnostic codes are a stable public contract (see the
//! display-stability tests): `V0xx` are Error-severity structural
//! violations, `W1xx` are Warnings, `I2xx` are Infos, `T0xx` are
//! transform-boundary violations.

mod dataflow;
mod diagnostics;
mod framework;
mod passes;

pub use dataflow::{
    exact_grids, identity_quants, value_ranges, Interval, LiveRange, Liveness, NodeQuantVerdict,
    QuantSafety, ValueRangeAnalysis,
};
pub use diagnostics::{text_line_of_node, Code, Diagnostic, Report, Severity, Totals};
pub use framework::{
    int8_ready, propagate, validate_legacy, verify_for_execution, verify_transform, AnalysisPass,
    Analyzer, ForwardAnalysis, InterfaceSignature,
};
pub use passes::{
    BatchDimCheck, DataflowCheck, DeadCodeCheck, DeadValueCheck, ElementCountCheck, NamingCheck,
    QuantReadinessCheck, RangeCheck, ScheduleCheck, StructureCheck, WeightSanityCheck,
};

// --------------------------------------------------------------------
// Tests
// --------------------------------------------------------------------

#[cfg(test)]
mod tests {
    use super::diagnostics::RENDER_CAP;
    use super::passes::SUSPECT_WEIGHT_LIMIT;
    use super::*;
    use crate::error::NnirError;
    use crate::graph::{Graph, GraphBuilder, NodeId, TensorId, WeightInit};
    use crate::ops::{ActKind, Conv2dAttrs, Op};
    use crate::shape::Shape;
    use crate::tensor::Tensor;

    fn tiny() -> Graph {
        let mut b = GraphBuilder::new("tiny");
        let x = b.input(Shape::nchw(1, 3, 8, 8));
        let c = b
            .apply("conv", Op::Conv2d(Conv2dAttrs::same(4, 3, 1)), &[x])
            .unwrap();
        let r = b
            .apply("relu", Op::Activation(ActKind::Relu), &[c])
            .unwrap();
        b.finish(vec![r])
    }

    /// A calibrated, quantized dense layer the quant-safety analysis
    /// can prove INT8-eligible: FakeQuant grid in front, i8 payload on
    /// the weights.
    fn quantized_dense() -> Graph {
        quantized_dense_at(0.01)
    }

    /// `x → FakeQuant(scale) → dense` on i8 weights.
    fn quantized_dense_at(scale: f32) -> Graph {
        let mut b = GraphBuilder::new("qsafe");
        let x = b.input(Shape::nf(1, 4));
        let q = b.apply("q", Op::FakeQuant { scale }, &[x]).unwrap();
        let mut w = Tensor::from_vec(
            Shape::new(vec![2, 4]),
            vec![0.5, -0.25, 0.125, 1.0, -0.75, 0.5, -1.0, 0.25],
        )
        .unwrap();
        w.quantize_i8_per_channel();
        let d = b
            .apply_with_weights(
                "qd",
                Op::Dense {
                    out_features: 2,
                    bias: false,
                },
                &[q],
                WeightInit::Explicit(vec![w]),
            )
            .unwrap();
        b.finish(vec![d])
    }

    #[test]
    fn clean_graph_produces_no_findings() {
        let report = Analyzer::full().analyze(&tiny());
        assert!(report.is_clean(Severity::Info), "{report:?}");
        assert_eq!(report.passes_run.len(), 11);
    }

    #[test]
    fn zoo_models_are_error_clean() {
        for model in [
            crate::zoo::lenet5(10).unwrap(),
            crate::zoo::tiny_cnn("t", Shape::nchw(1, 3, 16, 16), &[4], 3).unwrap(),
            crate::zoo::conv1d_classifier("c", 1, 64, &[8, 16], 3).unwrap(),
            crate::zoo::mobilenet_v3_large(10).unwrap(),
        ] {
            let report = Analyzer::error_gate().analyze(&model);
            assert!(
                report.is_clean(Severity::Error),
                "{}",
                report.render(model.name())
            );
        }
    }

    #[test]
    fn edge_retarget_is_a_schedule_violation() {
        let mut g = tiny();
        // Make the conv consume its own output: a self-loop.
        let out = g.nodes()[0].output;
        g.nodes_mut()[0].inputs[0] = out;
        let report = Analyzer::error_gate().analyze(&g);
        let first = report.first_error().expect("must be rejected");
        assert_eq!(first.code, Code::ScheduleViolation);
        assert_eq!(first.to_legacy_error(), NnirError::GraphCyclic);
    }

    #[test]
    fn attr_tamper_is_a_shape_disagreement() {
        let mut g = tiny();
        g.nodes_mut()[0].op = Op::Conv2d(Conv2dAttrs::same(5, 3, 1));
        let report = Analyzer::error_gate().analyze(&g);
        let first = report.first_error().expect("must be rejected");
        assert_eq!(first.code, Code::ShapeDisagreement);
        assert!(matches!(
            first.to_legacy_error(),
            NnirError::ShapeMismatch { .. }
        ));
    }

    #[test]
    fn shape_tamper_is_detected() {
        let mut g = tiny();
        g.tensor_shapes_mut()[1] = Shape::nchw(1, 7, 8, 8);
        let report = Analyzer::error_gate().analyze(&g);
        assert_eq!(
            report.first_error().map(|d| d.code),
            Some(Code::ShapeDisagreement)
        );
    }

    #[test]
    fn wrong_explicit_weights_are_rejected() {
        let mut g = tiny();
        g.nodes_mut()[0].weights =
            WeightInit::Explicit(vec![Tensor::zeros(Shape::new(vec![4, 3, 5, 5]))]);
        let report = Analyzer::error_gate().analyze(&g);
        assert_eq!(
            report.first_error().map(|d| d.code),
            Some(Code::WeightShapeMismatch)
        );
    }

    #[test]
    fn out_of_range_reference_is_unknown_tensor() {
        let mut g = tiny();
        g.nodes_mut()[1].inputs[0] = TensorId(99);
        let report = Analyzer::error_gate().analyze(&g);
        let first = report.first_error().expect("must be rejected");
        assert_eq!(first.code, Code::UnknownTensorRef);
        assert_eq!(first.to_legacy_error(), NnirError::UnknownTensor(99));
    }

    #[test]
    fn node_id_mismatch_is_detected() {
        let mut g = tiny();
        g.nodes_mut()[1].id = NodeId(5);
        let report = Analyzer::error_gate().analyze(&g);
        let first = report.first_error().expect("must be rejected");
        assert_eq!(first.code, Code::NodeIdMismatch);
        assert_eq!(first.to_legacy_error(), NnirError::UnknownNode(5));
    }

    #[test]
    fn bad_interface_is_detected() {
        let mut g = tiny();
        g.outputs_mut().push(TensorId(99));
        let report = Analyzer::error_gate().analyze(&g);
        let first = report.first_error().expect("must be rejected");
        assert_eq!(first.code, Code::BadInterface);
        assert_eq!(first.tensor, Some(TensorId(99)));
    }

    #[test]
    fn dangling_edge_is_detected() {
        let mut g = tiny();
        // Orphan the conv's output: its consumer (the relu) now reads a
        // tensor nothing produces and that is not a graph input.
        let conv_out = g.nodes()[0].output;
        g.producers_mut()[conv_out.0] = None;
        let report = Analyzer::error_gate().analyze(&g);
        let first = report.first_error().expect("must be rejected");
        assert_eq!(first.code, Code::DanglingEdge);
        assert_eq!(first.tensor, Some(conv_out));
    }

    #[test]
    fn operator_contract_violation_is_detected() {
        let mut g = tiny();
        // An Add with one input violates the operator's arity contract.
        g.nodes_mut()[1].op = Op::Add;
        let report = Analyzer::error_gate().analyze(&g);
        let first = report.first_error().expect("must be rejected");
        assert_eq!(first.code, Code::OperatorContract);
        assert!(matches!(
            first.to_legacy_error(),
            NnirError::ArityMismatch { .. }
        ));
    }

    #[test]
    fn duplicate_producer_is_detected() {
        let mut g = tiny();
        // Point the relu's output at the conv's output tensor.
        let conv_out = g.nodes()[0].output;
        g.nodes_mut()[1].output = conv_out;
        let report = Analyzer::error_gate().analyze(&g);
        assert!(report
            .diagnostics
            .iter()
            .any(|d| d.code == Code::DuplicateProducer));
    }

    #[test]
    fn dead_node_and_unused_input_are_warnings() {
        let mut b = GraphBuilder::new("dead");
        let x = b.input(Shape::nf(1, 4));
        let unused = b.input(Shape::nf(1, 4));
        let _ = unused;
        let live = b
            .apply("live", Op::Activation(ActKind::Relu), &[x])
            .unwrap();
        let _dead = b
            .apply("dead", Op::Activation(ActKind::Sigmoid), &[x])
            .unwrap();
        let g = b.finish(vec![live]);
        let report = Analyzer::full().analyze(&g);
        assert!(report.is_clean(Severity::Error));
        let codes: Vec<Code> = report.diagnostics.iter().map(|d| d.code).collect();
        assert!(codes.contains(&Code::DeadNode), "{codes:?}");
        assert!(codes.contains(&Code::UnusedInput), "{codes:?}");
        let dead = report
            .diagnostics
            .iter()
            .find(|d| d.code == Code::DeadNode)
            .unwrap();
        assert_eq!(dead.node_name.as_deref(), Some("dead"));
    }

    #[test]
    fn dead_value_is_flagged_by_liveness() {
        let mut b = GraphBuilder::new("dv");
        let x = b.input(Shape::nf(1, 4));
        let live = b
            .apply("live", Op::Activation(ActKind::Relu), &[x])
            .unwrap();
        let _dead = b
            .apply("dead", Op::Activation(ActKind::Sigmoid), &[x])
            .unwrap();
        let g = b.finish(vec![live]);
        let report = Analyzer::full().analyze(&g);
        let dv = report
            .diagnostics
            .iter()
            .find(|d| d.code == Code::DeadValue)
            .expect("dead value must be flagged");
        assert_eq!(dv.node_name.as_deref(), Some("dead"));
        assert!(dv.tensor.is_some());
        // The liveness analysis itself agrees.
        let dead = Liveness::of(&g).dead_values(&g);
        assert_eq!(dead, vec![dv.tensor.unwrap()]);
    }

    #[test]
    fn duplicate_names_and_aliased_seeds_are_warnings() {
        let mut b = GraphBuilder::new("alias");
        let x = b.input(Shape::nf(1, 4));
        let d1 = b
            .apply(
                "fc",
                Op::Dense {
                    out_features: 4,
                    bias: false,
                },
                &[x],
            )
            .unwrap();
        let d2 = b
            .apply(
                "fc",
                Op::Dense {
                    out_features: 4,
                    bias: false,
                },
                &[d1],
            )
            .unwrap();
        let mut g = b.finish(vec![d2]);
        // Alias the second dense onto the first's seed.
        g.nodes_mut()[1].weights = WeightInit::Seeded(1);
        let report = Analyzer::full().analyze(&g);
        let codes: Vec<Code> = report.diagnostics.iter().map(|d| d.code).collect();
        assert!(codes.contains(&Code::DuplicateName), "{codes:?}");
        assert!(codes.contains(&Code::WeightAliasing), "{codes:?}");
    }

    #[test]
    fn batch_dim_mismatch_is_a_warning() {
        let mut b = GraphBuilder::new("batch");
        let x = b.input(Shape::nf(2, 4));
        let y = b.input(Shape::nf(3, 4));
        let a = b.apply("ax", Op::Activation(ActKind::Relu), &[x]).unwrap();
        let c = b.apply("ay", Op::Activation(ActKind::Relu), &[y]).unwrap();
        let g = b.finish(vec![a, c]);
        let report = Analyzer::full().analyze(&g);
        assert!(report
            .diagnostics
            .iter()
            .any(|d| d.code == Code::BatchDimMismatch));
    }

    #[test]
    fn bit_flipped_weight_is_a_suspect_weight_warning() {
        let mut b = GraphBuilder::new("flip");
        let x = b.input(Shape::nf(1, 2));
        let d = b
            .apply_with_weights(
                "fc",
                Op::Dense {
                    out_features: 1,
                    bias: false,
                },
                &[x],
                WeightInit::Explicit(vec![Tensor::from_vec(
                    Shape::new(vec![1, 2]),
                    vec![0.5, -0.25],
                )
                .unwrap()]),
            )
            .unwrap();
        let mut g = b.finish(vec![d]);
        // Flip bit 30 (high exponent) of the first weight — the SEU model.
        if let WeightInit::Explicit(ws) = &mut g.nodes_mut()[0].weights {
            let flipped = f32::from_bits(ws[0].data()[0].to_bits() ^ (1 << 30));
            ws[0].data_mut()[0] = flipped;
            assert!(flipped.abs() > SUSPECT_WEIGHT_LIMIT);
        }
        // Still executable (Error-clean) but flagged by the full set.
        let report = Analyzer::full().analyze(&g);
        assert!(report.is_clean(Severity::Error));
        assert!(report
            .diagnostics
            .iter()
            .any(|d| d.code == Code::SuspectWeight));
    }

    #[test]
    fn quant_readiness_flags_range_expansion_and_fake_quant_clamps_it() {
        // A dense layer with huge explicit weights must be flagged...
        let mut b = GraphBuilder::new("sat");
        let x = b.input(Shape::nf(1, 4));
        let w = Tensor::from_vec(Shape::new(vec![2, 4]), vec![100.0; 8]).unwrap();
        let d = b
            .apply_with_weights(
                "big",
                Op::Dense {
                    out_features: 2,
                    bias: false,
                },
                &[x],
                WeightInit::Explicit(vec![w]),
            )
            .unwrap();
        let g = b.finish(vec![d]);
        let report = Analyzer::full().analyze(&g);
        let sat: Vec<&Diagnostic> = report
            .diagnostics
            .iter()
            .filter(|d| d.code == Code::QuantSaturation)
            .collect();
        assert_eq!(sat.len(), 1);
        assert_eq!(sat[0].node_name.as_deref(), Some("big"));

        // ...and a FakeQuant in front clamps the propagated range.
        let mut b = GraphBuilder::new("clamped");
        let x = b.input(Shape::nf(1, 4));
        let q = b.apply("q", Op::FakeQuant { scale: 0.01 }, &[x]).unwrap();
        let w = Tensor::from_vec(Shape::new(vec![2, 4]), vec![10.0; 8]).unwrap();
        let d = b
            .apply_with_weights(
                "scaled",
                Op::Dense {
                    out_features: 2,
                    bias: false,
                },
                &[q],
                WeightInit::Explicit(vec![w]),
            )
            .unwrap();
        let g = b.finish(vec![d]);
        let report = Analyzer::full().analyze(&g);
        assert!(
            !report
                .diagnostics
                .iter()
                .any(|d| d.code == Code::QuantSaturation),
            "{}",
            report.render("clamped")
        );
    }

    #[test]
    fn full_clamp_is_a_range_overflow_warning() {
        // A dense layer whose bias pushes the range to [1000, 1000],
        // feeding a FakeQuant grid of ±1.27: every value clamps (W108).
        let mut b = GraphBuilder::new("overflow");
        let x = b.input(Shape::nf(1, 4));
        let w = Tensor::zeros(Shape::new(vec![1, 4]));
        let bias = Tensor::from_vec(Shape::new(vec![1]), vec![1000.0]).unwrap();
        let d = b
            .apply_with_weights(
                "shift",
                Op::Dense {
                    out_features: 1,
                    bias: true,
                },
                &[x],
                WeightInit::Explicit(vec![w, bias]),
            )
            .unwrap();
        let q = b.apply("q", Op::FakeQuant { scale: 0.01 }, &[d]).unwrap();
        let g = b.finish(vec![q]);
        let report = Analyzer::full().analyze(&g);
        let w108 = report
            .diagnostics
            .iter()
            .find(|d| d.code == Code::RangeOverflow)
            .expect("full clamp must be flagged");
        assert_eq!(w108.node_name.as_deref(), Some("q"));
        assert_eq!(w108.severity(), Severity::Warning);
    }

    #[test]
    fn proven_int8_eligibility_is_an_i202_info() {
        let g = quantized_dense();
        let report = Analyzer::full().analyze(&g);
        assert!(
            report.is_clean(Severity::Warning),
            "{}",
            report.render("qsafe")
        );
        let i202 = report
            .diagnostics
            .iter()
            .find(|d| d.code == Code::ProvableRange)
            .expect("proven node must be reported");
        assert_eq!(i202.node_name.as_deref(), Some("qd"));
        assert_eq!(i202.severity(), Severity::Info);
    }

    #[test]
    fn quant_safety_proves_and_refutes_per_node() {
        let g = quantized_dense();
        let safety = QuantSafety::of(&g);
        assert_eq!(safety.verdicts().len(), 2);
        // The FakeQuant itself is not a candidate.
        let q = safety.verdict(NodeId(0)).unwrap();
        assert!(!q.eligible);
        assert!(q.reason.is_some());
        // The quantized dense is proven eligible with the grid's scale.
        let d = safety.verdict(NodeId(1)).unwrap();
        assert!(d.eligible, "{:?}", d.reason);
        assert_eq!(d.input_scale, Some(0.01));
        assert!(d.error_bound >= 0.0);
        assert_eq!(safety.eligible_count(), 1);

        // Without the FakeQuant producer the same weights are refuted.
        let mut b = GraphBuilder::new("nofq");
        let x = b.input(Shape::nf(1, 4));
        let mut w = Tensor::from_vec(
            Shape::new(vec![2, 4]),
            vec![0.5, -0.25, 0.125, 1.0, -0.75, 0.5, -1.0, 0.25],
        )
        .unwrap();
        w.quantize_i8_per_channel();
        let d = b
            .apply_with_weights(
                "qd",
                Op::Dense {
                    out_features: 2,
                    bias: false,
                },
                &[x],
                WeightInit::Explicit(vec![w]),
            )
            .unwrap();
        let g = b.finish(vec![d]);
        let safety = QuantSafety::of(&g);
        let v = safety.verdict(NodeId(0)).unwrap();
        assert!(!v.eligible);
        assert!(v.reason.as_deref().unwrap().contains("FakeQuant"));
    }

    #[test]
    fn quant_safety_refuses_a_direct_scale_whose_codes_are_not_exact() {
        // At a subnormal scale `1/s` overflows, and every nonzero input
        // would quantize to ±127; past `f32::MAX / 127`, `127·s`
        // overflows. The dense behind such a `FakeQuant` stays f32.
        for s in [1e-40f32, 3e36] {
            let safety = QuantSafety::of(&quantized_dense_at(s));
            let d = safety.verdict(NodeId(1)).unwrap();
            assert!(!d.eligible, "scale {s}");
            assert_eq!(d.input_scale, None);
            assert_eq!(
                d.reason.as_deref(),
                Some("FakeQuant scale is subnormal or 127·s overflows")
            );
        }
        // The least normal scale and one just under `f32::MAX / 127`
        // still qualify.
        for s in [f32::MIN_POSITIVE, 2.6e36] {
            let safety = QuantSafety::of(&quantized_dense_at(s));
            let d = safety.verdict(NodeId(1)).unwrap();
            assert!(d.eligible, "scale {s}: {:?}", d.reason);
            assert_eq!(d.input_scale, Some(s));
        }
    }

    #[test]
    fn liveness_ranges_follow_the_schedule() {
        let g = tiny();
        let live = Liveness::of(&g);
        assert_eq!(live.schedule_len(), 2);
        // t0 (input): staged at 0, last read by the conv at 0.
        assert_eq!(
            live.range(TensorId(0)).unwrap(),
            LiveRange {
                def: 0,
                last_use: 0
            }
        );
        // t1 (conv out): defined at 0, last read by the relu at 1.
        assert_eq!(
            live.range(TensorId(1)).unwrap(),
            LiveRange {
                def: 0,
                last_use: 1
            }
        );
        // t2 (relu out): graph output — pinned past the schedule end.
        assert_eq!(
            live.range(TensorId(2)).unwrap(),
            LiveRange {
                def: 1,
                last_use: 2
            }
        );
        // A node's output overlaps its own inputs (no in-place aliasing)...
        assert!(live
            .range(TensorId(1))
            .unwrap()
            .overlaps(live.range(TensorId(2)).unwrap()));
        // ...but the input tensor and the relu output are disjoint.
        assert!(!live
            .range(TensorId(0))
            .unwrap()
            .overlaps(live.range(TensorId(2)).unwrap()));
        assert_eq!(live.peak_live(), 2);
        assert!(live.dead_values(&g).is_empty());
    }

    #[test]
    fn value_ranges_propagate_through_ops() {
        let g = quantized_dense();
        let ranges = value_ranges(&g, 1.0);
        // Input seed is symmetric.
        assert_eq!(ranges[0].lo, -1.0);
        assert_eq!(ranges[0].hi, 1.0);
        // The FakeQuant grid (±1.27) does not tighten a ±1 input.
        assert_eq!(ranges[1].lo, -1.0);
        assert_eq!(ranges[1].hi, 1.0);
        // The dense expands by at most the largest L1 row norm (≤ 2.5).
        assert!(
            ranges[2].lo >= -2.6 && ranges[2].hi <= 2.6,
            "{:?}",
            ranges[2]
        );
    }

    #[test]
    fn text_line_provenance_matches_textual_write() {
        let g = tiny();
        let text = crate::textual::write(&g).unwrap();
        let lines: Vec<&str> = text.lines().collect();
        // Line 1 model, line 2 input, line 3 node n0, line 4 node n1.
        let conv_line = text_line_of_node(&g, NodeId(0)).unwrap();
        assert!(lines[conv_line - 1].contains("\"conv\""), "{text}");
        let relu_line = text_line_of_node(&g, NodeId(1)).unwrap();
        assert!(lines[relu_line - 1].contains("\"relu\""), "{text}");
    }

    /// A seeded conv with `out` channels and a 2^32 x 2^32 kernel over a
    /// one-pixel input padded to fit it.
    pub(crate) fn huge_kernel_conv(out: usize) -> Graph {
        let mut b = GraphBuilder::new("huge-kernel");
        let x = b.input(Shape::nchw(1, 1, 1, 1));
        let attrs = Conv2dAttrs {
            kernel: (1 << 32, 1 << 32),
            padding: (1 << 31, 1 << 31),
            ..Conv2dAttrs::same(out, 1, 1)
        };
        let y = b.apply("conv", Op::Conv2d(attrs), &[x]).unwrap();
        b.finish(vec![y])
    }

    #[test]
    fn seeded_weight_shapes_that_overflow_usize_are_rejected() {
        // The weights the seed would materialize hold 2^64 elements: the
        // runner panicked in `Op::macs` in a debug build and ran with
        // wrapped counts in a release build.
        let g = huge_kernel_conv(1);
        let report = Analyzer::error_gate().analyze(&g);
        let first = report.first_error().expect("the gate rejects the graph");
        assert_eq!((first.code.as_str(), first.node), ("V010", Some(NodeId(0))));
        let rejected = |r: Result<(), NnirError>| match r {
            Err(NnirError::VerifierRejected { code, .. }) => assert_eq!(code, "V010"),
            other => panic!("expected V010, got {other:?}"),
        };
        rejected(crate::exec::Runner::builder().build(&g).map(drop));
        rejected(crate::cost::CostReport::of(&g).map(drop));
        // Without output channels its weights hold no element: the gate
        // accepts it, and neither counting its work nor running it
        // panics.
        let g = huge_kernel_conv(0);
        assert_eq!(crate::cost::CostReport::of(&g).unwrap().total_macs, 0);
        let out = crate::exec::Runner::builder()
            .build(&g)
            .unwrap()
            .execute(
                &[Tensor::full(Shape::nchw(1, 1, 1, 1), 1.0)],
                Default::default(),
            )
            .unwrap();
        assert_eq!(out.outputs()[0].shape(), &Shape::nchw(1, 0, 2, 2));
        // A pool has no weights; its count of window taps saturates.
        let mut b = GraphBuilder::new("huge-pool");
        let x = b.input(Shape::nchw(1, 1, 1, 1));
        let pool = crate::ops::Pool2dAttrs::square(1 << 32, 1).with_padding(1 << 31);
        let y = b.apply("pool", Op::MaxPool2d(pool), &[x]).unwrap();
        let g = b.finish(vec![y]);
        let cost = crate::cost::CostReport::of(&g).unwrap();
        assert_eq!(cost.total_elementwise, u64::MAX);
        assert!(crate::exec::Runner::builder().build(&g).is_ok());
    }

    /// `zoo::tiny_cnn`'s text with its input widened to 2^32 x 2^32
    /// pixels: the element counts overflow `usize`.
    fn overflowing_tiny_cnn() -> Graph {
        let g = crate::zoo::tiny_cnn("t", Shape::nchw(1, 1, 16, 16), &[4], 2).unwrap();
        let text = crate::textual::write(&g).unwrap();
        let huge = "[1x1x4294967296x4294967296]";
        crate::textual::read(&text.replacen("[1x1x16x16]", huge, 1)).unwrap()
    }

    #[test]
    fn element_counts_that_overflow_usize_are_rejected_before_any_product() {
        let g = overflowing_tiny_cnn();
        let report = Analyzer::error_gate().analyze(&g);
        let first = report.first_error().expect("the gate rejects the graph");
        assert_eq!(first.code.as_str(), "V010");
        assert_eq!(first.tensor, Some(g.inputs()[0]));
        // The runner and the cost model refuse it with the same typed
        // error, where they multiplied the extents unchecked before.
        let rejected = |r: Result<(), NnirError>| match r {
            Err(NnirError::VerifierRejected { code, .. }) => assert_eq!(code, "V010"),
            other => panic!("expected V010, got {other:?}"),
        };
        rejected(verify_for_execution(&g));
        rejected(crate::exec::Runner::builder().build(&g).map(drop));
        rejected(crate::cost::CostReport::of(&g).map(drop));
        // A release build wraps a 2^32 x 2^32 weight's element count to
        // 0, which an empty buffer matches; the gate refuses it at its
        // node. (A debug build panics on the product first.)
        if !cfg!(debug_assertions) {
            let mut g = tiny();
            let w = Tensor::from_vec(Shape::new(vec![1 << 32, 1 << 32]), Vec::new()).unwrap();
            g.nodes_mut()[0].weights = WeightInit::Explicit(vec![w]);
            let report = Analyzer::error_gate().analyze(&g);
            let first = report.first_error().expect("the gate rejects the weight");
            assert_eq!((first.code.as_str(), first.node), ("V010", Some(NodeId(0))));
        }
        assert_eq!(
            Shape::new(vec![1 << 61]).checked_elem_count(),
            Some(1 << 61)
        );
        assert_eq!(
            Shape::new(vec![1 << 62]).checked_elem_count(),
            None,
            "2^64 bytes"
        );
    }

    #[test]
    fn verify_for_execution_rejects_with_coded_error() {
        let mut g = tiny();
        g.nodes_mut()[0].op = Op::Conv2d(Conv2dAttrs::same(5, 3, 1));
        let err = verify_for_execution(&g).unwrap_err();
        match err {
            NnirError::VerifierRejected { code, node, .. } => {
                assert_eq!(code, "V004");
                assert_eq!(node, "conv");
            }
            other => panic!("expected VerifierRejected, got {other}"),
        }
    }

    #[test]
    fn verify_transform_catches_interface_changes() {
        let g = tiny();
        let sig = InterfaceSignature::of(&g);
        // Unchanged graph passes.
        verify_transform("identity", &sig, &g).unwrap();
        // A transform that changes the output shape is rejected as T001.
        let changed = g.with_batch(4).unwrap();
        let err = verify_transform("rebatch", &sig, &changed).unwrap_err();
        match err {
            NnirError::VerifierRejected { code, .. } => assert_eq!(code, "T001"),
            other => panic!("expected VerifierRejected, got {other}"),
        }
        // A transform that breaks an invariant is rejected with the
        // structural code.
        let mut broken = g.clone();
        broken.nodes_mut()[0].op = Op::Conv2d(Conv2dAttrs::same(5, 3, 1));
        let err = verify_transform("breaker", &sig, &broken).unwrap_err();
        match err {
            NnirError::VerifierRejected { code, detail, .. } => {
                assert_eq!(code, "V004");
                assert!(detail.contains("breaker"), "{detail}");
            }
            other => panic!("expected VerifierRejected, got {other}"),
        }
    }

    /// Diagnostic codes and rendered forms are a stable public
    /// contract (the same covenant as the `NnirError`/`ServeError`
    /// display tests): downstream lint consumers match on them.
    #[test]
    fn diagnostic_codes_are_stable() {
        let table = [
            (Code::NodeIdMismatch, "V001"),
            (Code::UnknownTensorRef, "V002"),
            (Code::ScheduleViolation, "V003"),
            (Code::ShapeDisagreement, "V004"),
            (Code::WeightShapeMismatch, "V005"),
            (Code::BadInterface, "V006"),
            (Code::DanglingEdge, "V007"),
            (Code::OperatorContract, "V008"),
            (Code::DuplicateProducer, "V009"),
            (Code::ElementCountOverflow, "V010"),
            (Code::DeadNode, "W101"),
            (Code::DuplicateName, "W102"),
            (Code::WeightAliasing, "W103"),
            (Code::BatchDimMismatch, "W104"),
            (Code::SuspectWeight, "W105"),
            (Code::UnusedInput, "W106"),
            (Code::DeadValue, "W107"),
            (Code::RangeOverflow, "W108"),
            (Code::QuantSaturation, "I201"),
            (Code::ProvableRange, "I202"),
            (Code::InterfaceChanged, "T001"),
        ];
        assert_eq!(table.len(), Code::ALL.len());
        for (code, s) in table {
            assert_eq!(code.as_str(), s);
            assert!(Code::ALL.contains(&code), "{s} missing from Code::ALL");
        }
    }

    #[test]
    fn diagnostic_display_is_stable() {
        let g = tiny();
        let d = Diagnostic::new(
            Code::ShapeDisagreement,
            "records A but re-inference gives B",
        )
        .at_node(&g, &g.nodes()[0]);
        assert_eq!(
            d.to_string(),
            "error[V004] n0 \"conv\" @line 3: records A but re-inference gives B"
        );
        let t = Diagnostic::new(Code::UnusedInput, "graph input is never consumed")
            .at_tensor(TensorId(0));
        assert_eq!(
            t.to_string(),
            "warning[W106] t0: graph input is never consumed"
        );
        let i = Diagnostic::new(Code::QuantSaturation, "needs scale >= 2.000");
        assert_eq!(i.to_string(), "info[I201]: needs scale >= 2.000");
    }

    #[test]
    fn severity_orders_info_warning_error() {
        assert!(Severity::Info < Severity::Warning);
        assert!(Severity::Warning < Severity::Error);
        assert_eq!(Severity::Error.to_string(), "error");
        assert_eq!(Severity::Warning.to_string(), "warning");
        assert_eq!(Severity::Info.to_string(), "info");
    }

    #[test]
    fn totals_count_and_accumulate() {
        let g = tiny();
        let mut diags = vec![
            Diagnostic::new(Code::QuantSaturation, "i"),
            Diagnostic::new(Code::DeadNode, "w").at_node(&g, &g.nodes()[0]),
        ];
        diags.push(Diagnostic::new(Code::ShapeDisagreement, "e"));
        let t = Totals::of(&diags);
        assert_eq!((t.errors, t.warnings, t.infos), (1, 1, 1));
        assert_eq!(t.to_string(), "1 errors, 1 warnings, 1 infos");
        assert_eq!(t.at(Severity::Warning), 1);
        let mut sum = Totals::default();
        sum.accumulate(t);
        sum.accumulate(t);
        assert_eq!((sum.errors, sum.warnings, sum.infos), (2, 2, 2));
    }

    #[test]
    fn report_render_summarizes_and_caps() {
        let mut report = Report {
            diagnostics: Vec::new(),
            passes_run: vec!["structure"],
        };
        for i in 0..(RENDER_CAP + 5) {
            report
                .diagnostics
                .push(Diagnostic::new(Code::QuantSaturation, format!("op {i}")));
        }
        let text = report.render("m");
        assert!(text.starts_with("lint m: 0 errors, 0 warnings, 25 infos"));
        assert!(text.contains("... and 5 more info findings"));
    }
}
