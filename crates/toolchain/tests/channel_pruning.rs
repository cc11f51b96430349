// Test/bench/example target: panics are the failure report.
#![allow(clippy::unwrap_used, clippy::expect_used)]

//! Structured channel-pruning tests on linear conv chains.

use vedliot_nnir::cost::CostReport;
use vedliot_nnir::exec::{RunOptions, Runner};
use vedliot_nnir::{zoo, Op, Shape, Tensor};
use vedliot_toolchain::passes::{Pass, PruneChannels};

fn chain() -> vedliot_nnir::Graph {
    zoo::tiny_cnn("cam", Shape::nchw(1, 3, 32, 32), &[16, 32, 64], 4).unwrap()
}

#[test]
fn channel_pruning_shrinks_macs_and_params() {
    let g = chain();
    let before = CostReport::of(&g).unwrap();
    let (pruned, detail) = PruneChannels::new(0.5).run(g).unwrap();
    pruned.validate().unwrap();
    let after = CostReport::of(&pruned).unwrap();
    assert!(
        after.total_macs < before.total_macs * 3 / 4,
        "MACs {} -> {} ({detail})",
        before.total_macs,
        after.total_macs
    );
    assert!(after.total_params < before.total_params);
}

#[test]
fn pruned_chain_still_executes_with_right_shapes() {
    let g = chain();
    let (pruned, _) = PruneChannels::new(0.5).run(g).unwrap();
    let out = Runner::builder()
        .build(&pruned)
        .unwrap()
        .execute(
            &[Tensor::random(Shape::nchw(1, 3, 32, 32), 5, 1.0)],
            RunOptions::default(),
        )
        .unwrap()
        .into_outputs();
    assert_eq!(out[0].shape().dims(), &[1, 4]);
}

#[test]
fn classifier_width_is_preserved() {
    // The last conv keeps its channels, so the dense layer's input width
    // is unchanged.
    let g = chain();
    let fc_in_before = {
        let fc = g.nodes().iter().find(|n| n.name == "fc").unwrap();
        g.node_input_shapes(fc)[0].dim(1).unwrap()
    };
    let (pruned, _) = PruneChannels::new(0.5).run(g).unwrap();
    let fc = pruned.nodes().iter().find(|n| n.name == "fc").unwrap();
    assert_eq!(
        pruned.node_input_shapes(fc)[0].dim(1).unwrap(),
        fc_in_before
    );
}

#[test]
fn branching_topologies_are_rejected() {
    let resnet = zoo::resnet50(10).unwrap();
    let err = PruneChannels::new(0.5).run(resnet);
    assert!(err.is_err(), "residual adds must be rejected");
}

#[test]
fn depthwise_chains_are_rejected() {
    let mobilenet = zoo::mobilenet_v3_large(10).unwrap();
    assert!(PruneChannels::new(0.5).run(mobilenet).is_err());
}

#[test]
fn keep_fraction_one_is_identity_in_cost() {
    let g = chain();
    let before = CostReport::of(&g).unwrap();
    let (same, _) = PruneChannels::new(1.0).run(g).unwrap();
    let after = CostReport::of(&same).unwrap();
    assert_eq!(before.total_macs, after.total_macs);
    assert_eq!(before.total_params, after.total_params);
}

#[test]
fn batchnorm_params_track_pruned_channels() {
    let g = chain();
    let (pruned, _) = PruneChannels::new(0.5).run(g).unwrap();
    for node in pruned.nodes() {
        if node.op == Op::BatchNorm {
            let c = pruned.node_input_shapes(node)[0].dim(1).unwrap();
            let w = pruned.node_weights(node).unwrap();
            assert_eq!(
                w[0].shape().elem_count(),
                c,
                "bn scale width at {}",
                node.name
            );
        }
    }
}
