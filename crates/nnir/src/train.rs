//! Minimal SGD training for MLP-shaped graphs.
//!
//! The Deep-Compression experiment (paper §III: models "compressed down to
//! 49x of their original size, with negligible accuracy loss") needs a
//! *trained* network — pruning random weights tells you nothing about
//! accuracy loss. This module implements plain mini-batch SGD with
//! softmax cross-entropy for graphs consisting of `Flatten`, `Dense` and
//! ReLU-family activations (the LeNet-300-100 class of models on which
//! Deep Compression reported its MLP results).
//!
//! Convolutional training is out of scope — the compression experiment
//! follows the original paper in using the FC-dominated model where the
//! headline ratios were measured.

use crate::dataset::ClassificationSet;
use crate::graph::{Graph, GraphBuilder, WeightInit};
use crate::metrics::ConfusionMatrix;
use crate::ops::{ActKind, Op};
use crate::shape::Shape;
use crate::tensor::Tensor;
use crate::NnirError;

/// Builds an MLP `inputs -> hidden[0] -> ... -> classes` with ReLU between
/// layers, ready for [`train_mlp`].
///
/// # Errors
///
/// Propagates builder errors (cannot occur for non-zero sizes).
pub fn mlp(
    name: &str,
    inputs: usize,
    hidden: &[usize],
    classes: usize,
) -> Result<Graph, NnirError> {
    let mut b = GraphBuilder::new(name);
    let x = b.input(Shape::nf(1, inputs));
    let mut t = x;
    for (i, &h) in hidden.iter().enumerate() {
        t = b.apply(
            format!("fc{}", i + 1),
            Op::Dense {
                out_features: h,
                bias: true,
            },
            &[t],
        )?;
        t = b.apply(
            format!("fc{}.relu", i + 1),
            Op::Activation(ActKind::Relu),
            &[t],
        )?;
    }
    let y = b.apply(
        "head",
        Op::Dense {
            out_features: classes,
            bias: true,
        },
        &[t],
    )?;
    Ok(b.finish(vec![y]))
}

/// Training hyper-parameters for [`train_mlp`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TrainConfig {
    /// Number of passes over the training set.
    pub epochs: usize,
    /// SGD step size.
    pub learning_rate: f32,
    /// L2 weight decay (Deep Compression trains with decay so magnitude
    /// pruning has small weights to remove).
    pub weight_decay: f32,
    /// Seed for initial weights.
    pub seed: u64,
    /// Keep exactly-zero weights at zero (masked retraining after
    /// magnitude pruning, as Deep Compression does).
    pub freeze_zeros: bool,
}

impl Default for TrainConfig {
    fn default() -> Self {
        TrainConfig {
            epochs: 20,
            learning_rate: 0.05,
            weight_decay: 1e-4,
            seed: 42,
            freeze_zeros: false,
        }
    }
}

/// Internal dense-layer view extracted from a supported graph.
struct Layer {
    node_index: usize,
    in_f: usize,
    out_f: usize,
    relu_after: bool,
    weight: Vec<f32>,
    bias: Vec<f32>,
    /// Pruning mask: `false` entries stay zero (set when
    /// [`TrainConfig::freeze_zeros`] is active).
    mask: Option<Vec<bool>>,
}

/// Trains an MLP graph in place with SGD + softmax cross-entropy,
/// returning the final training accuracy.
///
/// The graph's `Dense` nodes receive [`WeightInit::Explicit`] trained
/// weights; all other nodes are untouched.
///
/// # Errors
///
/// Returns [`NnirError::ExecutionFailure`] if the graph contains anything
/// other than `Flatten`, `Dense` and ReLU activations, or if the dataset
/// does not match the graph's input/output widths.
pub fn train_mlp(
    graph: &mut Graph,
    data: &ClassificationSet,
    config: &TrainConfig,
) -> Result<f64, NnirError> {
    let mut layers = extract_layers(graph, config.seed, config.freeze_zeros)?;
    let input_width = layers
        .first()
        .map(|l| l.in_f)
        .ok_or_else(|| NnirError::ExecutionFailure("graph has no dense layers".into()))?;
    let classes = layers.last().map_or(0, |l| l.out_f);
    if data.classes != classes {
        return Err(NnirError::ExecutionFailure(format!(
            "dataset has {} classes but model outputs {classes}",
            data.classes
        )));
    }

    for epoch in 0..config.epochs {
        // Simple per-epoch deterministic shuffle by stride.
        let stride = 1 + (epoch * 7) % 11;
        let n = data.len();
        for k in 0..n {
            let i = (k * stride) % n;
            let x = data.samples[i].data();
            if x.len() != input_width {
                return Err(NnirError::ExecutionFailure(format!(
                    "sample width {} does not match model input {input_width}",
                    x.len()
                )));
            }
            sgd_step(&mut layers, x, data.labels[i], config);
        }
    }

    // Write trained weights back into the graph.
    for layer in &layers {
        let node = &mut graph.nodes_mut()[layer.node_index];
        let weight = Tensor::from_vec(Shape::nf(layer.out_f, layer.in_f), layer.weight.clone())?;
        let bias = Tensor::from_vec(Shape::new(vec![layer.out_f]), layer.bias.clone())?;
        node.weights = WeightInit::Explicit(vec![weight, bias]);
    }
    graph.validate()?;

    Ok(evaluate(graph, data)?.accuracy())
}

/// Runs the graph over a dataset and fills a confusion matrix, spreading
/// the samples over the host's threads ([`Parallelism::Auto`]) when the
/// work amortizes them.
///
/// Unlike a kernel split, a split across samples spawns its threads
/// once per dataset, so this does not follow the `Serial` default.
///
/// [`Parallelism::Auto`]: crate::exec::Parallelism::Auto
///
/// # Errors
///
/// Propagates execution failures.
pub fn evaluate(graph: &Graph, data: &ClassificationSet) -> Result<ConfusionMatrix, NnirError> {
    evaluate_with(graph, data, crate::exec::Parallelism::Auto)
}

/// Runs the graph over a dataset with an explicit parallelism policy.
///
/// Samples are distributed over worker threads (each with its own
/// arena-backed [`Runner`](crate::exec::Runner) so buffers and
/// materialized weights are reused across its samples); per-sample
/// results are independent, so the confusion matrix is identical for
/// every worker count. Small workloads stay on one thread.
///
/// # Errors
///
/// Propagates execution failures.
pub fn evaluate_with(
    graph: &Graph,
    data: &ClassificationSet,
    parallelism: crate::exec::Parallelism,
) -> Result<ConfusionMatrix, NnirError> {
    let input_shape = graph
        .tensor_shape(graph.inputs()[0])
        .ok_or_else(|| NnirError::ExecutionFailure("graph has no input".into()))?
        .clone();

    // Spawn threads only when the total work amortizes them: model cost
    // per sample times sample count, mirroring the kernel-level policy.
    let macs = crate::cost::CostReport::of(graph).map_or(0, |c| c.total_macs as usize);
    let workers = parallelism
        .max_threads()
        .min(data.len())
        .min(1 + macs.saturating_mul(data.len()) / 2_000_000);

    let run_range = |range: std::ops::Range<usize>| -> Result<Vec<(usize, usize)>, NnirError> {
        // Workers run their samples serially; parallelism lives at the
        // sample level here, not inside the kernels.
        let mut runner = crate::exec::Runner::builder()
            .parallelism(crate::exec::Parallelism::Serial)
            .build(graph)?;
        let mut preds = Vec::with_capacity(range.len());
        for i in range {
            let x = data.samples[i].reshape(input_shape.clone())?;
            let out = runner.execute(&[x], crate::exec::RunOptions::default())?;
            preds.push((data.labels[i], out.outputs()[0].argmax()));
        }
        Ok(preds)
    };

    let mut cm = ConfusionMatrix::new(data.classes);
    if workers <= 1 {
        for (label, pred) in run_range(0..data.len())? {
            cm.record(label, pred);
        }
        return Ok(cm);
    }

    let n = data.len();
    let per_worker = n.div_ceil(workers);
    let results = std::thread::scope(|scope| {
        let mut handles = Vec::new();
        let mut start = 0usize;
        while start < n {
            let end = (start + per_worker).min(n);
            let run_range = &run_range;
            handles.push(scope.spawn(move || run_range(start..end)));
            start = end;
        }
        handles
            .into_iter()
            .map(|h| match h.join() {
                Ok(chunk) => chunk,
                Err(_) => Err(NnirError::ExecutionFailure(
                    "evaluate worker panicked".into(),
                )),
            })
            .collect::<Vec<_>>()
    });
    for chunk in results {
        for (label, pred) in chunk? {
            cm.record(label, pred);
        }
    }
    Ok(cm)
}

fn extract_layers(graph: &Graph, seed: u64, freeze_zeros: bool) -> Result<Vec<Layer>, NnirError> {
    let mut layers: Vec<Layer> = Vec::new();
    for (idx, node) in graph.nodes().iter().enumerate() {
        match &node.op {
            Op::Dense { out_features, bias } => {
                if !*bias {
                    return Err(NnirError::ExecutionFailure(format!(
                        "train_mlp requires biased dense layers ({} has none)",
                        node.name
                    )));
                }
                let in_shapes = graph.node_input_shapes(node);
                let in_f = in_shapes[0].dim(1).unwrap_or(0);
                let fan_scale = (2.0 / in_f as f32).sqrt();
                let init = Tensor::random(
                    Shape::nf(*out_features, in_f),
                    seed.wrapping_add(idx as u64 + 1),
                    fan_scale,
                );
                let (weight, bias_vec) = match &node.weights {
                    WeightInit::Explicit(w) => (w[0].data().to_vec(), w[1].data().to_vec()),
                    _ => (init.into_data(), vec![0.0; *out_features]),
                };
                let mask = if freeze_zeros {
                    Some(weight.iter().map(|&w| w != 0.0).collect())
                } else {
                    None
                };
                layers.push(Layer {
                    node_index: idx,
                    in_f,
                    out_f: *out_features,
                    relu_after: false,
                    weight,
                    bias: bias_vec,
                    mask,
                });
            }
            Op::Activation(ActKind::Relu | ActKind::Relu6 | ActKind::LeakyRelu(_)) => {
                if let Some(last) = layers.last_mut() {
                    last.relu_after = true;
                }
            }
            Op::Input(_) | Op::Flatten | Op::Softmax => {}
            other => {
                return Err(NnirError::ExecutionFailure(format!(
                    "train_mlp supports Dense/ReLU/Flatten graphs only, found {}",
                    other.name()
                )));
            }
        }
    }
    Ok(layers)
}

/// One SGD step on a single example (forward, softmax CE backward).
fn sgd_step(layers: &mut [Layer], x: &[f32], label: usize, config: &TrainConfig) {
    // Forward pass, keeping pre- and post-activation values.
    let mut activations: Vec<Vec<f32>> = vec![x.to_vec()];
    let mut pre_relu_masks: Vec<Vec<bool>> = Vec::new();
    for layer in layers.iter() {
        let Some(input) = activations.last() else {
            unreachable!("activations is seeded with the input")
        };
        let mut out = vec![0.0f32; layer.out_f];
        for (o, slot) in out.iter_mut().enumerate() {
            let mut acc = layer.bias[o];
            let row = &layer.weight[o * layer.in_f..(o + 1) * layer.in_f];
            for (w, xi) in row.iter().zip(input.iter()) {
                acc += w * xi;
            }
            *slot = acc;
        }
        let mask: Vec<bool> = if layer.relu_after {
            out.iter().map(|&v| v > 0.0).collect()
        } else {
            vec![true; layer.out_f]
        };
        if layer.relu_after {
            for v in &mut out {
                *v = v.max(0.0);
            }
        }
        pre_relu_masks.push(mask);
        activations.push(out);
    }

    // Softmax cross-entropy gradient at the output.
    let Some(logits) = activations.last() else {
        unreachable!("activations is seeded with the input")
    };
    let max = logits.iter().fold(f32::NEG_INFINITY, |m, &v| m.max(v));
    let exps: Vec<f32> = logits.iter().map(|&v| (v - max).exp()).collect();
    let sum: f32 = exps.iter().sum();
    let mut grad: Vec<f32> = exps.iter().map(|&e| e / sum).collect();
    grad[label] -= 1.0;

    // Backward pass.
    for li in (0..layers.len()).rev() {
        let input = activations[li].clone();
        let layer = &mut layers[li];
        // ReLU mask on this layer's output.
        for (g, &alive) in grad.iter_mut().zip(pre_relu_masks[li].iter()) {
            if !alive {
                *g = 0.0;
            }
        }
        // Gradient w.r.t. the previous activation.
        let mut grad_prev = vec![0.0f32; layer.in_f];
        for o in 0..layer.out_f {
            let g = grad[o];
            if g == 0.0 {
                continue;
            }
            let row = &mut layer.weight[o * layer.in_f..(o + 1) * layer.in_f];
            let mask_row = layer
                .mask
                .as_ref()
                .map(|m| &m[o * layer.in_f..(o + 1) * layer.in_f]);
            for (i, w) in row.iter_mut().enumerate() {
                grad_prev[i] += *w * g;
                if mask_row.is_none_or(|m| m[i]) {
                    *w -= config.learning_rate * (g * input[i] + config.weight_decay * *w);
                }
            }
            layer.bias[o] -= config.learning_rate * g;
        }
        grad = grad_prev;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dataset::gaussian_prototypes;

    #[test]
    fn mlp_learns_separable_data() {
        let data = gaussian_prototypes(&Shape::nf(1, 16), 3, 30, 2.5, 11);
        let mut model = mlp("probe", 16, &[24], 3).unwrap();
        let acc = train_mlp(
            &mut model,
            &data,
            &TrainConfig {
                epochs: 15,
                ..TrainConfig::default()
            },
        )
        .unwrap();
        assert!(acc > 0.9, "training accuracy {acc}");
    }

    #[test]
    fn trained_weights_are_explicit_and_valid() {
        let data = gaussian_prototypes(&Shape::nf(1, 8), 2, 10, 3.0, 5);
        let mut model = mlp("t", 8, &[], 2).unwrap();
        train_mlp(&mut model, &data, &TrainConfig::default()).unwrap();
        assert!(model
            .nodes()
            .iter()
            .filter(|n| matches!(n.op, Op::Dense { .. }))
            .all(|n| n.weights.is_explicit()));
        model.validate().unwrap();
    }

    #[test]
    fn class_count_mismatch_is_rejected() {
        let data = gaussian_prototypes(&Shape::nf(1, 8), 4, 5, 1.0, 5);
        let mut model = mlp("t", 8, &[], 2).unwrap();
        assert!(train_mlp(&mut model, &data, &TrainConfig::default()).is_err());
    }

    #[test]
    fn unsupported_op_is_rejected() {
        let mut model = crate::zoo::lenet5(10).unwrap();
        let data = gaussian_prototypes(&Shape::nf(1, 784), 10, 2, 1.0, 5);
        assert!(train_mlp(&mut model, &data, &TrainConfig::default()).is_err());
    }

    #[test]
    fn evaluate_matches_training_accuracy_shape() {
        let data = gaussian_prototypes(&Shape::nf(1, 8), 2, 20, 3.0, 6);
        let mut model = mlp("t", 8, &[12], 2).unwrap();
        train_mlp(&mut model, &data, &TrainConfig::default()).unwrap();
        let cm = evaluate(&model, &data).unwrap();
        assert_eq!(cm.total(), data.len());
        assert!(cm.accuracy() > 0.9);
    }
}
