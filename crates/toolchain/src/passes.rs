//! Graph-surgery optimization passes.
//!
//! Paper §III: "The model's computational graph undergoes significant
//! surgery in the optimization phase … (e.g., operator fusion,
//! quantization, neuron-wise or connection-wise pruning)." Each surgery
//! is a [`Pass`]; a [`PassManager`] runs an ordered pipeline and records
//! what every pass did.

use crate::error::ToolchainError;
use serde::{Deserialize, Serialize};
use vedliot_nnir::analysis;
use vedliot_nnir::exec::{RunOptions, Runner};
use vedliot_nnir::graph::WeightInit;
use vedliot_nnir::{Graph, GraphBuilder, Node, Op, Shape, Tensor, TensorId};

/// Rebuilds `graph` node by node, the scaffold of every restructuring
/// pass. Each graph input is re-declared and handed to `input` with its
/// old id, which returns the tensor that stands for it (the input
/// itself, or a node appended after it). Each node is handed to `emit`
/// with its inputs already remapped, which returns the tensor its
/// output becomes (a folded node returns an existing tensor, which it
/// then aliases). The verifier's schedule invariant (producers precede
/// consumers) means a remap miss is a pass bug; it surfaces as a typed
/// error instead of a panic.
fn rebuild<I, E>(
    pass: &str,
    graph: &Graph,
    mut input: I,
    mut emit: E,
) -> Result<Graph, ToolchainError>
where
    I: FnMut(&mut GraphBuilder, TensorId, TensorId) -> Result<TensorId, ToolchainError>,
    E: FnMut(&mut GraphBuilder, &Node, Vec<TensorId>) -> Result<TensorId, ToolchainError>,
{
    let unsupported = |detail: String| ToolchainError::UnsupportedGraph {
        pass: pass.into(),
        detail,
    };
    let remapped =
        |remap: &[Option<TensorId>], t: &TensorId| {
            remap.get(t.0).copied().flatten().ok_or_else(|| {
                unsupported(format!("tensor t{} consumed before it was rebuilt", t.0))
            })
        };
    let mut b = GraphBuilder::new(graph.name().to_string());
    let mut remap: Vec<Option<TensorId>> = vec![None; graph.tensor_count()];
    for &t in graph.inputs() {
        let shape = graph
            .tensor_shape(t)
            .ok_or_else(|| unsupported(format!("graph input t{} has no shape", t.0)))?;
        let declared = b.input(shape.clone());
        remap[t.0] = Some(input(&mut b, t, declared)?);
    }
    for node in graph.nodes() {
        let inputs = node
            .inputs
            .iter()
            .map(|t| remapped(&remap, t))
            .collect::<Result<_, _>>()?;
        remap[node.output.0] = Some(emit(&mut b, node, inputs)?);
    }
    let outputs = graph
        .outputs()
        .iter()
        .map(|t| remapped(&remap, t))
        .collect::<Result<_, _>>()?;
    Ok(b.finish(outputs))
}

/// Re-applies `node` unchanged on its rebuilt inputs: the arm of
/// [`rebuild`] for every node a pass leaves alone.
fn keep(
    b: &mut GraphBuilder,
    node: &Node,
    inputs: &[TensorId],
) -> Result<TensorId, ToolchainError> {
    Ok(b.apply_with_weights(
        node.name.clone(),
        node.op.clone(),
        inputs,
        node.weights.clone(),
    )?)
}

/// The output units (dim-0 rows of `w`, `units` of them) a structured
/// pruning pass keeps: the `keep_fraction` with the largest L2 norm,
/// rounded up to at least one, in ascending index order.
fn strongest_units(w: &Tensor, units: usize, keep_fraction: f64) -> Vec<usize> {
    let per_unit = w.shape().elem_count() / units.max(1);
    let mut norms: Vec<(usize, f64)> = (0..units)
        .map(|o| {
            let row = &w.data()[o * per_unit..(o + 1) * per_unit];
            (o, row.iter().map(|&x| (x as f64).powi(2)).sum::<f64>())
        })
        .collect();
    norms.sort_by(|a, b| b.1.partial_cmp(&a.1).unwrap_or(std::cmp::Ordering::Equal));
    let keep = ((units as f64) * keep_fraction).ceil().max(1.0) as usize;
    let mut kept: Vec<usize> = norms[..keep.min(units)].iter().map(|&(o, _)| o).collect();
    kept.sort_unstable();
    kept
}

/// One optimization pass over a graph.
///
/// Passes consume and return whole graphs (graphs are cheap to rebuild
/// and this keeps every intermediate state valid), plus a human-readable
/// summary of what changed.
///
/// **Transform contract:** when run through a [`PassManager`], every
/// pass output is re-verified (`vedliot_nnir::analysis`): the
/// Error-severity passes must come back clean and the graph's
/// input/output interface must be unchanged, or the pipeline aborts
/// with [`vedliot_nnir::NnirError::VerifierRejected`] (`T001` for an
/// interface change). A pass may restructure the graph's interior
/// freely; it may not alter what the model consumes or produces.
pub trait Pass {
    /// Pass name for logs.
    fn name(&self) -> &str;

    /// Applies the pass.
    ///
    /// # Errors
    ///
    /// Returns [`ToolchainError::UnsupportedGraph`] when the graph shape
    /// is outside the pass's domain, or propagates graph errors.
    fn run(&self, graph: Graph) -> Result<(Graph, String), ToolchainError>;
}

/// Log entry produced by one pass in a pipeline.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct PassLog {
    /// Pass name.
    pub pass: String,
    /// What the pass reported.
    pub detail: String,
}

/// An ordered pipeline of passes.
#[derive(Default)]
pub struct PassManager {
    passes: Vec<Box<dyn Pass>>,
}

impl PassManager {
    /// Creates an empty pipeline.
    #[must_use]
    pub fn new() -> Self {
        PassManager::default()
    }

    /// Appends a pass.
    pub fn push(&mut self, pass: impl Pass + 'static) {
        self.passes.push(Box::new(pass));
    }

    /// Number of passes.
    #[must_use]
    pub fn len(&self) -> usize {
        self.passes.len()
    }

    /// Whether the pipeline is empty.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.passes.is_empty()
    }

    /// Runs the pipeline with a verify-after-transform differential
    /// check around every pass: the transformed graph must pass the
    /// static verifier's Error-severity gate *and* preserve the model's
    /// I/O interface. A pass that breaks an invariant becomes a typed
    /// [`NnirError::VerifierRejected`](vedliot_nnir::NnirError) at the
    /// transform boundary — never a downstream miscompute.
    ///
    /// # Errors
    ///
    /// Propagates the first pass failure or verifier rejection.
    pub fn run(&self, graph: Graph) -> Result<(Graph, Vec<PassLog>), ToolchainError> {
        let mut g = graph;
        let mut logs = Vec::with_capacity(self.passes.len());
        for pass in &self.passes {
            let before = analysis::InterfaceSignature::of(&g);
            let (next, detail) = pass.run(g)?;
            analysis::verify_transform(pass.name(), &before, &next)?;
            logs.push(PassLog {
                pass: pass.name().to_string(),
                detail,
            });
            g = next;
        }
        Ok((g, logs))
    }
}

impl std::fmt::Debug for PassManager {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let names: Vec<&str> = self.passes.iter().map(|p| p.name()).collect();
        f.debug_struct("PassManager")
            .field("passes", &names)
            .finish()
    }
}

// --------------------------------------------------------------------
// Conv + BatchNorm fusion
// --------------------------------------------------------------------

/// Folds `BatchNorm` layers into their preceding `Conv2d` (the standard
/// inference-time operator fusion; removes 2 memory-bound ops per conv).
#[derive(Debug, Clone, Copy, Default)]
pub struct FuseConvBn;

impl FuseConvBn {
    /// Creates the pass.
    #[must_use]
    pub fn new() -> Self {
        FuseConvBn
    }
}

impl Pass for FuseConvBn {
    fn name(&self) -> &str {
        "fuse-conv-bn"
    }

    fn run(&self, graph: Graph) -> Result<(Graph, String), ToolchainError> {
        let fanout = graph.fanout();
        // BN nodes to fold: their input comes from a Conv2d whose output
        // feeds only this BN.
        let mut fold_bn: Vec<bool> = vec![false; graph.nodes().len()];
        for node in graph.nodes() {
            if node.op == Op::BatchNorm {
                if let Some(producer) = graph.producer(node.inputs[0]) {
                    let prod = graph.node(producer)?;
                    if matches!(prod.op, Op::Conv2d(_)) && fanout[node.inputs[0].0].len() == 1 {
                        fold_bn[node.id.0] = true;
                    }
                }
            }
        }

        let mut fused = 0usize;
        let g = rebuild(
            self.name(),
            &graph,
            |_, _, t| Ok(t),
            |b, node, inputs| {
                // A folded BN's output aliases its input: the fused conv.
                if fold_bn[node.id.0] {
                    return Ok(inputs[0]);
                }
                // Look ahead: is this conv followed by a foldable BN?
                let following_bn = fanout[node.output.0]
                    .iter()
                    .filter_map(|&nid| graph.node(nid).ok())
                    .find(|n| fold_bn[n.id.0]);
                let (Op::Conv2d(attrs), Some(bn)) = (&node.op, following_bn) else {
                    return keep(b, node, &inputs);
                };
                let conv_w = graph.node_weights(node)?;
                let bn_w = graph.node_weights(bn)?;
                let scale = bn_w[0].data();
                let shift = bn_w[1].data();
                let mut attrs = *attrs;
                let kernel = &conv_w[0];
                let old_bias = if attrs.bias { Some(&conv_w[1]) } else { None };
                let oc = attrs.out_channels;
                let per_oc = kernel.shape().elem_count() / oc;
                let mut folded_kernel = kernel.clone();
                for (o, &s) in scale.iter().enumerate().take(oc) {
                    for w in &mut folded_kernel.data_mut()[o * per_oc..(o + 1) * per_oc] {
                        *w *= s;
                    }
                }
                let folded_bias: Vec<f32> = (0..oc)
                    .map(|o| shift[o] + scale[o] * old_bias.map_or(0.0, |b| b.data()[o]))
                    .collect();
                attrs.bias = true;
                let weights = WeightInit::Explicit(vec![
                    folded_kernel,
                    Tensor::from_vec(Shape::new(vec![oc]), folded_bias)?,
                ]);
                fused += 1;
                Ok(b.apply_with_weights(node.name.clone(), Op::Conv2d(attrs), &inputs, weights)?)
            },
        )?;
        Ok((
            g,
            format!("folded {fused} batch-norm layers into convolutions"),
        ))
    }
}

// --------------------------------------------------------------------
// Connection-wise (magnitude) pruning
// --------------------------------------------------------------------

/// Magnitude pruning: zeroes the smallest-magnitude fraction of every
/// Conv2d/Dense weight tensor ("connection-wise pruning").
#[derive(Debug, Clone, Copy)]
pub struct PruneConnections {
    sparsity: f64,
}

impl PruneConnections {
    /// Creates the pass with a target sparsity in `[0, 1)`.
    ///
    /// # Panics
    ///
    /// Panics if `sparsity` is outside `[0, 1)`.
    #[must_use]
    pub fn new(sparsity: f64) -> Self {
        assert!((0.0..1.0).contains(&sparsity), "sparsity must be in [0, 1)");
        PruneConnections { sparsity }
    }
}

impl Pass for PruneConnections {
    fn name(&self) -> &str {
        "prune-connections"
    }

    fn run(&self, mut graph: Graph) -> Result<(Graph, String), ToolchainError> {
        let mut total = 0usize;
        let mut zeroed = 0usize;
        for (_, weights) in
            graph.explicit_weights(|n| matches!(n.op, Op::Conv2d(_) | Op::Dense { .. }))
        {
            // Prune the main weight tensor only (index 0), never biases.
            let w = &mut weights[0];
            let n = w.data().len();
            let keep = n - ((n as f64) * self.sparsity).round() as usize;
            let mut magnitudes: Vec<f32> = w.data().iter().map(|x| x.abs()).collect();
            magnitudes.sort_by(|a, b| b.partial_cmp(a).unwrap_or(std::cmp::Ordering::Equal));
            let threshold = if keep == 0 {
                f32::INFINITY
            } else if keep >= n {
                0.0
            } else {
                magnitudes[keep - 1]
            };
            for x in w.data_mut() {
                total += 1;
                if x.abs() < threshold || threshold == f32::INFINITY {
                    *x = 0.0;
                    zeroed += 1;
                }
            }
        }
        let achieved = if total > 0 {
            zeroed as f64 / total as f64
        } else {
            0.0
        };
        Ok((
            graph,
            format!(
                "zeroed {zeroed}/{total} connections ({achieved:.1}% sparsity)",
                achieved = achieved * 100.0
            ),
        ))
    }
}

// --------------------------------------------------------------------
// Neuron-wise pruning (MLP chains)
// --------------------------------------------------------------------

/// Neuron-wise (structured) pruning for MLP chains: removes the
/// lowest-L2-norm output neurons of every hidden `Dense` layer, shrinking
/// the following layer's input accordingly.
#[derive(Debug, Clone, Copy)]
pub struct PruneNeurons {
    keep_fraction: f64,
}

impl PruneNeurons {
    /// Creates the pass keeping the given fraction of hidden neurons.
    ///
    /// # Panics
    ///
    /// Panics if `keep_fraction` is outside `(0, 1]`.
    #[must_use]
    pub fn new(keep_fraction: f64) -> Self {
        assert!(
            keep_fraction > 0.0 && keep_fraction <= 1.0,
            "keep_fraction must be in (0, 1]"
        );
        PruneNeurons { keep_fraction }
    }
}

impl Pass for PruneNeurons {
    fn name(&self) -> &str {
        "prune-neurons"
    }

    fn run(&self, graph: Graph) -> Result<(Graph, String), ToolchainError> {
        // Validate the chain shape: Input / Flatten / Dense / Activation.
        for node in graph.nodes() {
            match node.op {
                Op::Input(_) | Op::Flatten | Op::Dense { .. } | Op::Activation(_) | Op::Softmax => {
                }
                _ => {
                    return Err(ToolchainError::UnsupportedGraph {
                        pass: self.name().into(),
                        detail: format!("{} is not an MLP-chain operator", node.op.name()),
                    })
                }
            }
        }
        let dense: Vec<&Node> = graph
            .nodes()
            .iter()
            .filter(|n| matches!(n.op, Op::Dense { .. }))
            .collect();
        if dense.len() < 2 {
            return Err(ToolchainError::UnsupportedGraph {
                pass: self.name().into(),
                detail: "need at least one hidden layer to prune".into(),
            });
        }
        let weights = dense
            .iter()
            .map(|n| graph.node_weights(n))
            .collect::<Result<Vec<_>, _>>()?;

        // For every hidden layer (all but the last), select kept neurons.
        let mut kept_per_layer: Vec<Vec<usize>> = Vec::new();
        let mut removed = 0usize;
        for (li, node) in dense.iter().enumerate() {
            let Op::Dense { out_features, .. } = node.op else {
                unreachable!()
            };
            let kept = if li == dense.len() - 1 {
                (0..out_features).collect()
            } else {
                strongest_units(&weights[li][0], out_features, self.keep_fraction)
            };
            removed += out_features - kept.len();
            kept_per_layer.push(kept);
        }

        // Rebuild the graph with sliced weights.
        let mut dense_seen = 0usize;
        let g = rebuild(
            self.name(),
            &graph,
            |_, _, t| Ok(t),
            |b, node, inputs| {
                let Op::Dense { bias, .. } = node.op else {
                    return keep(b, node, &inputs);
                };
                let li = dense_seen;
                dense_seen += 1;
                let kept = &kept_per_layer[li];
                let w = &weights[li][0];
                let in_f = w.shape().dim(1).unwrap_or(1);
                let cols: Vec<usize> = if li > 0 {
                    kept_per_layer[li - 1].clone()
                } else {
                    (0..in_f).collect()
                };
                let mut new_w = Vec::with_capacity(kept.len() * cols.len());
                for &o in kept {
                    for &c in &cols {
                        new_w.push(w.data()[o * in_f + c]);
                    }
                }
                let mut tensors = vec![Tensor::from_vec(Shape::nf(kept.len(), cols.len()), new_w)?];
                if bias {
                    let old_b = &weights[li][1];
                    let new_b: Vec<f32> = kept.iter().map(|&o| old_b.data()[o]).collect();
                    tensors.push(Tensor::from_vec(Shape::new(vec![kept.len()]), new_b)?);
                }
                Ok(b.apply_with_weights(
                    node.name.clone(),
                    Op::Dense {
                        out_features: kept.len(),
                        bias,
                    },
                    &inputs,
                    WeightInit::Explicit(tensors),
                )?)
            },
        )?;
        Ok((
            g,
            format!(
                "removed {removed} hidden neurons (keep fraction {:.2})",
                self.keep_fraction
            ),
        ))
    }
}

// --------------------------------------------------------------------
// Channel pruning (linear conv chains)
// --------------------------------------------------------------------

/// Structured channel pruning for *linear* convolutional chains
/// (conv / bn / activation / pool / gap / flatten / dense sequences with
/// no branching): removes the lowest-L2-norm output channels of every
/// conv except the last one before a spatial-collapse boundary, slicing
/// the consumer's input channels and any following BatchNorm to match.
///
/// This is the conv-side of the paper's "neuron-wise pruning"; residual
/// topologies (where channel sets must stay aligned across adds) are out
/// of scope and rejected.
#[derive(Debug, Clone, Copy)]
pub struct PruneChannels {
    keep_fraction: f64,
}

impl PruneChannels {
    /// Creates the pass keeping the given fraction of channels.
    ///
    /// # Panics
    ///
    /// Panics if `keep_fraction` is outside `(0, 1]`.
    #[must_use]
    pub fn new(keep_fraction: f64) -> Self {
        assert!(
            keep_fraction > 0.0 && keep_fraction <= 1.0,
            "keep_fraction must be in (0, 1]"
        );
        PruneChannels { keep_fraction }
    }
}

impl Pass for PruneChannels {
    fn name(&self) -> &str {
        "prune-channels"
    }

    fn run(&self, graph: Graph) -> Result<(Graph, String), ToolchainError> {
        // Reject anything non-linear or with grouped convs.
        let fanout = graph.fanout();
        for node in graph.nodes() {
            match &node.op {
                Op::Input(_)
                | Op::BatchNorm
                | Op::Activation(_)
                | Op::MaxPool2d(_)
                | Op::AvgPool2d(_)
                | Op::GlobalAvgPool
                | Op::Flatten
                | Op::Dense { .. }
                | Op::Softmax
                | Op::FakeQuant { .. } => {}
                Op::Conv2d(attrs) if attrs.groups == 1 => {}
                other => {
                    return Err(ToolchainError::UnsupportedGraph {
                        pass: self.name().into(),
                        detail: format!("{} breaks the linear-chain requirement", other.name()),
                    })
                }
            }
            if fanout[node.output.0].len() > 1 {
                return Err(ToolchainError::UnsupportedGraph {
                    pass: self.name().into(),
                    detail: format!("node {} has fan-out > 1 (branching)", node.name),
                });
            }
        }

        // Which convs may be pruned: every conv whose *next* conv/dense
        // consumer can be sliced. The last conv before flatten/dense
        // keeps its channels (the classifier input width must not move).
        let convs: Vec<&Node> = graph
            .nodes()
            .iter()
            .filter(|n| matches!(n.op, Op::Conv2d(_)))
            .collect();
        if convs.len() < 2 {
            return Err(ToolchainError::UnsupportedGraph {
                pass: self.name().into(),
                detail: "need at least two convolutions to prune channels".into(),
            });
        }

        // kept[id] = kept output-channel indices of conv node id.
        let mut kept: std::collections::HashMap<usize, Vec<usize>> =
            std::collections::HashMap::new();
        let mut removed = 0usize;
        for (pos, node) in convs.iter().enumerate() {
            let Op::Conv2d(attrs) = &node.op else {
                unreachable!()
            };
            let channels = if pos == convs.len() - 1 {
                (0..attrs.out_channels).collect()
            } else {
                let w = &graph.node_weights(node)?[0];
                strongest_units(w, attrs.out_channels, self.keep_fraction)
            };
            removed += attrs.out_channels - channels.len();
            kept.insert(node.id.0, channels);
        }

        // Rebuild, slicing weights. Track which channel set each tensor
        // carries (None = untouched/full).
        let mut channels_of: Vec<Option<Vec<usize>>> = vec![None; graph.tensor_count()];
        let g = rebuild(
            self.name(),
            &graph,
            |_, _, t| Ok(t),
            |b, node, inputs| {
                let in_channels = node.inputs.first().and_then(|t| channels_of[t.0].clone());
                let (out, out_channels) = match &node.op {
                    Op::Conv2d(attrs) => {
                        let weights = graph.node_weights(node)?;
                        let w = &weights[0];
                        let old_in = w.shape().dim(1).unwrap_or(1);
                        let kh = attrs.kernel.0;
                        let kw = attrs.kernel.1;
                        let in_keep: Vec<usize> =
                            in_channels.unwrap_or_else(|| (0..old_in).collect());
                        let out_keep = kept[&node.id.0].clone();
                        let mut new_w =
                            Vec::with_capacity(out_keep.len() * in_keep.len() * kh * kw);
                        for &o in &out_keep {
                            for &c in &in_keep {
                                let base = ((o * old_in) + c) * kh * kw;
                                new_w.extend_from_slice(&w.data()[base..base + kh * kw]);
                            }
                        }
                        let mut tensors = vec![Tensor::from_vec(
                            Shape::new(vec![out_keep.len(), in_keep.len(), kh, kw]),
                            new_w,
                        )?];
                        if attrs.bias {
                            let bias = &weights[1];
                            tensors.push(Tensor::from_vec(
                                Shape::new(vec![out_keep.len()]),
                                out_keep.iter().map(|&o| bias.data()[o]).collect(),
                            )?);
                        }
                        let mut new_attrs = *attrs;
                        new_attrs.out_channels = out_keep.len();
                        let out = b.apply_with_weights(
                            node.name.clone(),
                            Op::Conv2d(new_attrs),
                            &inputs,
                            WeightInit::Explicit(tensors),
                        )?;
                        let pruned = out_keep.len() < attrs.out_channels;
                        (out, pruned.then_some(out_keep))
                    }
                    Op::BatchNorm => {
                        let weights = graph.node_weights(node)?;
                        let tensors = match &in_channels {
                            Some(keep) => vec![
                                Tensor::from_vec(
                                    Shape::new(vec![keep.len()]),
                                    keep.iter().map(|&c| weights[0].data()[c]).collect(),
                                )?,
                                Tensor::from_vec(
                                    Shape::new(vec![keep.len()]),
                                    keep.iter().map(|&c| weights[1].data()[c]).collect(),
                                )?,
                            ],
                            None => weights.into_owned(),
                        };
                        let out = b.apply_with_weights(
                            node.name.clone(),
                            Op::BatchNorm,
                            &inputs,
                            WeightInit::Explicit(tensors),
                        )?;
                        (out, in_channels)
                    }
                    Op::Dense { .. } if in_channels.is_some() => {
                        return Err(ToolchainError::UnsupportedGraph {
                            pass: self.name().into(),
                            detail: "dense layer directly consumes pruned channels; \
                                     prune through GAP only"
                                .into(),
                        });
                    }
                    // Channel-preserving ops propagate the channel set;
                    // GAP + flatten collapse spatial dims, so the dense
                    // consumer after GAP sees one feature per channel —
                    // handled by treating flatten output as channel-less
                    // only when the channel count was untouched.
                    _ => (keep(b, node, &inputs)?, in_channels),
                };
                channels_of[node.output.0] = out_channels;
                Ok(out)
            },
        )?;
        Ok((
            g,
            format!(
                "removed {removed} conv channels (keep fraction {:.2})",
                self.keep_fraction
            ),
        ))
    }
}

// --------------------------------------------------------------------
// Quantization
// --------------------------------------------------------------------

/// Per-channel symmetric INT8 post-training quantization with
/// activation range calibration.
///
/// Weights get one scale per output channel (conv output channel /
/// dense row) — the per-tensor scheme the pass used to apply let one
/// large channel wash out the grid for every small one, which is where
/// the paper's PTQ accuracy tables and ours diverged. The quantized
/// weights are stored both as a dequantized f32 view (so every f32
/// consumer, including accuracy evaluation, sees fake-quantized
/// values) and as an `i8` code + scale payload
/// ([`Tensor::quant`](vedliot_nnir::tensor::Tensor::quant)) that the
/// runner's INT8 kernels execute directly; activation scales are
/// recorded from calibration data as `FakeQuant` nodes, which is what
/// makes a graph I201-eligible for the INT8 execution path.
#[derive(Debug, Clone, Default)]
pub struct QuantizeInt8 {
    calibration: Vec<Tensor>,
}

impl QuantizeInt8 {
    /// Weight-only quantization (no calibration data).
    #[must_use]
    pub fn new() -> Self {
        QuantizeInt8 {
            calibration: Vec::new(),
        }
    }

    /// Quantization with activation-range calibration inputs.
    #[must_use]
    pub fn with_calibration(calibration: Vec<Tensor>) -> Self {
        QuantizeInt8 { calibration }
    }
}

impl Pass for QuantizeInt8 {
    fn name(&self) -> &str {
        "quantize-int8"
    }

    fn run(&self, mut graph: Graph) -> Result<(Graph, String), ToolchainError> {
        // Activation calibration: max |activation| over calibration
        // runs, then FakeQuant nodes inserted after every producer so
        // the evaluated accuracy reflects *full* INT8 execution
        // (weights and activations).
        let mut act_scales = 0usize;
        if !self.calibration.is_empty() {
            let mut absmax = vec![0.0f32; graph.tensor_count()];
            {
                let mut exec = Runner::builder().build(&graph)?;
                let opts = RunOptions::new().capture_intermediates(true);
                for sample in &self.calibration {
                    let values = exec
                        .execute(std::slice::from_ref(sample), opts)?
                        .into_intermediates()
                        .unwrap_or_default();
                    for (i, v) in values.iter().enumerate() {
                        if let Some(t) = v {
                            absmax[i] = absmax[i].max(t.abs_max());
                        }
                    }
                }
            }
            act_scales = absmax.iter().filter(|&&m| m > 0.0).count();

            // Rebuild with FakeQuant after each graph input and each
            // producing node.
            let fake_quant = |b: &mut GraphBuilder, name: String, t: TensorId, absmax: f32| {
                let scale = absmax / 127.0;
                if scale > 0.0 {
                    b.apply(name, Op::FakeQuant { scale }, &[t])
                } else {
                    Ok(t)
                }
            };
            graph = rebuild(
                self.name(),
                &graph,
                |b, old, t| Ok(fake_quant(b, format!("{old}.quant"), t, absmax[old.0])?),
                |b, node, inputs| {
                    let out = keep(b, node, &inputs)?;
                    if matches!(node.op, Op::FakeQuant { .. }) {
                        return Ok(out);
                    }
                    let name = format!("{}.quant", node.name);
                    Ok(fake_quant(b, name, out, absmax[node.output.0])?)
                },
            )?;
            // A `FakeQuant` whose input already lies on its grid (after a
            // max-pool, a `Flatten` or a ReLU of a same-scale `FakeQuant`)
            // changes no bit: drop it, by the runner's own rule. The
            // INT8 kernels read that grid through the same rule.
            let identity = vedliot_nnir::analysis::identity_quants(&graph);
            if identity.contains(&true) {
                let mut at = 0;
                graph = rebuild(
                    self.name(),
                    &graph,
                    |_, _, t| Ok(t),
                    |b, node, inputs| {
                        at += 1;
                        if identity[at - 1] {
                            Ok(inputs[0])
                        } else {
                            keep(b, node, &inputs)
                        }
                    },
                )?;
            }
        }

        let quantized =
            graph.explicit_weights(|n| matches!(n.op, Op::Conv2d(_) | Op::Dense { .. }));
        let quantized_layers = quantized.len();
        for (_, weights) in quantized {
            weights[0].quantize_i8_per_channel();
        }

        // Consult the quant-safety dataflow analysis on the calibrated
        // graph: a layer whose INT8 execution the propagated value
        // ranges cannot prove within the engine tolerance keeps its
        // fake-quantized f32 weights (the accuracy story is unchanged)
        // but loses the i8 deployment payload, so no engine mistakes it
        // for a proven INT8 kernel.
        let mut refuted = 0usize;
        if !self.calibration.is_empty() {
            let safety = vedliot_nnir::analysis::QuantSafety::of(&graph);
            for (node, verdict) in graph.nodes_mut().iter_mut().zip(safety.verdicts()) {
                if verdict.eligible {
                    continue;
                }
                let WeightInit::Explicit(weights) = &mut node.weights else {
                    continue;
                };
                if let Some(w) = weights.first_mut() {
                    if w.quant().is_some() {
                        w.clear_quant();
                        refuted += 1;
                    }
                }
            }
        }
        Ok((
            graph,
            format!(
                "quantized {quantized_layers} layers to per-channel INT8 \
                 ({act_scales} activation scales calibrated, {refuted} refuted by quant-safety analysis)"
            ),
        ))
    }
}

/// Converts weights to FP16 (round-to-nearest-even via bit manipulation)
/// and back — the accuracy effect of FP16 deployment.
#[derive(Debug, Clone, Copy, Default)]
pub struct ConvertFp16;

impl ConvertFp16 {
    /// Creates the pass.
    #[must_use]
    pub fn new() -> Self {
        ConvertFp16
    }
}

/// Rounds an f32 to the nearest representable f16 value (returned as f32).
#[must_use]
pub fn round_to_f16(x: f32) -> f32 {
    let bits = x.to_bits();
    let sign = bits & 0x8000_0000;
    let exp = ((bits >> 23) & 0xFF) as i32;
    let frac = bits & 0x007F_FFFF;
    // Handle zero / subnormal-f32 as zero (far below f16 range anyway).
    if exp == 0 {
        return f32::from_bits(sign);
    }
    if exp == 0xFF {
        return x; // inf / NaN pass through
    }
    let unbiased = exp - 127;
    if unbiased > 15 {
        // Overflows f16 -> ±inf.
        return f32::from_bits(sign | 0x7F80_0000);
    }
    if unbiased < -24 {
        return f32::from_bits(sign);
    }
    if unbiased < -14 {
        // f16 subnormal: quantize mantissa steps of 2^-24.
        let scale = (2.0f32).powi(24);
        let q = (x * scale).round() / scale;
        return q;
    }
    // Normal range: keep 10 mantissa bits, round to nearest even.
    let shift = 13;
    let round_bit = 1u32 << (shift - 1);
    let sticky_mask = round_bit - 1;
    let mut mant = frac >> shift;
    let round = frac & round_bit != 0;
    let sticky = frac & sticky_mask != 0;
    if round && (sticky || mant & 1 == 1) {
        mant += 1;
    }
    let mut new_exp = exp as u32;
    if mant == 0x400 {
        mant = 0;
        new_exp += 1;
    }
    f32::from_bits(sign | (new_exp << 23) | (mant << shift))
}

impl Pass for ConvertFp16 {
    fn name(&self) -> &str {
        "convert-fp16"
    }

    fn run(&self, mut graph: Graph) -> Result<(Graph, String), ToolchainError> {
        let converted = graph
            .explicit_weights(|n| matches!(n.op, Op::Conv2d(_) | Op::Dense { .. } | Op::BatchNorm));
        let count = converted.len();
        for (_, weights) in converted {
            for x in weights.iter_mut().flat_map(Tensor::data_mut) {
                *x = round_to_f16(*x);
            }
        }
        Ok((graph, format!("converted {count} layers to FP16")))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use vedliot_nnir::dataset::gaussian_prototypes;
    use vedliot_nnir::train::{evaluate, mlp, train_mlp, TrainConfig};
    use vedliot_nnir::zoo;

    fn cnn() -> Graph {
        zoo::tiny_cnn("t", Shape::nchw(1, 3, 16, 16), &[8, 16], 4).unwrap()
    }

    #[test]
    fn fusion_removes_batchnorms_and_preserves_output() {
        let g = cnn();
        let bn_before = g.nodes().iter().filter(|n| n.op == Op::BatchNorm).count();
        assert!(bn_before > 0);
        let input = Tensor::random(Shape::nchw(1, 3, 16, 16), 3, 1.0);
        let before = Runner::builder()
            .build(&g)
            .unwrap()
            .execute(std::slice::from_ref(&input), RunOptions::default())
            .unwrap()
            .into_outputs();
        let (fused, detail) = FuseConvBn::new().run(g).unwrap();
        fused.validate().unwrap();
        assert_eq!(
            fused
                .nodes()
                .iter()
                .filter(|n| n.op == Op::BatchNorm)
                .count(),
            0
        );
        assert!(detail.contains(&bn_before.to_string()));
        let after = Runner::builder()
            .build(&fused)
            .unwrap()
            .execute(&[input], RunOptions::default())
            .unwrap()
            .into_outputs();
        let diff = before[0].max_abs_diff(&after[0]).unwrap();
        assert!(diff < 1e-4, "fusion changed outputs by {diff}");
    }

    #[test]
    fn fusion_reduces_node_and_op_count() {
        let g = cnn();
        let n_before = g.nodes().len();
        let (fused, _) = FuseConvBn::new().run(g).unwrap();
        assert!(fused.nodes().len() < n_before);
    }

    #[test]
    fn pruning_reaches_target_sparsity() {
        let g = cnn();
        let (pruned, detail) = PruneConnections::new(0.7).run(g).unwrap();
        pruned.validate().unwrap();
        assert!(detail.contains("70.0%"), "{detail}");
        // Count zeros directly.
        for node in pruned.nodes() {
            if matches!(node.op, Op::Conv2d(_)) {
                let w = &pruned.node_weights(node).unwrap()[0];
                let zeros = w.data().iter().filter(|&&x| x == 0.0).count();
                let frac = zeros as f64 / w.data().len() as f64;
                assert!(frac >= 0.6, "layer {} sparsity {frac}", node.name);
            }
        }
    }

    #[test]
    fn pruning_keeps_large_weights() {
        let mut model = mlp("m", 4, &[], 2).unwrap();
        let data = gaussian_prototypes(&Shape::nf(1, 4), 2, 10, 3.0, 3);
        train_mlp(&mut model, &data, &TrainConfig::default()).unwrap();
        let before = model.node_weights(&model.nodes()[0]).unwrap()[0].clone();
        let max_before = before.abs_max();
        let (pruned, _) = PruneConnections::new(0.5).run(model).unwrap();
        let after = pruned.node_weights(&pruned.nodes()[0]).unwrap()[0].clone();
        // The single largest weight always survives.
        assert_eq!(after.abs_max(), max_before);
    }

    #[test]
    fn neuron_pruning_shrinks_hidden_layer() {
        let data = gaussian_prototypes(&Shape::nf(1, 12), 3, 30, 3.0, 7);
        let mut model = mlp("m", 12, &[32], 3).unwrap();
        let base_acc = train_mlp(&mut model, &data, &TrainConfig::default()).unwrap();
        let (pruned, _) = PruneNeurons::new(0.5).run(model).unwrap();
        pruned.validate().unwrap();
        let hidden = pruned
            .nodes()
            .iter()
            .find(|n| n.name == "fc1")
            .expect("hidden layer");
        assert!(matches!(
            hidden.op,
            Op::Dense {
                out_features: 16,
                ..
            }
        ));
        // Accuracy survives structured pruning of a separable problem.
        let acc = evaluate(&pruned, &data).unwrap().accuracy();
        assert!(
            acc > base_acc - 0.15,
            "accuracy dropped {base_acc} -> {acc}"
        );
    }

    #[test]
    fn neuron_pruning_rejects_cnns() {
        let err = PruneNeurons::new(0.5).run(cnn());
        assert!(matches!(err, Err(ToolchainError::UnsupportedGraph { .. })));
    }

    /// Per-tensor symmetric INT8 fake-quantization — the scheme the
    /// pass used before per-channel scales, kept as the comparison
    /// baseline for the accuracy-delta tests.
    fn fake_quant_i8(x: f32, scale: f32) -> f32 {
        if scale == 0.0 {
            return 0.0;
        }
        (x / scale).round().clamp(-127.0, 127.0) * scale
    }

    #[test]
    fn quantization_snaps_weights_to_per_channel_grid() {
        let g = cnn();
        let (quant, _) = QuantizeInt8::new().run(g).unwrap();
        for node in quant.nodes() {
            if matches!(node.op, Op::Conv2d(_)) {
                let w = &quant.node_weights(node).unwrap()[0];
                let payload = w.quant().expect("i8 payload emitted");
                let rows = payload.scales.len();
                let row_len = w.data().len() / rows;
                for (r, &scale) in payload.scales.iter().enumerate() {
                    for (i, &x) in w.data()[r * row_len..][..row_len].iter().enumerate() {
                        // The f32 view is exactly code * row scale.
                        let code = f32::from(payload.codes[r * row_len + i]);
                        assert_eq!(x, code * scale, "row {r} weight {x} off its channel grid");
                    }
                }
            }
        }
    }

    #[test]
    fn quantization_error_is_bounded_by_half_step() {
        let g = cnn();
        let originals: Vec<Option<Tensor>> = g
            .nodes()
            .iter()
            .map(|n| {
                if matches!(n.op, Op::Conv2d(_)) {
                    Some(g.node_weights(n).unwrap()[0].clone())
                } else {
                    None
                }
            })
            .collect();
        let (quant, _) = QuantizeInt8::new().run(g).unwrap();
        for (node, orig) in quant.nodes().iter().zip(originals) {
            let Some(orig) = orig else { continue };
            let w = &quant.node_weights(node).unwrap()[0];
            let scale = orig.abs_max() / 127.0;
            let diff = w.max_abs_diff(&orig).unwrap();
            assert!(diff <= scale / 2.0 * 1.0001 + 1e-6);
        }
    }

    #[test]
    fn per_channel_scales_shrink_quantization_error_vs_per_tensor() {
        // Channels with very different magnitudes are exactly where the
        // old per-tensor scheme lost accuracy: the largest row set the
        // grid step for every other row. Build such a dense layer and
        // measure both schemes' weight- and output-space damage.
        let dense_graph = |w: Tensor| {
            let out_f = w.shape().dim(0).unwrap();
            let in_f = w.shape().dim(1).unwrap();
            let mut b = GraphBuilder::new("hetero");
            let x = b.input(Shape::nf(1, in_f));
            let fc = b
                .apply_with_weights(
                    "fc",
                    Op::Dense {
                        out_features: out_f,
                        bias: false,
                    },
                    &[x],
                    WeightInit::Explicit(vec![w]),
                )
                .unwrap();
            b.finish(vec![fc])
        };
        let run = |g: &Graph, input: &Tensor| {
            Runner::builder()
                .build(g)
                .unwrap()
                .execute(std::slice::from_ref(input), RunOptions::default())
                .unwrap()
                .into_outputs()
                .remove(0)
        };

        let mut original = Tensor::random(Shape::nf(4, 16), 21, 1.0);
        // Spread row magnitudes across four orders of magnitude.
        {
            let data = original.data_mut();
            for (r, gain) in [100.0f32, 1.0, 0.1, 0.01].into_iter().enumerate() {
                for x in &mut data[r * 16..][..16] {
                    *x *= gain;
                }
            }
        }
        let mut per_channel = original.clone();
        per_channel.quantize_i8_per_channel();
        let mut per_tensor = original.clone();
        let tensor_scale = per_tensor.abs_max() / 127.0;
        for x in per_tensor.data_mut() {
            *x = fake_quant_i8(*x, tensor_scale);
        }

        let pc_err = per_channel.max_abs_diff(&original).unwrap();
        let pt_err = per_tensor.max_abs_diff(&original).unwrap();
        assert!(
            pc_err < pt_err,
            "weight error: per-channel {pc_err} vs per-tensor {pt_err}"
        );

        let input = Tensor::random(Shape::nf(1, 16), 33, 1.0);
        let float_out = run(&dense_graph(original), &input);
        let pc_delta = run(&dense_graph(per_channel), &input)
            .max_abs_diff(&float_out)
            .unwrap();
        let pt_delta = run(&dense_graph(per_tensor), &input)
            .max_abs_diff(&float_out)
            .unwrap();
        assert!(
            pc_delta < pt_delta,
            "output delta: per-channel {pc_delta} vs per-tensor {pt_delta}"
        );
    }

    #[test]
    fn per_channel_accuracy_beats_per_tensor_on_trained_model() {
        // The compressed-zoo claim: per-channel PTQ accuracy is no
        // worse than the per-tensor scheme on a trained model.
        let data = gaussian_prototypes(&Shape::nf(1, 16), 4, 40, 3.0, 13);
        let mut model = mlp("m", 16, &[24], 4).unwrap();
        train_mlp(&mut model, &data, &TrainConfig::default()).unwrap();

        // Per-tensor baseline, applied the way the pass used to.
        let mut per_tensor = model.clone();
        for (_, weights) in per_tensor.explicit_weights(|n| matches!(n.op, Op::Dense { .. })) {
            let scale = weights[0].abs_max() / 127.0;
            for x in weights[0].data_mut() {
                *x = fake_quant_i8(*x, scale);
            }
        }
        let pt_acc = evaluate(&per_tensor, &data).unwrap().accuracy();

        let (per_channel, _) = QuantizeInt8::new().run(model).unwrap();
        let pc_acc = evaluate(&per_channel, &data).unwrap().accuracy();
        assert!(
            pc_acc >= pt_acc,
            "per-channel accuracy {pc_acc} < per-tensor {pt_acc}"
        );
    }

    #[test]
    fn quantized_model_accuracy_loss_is_negligible() {
        // The §III claim: "quantize parameters … with negligible accuracy
        // loss" on a well-separated problem.
        let data = gaussian_prototypes(&Shape::nf(1, 16), 4, 40, 3.0, 13);
        let mut model = mlp("m", 16, &[24], 4).unwrap();
        let base = train_mlp(&mut model, &data, &TrainConfig::default()).unwrap();
        let (quant, _) = QuantizeInt8::new().run(model).unwrap();
        let acc = evaluate(&quant, &data).unwrap().accuracy();
        assert!(acc >= base - 0.05, "INT8 accuracy {acc} vs float {base}");
    }

    #[test]
    fn calibration_counts_activation_scales() {
        let g = cnn();
        let calib = vec![
            Tensor::random(Shape::nchw(1, 3, 16, 16), 1, 1.0),
            Tensor::random(Shape::nchw(1, 3, 16, 16), 2, 1.0),
        ];
        let (_, detail) = QuantizeInt8::with_calibration(calib).run(g).unwrap();
        assert!(!detail.contains("(0 activation scales"), "{detail}");
    }

    #[test]
    fn calibration_inserts_fake_quant_nodes() {
        let g = cnn();
        let nodes_before = g.nodes().len();
        let calib = vec![Tensor::random(Shape::nchw(1, 3, 16, 16), 1, 1.0)];
        let (quantized, _) = QuantizeInt8::with_calibration(calib).run(g).unwrap();
        quantized.validate().unwrap();
        let fq = quantized
            .nodes()
            .iter()
            .filter(|n| matches!(n.op, Op::FakeQuant { .. }))
            .count();
        assert!(fq > nodes_before / 2, "only {fq} FakeQuant nodes inserted");
        // The quantized graph still executes.
        let out = Runner::builder()
            .build(&quantized)
            .unwrap()
            .execute(
                &[Tensor::random(Shape::nchw(1, 3, 16, 16), 9, 1.0)],
                RunOptions::default(),
            )
            .unwrap()
            .into_outputs();
        assert_eq!(out[0].shape().dims(), &[1, 4]);
    }

    #[test]
    fn full_int8_quantization_keeps_mlp_accuracy() {
        // Weights AND activations on the INT8 grid — the deployable PTQ
        // accuracy measurement.
        let data = gaussian_prototypes(&Shape::nf(1, 16), 3, 30, 3.0, 19);
        let mut model = mlp("full-ptq", 16, &[24], 3).unwrap();
        let base = train_mlp(&mut model, &data, &TrainConfig::default()).unwrap();
        let calib: Vec<Tensor> = data.samples.iter().take(8).cloned().collect();
        let (quantized, _) = QuantizeInt8::with_calibration(calib).run(model).unwrap();
        let acc = evaluate(&quantized, &data).unwrap().accuracy();
        assert!(
            acc >= base - 0.05,
            "full INT8 accuracy {acc} vs float {base}"
        );
    }

    #[test]
    fn int8_kernel_matches_fake_quant_reference_on_eligible_zoo_models() {
        // The INT8 numeric contract: on an I201-eligible calibrated
        // graph the i8-weight / i32-accumulate kernel differs from the
        // fake-quant f32 reference only by f32 summation rounding —
        // within 1e-4 * max(1, |out|_inf).
        let models: Vec<(Graph, Shape)> = vec![
            (zoo::lenet5(10).unwrap(), Shape::nchw(1, 1, 28, 28)),
            (
                zoo::tiny_cnn("gesture", Shape::nchw(1, 3, 16, 16), &[8, 16], 4).unwrap(),
                Shape::nchw(1, 3, 16, 16),
            ),
            (
                zoo::conv1d_classifier("motor", 2, 64, &[8, 16], 3).unwrap(),
                Shape::nchw(1, 2, 1, 64),
            ),
        ];
        for (model, shape) in models {
            let name = model.name().to_string();
            let calib: Vec<Tensor> = (0..4)
                .map(|s| Tensor::random(shape.clone(), s + 1, 1.0))
                .collect();
            let (quantized, _) = QuantizeInt8::with_calibration(calib).run(model).unwrap();
            assert!(
                analysis::int8_ready(&quantized),
                "{name} not I201-eligible after calibration"
            );
            let mut int8 = Runner::builder().build(&quantized).unwrap();
            assert!(int8.uses_int8(), "{name}: INT8 plan did not engage");
            let mut reference = Runner::builder().int8(false).build(&quantized).unwrap();
            let input = Tensor::random(shape, 99, 1.0);
            let got = int8
                .execute(
                    std::slice::from_ref(&input),
                    RunOptions::new().profile(true),
                )
                .unwrap();
            assert!(got.profile().unwrap().int8_nodes() > 0, "{name}");
            let want = reference.execute(&[input], RunOptions::default()).unwrap();
            let diff = got.outputs()[0].max_abs_diff(&want.outputs()[0]).unwrap();
            let bound = 1e-4 * want.outputs()[0].abs_max().max(1.0);
            assert!(
                diff <= bound,
                "{name}: INT8 vs fake-quant diff {diff} > {bound}"
            );
        }
    }

    #[test]
    fn profiled_int8_lenet5_runs_pool_and_flatten_quants_fused() {
        // Each pool runs in the output write of the INT8 conv before it,
        // which pools its i32 accumulators, and reads 0 ns with
        // `fused_into` naming its head; the pools stay f32 records. The
        // five `FakeQuant`s that would re-round a value already on their
        // grid — after each pool, the flatten and two ReLUs — are not
        // inserted, and the convs and dense layers after them still read
        // that grid: the INT8 node count is still 5.
        let calib: Vec<Tensor> = (0..4)
            .map(|s| Tensor::random(Shape::nchw(1, 1, 28, 28), s + 1, 1.0))
            .collect();
        let model = zoo::lenet5(10).unwrap();
        let (quantized, _) = QuantizeInt8::with_calibration(calib).run(model).unwrap();
        let mut runner = Runner::builder().build(&quantized).unwrap();
        let input = Tensor::random(Shape::nchw(1, 1, 28, 28), 7, 1.0);
        let profile = runner
            .execute(&[input], RunOptions::new().profile(true))
            .unwrap()
            .into_profile()
            .unwrap();
        for (tail, head) in [("pool1", "conv1"), ("pool2", "conv2")] {
            let record = profile.per_node.iter().find(|n| n.name == tail).unwrap();
            assert_eq!(record.fused_into.as_deref(), Some(head), "{tail}");
            assert_eq!(record.duration_ns, 0, "{tail}");
            assert_eq!(record.precision, vedliot_nnir::DataType::F32, "{tail}");
        }
        let quants: Vec<&str> = quantized
            .nodes()
            .iter()
            .filter(|n| matches!(n.op, Op::FakeQuant { .. }))
            .map(|n| n.name.as_str())
            .collect();
        assert_eq!(
            quants,
            [
                "t0.quant",
                "conv1.quant",
                "conv1.act.quant",
                "conv2.quant",
                "fc1.quant",
                "fc1.relu.quant",
                "fc2.quant",
                "fc3.quant"
            ]
        );
        assert!(!vedliot_nnir::analysis::identity_quants(&quantized).contains(&true));
        assert_eq!(profile.int8_nodes(), 5);
    }

    #[test]
    fn int8_lenet5_stores_six_values_as_codes() {
        // vbench's `runner-lenet-int8` model. Each value only INT8 nodes
        // read is stored as one byte per element. The graph input is read
        // in place, so the f32 arena holds only the 40-byte output; the
        // code arena holds 1,960 bytes, the most codes live at one step:
        // `t0.quant` and `pool1` while `conv1` runs.
        use vedliot_nnir::exec::MemoryPlan;
        let calib: Vec<Tensor> = (0..4)
            .map(|s| Tensor::random(Shape::nchw(1, 1, 28, 28), s + 1, 1.0))
            .collect();
        let model = zoo::lenet5(10).unwrap();
        let (quantized, _) = QuantizeInt8::with_calibration(calib).run(model).unwrap();
        let plan = MemoryPlan::plan(&quantized);
        let coded: Vec<(&str, usize)> = quantized
            .nodes()
            .iter()
            .filter(|n| plan.is_coded(n.output))
            .map(|n| {
                let elems = quantized.tensor_shape(n.output).unwrap().elem_count();
                (n.name.as_str(), elems)
            })
            .collect();
        assert_eq!(
            coded,
            [
                ("t0.quant", 784),
                ("pool1", 1176),
                ("pool2", 400),
                ("flatten", 400),
                ("fc1.relu.quant", 120),
                ("fc2.relu", 84)
            ]
        );
        assert_eq!(plan.peak_bytes(), 2000);
        // The runner runs the plan `MemoryPlan::plan` reports, on every
        // calibrated model of the INT8 tolerance test.
        let models = [
            (zoo::lenet5(10).unwrap(), Shape::nchw(1, 1, 28, 28)),
            (
                zoo::tiny_cnn("gesture", Shape::nchw(1, 3, 16, 16), &[8, 16], 4).unwrap(),
                Shape::nchw(1, 3, 16, 16),
            ),
            (
                zoo::conv1d_classifier("motor", 2, 64, &[8, 16], 3).unwrap(),
                Shape::nchw(1, 2, 1, 64),
            ),
        ];
        for (model, shape) in models {
            let calib = (0..4)
                .map(|s| Tensor::random(shape.clone(), s + 1, 1.0))
                .collect();
            let (quantized, _) = QuantizeInt8::with_calibration(calib).run(model).unwrap();
            let runner = Runner::builder().build(&quantized).unwrap();
            let plan = MemoryPlan::plan(&quantized);
            assert_eq!(runner.memory_plan(), &plan, "{}", quantized.name());
            assert!(
                quantized.nodes().iter().any(|n| plan.is_coded(n.output)),
                "{}",
                quantized.name()
            );
        }
    }

    #[test]
    fn fp16_round_trip_properties() {
        // Exactly representable values pass through.
        for x in [0.0f32, 1.0, -2.0, 0.5, 1024.0] {
            assert_eq!(round_to_f16(x), x);
        }
        // Relative error bounded by 2^-11 in the normal range.
        for i in 1..100 {
            let x = 0.123 * i as f32;
            let r = round_to_f16(x);
            assert!(((r - x) / x).abs() < 1.0 / 2048.0, "{x} -> {r}");
        }
        // Overflow saturates to infinity.
        assert!(round_to_f16(1e6).is_infinite());
        assert!(round_to_f16(-1e6).is_infinite());
        // Underflow flushes to zero.
        assert_eq!(round_to_f16(1e-9), 0.0);
    }

    #[test]
    fn fp16_pass_touches_all_weight_layers() {
        let g = cnn();
        let (converted, detail) = ConvertFp16::new().run(g).unwrap();
        converted.validate().unwrap();
        assert!(detail.starts_with("converted"));
        assert!(converted
            .nodes()
            .iter()
            .filter(|n| matches!(n.op, Op::Conv2d(_) | Op::BatchNorm))
            .all(|n| n.weights.is_explicit()));
    }

    #[test]
    fn pass_manager_runs_in_order_and_logs() {
        let g = cnn();
        let mut pm = PassManager::new();
        pm.push(FuseConvBn::new());
        pm.push(PruneConnections::new(0.5));
        pm.push(QuantizeInt8::new());
        assert_eq!(pm.len(), 3);
        let (out, logs) = pm.run(g).unwrap();
        out.validate().unwrap();
        assert_eq!(
            logs.iter().map(|l| l.pass.as_str()).collect::<Vec<_>>(),
            vec!["fuse-conv-bn", "prune-connections", "quantize-int8"]
        );
    }

    #[test]
    #[should_panic(expected = "sparsity must be in [0, 1)")]
    fn full_sparsity_is_rejected() {
        let _ = PruneConnections::new(1.0);
    }

    /// A pass that breaks a graph invariant (wrong explicit weight
    /// shape, smuggled in through `nodes_mut`).
    struct CorruptingPass;

    impl Pass for CorruptingPass {
        fn name(&self) -> &str {
            "corrupting-pass"
        }

        fn run(&self, mut graph: Graph) -> Result<(Graph, String), ToolchainError> {
            for node in graph.nodes_mut() {
                if matches!(node.op, Op::Conv2d(_)) {
                    node.weights =
                        WeightInit::Explicit(vec![Tensor::zeros(Shape::new(vec![1, 1, 1, 1]))]);
                    break;
                }
            }
            Ok((graph, "corrupted a conv".into()))
        }
    }

    /// A pass that silently changes the model's I/O interface.
    struct RebatchingPass;

    impl Pass for RebatchingPass {
        fn name(&self) -> &str {
            "rebatching-pass"
        }

        fn run(&self, graph: Graph) -> Result<(Graph, String), ToolchainError> {
            Ok((graph.with_batch(2)?, "doubled the batch".into()))
        }
    }

    #[test]
    fn verify_after_transform_rejects_invariant_breakers() {
        let mut pm = PassManager::new();
        pm.push(CorruptingPass);
        let err = pm.run(cnn()).unwrap_err();
        match err {
            ToolchainError::Graph(vedliot_nnir::NnirError::VerifierRejected {
                code,
                detail,
                ..
            }) => {
                assert_eq!(code, "V005");
                assert!(detail.contains("corrupting-pass"), "{detail}");
            }
            other => panic!("expected VerifierRejected, got {other:?}"),
        }
    }

    #[test]
    fn verify_after_transform_rejects_interface_changes() {
        let mut pm = PassManager::new();
        pm.push(RebatchingPass);
        let err = pm.run(cnn()).unwrap_err();
        match err {
            ToolchainError::Graph(vedliot_nnir::NnirError::VerifierRejected { code, .. }) => {
                assert_eq!(code, "T001");
            }
            other => panic!("expected VerifierRejected, got {other:?}"),
        }
    }
}
