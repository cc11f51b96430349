//! The Deep Compression pipeline (Han, Mao & Dally — the paper's
//! reference \[7\] and the source of its "compressed down to 49x" claim).
//!
//! Three stages, exactly as in the original: (1) connection pruning,
//! (2) trained quantization via k-means weight sharing, (3) Huffman
//! coding of the cluster indices and the zero-run lengths of the sparse
//! weight stream. Compressed sizes are *real encoded sizes* (payload +
//! codebooks + Huffman tables), not entropy estimates, and the
//! compressed model can be reconstructed exactly.

use crate::error::ToolchainError;
use crate::huffman;
use crate::kmeans::kmeans_1d;
use serde::{Deserialize, Serialize};
use vedliot_nnir::exec::Runner;
use vedliot_nnir::graph::WeightInit;
use vedliot_nnir::{Graph, Op, Tensor};

/// Configuration of the Deep Compression pipeline.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct CompressionConfig {
    /// Fraction of weights pruned per layer (Han prunes ~90% of FC).
    pub sparsity: f64,
    /// Bits per cluster index (2^bits centroids; Han uses 5 for FC).
    pub cluster_bits: u8,
    /// Maximum zero-run length symbol (runs longer than this are split).
    pub max_run: u16,
    /// k-means iterations.
    pub kmeans_iterations: usize,
}

impl Default for CompressionConfig {
    fn default() -> Self {
        CompressionConfig {
            sparsity: 0.9,
            cluster_bits: 5,
            max_run: 255,
            kmeans_iterations: 25,
        }
    }
}

/// Per-layer compression accounting.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct LayerCompression {
    /// Layer name.
    pub name: String,
    /// Original dense f32 size in bytes (main weights only).
    pub original_bytes: usize,
    /// Encoded cluster-index stream size (payload + Huffman table).
    pub index_bytes: usize,
    /// Encoded zero-run stream size.
    pub run_bytes: usize,
    /// Codebook size (centroids at f32).
    pub codebook_bytes: usize,
    /// Number of surviving (non-zero) weights.
    pub nonzeros: usize,
    /// Total weight count.
    pub total_weights: usize,
}

impl LayerCompression {
    /// Total compressed size in bytes.
    #[must_use]
    pub fn compressed_bytes(&self) -> usize {
        self.index_bytes + self.run_bytes + self.codebook_bytes
    }

    /// Compression ratio for this layer.
    #[must_use]
    pub fn ratio(&self) -> f64 {
        if self.compressed_bytes() == 0 {
            return 0.0;
        }
        self.original_bytes as f64 / self.compressed_bytes() as f64
    }
}

/// Whole-model compression report.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct CompressionReport {
    /// Model name.
    pub model: String,
    /// Configuration used.
    pub config: CompressionConfig,
    /// Per-layer records.
    pub layers: Vec<LayerCompression>,
    /// Bias and other uncompressed parameter bytes (stored raw in both
    /// the original and compressed model).
    pub raw_bytes: usize,
}

impl CompressionReport {
    /// Original model size in bytes (all parameters at f32).
    #[must_use]
    pub fn original_bytes(&self) -> usize {
        self.layers.iter().map(|l| l.original_bytes).sum::<usize>() + self.raw_bytes
    }

    /// Compressed model size in bytes.
    #[must_use]
    pub fn compressed_bytes(&self) -> usize {
        self.layers
            .iter()
            .map(LayerCompression::compressed_bytes)
            .sum::<usize>()
            + self.raw_bytes
    }

    /// Whole-model compression ratio — the paper's "49×" quantity.
    #[must_use]
    pub fn ratio(&self) -> f64 {
        let c = self.compressed_bytes();
        if c == 0 {
            return 0.0;
        }
        self.original_bytes() as f64 / c as f64
    }

    /// Overall weight sparsity achieved by the pruning stage.
    #[must_use]
    pub fn sparsity(&self) -> f64 {
        let total: usize = self.layers.iter().map(|l| l.total_weights).sum();
        let nz: usize = self.layers.iter().map(|l| l.nonzeros).sum();
        if total == 0 {
            return 0.0;
        }
        1.0 - nz as f64 / total as f64
    }
}

/// Encodes one pruned, clustered weight stream and returns exact sizes.
///
/// The sparse format follows Deep Compression: for every non-zero weight
/// we store the zero-run distance from the previous non-zero (split when
/// it exceeds `max_run`, inserting a phantom zero-valued entry exactly as
/// Han et al. do) and the cluster index; both streams are Huffman-coded.
fn encode_sparse(assignments: &[Option<u16>], clusters: usize, max_run: u16) -> (usize, usize) {
    let mut runs: Vec<u16> = Vec::new();
    let mut indices: Vec<u16> = Vec::new();
    let mut run = 0u16;
    for a in assignments {
        match a {
            Some(idx) => {
                runs.push(run);
                indices.push(*idx);
                run = 0;
            }
            None => {
                run += 1;
                if run == max_run {
                    // Phantom entry: maximal run with a reserved index.
                    runs.push(run);
                    indices.push(0);
                    run = 0;
                }
            }
        }
    }
    let run_stream = huffman::encode(&runs, max_run as usize + 1);
    let index_stream = huffman::encode(&indices, clusters.max(1));
    (run_stream.total_bytes(), index_stream.total_bytes())
}

/// Runs the full pipeline on a model, returning the reconstructed
/// (pruned + clustered) graph and the size accounting.
///
/// The returned graph is exactly what a decoder would reconstruct: every
/// surviving weight is replaced by its cluster centroid. Accuracy of the
/// compressed model is measured by evaluating this graph.
///
/// # Errors
///
/// Returns [`ToolchainError::InvalidConfig`] for out-of-range parameters
/// or propagates graph errors.
pub fn deep_compress(
    graph: &Graph,
    config: &CompressionConfig,
) -> Result<(Graph, CompressionReport), ToolchainError> {
    if !(0.0..1.0).contains(&config.sparsity) {
        return Err(ToolchainError::InvalidConfig(format!(
            "sparsity {} outside [0, 1)",
            config.sparsity
        )));
    }
    if config.cluster_bits == 0 || config.cluster_bits > 12 {
        return Err(ToolchainError::InvalidConfig(format!(
            "cluster_bits {} outside 1..=12",
            config.cluster_bits
        )));
    }

    let mut out = graph.clone();
    let materialized: Vec<Option<Vec<Tensor>>> = {
        let exec = Runner::builder().build(&out)?;
        out.nodes()
            .iter()
            .map(|node| {
                if matches!(node.op, Op::Conv2d(_) | Op::Dense { .. }) {
                    exec.node_weights(node).ok()
                } else {
                    None
                }
            })
            .collect()
    };

    let mut layers = Vec::new();
    let mut raw_bytes = 0usize;
    // Count non-compressible parameters (biases, batch norms).
    {
        let exec = Runner::builder().build(graph)?;
        for node in graph.nodes() {
            match node.op {
                Op::Conv2d(_) | Op::Dense { .. } => {
                    if let Ok(w) = exec.node_weights(node) {
                        for t in w.iter().skip(1) {
                            raw_bytes += t.shape().elem_count() * 4;
                        }
                    }
                }
                Op::BatchNorm => {
                    if let Ok(w) = exec.node_weights(node) {
                        for t in &w {
                            raw_bytes += t.shape().elem_count() * 4;
                        }
                    }
                }
                _ => {}
            }
        }
    }

    // Stage 1 threshold: a single *global* magnitude cut across every
    // prunable tensor. A uniform per-layer quota starves small decisive
    // layers (a 4-class head pruned to 10% keeps ~6 weights and the
    // model collapses); ranking all weights together moves the pruning
    // budget to the wide hidden layers where most near-zero weights
    // actually live, at identical overall sparsity.
    let threshold = {
        let mut magnitudes: Vec<f32> = materialized
            .iter()
            .flatten()
            .flat_map(|w| w[0].data().iter().map(|x| x.abs()))
            .collect();
        let total = magnitudes.len();
        let keep = total - ((total as f64) * config.sparsity).round() as usize;
        magnitudes.sort_by(|a, b| b.partial_cmp(a).unwrap_or(std::cmp::Ordering::Equal));
        if keep == 0 {
            f32::INFINITY
        } else if keep >= total {
            0.0
        } else {
            magnitudes[keep - 1]
        }
    };

    for (node, weights) in out.nodes_mut().iter_mut().zip(materialized) {
        let Some(mut weights) = weights else { continue };
        let w = &mut weights[0];
        let n = w.data().len();
        let mut surviving: Vec<f32> = Vec::new();
        let mut survivor_mask: Vec<bool> = Vec::with_capacity(n);
        for &x in w.data() {
            let alive = x.abs() >= threshold && threshold != f32::INFINITY && x != 0.0;
            survivor_mask.push(alive);
            if alive {
                surviving.push(x);
            }
        }

        // Stage 2: weight sharing via k-means.
        let k = 1usize << config.cluster_bits;
        let clustering = kmeans_1d(&surviving, k, config.kmeans_iterations);

        // Stage 3: Huffman-coded sparse encoding.
        let mut assignments: Vec<Option<u16>> = Vec::with_capacity(n);
        let mut next = 0usize;
        for &alive in &survivor_mask {
            if alive {
                assignments.push(Some(clustering.assignments[next]));
                next += 1;
            } else {
                assignments.push(None);
            }
        }
        let (run_bytes, index_bytes) = encode_sparse(
            &assignments,
            clustering.centroids.len().max(1),
            config.max_run,
        );

        // Write reconstructed weights back.
        let rec = clustering.reconstruct();
        let mut next = 0usize;
        for (x, &alive) in w.data_mut().iter_mut().zip(survivor_mask.iter()) {
            *x = if alive {
                let v = rec[next];
                next += 1;
                v
            } else {
                0.0
            };
        }
        node.weights = WeightInit::Explicit(weights);

        layers.push(LayerCompression {
            name: node.name.clone(),
            original_bytes: n * 4,
            index_bytes,
            run_bytes,
            codebook_bytes: clustering.centroids.len() * 4,
            nonzeros: surviving.len(),
            total_weights: n,
        });
    }

    out.validate()?;
    Ok((
        out,
        CompressionReport {
            model: graph.name().to_string(),
            config: *config,
            layers,
            raw_bytes,
        },
    ))
}

#[cfg(test)]
mod tests {
    use super::*;
    use vedliot_nnir::dataset::gaussian_prototypes;
    use vedliot_nnir::train::{evaluate, mlp, train_mlp, TrainConfig};
    use vedliot_nnir::Shape;

    fn trained_mlp() -> (Graph, vedliot_nnir::dataset::ClassificationSet) {
        let data = gaussian_prototypes(&Shape::nf(1, 64), 4, 40, 3.0, 21);
        let mut model = mlp("lenet-300-100-ish", 64, &[48, 24], 4).unwrap();
        train_mlp(&mut model, &data, &TrainConfig::default()).unwrap();
        (model, data)
    }

    #[test]
    fn compression_achieves_order_of_magnitude_ratio() {
        let (model, _) = trained_mlp();
        let (_, report) = deep_compress(&model, &CompressionConfig::default()).unwrap();
        let ratio = report.ratio();
        assert!(ratio > 8.0, "compression ratio {ratio:.1} too small");
        assert!(report.sparsity() > 0.85);
    }

    #[test]
    fn compressed_model_keeps_accuracy() {
        // §III: "compressed … with negligible accuracy loss".
        let (model, data) = trained_mlp();
        let base = evaluate(&model, &data).unwrap().accuracy();
        let (compressed, _) = deep_compress(
            &model,
            &CompressionConfig {
                sparsity: 0.8,
                ..CompressionConfig::default()
            },
        )
        .unwrap();
        let acc = evaluate(&compressed, &data).unwrap().accuracy();
        assert!(
            acc >= base - 0.08,
            "accuracy dropped too far: {base:.3} -> {acc:.3}"
        );
    }

    #[test]
    fn more_sparsity_means_smaller_model() {
        let (model, _) = trained_mlp();
        let lo = deep_compress(
            &model,
            &CompressionConfig {
                sparsity: 0.5,
                ..CompressionConfig::default()
            },
        )
        .unwrap()
        .1;
        let hi = deep_compress(
            &model,
            &CompressionConfig {
                sparsity: 0.95,
                ..CompressionConfig::default()
            },
        )
        .unwrap()
        .1;
        assert!(hi.compressed_bytes() < lo.compressed_bytes());
        assert!(hi.ratio() > lo.ratio());
    }

    #[test]
    fn fewer_cluster_bits_shrink_payload() {
        let (model, _) = trained_mlp();
        let b8 = deep_compress(
            &model,
            &CompressionConfig {
                cluster_bits: 8,
                ..CompressionConfig::default()
            },
        )
        .unwrap()
        .1;
        let b3 = deep_compress(
            &model,
            &CompressionConfig {
                cluster_bits: 3,
                ..CompressionConfig::default()
            },
        )
        .unwrap()
        .1;
        assert!(b3.compressed_bytes() <= b8.compressed_bytes());
    }

    #[test]
    fn reconstructed_weights_use_only_centroid_values() {
        let (model, _) = trained_mlp();
        let config = CompressionConfig {
            cluster_bits: 3,
            ..CompressionConfig::default()
        };
        let (compressed, _) = deep_compress(&model, &config).unwrap();
        let exec = Runner::builder().build(&compressed).unwrap();
        for node in compressed.nodes() {
            if matches!(node.op, Op::Dense { .. }) {
                let w = &exec.node_weights(node).unwrap()[0];
                let mut distinct: Vec<f32> =
                    w.data().iter().copied().filter(|&x| x != 0.0).collect();
                distinct.sort_by(|a, b| a.partial_cmp(b).unwrap());
                distinct.dedup();
                assert!(
                    distinct.len() <= 8,
                    "layer {} has {} distinct non-zero values with 3-bit clustering",
                    node.name,
                    distinct.len()
                );
            }
        }
    }

    #[test]
    fn invalid_configs_are_rejected() {
        let (model, _) = trained_mlp();
        assert!(deep_compress(
            &model,
            &CompressionConfig {
                sparsity: 1.0,
                ..CompressionConfig::default()
            }
        )
        .is_err());
        assert!(deep_compress(
            &model,
            &CompressionConfig {
                cluster_bits: 0,
                ..CompressionConfig::default()
            }
        )
        .is_err());
    }

    #[test]
    fn report_accounting_is_self_consistent() {
        let (model, _) = trained_mlp();
        let (_, report) = deep_compress(&model, &CompressionConfig::default()).unwrap();
        let layer_sum: usize = report
            .layers
            .iter()
            .map(LayerCompression::compressed_bytes)
            .sum();
        assert_eq!(report.compressed_bytes(), layer_sum + report.raw_bytes);
        for layer in &report.layers {
            assert!(layer.nonzeros <= layer.total_weights);
            assert!(layer.ratio() > 1.0, "layer {} did not compress", layer.name);
        }
    }
}
