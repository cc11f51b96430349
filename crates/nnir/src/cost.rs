//! Static cost analysis of graphs.
//!
//! Produces the per-layer and whole-model quantities that drive the
//! accelerator performance models in `vedliot-accel` (paper Figs. 3–4):
//! MAC counts, element-wise operation counts, parameter counts, weight
//! storage by datatype, and peak activation memory under a simple
//! last-use liveness schedule.

use crate::dtype::DataType;
use crate::graph::Graph;
use crate::NnirError;
use serde::{Deserialize, Serialize};

/// Per-node cost record.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct NodeCost {
    /// Layer name.
    pub name: String,
    /// Operator description (e.g. `Conv2d(64o, 3x3/1, g1)`).
    pub op: String,
    /// Multiply-accumulate count.
    pub macs: u64,
    /// Element-wise operation count.
    pub elementwise: u64,
    /// Learned parameter count.
    pub params: usize,
    /// Output activation element count.
    pub output_elems: usize,
    /// Bytes read from weights (at f32) plus input activations — a proxy
    /// for off-chip traffic used by the roofline model.
    pub input_elems: usize,
}

/// Whole-graph cost summary.
///
/// ```
/// use vedliot_nnir::{zoo, cost::CostReport, DataType};
///
/// # fn main() -> Result<(), vedliot_nnir::NnirError> {
/// let model = zoo::lenet5(10)?;
/// let cost = CostReport::of(&model)?;
/// assert!(cost.total_params > 0);
/// assert!(cost.weight_bytes(DataType::I8) < cost.weight_bytes(DataType::F32));
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct CostReport {
    /// Model name.
    pub model: String,
    /// Batch size the graph was analyzed at.
    pub batch: usize,
    /// Per-node records, in schedule order.
    pub per_node: Vec<NodeCost>,
    /// Total MACs for one forward pass (at the analyzed batch).
    pub total_macs: u64,
    /// Total element-wise operations.
    pub total_elementwise: u64,
    /// Total learned parameters.
    pub total_params: usize,
    /// Peak activation element count under last-use liveness.
    pub peak_activation_elems: usize,
}

impl CostReport {
    /// Analyzes a graph.
    ///
    /// # Errors
    ///
    /// [`NnirError::VerifierRejected`] for a graph the execution verifier
    /// rejects (the report multiplies extents unchecked); a
    /// builder-produced graph cannot fail here.
    pub fn of(graph: &Graph) -> Result<CostReport, NnirError> {
        crate::analysis::verify_for_execution(graph)?;
        let mut per_node = Vec::with_capacity(graph.nodes().len());
        let mut total_macs = 0u64;
        let mut total_elementwise = 0u64;
        let mut total_params = 0usize;

        // Last-use index per tensor for liveness.
        let mut last_use = vec![0usize; graph.tensor_count()];
        for (step, node) in graph.nodes().iter().enumerate() {
            for t in &node.inputs {
                last_use[t.0] = step;
            }
        }
        for t in graph.outputs() {
            last_use[t.0] = graph.nodes().len();
        }

        let mut live: u64 = graph
            .inputs()
            .iter()
            .map(|t| graph.tensor_shape(*t).map_or(0, |s| s.elem_count() as u64))
            .sum();
        let mut peak = live;

        for (step, node) in graph.nodes().iter().enumerate() {
            let in_shapes = graph.node_input_shapes(node);
            let out_shape = graph
                .tensor_shape(node.output)
                .ok_or(NnirError::UnknownTensor(node.output.0))?;
            let macs = node.op.macs(&in_shapes, out_shape);
            let elementwise = node.op.elementwise_ops(&in_shapes, out_shape);
            let params = node.op.param_count(&in_shapes);
            total_macs = total_macs.saturating_add(macs);
            total_elementwise = total_elementwise.saturating_add(elementwise);
            total_params += params;
            per_node.push(NodeCost {
                name: node.name.clone(),
                op: node.op.to_string(),
                macs,
                elementwise,
                params,
                output_elems: out_shape.elem_count(),
                input_elems: in_shapes.iter().map(|s| s.elem_count()).sum(),
            });

            // Liveness update: output becomes live, inputs whose last use
            // was this step die.
            live += out_shape.elem_count() as u64;
            peak = peak.max(live);
            for t in &node.inputs {
                if last_use[t.0] == step {
                    let elems = graph.tensor_shape(*t).map_or(0, |s| s.elem_count() as u64);
                    live = live.saturating_sub(elems);
                }
            }
        }

        Ok(CostReport {
            model: graph.name().to_string(),
            batch: graph.batch(),
            per_node,
            total_macs,
            total_elementwise,
            total_params,
            peak_activation_elems: peak as usize,
        })
    }

    /// Total operations (2 × MACs + element-wise), matching the GOPS
    /// convention the paper's figures use (one MAC = two operations).
    #[must_use]
    pub fn total_ops(&self) -> u64 {
        2 * self.total_macs + self.total_elementwise
    }

    /// Weight storage in bytes if all parameters are stored at `dtype`.
    #[must_use]
    pub fn weight_bytes(&self, dtype: DataType) -> usize {
        dtype.storage_bytes(self.total_params)
    }

    /// Peak activation memory in bytes at `dtype`.
    #[must_use]
    pub fn activation_bytes(&self, dtype: DataType) -> usize {
        dtype.storage_bytes(self.peak_activation_elems)
    }

    /// MACs per parameter — the arithmetic-intensity proxy that separates
    /// compute-bound networks (ResNet) from memory-bound ones (MobileNet).
    #[must_use]
    pub fn macs_per_param(&self) -> f64 {
        if self.total_params == 0 {
            return 0.0;
        }
        self.total_macs as f64 / self.total_params as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::graph::GraphBuilder;
    use crate::ops::{ActKind, Conv2dAttrs, Op};
    use crate::shape::Shape;

    fn small() -> Graph {
        let mut b = GraphBuilder::new("small");
        let x = b.input(Shape::nchw(1, 3, 8, 8));
        let c = b
            .apply("conv", Op::Conv2d(Conv2dAttrs::same(4, 3, 1)), &[x])
            .unwrap();
        let r = b
            .apply("relu", Op::Activation(ActKind::Relu), &[c])
            .unwrap();
        let f = b.apply("flat", Op::Flatten, &[r]).unwrap();
        let y = b
            .apply(
                "fc",
                Op::Dense {
                    out_features: 10,
                    bias: true,
                },
                &[f],
            )
            .unwrap();
        b.finish(vec![y])
    }

    #[test]
    fn totals_sum_per_node() {
        let report = CostReport::of(&small()).unwrap();
        let macs: u64 = report.per_node.iter().map(|n| n.macs).sum();
        let params: usize = report.per_node.iter().map(|n| n.params).sum();
        assert_eq!(macs, report.total_macs);
        assert_eq!(params, report.total_params);
        // conv: 4*8*8 outputs * 3*9 = 6912 MACs; fc: 10*256 = 2560.
        assert_eq!(report.total_macs, 6912 + 2560);
        // conv weights 4*3*3*3=108, fc 10*256+10=2570.
        assert_eq!(report.total_params, 108 + 2570);
    }

    #[test]
    fn macs_scale_linearly_with_batch() {
        let g = small();
        let r1 = CostReport::of(&g).unwrap();
        let r4 = CostReport::of(&g.with_batch(4).unwrap()).unwrap();
        assert_eq!(r4.total_macs, 4 * r1.total_macs);
        // Parameters do not scale with batch.
        assert_eq!(r4.total_params, r1.total_params);
    }

    #[test]
    fn quantized_weight_bytes_shrink_4x() {
        let report = CostReport::of(&small()).unwrap();
        assert_eq!(
            report.weight_bytes(DataType::F32),
            4 * report.weight_bytes(DataType::I8)
        );
    }

    #[test]
    fn peak_activation_at_least_largest_tensor() {
        let report = CostReport::of(&small()).unwrap();
        // Largest single tensor is the conv output (4*8*8 = 256) plus its
        // live input (3*8*8 = 192).
        assert!(report.peak_activation_elems >= 256);
    }

    #[test]
    fn total_ops_uses_two_ops_per_mac() {
        let report = CostReport::of(&small()).unwrap();
        assert_eq!(
            report.total_ops(),
            2 * report.total_macs + report.total_elementwise
        );
    }
}
