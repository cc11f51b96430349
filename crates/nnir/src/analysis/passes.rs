//! The concrete analysis passes: Error-severity structural checks,
//! Warning-severity hygiene checks, and the Info-severity range /
//! quantization analyses built on [`super::dataflow`].

use super::dataflow::{value_ranges, Liveness, QuantSafety, INT8_UNIT_GRID};
use super::diagnostics::{text_line_of_node, Code, Diagnostic};
use super::framework::AnalysisPass;
use crate::error::NnirError;
use crate::graph::{Graph, NodeId, TensorId, WeightInit};
use crate::ops::Op;
use crate::shape::Shape;
use std::collections::HashMap;

// --------------------------------------------------------------------
// Error-severity passes
// --------------------------------------------------------------------

/// Refuses every stored tensor shape and weight shape whose element
/// count, or byte count as f32, overflows `usize` (`V010`): an explicit
/// weight's stored shape, and the shapes a seeded node's weights would
/// materialize with ([`crate::graph::Node::weight_shapes`]). It runs
/// first: the passes after it, and everything that takes a verified
/// graph (the cost model, the arena planner, the kernels), multiply
/// extents unchecked, which panics in a debug build and wraps to a
/// wrong small size in a release build.
pub struct ElementCountCheck;

impl AnalysisPass for ElementCountCheck {
    fn name(&self) -> &'static str {
        "element-count"
    }

    fn run(&self, graph: &Graph, out: &mut Vec<Diagnostic>) {
        for t in (0..graph.tensor_count()).map(TensorId) {
            let Some(shape) = graph.tensor_shape(t) else {
                continue;
            };
            if shape.checked_elem_count().is_none() {
                let d = Diagnostic::new(
                    Code::ElementCountOverflow,
                    format!("tensor {t} of shape {shape} has more elements than usize counts"),
                )
                .at_tensor(t);
                out.push(
                    match graph.producer(t).and_then(|p| graph.nodes().get(p.0)) {
                        Some(node) => d.at_node(graph, node),
                        None => d,
                    },
                );
            }
        }
        for node in graph.nodes() {
            let shapes: Vec<Shape> = match &node.weights {
                WeightInit::Explicit(tensors) => {
                    tensors.iter().map(|t| t.shape().clone()).collect()
                }
                WeightInit::Seeded(_) => {
                    let ins: Vec<&Shape> = node
                        .inputs
                        .iter()
                        .filter_map(|&t| graph.tensor_shape(t))
                        .collect();
                    node.weight_shapes(&ins)
                }
                WeightInit::None => continue,
            };
            for shape in shapes.iter().filter(|s| s.checked_elem_count().is_none()) {
                out.push(
                    Diagnostic::new(
                        Code::ElementCountOverflow,
                        format!("weight of shape {shape} has more elements than usize counts"),
                    )
                    .at_node(graph, node),
                );
            }
        }
    }
}

/// Checks node ids, tensor references, producer uniqueness, dangling
/// edges and the graph I/O interface (`V001`, `V002`, `V006`, `V007`,
/// `V009`).
pub struct StructureCheck;

impl AnalysisPass for StructureCheck {
    fn name(&self) -> &'static str {
        "structure"
    }

    fn run(&self, graph: &Graph, out: &mut Vec<Diagnostic>) {
        let tensor_count = graph.tensor_count();
        let mut produced_by: Vec<Option<NodeId>> = vec![None; tensor_count];
        for (i, node) in graph.nodes().iter().enumerate() {
            if node.id.0 != i {
                // Provenance by schedule position — the recorded id is
                // exactly what is wrong here.
                let mut d = Diagnostic::new(
                    Code::NodeIdMismatch,
                    format!("node at schedule index {i} records id {}", node.id),
                )
                .with_source(NnirError::UnknownNode(node.id.0));
                d.node = Some(NodeId(i));
                d.node_name = Some(node.name.clone());
                d.text_line = text_line_of_node(graph, NodeId(i));
                out.push(d);
            }
            for &t in &node.inputs {
                if t.0 >= tensor_count {
                    out.push(
                        Diagnostic::new(
                            Code::UnknownTensorRef,
                            format!("input {t} is outside the graph's {tensor_count} tensors"),
                        )
                        .at_node(graph, node)
                        .at_tensor(t)
                        .with_source(NnirError::UnknownTensor(t.0)),
                    );
                } else if graph.producer(t).is_none() && !graph.inputs().contains(&t) {
                    out.push(
                        Diagnostic::new(
                            Code::DanglingEdge,
                            format!("input {t} has no producer and is not a graph input"),
                        )
                        .at_node(graph, node)
                        .at_tensor(t),
                    );
                }
            }
            if node.output.0 >= tensor_count {
                out.push(
                    Diagnostic::new(
                        Code::UnknownTensorRef,
                        format!(
                            "output {} is outside the graph's {tensor_count} tensors",
                            node.output
                        ),
                    )
                    .at_node(graph, node)
                    .at_tensor(node.output)
                    .with_source(NnirError::UnknownTensor(node.output.0)),
                );
            } else if let Some(first) = produced_by[node.output.0] {
                out.push(
                    Diagnostic::new(
                        Code::DuplicateProducer,
                        format!("tensor {} is already produced by {first}", node.output),
                    )
                    .at_node(graph, node)
                    .at_tensor(node.output),
                );
            } else {
                produced_by[node.output.0] = Some(node.id);
            }
        }
        for &t in graph.inputs().iter().chain(graph.outputs()) {
            if t.0 >= tensor_count {
                out.push(
                    Diagnostic::new(
                        Code::BadInterface,
                        format!("graph interface references unknown tensor {t}"),
                    )
                    .at_tensor(t)
                    .with_source(NnirError::UnknownTensor(t.0)),
                );
            }
        }
    }
}

/// Checks the topological schedule: every consumed tensor must be
/// produced strictly earlier (`V003`; a violation is a cycle once the
/// schedule is unrolled).
pub struct ScheduleCheck;

impl AnalysisPass for ScheduleCheck {
    fn name(&self) -> &'static str {
        "schedule"
    }

    fn run(&self, graph: &Graph, out: &mut Vec<Diagnostic>) {
        for (i, node) in graph.nodes().iter().enumerate() {
            for &t in &node.inputs {
                if t.0 >= graph.tensor_count() {
                    continue; // reported by StructureCheck
                }
                if let Some(p) = graph.producer(t) {
                    if p.0 >= i {
                        out.push(
                            Diagnostic::new(
                                Code::ScheduleViolation,
                                format!("input {t} is produced by {p}, at or after this node"),
                            )
                            .at_node(graph, node)
                            .at_tensor(t)
                            .with_source(NnirError::GraphCyclic),
                        );
                    }
                }
            }
        }
    }
}

/// Full dataflow verification: re-derives every output shape from the
/// inputs through [`Op::infer_shape`] and cross-checks stored
/// annotations and explicit weight layouts (`V004`, `V005`, `V008`).
pub struct DataflowCheck;

impl AnalysisPass for DataflowCheck {
    fn name(&self) -> &'static str {
        "dataflow"
    }

    fn run(&self, graph: &Graph, out: &mut Vec<Diagnostic>) {
        for node in graph.nodes() {
            // Nodes with unresolvable references are already fatal;
            // re-deriving their dataflow would index out of bounds.
            if node.output.0 >= graph.tensor_count()
                || node.inputs.iter().any(|t| t.0 >= graph.tensor_count())
            {
                continue;
            }
            let in_shapes: Vec<&Shape> = node
                .inputs
                .iter()
                .filter_map(|t| graph.tensor_shape(*t))
                .collect();
            if in_shapes.len() != node.inputs.len() {
                continue; // bounds already checked; shapes must resolve
            }
            if in_shapes.iter().any(|s| s.checked_elem_count().is_none()) {
                continue; // V010: inference would multiply the extents
            }
            let inferred = match node.op.infer_shape(&in_shapes) {
                Ok(s) => s,
                Err(e) => {
                    out.push(
                        Diagnostic::new(
                            Code::OperatorContract,
                            format!("shape inference rejects this node: {e}"),
                        )
                        .at_node(graph, node)
                        .with_source(e),
                    );
                    continue;
                }
            };
            let Some(stored) = graph.tensor_shape(node.output) else {
                continue; // bounds checked above
            };
            if &inferred != stored {
                out.push(
                    Diagnostic::new(
                        Code::ShapeDisagreement,
                        format!("records {stored} but re-inference gives {inferred}"),
                    )
                    .at_node(graph, node)
                    .at_tensor(node.output)
                    .with_source(NnirError::ShapeMismatch {
                        op: node.op.name().into(),
                        detail: format!(
                            "node {} records {stored} but re-inference gives {inferred}",
                            node.name
                        ),
                    }),
                );
            }
            if let WeightInit::Explicit(tensors) = &node.weights {
                let expected = node.weight_shapes(&in_shapes);
                if tensors.len() != expected.len()
                    || tensors.iter().zip(&expected).any(|(t, s)| t.shape() != s)
                {
                    out.push(
                        Diagnostic::new(
                            Code::WeightShapeMismatch,
                            format!(
                                "explicit weights [{}] do not match required [{}]",
                                tensors
                                    .iter()
                                    .map(|t| t.shape().to_string())
                                    .collect::<Vec<_>>()
                                    .join(", "),
                                expected
                                    .iter()
                                    .map(ToString::to_string)
                                    .collect::<Vec<_>>()
                                    .join(", ")
                            ),
                        )
                        .at_node(graph, node)
                        .with_source(NnirError::ShapeMismatch {
                            op: node.op.name().into(),
                            detail: format!("node {} has inconsistent weight shapes", node.name),
                        }),
                    );
                }
            }
        }
    }
}

// --------------------------------------------------------------------
// Warning-severity passes
// --------------------------------------------------------------------

/// Flags nodes whose results cannot reach any graph output (`W101`)
/// and graph inputs nothing consumes (`W106`).
pub struct DeadCodeCheck;

impl AnalysisPass for DeadCodeCheck {
    fn name(&self) -> &'static str {
        "dead-code"
    }

    fn run(&self, graph: &Graph, out: &mut Vec<Diagnostic>) {
        let n = graph.nodes().len();
        let mut live = vec![false; n];
        let mut stack: Vec<NodeId> = graph
            .outputs()
            .iter()
            .filter_map(|&t| graph.producer(t))
            .collect();
        while let Some(id) = stack.pop() {
            if id.0 >= n || live[id.0] {
                continue;
            }
            live[id.0] = true;
            for &t in &graph.nodes()[id.0].inputs {
                if let Some(p) = graph.producer(t) {
                    stack.push(p);
                }
            }
        }
        for (i, node) in graph.nodes().iter().enumerate() {
            if !live[i] {
                out.push(
                    Diagnostic::new(
                        Code::DeadNode,
                        "result never reaches a graph output".to_string(),
                    )
                    .at_node(graph, node),
                );
            }
        }
        let consumed: Vec<bool> = {
            let fanout = graph.fanout();
            fanout.iter().map(|c| !c.is_empty()).collect()
        };
        for &t in graph.inputs() {
            if t.0 < consumed.len() && !consumed[t.0] && !graph.outputs().contains(&t) {
                out.push(
                    Diagnostic::new(Code::UnusedInput, "graph input is never consumed")
                        .at_tensor(t),
                );
            }
        }
    }
}

/// Flags produced-but-never-read values via the liveness analysis
/// (`W107`): a tensor some node writes that nothing consumes and the
/// interface does not export. Its arena slot is pure peak-memory
/// waste — exactly what the memory planner cannot recover by itself.
pub struct DeadValueCheck;

impl AnalysisPass for DeadValueCheck {
    fn name(&self) -> &'static str {
        "dead-value"
    }

    fn run(&self, graph: &Graph, out: &mut Vec<Diagnostic>) {
        let liveness = Liveness::of(graph);
        for t in liveness.dead_values(graph) {
            let d = Diagnostic::new(
                Code::DeadValue,
                "value is produced but never consumed and never exported; its arena slot is wasted",
            );
            match graph.producer(t).and_then(|p| graph.nodes().get(p.0)) {
                Some(node) => out.push(d.at_node(graph, node).at_tensor(t)),
                None => out.push(d.at_tensor(t)),
            }
        }
    }
}

/// Flags duplicate node names (`W102`) and weighted nodes sharing a
/// weight seed (`W103` — they would materialize identical parameters).
pub struct NamingCheck;

impl AnalysisPass for NamingCheck {
    fn name(&self) -> &'static str {
        "naming"
    }

    fn run(&self, graph: &Graph, out: &mut Vec<Diagnostic>) {
        let mut names: HashMap<&str, NodeId> = HashMap::new();
        let mut seeds: HashMap<u64, NodeId> = HashMap::new();
        for node in graph.nodes() {
            if let Some(&first) = names.get(node.name.as_str()) {
                out.push(
                    Diagnostic::new(
                        Code::DuplicateName,
                        format!("name is already used by {first}"),
                    )
                    .at_node(graph, node),
                );
            } else {
                names.insert(node.name.as_str(), node.id);
            }
            let has_weights = {
                let in_shapes: Vec<&Shape> = node
                    .inputs
                    .iter()
                    .filter_map(|t| graph.tensor_shape(*t))
                    .collect();
                in_shapes.len() == node.inputs.len() && !node.weight_shapes(&in_shapes).is_empty()
            };
            if has_weights {
                if let WeightInit::Seeded(s) = node.weights {
                    if let Some(&first) = seeds.get(&s) {
                        out.push(
                            Diagnostic::new(
                                Code::WeightAliasing,
                                format!("weight seed {s} is already used by {first}"),
                            )
                            .at_node(graph, node),
                        );
                    } else {
                        seeds.insert(s, node.id);
                    }
                }
            }
        }
    }
}

/// Flags graphs whose inputs disagree on the leading batch dimension,
/// or whose nodes change it mid-graph (`W104`).
pub struct BatchDimCheck;

impl AnalysisPass for BatchDimCheck {
    fn name(&self) -> &'static str {
        "batch-dim"
    }

    fn run(&self, graph: &Graph, out: &mut Vec<Diagnostic>) {
        let mut batches = graph
            .inputs()
            .iter()
            .filter_map(|&t| graph.tensor_shape(t))
            .map(Shape::batch);
        let Some(expected) = batches.next() else {
            return;
        };
        if batches.any(|b| b != expected) {
            out.push(Diagnostic::new(
                Code::BatchDimMismatch,
                format!("graph inputs disagree on the batch dimension (first is {expected})"),
            ));
            return;
        }
        for node in graph.nodes() {
            if node.inputs.is_empty() {
                continue;
            }
            let out_batch = graph.tensor_shape(node.output).map(Shape::batch);
            if out_batch.is_some_and(|b| b != expected) {
                out.push(
                    Diagnostic::new(
                        Code::BatchDimMismatch,
                        format!(
                            "output batch {} differs from graph batch {expected}",
                            out_batch.unwrap_or(0)
                        ),
                    )
                    .at_node(graph, node),
                );
            }
        }
    }
}

/// Magnitude above which an explicit weight is considered corrupted
/// (no initialization or training pass in this codebase produces
/// weights anywhere near it, but a high-exponent bit flip does).
pub(crate) const SUSPECT_WEIGHT_LIMIT: f32 = 1.0e6;

/// Flags explicit weights holding non-finite or implausibly large
/// values (`W105`) — the static signature of an SEU-style bit flip.
pub struct WeightSanityCheck;

impl AnalysisPass for WeightSanityCheck {
    fn name(&self) -> &'static str {
        "weight-sanity"
    }

    fn run(&self, graph: &Graph, out: &mut Vec<Diagnostic>) {
        for node in graph.nodes() {
            let WeightInit::Explicit(tensors) = &node.weights else {
                continue;
            };
            let mut bad = 0usize;
            let mut worst = 0.0f32;
            for t in tensors {
                for &x in t.data() {
                    if !x.is_finite() || x.abs() > SUSPECT_WEIGHT_LIMIT {
                        bad += 1;
                        if !x.is_finite() {
                            worst = f32::INFINITY;
                        } else {
                            worst = worst.max(x.abs());
                        }
                    }
                }
            }
            if bad > 0 {
                out.push(
                    Diagnostic::new(
                        Code::SuspectWeight,
                        format!(
                            "{bad} weight value(s) non-finite or beyond |{SUSPECT_WEIGHT_LIMIT:e}| (worst {worst:e}) — possible bit-flip corruption"
                        ),
                    )
                    .at_node(graph, node),
                );
            }
        }
    }
}

// --------------------------------------------------------------------
// Range / quantization passes (value-range dataflow)
// --------------------------------------------------------------------

/// Propagates worst-case value ranges from the inputs (assumed
/// calibrated to |x| <= 1) through every op via the interval-arithmetic
/// dataflow analysis, flagging ops whose range exceeds the INT8 grid at
/// unit scale (`I201`). Feeds the ROADMAP quantized-execution item: a
/// flagged op needs an activation scale of at least `range / 127`.
pub struct QuantReadinessCheck {
    /// Assumed |x| bound of every graph input (default 1.0).
    pub input_absmax: f32,
}

impl Default for QuantReadinessCheck {
    fn default() -> Self {
        QuantReadinessCheck { input_absmax: 1.0 }
    }
}

impl AnalysisPass for QuantReadinessCheck {
    fn name(&self) -> &'static str {
        "quant-readiness"
    }

    fn run(&self, graph: &Graph, out: &mut Vec<Diagnostic>) {
        let ranges = value_ranges(graph, self.input_absmax);
        for node in graph.nodes() {
            if node.output.0 >= ranges.len() || node.inputs.iter().any(|t| t.0 >= ranges.len()) {
                continue; // structurally broken; the error gate owns it
            }
            let bound = ranges[node.output.0].abs_max();
            if bound > INT8_UNIT_GRID && !matches!(node.op, Op::Input(_)) {
                out.push(
                    Diagnostic::new(
                        Code::QuantSaturation,
                        format!(
                            "worst-case |activation| {bound:.1} exceeds the INT8 grid at unit scale; calibrate with scale >= {:.3}",
                            bound / INT8_UNIT_GRID
                        ),
                    )
                    .at_node(graph, node),
                );
            }
        }
    }
}

/// Range-propagation findings around quantization grids: `W108` when a
/// `FakeQuant` node's incoming range lies *entirely* outside its grid
/// (every value clamps — the grid's calibration is stale), and `I202`
/// when the quant-safety analysis *proves* a quantized node's INT8
/// kernel path safe under the engine's tolerance contract.
pub struct RangeCheck {
    /// Assumed |x| bound of every graph input (default 1.0).
    pub input_absmax: f32,
}

impl Default for RangeCheck {
    fn default() -> Self {
        RangeCheck { input_absmax: 1.0 }
    }
}

impl AnalysisPass for RangeCheck {
    fn name(&self) -> &'static str {
        "range"
    }

    fn run(&self, graph: &Graph, out: &mut Vec<Diagnostic>) {
        let ranges = value_ranges(graph, self.input_absmax);
        for node in graph.nodes() {
            if node.output.0 >= ranges.len() || node.inputs.iter().any(|t| t.0 >= ranges.len()) {
                continue; // structurally broken; the error gate owns it
            }
            let Op::FakeQuant { scale } = &node.op else {
                continue;
            };
            if *scale <= 0.0 || !scale.is_finite() {
                continue;
            }
            let grid = INT8_UNIT_GRID * scale;
            let Some(pre) = node.inputs.first().and_then(|t| ranges.get(t.0)).copied() else {
                continue;
            };
            if pre.is_finite() && (pre.lo > grid || pre.hi < -grid) {
                out.push(
                    Diagnostic::new(
                        Code::RangeOverflow,
                        format!(
                            "incoming range [{:.1}, {:.1}] lies entirely outside the FakeQuant grid ±{grid:.3}; every value clamps (stale calibration)",
                            pre.lo, pre.hi
                        ),
                    )
                    .at_node(graph, node),
                );
            }
        }
        let safety = QuantSafety::with_input_absmax(graph, self.input_absmax);
        for (node, verdict) in graph.nodes().iter().zip(safety.verdicts()) {
            if verdict.eligible {
                out.push(
                    Diagnostic::new(
                        Code::ProvableRange,
                        format!(
                            "INT8 kernel proven safe: worst-case rounding error {:.3e} within the engine tolerance",
                            verdict.error_bound
                        ),
                    )
                    .at_node(graph, node),
                );
            }
        }
    }
}
