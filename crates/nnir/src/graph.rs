//! Computational graphs.
//!
//! A [`Graph`] is a DAG of operator [`Node`]s connected through value
//! tensors identified by [`TensorId`]. Graphs are built through
//! [`GraphBuilder`], which performs shape inference eagerly — a builder can
//! never produce a graph with inconsistent shapes or dangling references,
//! and because every node's inputs must already exist, node order is always
//! a valid topological schedule.
//!
//! Weights are attached per node as [`WeightInit`]: either explicit tensors
//! (small models that are actually executed) or a deterministic seed that
//! [`Graph::node_weights`] materializes on demand (the large zoo models,
//! which are only ever cost-analyzed — YOLOv4 holds ~64 M parameters and
//! is never allocated unless a runner is built over it).

use crate::ops::Op;
use crate::shape::Shape;
use crate::tensor::Tensor;
use crate::NnirError;
use serde::{Deserialize, Serialize};
use std::borrow::Cow;
use std::fmt;

/// Identifier of a value tensor within one graph.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Serialize, Deserialize)]
pub struct TensorId(pub usize);

/// Identifier of a node within one graph.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Serialize, Deserialize)]
pub struct NodeId(pub usize);

impl fmt::Display for TensorId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "t{}", self.0)
    }
}

impl fmt::Display for NodeId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "n{}", self.0)
    }
}

/// How a node's weights are obtained.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum WeightInit {
    /// The node has no weights.
    None,
    /// Weights are generated deterministically from this seed when they
    /// are asked for (fan-in-scaled uniform init); a runner asks once, at
    /// build.
    Seeded(u64),
    /// Explicit weight tensors (order defined by [`Node::weight_shapes`]).
    Explicit(Vec<Tensor>),
}

impl WeightInit {
    /// Whether weights are already materialized.
    #[must_use]
    pub fn is_explicit(&self) -> bool {
        matches!(self, WeightInit::Explicit(_))
    }
}

/// One operator instance in a graph.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Node {
    /// This node's id (index into [`Graph::nodes`]).
    pub id: NodeId,
    /// Human-readable layer name (e.g. `"conv1"`, `"layer3.0.bn2"`).
    pub name: String,
    /// The operator.
    pub op: Op,
    /// Input value tensors.
    pub inputs: Vec<TensorId>,
    /// Output value tensor.
    pub output: TensorId,
    /// Weight storage/initialization.
    pub weights: WeightInit,
}

impl Node {
    /// Shapes of the weight tensors this node requires, in storage order.
    ///
    /// * `Conv2d`: `[out_c, in_c/groups, kh, kw]`, then `[out_c]` if biased.
    /// * `Dense`: `[out_f, in_f]`, then `[out_f]` if biased.
    /// * `BatchNorm`: scale `[c]`, shift `[c]`.
    /// * everything else: no weights.
    #[must_use]
    pub fn weight_shapes(&self, input_shapes: &[&Shape]) -> Vec<Shape> {
        // Channels or features: dim 1 of the first input.
        let in_c = input_shapes.first().and_then(|s| s.dim(1)).unwrap_or(0);
        match &self.op {
            Op::Conv2d(attrs) => {
                // Zero groups is the verifier's `V008`; `V010` reads these
                // shapes before that check runs.
                let mut shapes = vec![Shape::new(vec![
                    attrs.out_channels,
                    in_c.checked_div(attrs.groups).unwrap_or(0),
                    attrs.kernel.0,
                    attrs.kernel.1,
                ])];
                if attrs.bias {
                    shapes.push(Shape::new(vec![attrs.out_channels]));
                }
                shapes
            }
            Op::Dense { out_features, bias } => {
                let mut shapes = vec![Shape::new(vec![*out_features, in_c])];
                if *bias {
                    shapes.push(Shape::new(vec![*out_features]));
                }
                shapes
            }
            Op::BatchNorm => vec![Shape::new(vec![in_c]), Shape::new(vec![in_c])],
            _ => Vec::new(),
        }
    }
}

/// A shape-checked computational graph.
///
/// ```
/// use vedliot_nnir::{GraphBuilder, Shape, ops::{Op, Conv2dAttrs, ActKind}};
///
/// # fn main() -> Result<(), vedliot_nnir::NnirError> {
/// let mut b = GraphBuilder::new("tiny");
/// let x = b.input(Shape::nchw(1, 3, 8, 8));
/// let c = b.apply("conv", Op::Conv2d(Conv2dAttrs::same(4, 3, 1)), &[x])?;
/// let y = b.apply("relu", Op::Activation(ActKind::Relu), &[c])?;
/// let g = b.finish(vec![y]);
/// assert_eq!(g.tensor_shape(y).unwrap(), &Shape::nchw(1, 4, 8, 8));
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Graph {
    name: String,
    nodes: Vec<Node>,
    tensor_shapes: Vec<Shape>,
    producers: Vec<Option<NodeId>>,
    inputs: Vec<TensorId>,
    outputs: Vec<TensorId>,
}

impl Graph {
    /// Starts building a graph with the given model name.
    #[must_use]
    pub fn builder(name: impl Into<String>) -> GraphBuilder {
        GraphBuilder::new(name)
    }

    /// Model name.
    #[must_use]
    pub fn name(&self) -> &str {
        &self.name
    }

    /// All nodes in topological order.
    #[must_use]
    pub fn nodes(&self) -> &[Node] {
        &self.nodes
    }

    /// Mutable access to nodes (used by optimization passes to rewrite
    /// weights in place; connectivity cannot be changed this way).
    pub fn nodes_mut(&mut self) -> &mut [Node] {
        &mut self.nodes
    }

    /// Node lookup.
    ///
    /// # Errors
    ///
    /// Returns [`NnirError::UnknownNode`] if the id is out of range.
    pub fn node(&self, id: NodeId) -> Result<&Node, NnirError> {
        self.nodes.get(id.0).ok_or(NnirError::UnknownNode(id.0))
    }

    /// Shape of a value tensor, if it exists.
    #[must_use]
    pub fn tensor_shape(&self, id: TensorId) -> Option<&Shape> {
        self.tensor_shapes.get(id.0)
    }

    /// Number of value tensors.
    #[must_use]
    pub fn tensor_count(&self) -> usize {
        self.tensor_shapes.len()
    }

    /// The node producing a tensor (`None` for graph inputs).
    #[must_use]
    pub fn producer(&self, id: TensorId) -> Option<NodeId> {
        self.producers.get(id.0).copied().flatten()
    }

    /// Graph input tensors.
    #[must_use]
    pub fn inputs(&self) -> &[TensorId] {
        &self.inputs
    }

    /// Graph output tensors.
    #[must_use]
    pub fn outputs(&self) -> &[TensorId] {
        &self.outputs
    }

    /// Input shapes of a node, resolved against the graph.
    #[must_use]
    pub fn node_input_shapes(&self, node: &Node) -> Vec<&Shape> {
        node.inputs
            .iter()
            .map(|t| &self.tensor_shapes[t.0])
            .collect()
    }

    /// A node's weight tensors: explicit weights are borrowed, seeded
    /// ones are generated (owned) by a deterministic fan-in-scaled
    /// uniform initialization, so the same graph always yields the same
    /// bits. This is the one place a [`WeightInit`] turns into tensors:
    /// the execution engine, the dataflow analyses, the toolchain
    /// passes and the fault injector all come through here (or through
    /// [`Graph::explicit_weights`], which is built on it).
    ///
    /// # Errors
    ///
    /// Returns [`NnirError::ExecutionFailure`] if the node's operator
    /// requires weights but it has [`WeightInit::None`].
    pub fn node_weights<'a>(&'a self, node: &'a Node) -> Result<Cow<'a, [Tensor]>, NnirError> {
        if let WeightInit::Explicit(tensors) = &node.weights {
            return Ok(Cow::Borrowed(tensors));
        }
        let shapes = node.weight_shapes(&self.node_input_shapes(node));
        match node.weights {
            WeightInit::Seeded(seed) => Ok(Cow::Owned(materialize_seeded(&node.op, &shapes, seed))),
            _ if shapes.is_empty() => Ok(Cow::Borrowed(&[])),
            _ => Err(NnirError::ExecutionFailure(format!(
                "node {} requires weights but has none",
                node.name
            ))),
        }
    }

    /// Makes the weights of every node `select` accepts explicit,
    /// materializing seeded ones in place ([`Graph::node_weights`]),
    /// and returns each such node's name and weight tensors for
    /// editing — the materialize → edit → write-back step of every
    /// weight-rewriting pass. Selected nodes with [`WeightInit::None`]
    /// are left alone and not returned; unselected nodes are untouched.
    pub fn explicit_weights(
        &mut self,
        select: impl Fn(&Node) -> bool,
    ) -> Vec<(&str, &mut Vec<Tensor>)> {
        for i in 0..self.nodes.len() {
            let node = &self.nodes[i];
            if !select(node) || !matches!(node.weights, WeightInit::Seeded(_)) {
                continue;
            }
            // Seeded weights always materialize.
            if let Ok(tensors) = self.node_weights(node).map(Cow::into_owned) {
                self.nodes[i].weights = WeightInit::Explicit(tensors);
            }
        }
        self.nodes
            .iter_mut()
            .filter(|node| select(node))
            .filter_map(|Node { name, weights, .. }| match weights {
                WeightInit::Explicit(tensors) => Some((name.as_str(), tensors)),
                _ => None,
            })
            .collect()
    }

    /// Consumers of each tensor (fan-out), indexed by tensor id.
    #[must_use]
    pub fn fanout(&self) -> Vec<Vec<NodeId>> {
        let mut fanout = vec![Vec::new(); self.tensor_shapes.len()];
        for node in &self.nodes {
            for t in &node.inputs {
                fanout[t.0].push(node.id);
            }
        }
        fanout
    }

    /// Re-checks every structural invariant (shapes, references, schedule).
    ///
    /// Builders cannot produce invalid graphs; this exists so optimization
    /// passes can assert they did not break anything. It is a thin alias
    /// for the Error-severity pass set of [`crate::analysis`] — the one
    /// source of truth for graph invariants — reporting the first
    /// violation as the legacy error variant where one exists.
    ///
    /// # Errors
    ///
    /// Returns the first violated invariant.
    pub fn validate(&self) -> Result<(), NnirError> {
        crate::analysis::validate_legacy(self)
    }

    /// Test-only access to the recorded tensor shapes, so verifier tests
    /// can simulate annotation corruption (e.g. a tampered serialized
    /// form) without a builder.
    #[cfg(test)]
    pub(crate) fn tensor_shapes_mut(&mut self) -> &mut [Shape] {
        &mut self.tensor_shapes
    }

    /// Test-only access to the graph interface, so verifier tests can
    /// simulate an interface referencing unknown tensors (V006).
    #[cfg(test)]
    pub(crate) fn outputs_mut(&mut self) -> &mut Vec<TensorId> {
        &mut self.outputs
    }

    /// Test-only access to the producer map, so verifier tests can
    /// simulate a dangling edge (V007) without a builder.
    #[cfg(test)]
    pub(crate) fn producers_mut(&mut self) -> &mut [Option<NodeId>] {
        &mut self.producers
    }

    /// Rebuilds the graph with a different batch size on every input.
    ///
    /// Weight initializations are carried over unchanged, so an explicit
    /// (e.g. trained or pruned) model keeps its weights.
    ///
    /// # Errors
    ///
    /// Returns [`NnirError::ShapeMismatch`] if an input is rank 0 (it has
    /// no batch axis), and propagates shape-inference failures (cannot
    /// normally happen, since batch size does not affect operator
    /// validity).
    pub fn with_batch(&self, batch: usize) -> Result<Graph, NnirError> {
        let batched = |shape: &Shape| {
            if shape.rank() == 0 {
                return Err(NnirError::ShapeMismatch {
                    op: "Graph::with_batch".into(),
                    detail: "rank-0 input has no batch axis".into(),
                });
            }
            Ok(shape.with_batch(batch))
        };
        let mut builder = GraphBuilder::new(self.name.clone());
        // Tensor ids map 1:1 because we replay nodes in order.
        for old_id in 0..self.tensor_shapes.len() {
            if self.producers[old_id].is_none() {
                let new_id = builder.input(batched(&self.tensor_shapes[old_id])?);
                debug_assert_eq!(new_id.0, old_id);
            } else {
                break;
            }
        }
        for node in &self.nodes {
            let op = match &node.op {
                Op::Input(s) => Op::Input(batched(s)?),
                other => other.clone(),
            };
            let new_out = builder.apply_with_weights(
                node.name.clone(),
                op,
                &node.inputs,
                node.weights.clone(),
            )?;
            debug_assert_eq!(new_out.0, node.output.0);
        }
        Ok(builder.finish(self.outputs.clone()))
    }

    /// Renders the graph in Graphviz DOT format (one node per operator,
    /// edges labelled with tensor shapes) — the visualization hook the
    /// toolchain's reports link to.
    ///
    /// ```
    /// use vedliot_nnir::zoo;
    ///
    /// # fn main() -> Result<(), vedliot_nnir::NnirError> {
    /// let dot = zoo::lenet5(10)?.to_dot();
    /// assert!(dot.starts_with("digraph"));
    /// assert!(dot.contains("conv1"));
    /// # Ok(())
    /// # }
    /// ```
    #[must_use]
    pub fn to_dot(&self) -> String {
        let mut out = String::new();
        out.push_str(&format!("digraph \"{}\" {{\n", self.name));
        out.push_str("  rankdir=TB;\n  node [shape=box, fontname=\"monospace\"];\n");
        for (i, &t) in self.inputs.iter().enumerate() {
            out.push_str(&format!(
                "  in{i} [label=\"input {}\", shape=ellipse];\n",
                self.tensor_shapes[t.0]
            ));
        }
        for node in &self.nodes {
            out.push_str(&format!(
                "  n{} [label=\"{}\\n{}\"];\n",
                node.id.0, node.name, node.op
            ));
            for t in &node.inputs {
                match self.producers[t.0] {
                    Some(p) => out.push_str(&format!(
                        "  n{} -> n{} [label=\"{}\"];\n",
                        p.0, node.id.0, self.tensor_shapes[t.0]
                    )),
                    None => {
                        let idx = self.inputs.iter().position(|x| x == t).unwrap_or(0);
                        out.push_str(&format!(
                            "  in{idx} -> n{} [label=\"{}\"];\n",
                            node.id.0, self.tensor_shapes[t.0]
                        ));
                    }
                }
            }
        }
        for (i, &t) in self.outputs.iter().enumerate() {
            out.push_str(&format!(
                "  out{i} [label=\"output {}\", shape=ellipse];\n",
                self.tensor_shapes[t.0]
            ));
            if let Some(p) = self.producers[t.0] {
                out.push_str(&format!("  n{} -> out{i};\n", p.0));
            }
        }
        out.push_str("}\n");
        out
    }

    /// Batch size of the first graph input (1 if there are no inputs).
    #[must_use]
    pub fn batch(&self) -> usize {
        self.inputs
            .first()
            .map_or(1, |t| self.tensor_shapes[t.0].batch())
    }
}

/// Deterministic fan-in-scaled initialization for seeded weights.
fn materialize_seeded(op: &Op, shapes: &[Shape], seed: u64) -> Vec<Tensor> {
    shapes
        .iter()
        .enumerate()
        .map(|(i, shape)| {
            let sub_seed = seed.wrapping_mul(1_000_003).wrapping_add(i as u64 + 1);
            match (op, i) {
                // BatchNorm: scale near 1, shift near 0.
                (Op::BatchNorm, 0) => {
                    let mut t = Tensor::random(shape.clone(), sub_seed, 0.05);
                    for x in t.data_mut() {
                        *x += 1.0;
                    }
                    t
                }
                (Op::BatchNorm, _) => Tensor::random(shape.clone(), sub_seed, 0.05),
                // Bias vectors: small.
                (_, i2) if i2 > 0 => Tensor::random(shape.clone(), sub_seed, 0.01),
                // Main weights: uniform in ±sqrt(2 / fan_in).
                _ => {
                    let fan_in = shape.dims()[1..]
                        .iter()
                        .fold(1usize, |n, &d| n.saturating_mul(d));
                    let fan_in = fan_in.max(1);
                    let scale = (2.0 / fan_in as f32).sqrt();
                    Tensor::random(shape.clone(), sub_seed, scale)
                }
            }
        })
        .collect()
}

/// Incremental, shape-checked graph construction.
#[derive(Debug, Clone)]
pub struct GraphBuilder {
    name: String,
    nodes: Vec<Node>,
    tensor_shapes: Vec<Shape>,
    producers: Vec<Option<NodeId>>,
    inputs: Vec<TensorId>,
    seed_counter: u64,
}

impl GraphBuilder {
    /// Creates an empty builder for a model with the given name.
    #[must_use]
    pub fn new(name: impl Into<String>) -> Self {
        GraphBuilder {
            name: name.into(),
            nodes: Vec::new(),
            tensor_shapes: Vec::new(),
            producers: Vec::new(),
            inputs: Vec::new(),
            seed_counter: 0,
        }
    }

    /// Declares a graph input with the given shape.
    ///
    /// Inputs must be declared before any operator node is added so the
    /// tensor-id numbering stays stable under [`Graph::with_batch`].
    pub fn input(&mut self, shape: Shape) -> TensorId {
        let id = TensorId(self.tensor_shapes.len());
        self.tensor_shapes.push(shape);
        self.producers.push(None);
        self.inputs.push(id);
        id
    }

    /// Adds an operator node with lazily-seeded weights.
    ///
    /// # Errors
    ///
    /// Returns an error if an input id is unknown or shape inference fails.
    pub fn apply(
        &mut self,
        name: impl Into<String>,
        op: Op,
        inputs: &[TensorId],
    ) -> Result<TensorId, NnirError> {
        self.seed_counter += 1;
        let seed = self.seed_counter;
        self.apply_with_weights(name, op, inputs, WeightInit::Seeded(seed))
    }

    /// Adds an operator node with explicit weight handling.
    ///
    /// # Errors
    ///
    /// Returns an error if an input id is unknown, shape inference fails,
    /// or explicit weights do not match the required shapes.
    pub fn apply_with_weights(
        &mut self,
        name: impl Into<String>,
        op: Op,
        inputs: &[TensorId],
        weights: WeightInit,
    ) -> Result<TensorId, NnirError> {
        for t in inputs {
            if t.0 >= self.tensor_shapes.len() {
                return Err(NnirError::UnknownTensor(t.0));
            }
        }
        let in_shapes: Vec<&Shape> = inputs.iter().map(|t| &self.tensor_shapes[t.0]).collect();
        let out_shape = op.infer_shape(&in_shapes)?;
        let node_id = NodeId(self.nodes.len());
        let output = TensorId(self.tensor_shapes.len());
        let node = Node {
            id: node_id,
            name: name.into(),
            op,
            inputs: inputs.to_vec(),
            output,
            weights,
        };
        if let WeightInit::Explicit(tensors) = &node.weights {
            let expected = node.weight_shapes(&in_shapes);
            if tensors.len() != expected.len()
                || tensors.iter().zip(&expected).any(|(t, s)| t.shape() != s)
            {
                return Err(NnirError::ShapeMismatch {
                    op: node.op.name().into(),
                    detail: format!("explicit weights for {} do not match", node.name),
                });
            }
        }
        self.tensor_shapes.push(out_shape);
        self.producers.push(Some(node_id));
        self.nodes.push(node);
        Ok(output)
    }

    /// Finishes the graph, declaring its outputs.
    ///
    /// # Panics
    ///
    /// Panics if an output id is unknown (a builder-local bug, not a data
    /// error).
    #[must_use]
    pub fn finish(self, outputs: Vec<TensorId>) -> Graph {
        for t in &outputs {
            assert!(t.0 < self.tensor_shapes.len(), "unknown output tensor {t}");
        }
        Graph {
            name: self.name,
            nodes: self.nodes,
            tensor_shapes: self.tensor_shapes,
            producers: self.producers,
            inputs: self.inputs,
            outputs,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ops::{ActKind, Conv2dAttrs};

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

    #[test]
    fn builder_produces_valid_graph() {
        let g = tiny();
        g.validate().unwrap();
        assert_eq!(g.nodes().len(), 2);
        assert_eq!(g.inputs().len(), 1);
        assert_eq!(g.outputs().len(), 1);
        assert_eq!(g.batch(), 1);
    }

    #[test]
    fn unknown_input_tensor_is_rejected() {
        let mut b = GraphBuilder::new("bad");
        let err = b.apply("add", Op::Add, &[TensorId(0), TensorId(1)]);
        assert!(matches!(err, Err(NnirError::UnknownTensor(_))));
    }

    #[test]
    fn with_batch_rescales_all_tensors() {
        let g = tiny().with_batch(8).unwrap();
        g.validate().unwrap();
        assert_eq!(g.batch(), 8);
        let out = g.outputs()[0];
        assert_eq!(g.tensor_shape(out).unwrap(), &Shape::nchw(8, 4, 8, 8));

        let mut b = GraphBuilder::new("scalar");
        let x = b.input(Shape::scalar());
        let y = b
            .apply("relu", Op::Activation(ActKind::Relu), &[x])
            .unwrap();
        let scalar = b.finish(vec![y]);
        assert!(matches!(
            scalar.with_batch(2),
            Err(NnirError::ShapeMismatch { .. })
        ));
    }

    #[test]
    fn fanout_counts_consumers() {
        let mut b = GraphBuilder::new("diamond");
        let x = b.input(Shape::nchw(1, 4, 4, 4));
        let a = b.apply("a", Op::Activation(ActKind::Relu), &[x]).unwrap();
        let l = b.apply("l", Op::Activation(ActKind::Relu), &[a]).unwrap();
        let r = b
            .apply("r", Op::Activation(ActKind::Sigmoid), &[a])
            .unwrap();
        let s = b.apply("sum", Op::Add, &[l, r]).unwrap();
        let g = b.finish(vec![s]);
        let fanout = g.fanout();
        assert_eq!(fanout[a.0].len(), 2);
        assert_eq!(fanout[s.0].len(), 0);
    }

    #[test]
    fn explicit_weights_are_shape_checked() {
        let mut b = GraphBuilder::new("w");
        let x = b.input(Shape::nf(1, 4));
        let wrong = WeightInit::Explicit(vec![Tensor::zeros(Shape::nf(3, 3))]);
        let err = b.apply_with_weights(
            "fc",
            Op::Dense {
                out_features: 2,
                bias: false,
            },
            &[x],
            wrong,
        );
        assert!(err.is_err());
        let right = WeightInit::Explicit(vec![Tensor::zeros(Shape::nf(2, 4))]);
        b.apply_with_weights(
            "fc",
            Op::Dense {
                out_features: 2,
                bias: false,
            },
            &[x],
            right,
        )
        .unwrap();
    }

    /// Shapes and raw f32 bits, so equality is bit equality.
    type Bits = Vec<(Shape, Vec<u32>)>;

    fn bits(tensors: &[Tensor]) -> Bits {
        tensors
            .iter()
            .map(|t| {
                (
                    t.shape().clone(),
                    t.data().iter().map(|x| x.to_bits()).collect(),
                )
            })
            .collect()
    }

    #[test]
    fn explicit_weights_materializes_exactly_the_selected_nodes() {
        let mut g = crate::zoo::lenet5(10).unwrap();
        // A selected node without weights is neither changed nor returned.
        let none = g
            .nodes()
            .iter()
            .position(|n| n.weight_shapes(&g.node_input_shapes(n)).is_empty())
            .unwrap();
        g.nodes_mut()[none].weights = WeightInit::None;
        let selected = |n: &Node| matches!(n.op, Op::Conv2d(_)) || n.id.0 == none;
        let runner = crate::exec::Runner::builder().build(&g).unwrap();
        for node in g.nodes() {
            // The runner's accessor is a delegate (external callers rely on it).
            assert_eq!(
                bits(&runner.node_weights(node).unwrap()),
                bits(&g.node_weights(node).unwrap())
            );
        }
        drop(runner);

        let before = g.clone();
        let expected: Vec<(String, Bits)> = before
            .nodes()
            .iter()
            .filter(|n| selected(n) && n.id.0 != none)
            .map(|n| (n.name.clone(), bits(&before.node_weights(n).unwrap())))
            .collect();
        assert_eq!(expected.len(), 2, "lenet5 has two convolutions");
        let returned: Vec<(String, Bits)> = g
            .explicit_weights(selected)
            .into_iter()
            .map(|(name, w)| (name.to_string(), bits(w)))
            .collect();
        assert_eq!(returned, expected);
        for (node, old) in g.nodes().iter().zip(before.nodes()) {
            if selected(node) && node.id.0 != none {
                assert!(!old.weights.is_explicit() && node.weights.is_explicit());
                assert_eq!(
                    bits(&g.node_weights(node).unwrap()),
                    bits(&before.node_weights(old).unwrap())
                );
            } else {
                assert_eq!(node, old, "{} changed", node.name);
            }
        }
    }

    #[test]
    fn validate_detects_tampered_shapes() {
        let mut g = tiny();
        // Corrupt a recorded shape through the serialized form.
        g.tensor_shapes[1] = Shape::nchw(1, 5, 8, 8);
        assert!(g.validate().is_err());
    }

    #[test]
    fn weight_shapes_for_conv_bn_dense() {
        let mut b = GraphBuilder::new("ws");
        let x = b.input(Shape::nchw(1, 3, 8, 8));
        let c = b
            .apply(
                "conv",
                Op::Conv2d(Conv2dAttrs::same(4, 3, 1).with_bias()),
                &[x],
            )
            .unwrap();
        let n = b.apply("bn", Op::BatchNorm, &[c]).unwrap();
        let f = b.apply("flat", Op::Flatten, &[n]).unwrap();
        let _ = b
            .apply(
                "fc",
                Op::Dense {
                    out_features: 10,
                    bias: true,
                },
                &[f],
            )
            .unwrap();
        let g = b.finish(vec![TensorId(4)]);
        let conv = &g.nodes()[0];
        let shapes = conv.weight_shapes(&g.node_input_shapes(conv));
        assert_eq!(shapes[0], Shape::new(vec![4, 3, 3, 3]));
        assert_eq!(shapes[1], Shape::new(vec![4]));
        let bn = &g.nodes()[1];
        assert_eq!(
            bn.weight_shapes(&g.node_input_shapes(bn)),
            vec![Shape::new(vec![4]), Shape::new(vec![4])]
        );
        let fc = &g.nodes()[3];
        let shapes = fc.weight_shapes(&g.node_input_shapes(fc));
        assert_eq!(shapes[0], Shape::new(vec![10, 4 * 8 * 8]));
    }
}
