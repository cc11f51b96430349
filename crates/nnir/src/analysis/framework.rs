//! The analysis framework: the pass trait, the pass pipeline, the
//! execution/transform gates and the generic forward-dataflow driver
//! the concrete analyses (value ranges, quant safety) build on.

use super::diagnostics::{Code, Diagnostic};
use super::passes::{
    BatchDimCheck, DataflowCheck, DeadCodeCheck, DeadValueCheck, ElementCountCheck, NamingCheck,
    QuantReadinessCheck, RangeCheck, ScheduleCheck, StructureCheck, WeightSanityCheck,
};
use super::Report;
use crate::error::NnirError;
use crate::graph::{Graph, TensorId};
use crate::shape::Shape;
use std::fmt;

/// One analysis pass: inspects a graph and appends findings.
///
/// Passes never mutate the graph and never trust annotations another
/// pass has already checked — each re-derives what it needs, so a pass
/// list can be reordered or subset freely.
pub trait AnalysisPass {
    /// Pass name for reports.
    fn name(&self) -> &'static str;
    /// Appends this pass's findings for `graph` to `out`.
    fn run(&self, graph: &Graph, out: &mut Vec<Diagnostic>);
}

/// An ordered pipeline of [`AnalysisPass`]es.
#[derive(Default)]
pub struct Analyzer {
    passes: Vec<Box<dyn AnalysisPass>>,
}

impl Analyzer {
    /// The Error-severity pass set: every structural invariant a graph
    /// must satisfy before execution. Cheap (no weight
    /// materialization); this is what [`Graph::validate`] and the
    /// `Runner::build` gate run.
    #[must_use]
    pub fn error_gate() -> Self {
        let mut a = Analyzer::default();
        a.push(ElementCountCheck);
        a.push(StructureCheck);
        a.push(ScheduleCheck);
        a.push(DataflowCheck);
        a
    }

    /// The full pass set: the error gate plus warning- and info-level
    /// analyses (dead code, dead values, naming, weight sanity, batch
    /// consistency, value ranges, quantization readiness and quant
    /// safety). The range-based passes materialize seeded weights per
    /// node, so this costs roughly one weight-init sweep over the
    /// model.
    #[must_use]
    pub fn full() -> Self {
        let mut a = Analyzer::error_gate();
        a.push(DeadCodeCheck);
        a.push(DeadValueCheck);
        a.push(NamingCheck);
        a.push(BatchDimCheck);
        a.push(WeightSanityCheck);
        a.push(QuantReadinessCheck::default());
        a.push(RangeCheck::default());
        a
    }

    /// Appends a pass to the pipeline.
    pub fn push(&mut self, pass: impl AnalysisPass + 'static) {
        self.passes.push(Box::new(pass));
    }

    /// Runs every pass and collects the findings.
    #[must_use]
    pub fn analyze(&self, graph: &Graph) -> Report {
        let mut diagnostics = Vec::new();
        let mut passes_run = Vec::with_capacity(self.passes.len());
        for pass in &self.passes {
            pass.run(graph, &mut diagnostics);
            passes_run.push(pass.name());
        }
        Report {
            diagnostics,
            passes_run,
        }
    }
}

impl fmt::Debug for Analyzer {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let names: Vec<&str> = self.passes.iter().map(|p| p.name()).collect();
        f.debug_struct("Analyzer").field("passes", &names).finish()
    }
}

// --------------------------------------------------------------------
// Forward dataflow driver
// --------------------------------------------------------------------

/// A forward dataflow analysis over a graph's value tensors: one fact
/// per [`TensorId`], propagated through every node in schedule order.
///
/// The node schedule *is* the topological order (the verifier's
/// schedule check covenants this), so one linear sweep reaches the
/// fixed point: every input fact is final before its consumer's
/// transfer function runs. Implementors define the boundary fact for
/// graph inputs and the per-node transfer function; the
/// [`propagate`] driver owns iteration order and bounds checking.
pub trait ForwardAnalysis {
    /// The per-tensor fact this analysis computes.
    type Fact: Clone;

    /// The fact assigned to every graph input before the sweep, and to
    /// tensors no node produces (the conservative boundary value).
    fn boundary(&self, graph: &Graph, tensor: TensorId) -> Self::Fact;

    /// The fact for `node`'s output, given the facts of its inputs (in
    /// node-input order).
    fn transfer(
        &self,
        graph: &Graph,
        node: &crate::graph::Node,
        inputs: &[Self::Fact],
    ) -> Self::Fact;
}

/// Runs a [`ForwardAnalysis`] over `graph`, returning one fact per
/// tensor id. Structurally broken references (out-of-range ids) keep
/// their boundary fact — the error gate owns reporting those.
pub fn propagate<A: ForwardAnalysis>(graph: &Graph, analysis: &A) -> Vec<A::Fact> {
    let tc = graph.tensor_count();
    let mut facts: Vec<A::Fact> = (0..tc)
        .map(|t| analysis.boundary(graph, TensorId(t)))
        .collect();
    for node in graph.nodes() {
        if node.output.0 >= tc || node.inputs.iter().any(|t| t.0 >= tc) {
            continue;
        }
        let ins: Vec<A::Fact> = node.inputs.iter().map(|t| facts[t.0].clone()).collect();
        facts[node.output.0] = analysis.transfer(graph, node, &ins);
    }
    facts
}

// --------------------------------------------------------------------
// Gates
// --------------------------------------------------------------------

/// Runs the Error-severity gate and rejects with a coded
/// [`NnirError::VerifierRejected`] — the check `Runner::build` applies
/// before admitting a graph to execution.
///
/// # Errors
///
/// The first Error-severity diagnostic, as `VerifierRejected`.
pub fn verify_for_execution(graph: &Graph) -> Result<(), NnirError> {
    match Analyzer::error_gate().analyze(graph).first_error() {
        Some(d) => Err(d.to_error()),
        None => Ok(()),
    }
}

/// Whether the I201 quantization-readiness check passes for `graph`:
/// no layer's propagated value range exceeds the symmetric INT8 grid
/// at unit scale. Kept as the whole-graph readiness summary `vedliot
/// lint` reports; per-node INT8 eligibility is decided by the
/// finer-grained [`QuantSafety`](super::QuantSafety) dataflow
/// analysis.
#[must_use]
pub fn int8_ready(graph: &Graph) -> bool {
    let mut findings = Vec::new();
    QuantReadinessCheck::default().run(graph, &mut findings);
    findings.is_empty()
}

/// Runs the Error-severity gate, reporting the first violation as the
/// legacy error variant where one exists — the body of
/// [`Graph::validate`].
///
/// # Errors
///
/// The first Error-severity diagnostic's legacy error.
pub fn validate_legacy(graph: &Graph) -> Result<(), NnirError> {
    match Analyzer::error_gate().analyze(graph).first_error() {
        Some(d) => Err(d.to_legacy_error()),
        None => Ok(()),
    }
}

// --------------------------------------------------------------------
// Transform differential check
// --------------------------------------------------------------------

/// The externally observable interface of a graph: its input and
/// output shapes. Optimization passes may rewrite everything *inside*
/// a model, but a deployed model's I/O contract must survive.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct InterfaceSignature {
    input_shapes: Vec<Shape>,
    output_shapes: Vec<Shape>,
}

impl InterfaceSignature {
    /// Captures the interface of `graph`.
    #[must_use]
    pub fn of(graph: &Graph) -> Self {
        let shape_of = |t: &TensorId| graph.tensor_shape(*t).cloned().unwrap_or_default();
        InterfaceSignature {
            input_shapes: graph.inputs().iter().map(shape_of).collect(),
            output_shapes: graph.outputs().iter().map(shape_of).collect(),
        }
    }
}

/// Verify-after-transform: checks that a transformed graph still
/// passes the Error-severity gate *and* kept the I/O interface it had
/// before the transform.
///
/// # Errors
///
/// [`NnirError::VerifierRejected`] carrying the diagnostic code — a
/// structural code (`V0xx`) when the transform broke an invariant,
/// `T001` when it changed the interface.
pub fn verify_transform(
    pass: &str,
    before: &InterfaceSignature,
    after: &Graph,
) -> Result<(), NnirError> {
    if let Some(d) = Analyzer::error_gate().analyze(after).first_error() {
        let mut d = d.clone();
        d.message = format!("after pass '{pass}': {}", d.message);
        return Err(d.to_error());
    }
    let now = InterfaceSignature::of(after);
    if now != *before {
        let d = Diagnostic::new(
            Code::InterfaceChanged,
            format!(
                "pass '{pass}' changed the graph interface: inputs {:?} -> {:?}, outputs {:?} -> {:?}",
                before.input_shapes, now.input_shapes, before.output_shapes, now.output_shapes
            ),
        );
        return Err(d.to_error());
    }
    Ok(())
}
