//! The diagnostics model: severities, stable codes, findings and
//! reports.
//!
//! This is the *single* source of truth for how a finding is displayed
//! — code, severity and location formatting live here and nowhere
//! else. `vedliot lint` (toolchain), the verifier gates and the
//! analysis CLI all render through [`Diagnostic`]'s `Display` and the
//! [`Totals`] summary line, so their output never drifts apart.

use crate::error::NnirError;
use crate::graph::{Graph, Node, NodeId, TensorId};
use crate::ops::Op;
use std::fmt;

/// Severity of a [`Diagnostic`]. Ordered: `Info < Warning < Error`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum Severity {
    /// Advisory output (e.g. quantization-readiness findings).
    Info,
    /// Suspicious but executable (e.g. dead nodes, aliased weights).
    Warning,
    /// The graph violates a structural invariant and must not execute.
    Error,
}

impl fmt::Display for Severity {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Severity::Info => write!(f, "info"),
            Severity::Warning => write!(f, "warning"),
            Severity::Error => write!(f, "error"),
        }
    }
}

/// Stable diagnostic code. Each code maps to exactly one severity and
/// one invariant; codes are never renumbered (the display-stability
/// tests covenant this).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
#[non_exhaustive]
pub enum Code {
    /// `V001` — a node's recorded id disagrees with its schedule index.
    NodeIdMismatch,
    /// `V002` — a node references a tensor id outside the graph.
    UnknownTensorRef,
    /// `V003` — a node consumes a tensor produced at or after its own
    /// schedule position (a cycle, once the schedule is unrolled).
    ScheduleViolation,
    /// `V004` — a stored tensor shape disagrees with re-inference.
    ShapeDisagreement,
    /// `V005` — explicit weights disagree with the required layout.
    WeightShapeMismatch,
    /// `V006` — the graph input/output interface references an invalid
    /// tensor.
    BadInterface,
    /// `V007` — a dangling edge: an in-range tensor that no node
    /// produces and that is not a graph input.
    DanglingEdge,
    /// `V008` — an operator contract violation (arity, attributes, or
    /// input-shape constraints) found by re-running shape inference.
    OperatorContract,
    /// `V009` — two nodes claim to produce the same tensor.
    DuplicateProducer,
    /// `V010` — a stored tensor shape or an explicit weight shape has
    /// more elements, or more bytes as f32, than `usize` can count.
    ElementCountOverflow,
    /// `W101` — a dead node: its result cannot reach any graph output.
    DeadNode,
    /// `W102` — two nodes share a name (provenance becomes ambiguous).
    DuplicateName,
    /// `W103` — two weighted nodes share a weight seed, so they
    /// materialize identical parameters (weight aliasing).
    WeightAliasing,
    /// `W104` — graph inputs disagree on the leading batch dimension.
    BatchDimMismatch,
    /// `W105` — an explicit weight holds a non-finite or implausibly
    /// large value (the signature of an SEU / bit-flip corruption).
    SuspectWeight,
    /// `W106` — a graph input no node consumes.
    UnusedInput,
    /// `W107` — a dead value: a tensor some node produces but nothing
    /// consumes and the interface does not export (found by the
    /// liveness analysis; its arena slot is pure waste).
    DeadValue,
    /// `W108` — the propagated value range lies entirely outside a
    /// `FakeQuant` grid, so INT8 execution would clamp every
    /// activation to one grid endpoint (stale or broken calibration).
    RangeOverflow,
    /// `I201` — value-range propagation says this op can exceed the
    /// INT8 grid at unit scale (quantization-readiness finding).
    QuantSaturation,
    /// `I202` — provable range: the quant-safety dataflow analysis
    /// proved this quantized node INT8-eligible, with the stated
    /// worst-case error bound against the fake-quant f32 reference.
    ProvableRange,
    /// `T001` — a transform changed the graph's I/O interface.
    InterfaceChanged,
}

impl Code {
    /// Every stable code, for registry-exhaustiveness tests: each entry
    /// must be documented in DESIGN.md §8 and emitted by at least one
    /// test.
    pub const ALL: [Code; 21] = [
        Code::NodeIdMismatch,
        Code::UnknownTensorRef,
        Code::ScheduleViolation,
        Code::ShapeDisagreement,
        Code::WeightShapeMismatch,
        Code::BadInterface,
        Code::DanglingEdge,
        Code::OperatorContract,
        Code::DuplicateProducer,
        Code::ElementCountOverflow,
        Code::DeadNode,
        Code::DuplicateName,
        Code::WeightAliasing,
        Code::BatchDimMismatch,
        Code::SuspectWeight,
        Code::UnusedInput,
        Code::DeadValue,
        Code::RangeOverflow,
        Code::QuantSaturation,
        Code::ProvableRange,
        Code::InterfaceChanged,
    ];

    /// The stable code string (`V001`, `W102`, ...).
    #[must_use]
    pub fn as_str(self) -> &'static str {
        match self {
            Code::NodeIdMismatch => "V001",
            Code::UnknownTensorRef => "V002",
            Code::ScheduleViolation => "V003",
            Code::ShapeDisagreement => "V004",
            Code::WeightShapeMismatch => "V005",
            Code::BadInterface => "V006",
            Code::DanglingEdge => "V007",
            Code::OperatorContract => "V008",
            Code::DuplicateProducer => "V009",
            Code::ElementCountOverflow => "V010",
            Code::DeadNode => "W101",
            Code::DuplicateName => "W102",
            Code::WeightAliasing => "W103",
            Code::BatchDimMismatch => "W104",
            Code::SuspectWeight => "W105",
            Code::UnusedInput => "W106",
            Code::DeadValue => "W107",
            Code::RangeOverflow => "W108",
            Code::QuantSaturation => "I201",
            Code::ProvableRange => "I202",
            Code::InterfaceChanged => "T001",
        }
    }

    /// The severity every diagnostic with this code carries.
    #[must_use]
    pub fn severity(self) -> Severity {
        match self {
            Code::NodeIdMismatch
            | Code::UnknownTensorRef
            | Code::ScheduleViolation
            | Code::ShapeDisagreement
            | Code::WeightShapeMismatch
            | Code::BadInterface
            | Code::DanglingEdge
            | Code::OperatorContract
            | Code::DuplicateProducer
            | Code::ElementCountOverflow
            | Code::InterfaceChanged => Severity::Error,
            Code::DeadNode
            | Code::DuplicateName
            | Code::WeightAliasing
            | Code::BatchDimMismatch
            | Code::SuspectWeight
            | Code::UnusedInput
            | Code::DeadValue
            | Code::RangeOverflow => Severity::Warning,
            Code::QuantSaturation | Code::ProvableRange => Severity::Info,
        }
    }
}

impl fmt::Display for Code {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.as_str())
    }
}

/// One analysis finding.
#[derive(Debug, Clone, PartialEq)]
pub struct Diagnostic {
    /// Stable code (also fixes the severity).
    pub code: Code,
    /// Human-readable description of the violation.
    pub message: String,
    /// The offending node, when the finding is node-scoped.
    pub node: Option<NodeId>,
    /// The offending node's name, for logs that outlive the graph.
    pub node_name: Option<String>,
    /// The offending tensor, when the finding is tensor-scoped.
    pub tensor: Option<TensorId>,
    /// 1-based line this node occupies in [`crate::textual::write`]
    /// output — provenance back into the interchange format.
    pub text_line: Option<usize>,
    /// The legacy [`NnirError`] this finding maps to, when the checked
    /// invariant predates the analyzer (keeps [`Graph::validate`]'s
    /// error surface stable).
    pub source: Option<NnirError>,
}

impl Diagnostic {
    pub(crate) fn new(code: Code, message: impl Into<String>) -> Self {
        Diagnostic {
            code,
            message: message.into(),
            node: None,
            node_name: None,
            tensor: None,
            text_line: None,
            source: None,
        }
    }

    pub(crate) fn at_node(mut self, graph: &Graph, node: &Node) -> Self {
        self.node = Some(node.id);
        self.node_name = Some(node.name.clone());
        self.text_line = text_line_of_node(graph, node.id);
        self
    }

    pub(crate) fn at_tensor(mut self, tensor: TensorId) -> Self {
        self.tensor = Some(tensor);
        self
    }

    pub(crate) fn with_source(mut self, source: NnirError) -> Self {
        self.source = Some(source);
        self
    }

    /// Severity, derived from the code.
    #[must_use]
    pub fn severity(&self) -> Severity {
        self.code.severity()
    }

    /// Converts an Error-severity finding into the typed verifier
    /// rejection carried by [`NnirError::VerifierRejected`].
    #[must_use]
    pub fn to_error(&self) -> NnirError {
        let node = match (&self.node_name, self.node, self.tensor) {
            (Some(name), _, _) => name.clone(),
            (None, Some(id), _) => id.to_string(),
            (None, None, Some(t)) => t.to_string(),
            (None, None, None) => "graph".to_string(),
        };
        NnirError::VerifierRejected {
            code: self.code.as_str().to_string(),
            node,
            detail: self.message.clone(),
        }
    }

    /// The error [`Graph::validate`] reports for this finding: the
    /// legacy variant when the invariant predates the analyzer,
    /// otherwise [`NnirError::VerifierRejected`].
    #[must_use]
    pub fn to_legacy_error(&self) -> NnirError {
        self.source.clone().unwrap_or_else(|| self.to_error())
    }
}

impl fmt::Display for Diagnostic {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}[{}]", self.severity(), self.code)?;
        if let Some(name) = &self.node_name {
            let id = self.node.map(|n| n.to_string()).unwrap_or_default();
            write!(f, " {id} \"{name}\"")?;
        } else if let Some(t) = self.tensor {
            write!(f, " {t}")?;
        }
        if let Some(line) = self.text_line {
            write!(f, " @line {line}")?;
        }
        write!(f, ": {}", self.message)
    }
}

/// 1-based line a node occupies in [`crate::textual::write`] output:
/// line 1 is the `model` line, graph inputs follow, then one `node`
/// line per operator in schedule order.
#[must_use]
pub fn text_line_of_node(graph: &Graph, node: NodeId) -> Option<usize> {
    let idx = node.0;
    if idx >= graph.nodes().len() {
        return None;
    }
    let preceding = graph.nodes()[..idx]
        .iter()
        .filter(|n| !matches!(n.op, Op::Input(_)))
        .count();
    Some(1 + graph.inputs().len() + preceding + 1)
}

// --------------------------------------------------------------------
// Totals / Report
// --------------------------------------------------------------------

/// Per-severity finding counts — the shared summary formatter every
/// lint/verifier surface renders through (`"E errors, W warnings, I
/// infos"`).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Totals {
    /// Error-severity finding count.
    pub errors: usize,
    /// Warning-severity finding count.
    pub warnings: usize,
    /// Info-severity finding count.
    pub infos: usize,
}

impl Totals {
    /// Counts the findings in one diagnostic list.
    #[must_use]
    pub fn of(diagnostics: &[Diagnostic]) -> Self {
        let mut t = Totals::default();
        for d in diagnostics {
            t.add(d.severity());
        }
        t
    }

    /// Adds one finding at the given severity.
    pub fn add(&mut self, severity: Severity) {
        match severity {
            Severity::Error => self.errors += 1,
            Severity::Warning => self.warnings += 1,
            Severity::Info => self.infos += 1,
        }
    }

    /// Accumulates another set of counts (e.g. a per-model report into
    /// a suite total).
    pub fn accumulate(&mut self, other: Totals) {
        self.errors += other.errors;
        self.warnings += other.warnings;
        self.infos += other.infos;
    }

    /// Count at exactly the given severity.
    #[must_use]
    pub fn at(&self, severity: Severity) -> usize {
        match severity {
            Severity::Error => self.errors,
            Severity::Warning => self.warnings,
            Severity::Info => self.infos,
        }
    }
}

impl fmt::Display for Totals {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{} errors, {} warnings, {} infos",
            self.errors, self.warnings, self.infos
        )
    }
}

/// Maximum diagnostics printed per severity band in [`Report::render`].
pub(crate) const RENDER_CAP: usize = 20;

/// The outcome of running an [`Analyzer`](super::Analyzer) over one
/// graph.
#[derive(Debug, Clone, PartialEq)]
pub struct Report {
    /// Every finding, in pass order.
    pub diagnostics: Vec<Diagnostic>,
    /// Names of the passes that ran.
    pub passes_run: Vec<&'static str>,
}

impl Report {
    /// Findings at exactly the given severity.
    pub fn at(&self, severity: Severity) -> impl Iterator<Item = &Diagnostic> {
        self.diagnostics
            .iter()
            .filter(move |d| d.severity() == severity)
    }

    /// Per-severity finding counts.
    #[must_use]
    pub fn totals(&self) -> Totals {
        Totals::of(&self.diagnostics)
    }

    /// Number of Error-severity findings.
    #[must_use]
    pub fn error_count(&self) -> usize {
        self.at(Severity::Error).count()
    }

    /// Whether the graph is clean at (and above) the given severity.
    #[must_use]
    pub fn is_clean(&self, severity: Severity) -> bool {
        self.diagnostics.iter().all(|d| d.severity() < severity)
    }

    /// The first Error-severity finding, if any.
    #[must_use]
    pub fn first_error(&self) -> Option<&Diagnostic> {
        self.diagnostics
            .iter()
            .find(|d| d.severity() == Severity::Error)
    }

    /// Renders a human-readable lint report for one model.
    #[must_use]
    pub fn render(&self, model: &str) -> String {
        let mut out = String::new();
        out.push_str(&format!("lint {model}: {}\n", self.totals()));
        for severity in [Severity::Error, Severity::Warning, Severity::Info] {
            let band: Vec<&Diagnostic> = self.at(severity).collect();
            for d in band.iter().take(RENDER_CAP) {
                out.push_str(&format!("  {d}\n"));
            }
            if band.len() > RENDER_CAP {
                out.push_str(&format!(
                    "  ... and {} more {severity} findings\n",
                    band.len() - RENDER_CAP
                ));
            }
        }
        out
    }
}
