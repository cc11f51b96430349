//! Error type for graph construction, inference and execution.

use std::fmt;

/// Coarse failure classification used by retry logic.
///
/// A fault-tolerant caller (the serving layer, an offload controller)
/// needs exactly one bit about an error: is trying again ever going to
/// help? [`NnirError::class`] and `ServeError::class` in
/// `vedliot-serve` answer that question uniformly.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ErrorClass {
    /// The failure was caused by transient conditions (a crashed
    /// worker, momentary overload, an injected soft error); an
    /// identical retry may succeed.
    Transient,
    /// The failure is deterministic for this input/graph/configuration;
    /// retrying the identical operation will fail the identical way.
    Permanent,
}

impl ErrorClass {
    /// Whether a retry of the identical operation may succeed.
    #[must_use]
    pub fn is_transient(self) -> bool {
        self == ErrorClass::Transient
    }
}

/// Error produced by IR construction, shape inference or execution.
///
/// The variants follow the verb-object-error convention and carry enough
/// context to diagnose a malformed graph without a debugger.
#[derive(Debug, Clone, PartialEq)]
#[non_exhaustive]
pub enum NnirError {
    /// A shape did not satisfy an operator's constraints.
    ShapeMismatch {
        /// Operator (or context) that rejected the shape.
        op: String,
        /// Human-readable description of the violated constraint.
        detail: String,
    },
    /// A referenced tensor id does not exist in the graph.
    UnknownTensor(usize),
    /// A referenced node id does not exist in the graph.
    UnknownNode(usize),
    /// The graph contains a cycle and cannot be scheduled.
    GraphCyclic,
    /// An operator received the wrong number of inputs.
    ArityMismatch {
        /// Operator name.
        op: String,
        /// Number of inputs the operator requires.
        expected: usize,
        /// Number of inputs actually wired.
        got: usize,
    },
    /// Execution was attempted with a missing or ill-typed weight/input.
    ExecutionFailure(String),
    /// An attribute value was invalid (e.g. zero stride).
    InvalidAttribute {
        /// Operator name.
        op: String,
        /// Description of the invalid attribute.
        detail: String,
    },
    /// A runner's value arena would hold more bytes than one buffer can,
    /// `isize::MAX`.
    ArenaTooLarge {
        /// The graph's name.
        graph: String,
        /// Bytes the arena needs, saturated at `u64::MAX`.
        bytes: u64,
    },
    /// The static verifier ([`crate::analysis`]) rejected the graph at a
    /// gate point (pre-execution, or after a toolchain transform).
    VerifierRejected {
        /// Stable diagnostic code (`V001`, `T001`, ...).
        code: String,
        /// The offending node's name (or a tensor/graph identifier when
        /// the finding is not node-scoped).
        node: String,
        /// Human-readable description of the violated invariant.
        detail: String,
    },
}

impl NnirError {
    /// Classifies the error for retry decisions.
    ///
    /// The in-process engine is deterministic: a graph that fails
    /// validation, shape inference or execution fails the same way on
    /// every attempt — so every current variant is
    /// [`ErrorClass::Permanent`]. The method exists so layered callers
    /// (serving, offload) classify engine errors through the same
    /// interface as their own transient faults (crashed workers, full
    /// queues), and so future genuinely transient variants slot in
    /// without touching call sites.
    #[must_use]
    pub fn class(&self) -> ErrorClass {
        ErrorClass::Permanent
    }
}

impl fmt::Display for NnirError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            NnirError::ShapeMismatch { op, detail } => {
                write!(f, "shape mismatch in {op}: {detail}")
            }
            NnirError::UnknownTensor(id) => write!(f, "unknown tensor id {id}"),
            NnirError::UnknownNode(id) => write!(f, "unknown node id {id}"),
            NnirError::GraphCyclic => write!(f, "graph contains a cycle"),
            NnirError::ArityMismatch { op, expected, got } => {
                write!(f, "{op} expects {expected} inputs, got {got}")
            }
            NnirError::ExecutionFailure(detail) => write!(f, "execution failure: {detail}"),
            NnirError::InvalidAttribute { op, detail } => {
                write!(f, "invalid attribute on {op}: {detail}")
            }
            NnirError::ArenaTooLarge { graph, bytes } => {
                write!(
                    f,
                    "{graph} needs an arena of {bytes} bytes, over isize::MAX"
                )
            }
            NnirError::VerifierRejected { code, node, detail } => {
                write!(f, "verifier rejected graph: [{code}] {node}: {detail}")
            }
        }
    }
}

impl std::error::Error for NnirError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_is_lowercase_and_specific() {
        let err = NnirError::ArityMismatch {
            op: "Conv2d".into(),
            expected: 1,
            got: 3,
        };
        let text = err.to_string();
        assert!(text.contains("Conv2d"));
        assert!(text.contains('1') && text.contains('3'));
    }

    #[test]
    fn error_is_send_sync() {
        fn assert_send_sync<T: Send + Sync>() {}
        assert_send_sync::<NnirError>();
    }

    #[test]
    fn engine_errors_are_permanent() {
        // The deterministic engine never produces a transiently
        // retryable failure; the serving layer relies on this to send
        // deterministic batch failures to quarantine instead of
        // burning retry attempts on them.
        let samples = [
            NnirError::GraphCyclic,
            NnirError::UnknownTensor(3),
            NnirError::ExecutionFailure("missing weight".into()),
            NnirError::VerifierRejected {
                code: "V003".into(),
                node: "conv1".into(),
                detail: "cycle".into(),
            },
        ];
        for e in samples {
            assert_eq!(e.class(), ErrorClass::Permanent);
            assert!(!e.class().is_transient());
        }
    }

    /// `Display` stability: downstream logs and dashboards key on these
    /// exact strings; adding fault variants must not change them.
    #[test]
    fn display_strings_are_stable() {
        assert_eq!(
            NnirError::UnknownTensor(7).to_string(),
            "unknown tensor id 7"
        );
        assert_eq!(NnirError::GraphCyclic.to_string(), "graph contains a cycle");
        assert_eq!(
            NnirError::ExecutionFailure("bad weight".into()).to_string(),
            "execution failure: bad weight"
        );
        assert_eq!(
            NnirError::VerifierRejected {
                code: "V004".into(),
                node: "conv1".into(),
                detail: "records [1x4] but re-inference gives [1x5]".into(),
            }
            .to_string(),
            "verifier rejected graph: [V004] conv1: records [1x4] but re-inference gives [1x5]"
        );
    }
}
