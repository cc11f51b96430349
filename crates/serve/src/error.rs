//! Typed serving errors.
//!
//! Every way a request can fail to produce an output is a distinct
//! variant — the serving contract is that no request is ever silently
//! dropped, so callers can always distinguish "the queue was full" from
//! "you were too late" from "the model itself failed".
//!
//! Each error also carries a retry classification
//! ([`ServeError::class`]): transient failures (a crashed worker, a
//! full queue) may succeed when retried, permanent ones (a poisoned
//! input, an expired deadline) never will. The resilience layer in
//! [`crate::resilience`] keys every retry/quarantine decision off this
//! single bit.

use std::fmt;
use vedliot_nnir::{ErrorClass, NnirError};

/// Error returned by the serving front-end.
///
/// Marked `#[non_exhaustive]`: fault-tolerance work adds failure
/// variants over time, and downstream matches must keep a wildcard arm
/// (the Display strings of existing variants are covenanted stable —
/// see the `display_strings_are_stable` test).
#[derive(Debug, Clone, PartialEq)]
#[non_exhaustive]
pub enum ServeError {
    /// The bounded submission queue was full; the request was rejected
    /// at the door (backpressure, not loss).
    Rejected {
        /// The configured queue capacity that was exhausted.
        capacity: usize,
    },
    /// The request's deadline expired before a worker started executing
    /// it. The request was purged from the queue, never run.
    DeadlineExceeded,
    /// The server is shutting down and no longer accepts submissions.
    ShuttingDown,
    /// The [`ServeConfig`](crate::ServeConfig) is unusable.
    InvalidConfig(String),
    /// The submitted inputs do not match the model's single-sample
    /// input signature.
    InvalidInput(String),
    /// The underlying batched forward pass failed.
    Execution(NnirError),
    /// The server dropped the reply channel without answering — only
    /// possible if a worker thread died outside panic isolation.
    Disconnected,
    /// A worker panicked while executing the batch. The panic was
    /// absorbed by the isolation boundary; the batch is retryable.
    WorkerCrashed {
        /// The panic payload, best-effort stringified.
        detail: String,
    },
    /// This request was isolated by batch bisection as the
    /// deterministic cause of repeated batch failures, and only it was
    /// failed — its co-batched neighbours were served.
    Quarantined {
        /// Display form of the underlying deterministic failure.
        detail: String,
    },
    /// The request named a model key that is not loaded in the gateway
    /// registry.
    UnknownModel {
        /// The model key the request asked for.
        model: String,
    },
    /// The model's share of the gateway queue is exhausted; admitting
    /// this request would let one tenant starve the others.
    QuotaExceeded {
        /// The per-model queue quota that was exhausted.
        quota: usize,
    },
    /// The request was shed by priority-class admission: either it was
    /// evicted from the queue to make room for strictly-higher-priority
    /// work, or it arrived while degraded admission had closed (or
    /// shrunk) its class and nothing lower-priority could be displaced
    /// instead.
    ShedLowPriority,
}

impl ServeError {
    /// Classifies the error for retry decisions (see
    /// [`ErrorClass`]).
    ///
    /// Transient: [`Rejected`](Self::Rejected) (queue pressure drains),
    /// [`WorkerCrashed`](Self::WorkerCrashed) (the crash may have been
    /// a soft error — an SEU, a storm — that a retry escapes),
    /// [`Disconnected`](Self::Disconnected) (a respawned worker can
    /// answer a resubmission), [`QuotaExceeded`](Self::QuotaExceeded)
    /// (the tenant's queue share drains) and
    /// [`ShedLowPriority`](Self::ShedLowPriority) (degradation passes,
    /// higher-priority pressure subsides). Everything else is
    /// deterministic for the request and permanent — including
    /// [`UnknownModel`](Self::UnknownModel): retrying a request for a
    /// model nobody loaded cannot succeed. Engine failures defer to
    /// [`NnirError::class`].
    #[must_use]
    pub fn class(&self) -> ErrorClass {
        match self {
            ServeError::Rejected { .. } | ServeError::WorkerCrashed { .. } => ErrorClass::Transient,
            ServeError::QuotaExceeded { .. } | ServeError::ShedLowPriority => ErrorClass::Transient,
            ServeError::Disconnected => ErrorClass::Transient,
            ServeError::Execution(e) => e.class(),
            _ => ErrorClass::Permanent,
        }
    }
}

impl fmt::Display for ServeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ServeError::Rejected { capacity } => {
                write!(f, "submission queue full (capacity {capacity})")
            }
            ServeError::DeadlineExceeded => {
                write!(f, "request deadline expired before execution")
            }
            ServeError::ShuttingDown => write!(f, "server is shutting down"),
            ServeError::InvalidConfig(detail) => write!(f, "invalid serve config: {detail}"),
            ServeError::InvalidInput(detail) => write!(f, "invalid request input: {detail}"),
            ServeError::Execution(e) => write!(f, "batched execution failed: {e}"),
            ServeError::Disconnected => write!(f, "server dropped the reply channel"),
            ServeError::WorkerCrashed { detail } => {
                write!(f, "worker crashed executing the batch: {detail}")
            }
            ServeError::Quarantined { detail } => {
                write!(f, "request quarantined as poisoned: {detail}")
            }
            ServeError::UnknownModel { model } => {
                write!(f, "unknown model '{model}'")
            }
            ServeError::QuotaExceeded { quota } => {
                write!(f, "per-model queue quota exhausted (quota {quota})")
            }
            ServeError::ShedLowPriority => {
                write!(f, "request shed: admission prefers higher-priority work")
            }
        }
    }
}

impl std::error::Error for ServeError {}

impl From<NnirError> for ServeError {
    fn from(e: NnirError) -> Self {
        ServeError::Execution(e)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Display stability covenant: these exact strings are what logs,
    /// dashboards and downstream `to_string()` matches see. Adding new
    /// fault variants (the enum is `#[non_exhaustive]` for exactly that
    /// reason) must never reword an existing variant.
    #[test]
    fn display_strings_are_stable() {
        assert_eq!(
            ServeError::Rejected { capacity: 8 }.to_string(),
            "submission queue full (capacity 8)"
        );
        assert_eq!(
            ServeError::DeadlineExceeded.to_string(),
            "request deadline expired before execution"
        );
        assert_eq!(
            ServeError::ShuttingDown.to_string(),
            "server is shutting down"
        );
        assert_eq!(
            ServeError::InvalidConfig("zero workers".into()).to_string(),
            "invalid serve config: zero workers"
        );
        assert_eq!(
            ServeError::InvalidInput("bad shape".into()).to_string(),
            "invalid request input: bad shape"
        );
        assert_eq!(
            ServeError::Execution(NnirError::GraphCyclic).to_string(),
            "batched execution failed: graph contains a cycle"
        );
        assert_eq!(
            ServeError::Disconnected.to_string(),
            "server dropped the reply channel"
        );
        assert_eq!(
            ServeError::WorkerCrashed {
                detail: "chaos".into()
            }
            .to_string(),
            "worker crashed executing the batch: chaos"
        );
        assert_eq!(
            ServeError::Quarantined {
                detail: "poisoned input".into()
            }
            .to_string(),
            "request quarantined as poisoned: poisoned input"
        );
        assert_eq!(
            ServeError::UnknownModel {
                model: "lenet5".into()
            }
            .to_string(),
            "unknown model 'lenet5'"
        );
        assert_eq!(
            ServeError::QuotaExceeded { quota: 4 }.to_string(),
            "per-model queue quota exhausted (quota 4)"
        );
        assert_eq!(
            ServeError::ShedLowPriority.to_string(),
            "request shed: admission prefers higher-priority work"
        );
    }

    #[test]
    fn nnir_errors_convert() {
        let e: ServeError = NnirError::GraphCyclic.into();
        assert_eq!(e, ServeError::Execution(NnirError::GraphCyclic));
    }

    #[test]
    fn classification_partitions_transient_from_permanent() {
        assert!(ServeError::Rejected { capacity: 4 }.class().is_transient());
        assert!(ServeError::WorkerCrashed { detail: "x".into() }
            .class()
            .is_transient());
        assert!(ServeError::Disconnected.class().is_transient());
        assert!(ServeError::QuotaExceeded { quota: 2 }
            .class()
            .is_transient());
        assert!(ServeError::ShedLowPriority.class().is_transient());
        for permanent in [
            ServeError::DeadlineExceeded,
            ServeError::ShuttingDown,
            ServeError::InvalidConfig("c".into()),
            ServeError::InvalidInput("i".into()),
            ServeError::Execution(NnirError::GraphCyclic),
            ServeError::Quarantined { detail: "p".into() },
            ServeError::UnknownModel { model: "m".into() },
        ] {
            assert_eq!(permanent.class(), ErrorClass::Permanent);
        }
    }
}
