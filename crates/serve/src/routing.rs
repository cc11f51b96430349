//! Multi-tenant routing types: priority classes, the typed submit
//! request, and per-model pool configuration.
//!
//! The serving gateway hosts a *zoo* of models (the four VEDLIoT use
//! cases run LeNet-scale detectors up to ResNet-class networks on one
//! shared platform), so a submission names which model it wants and how
//! important it is. [`SubmitRequest`] is the one client-facing door:
//!
//! ```
//! use vedliot_serve::{Priority, SubmitRequest};
//! use vedliot_nnir::{Shape, Tensor};
//!
//! let input = Tensor::random(Shape::nchw(1, 1, 8, 8), 7, 1.0);
//! let req = SubmitRequest::new(vec![input])
//!     .model("gesture")
//!     .priority(Priority::High);
//! # let _ = req;
//! ```
//!
//! [`Priority`] orders admission: while a pool is degraded the gateway
//! sheds lowest-priority-first, and an arriving higher-priority request
//! may displace queued lower-priority work rather than be refused.
//! [`ModelConfig`] sizes one tenant's pool (workers, weighted capacity
//! share, optional hard quota, batching and fault-injection policy).

use crate::resilience::FaultPlan;
use crate::server::{BatchPolicy, GoldenPolicy};
use std::fmt;
use std::time::Instant;
use vedliot_nnir::Tensor;

/// Request priority class. Declaration order is admission order:
/// [`Priority::High`] is never shed while strictly lower-priority work
/// remains queued in the same pool, and the batcher drains classes in
/// this order.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub enum Priority {
    /// Latency-critical traffic (the last to be shed).
    High,
    /// Ordinary interactive traffic (the default).
    #[default]
    Normal,
    /// Throughput/background traffic (the first to be shed; admission
    /// closes entirely for this class while a pool is degraded).
    Batch,
}

impl Priority {
    /// Every class, highest first — the shed order reversed.
    pub const ALL: [Priority; 3] = [Priority::High, Priority::Normal, Priority::Batch];

    /// Dense index (0 = high, 1 = normal, 2 = batch) — also the queue
    /// index inside a pool and the span `priority` code.
    #[must_use]
    pub fn index(self) -> usize {
        match self {
            Priority::High => 0,
            Priority::Normal => 1,
            Priority::Batch => 2,
        }
    }

    /// Stable lowercase label used by the metric exporters.
    #[must_use]
    pub fn as_label(self) -> &'static str {
        match self {
            Priority::High => "high",
            Priority::Normal => "normal",
            Priority::Batch => "batch",
        }
    }

    /// The class with dense index `i` (see [`Priority::index`]).
    ///
    /// # Panics
    ///
    /// Panics if `i >= 3`.
    #[must_use]
    pub fn from_index(i: usize) -> Priority {
        Priority::ALL[i]
    }
}

impl fmt::Display for Priority {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.as_label())
    }
}

/// A typed, buildable submission: the inputs plus where and how they
/// should run.
#[derive(Debug, Clone)]
pub struct SubmitRequest {
    pub(crate) inputs: Vec<Tensor>,
    pub(crate) model: Option<String>,
    pub(crate) priority: Priority,
    pub(crate) deadline: Option<Instant>,
}

impl SubmitRequest {
    /// A request carrying one single-sample tensor per graph input,
    /// aimed at the default model at [`Priority::Normal`] with no
    /// deadline.
    #[must_use]
    pub fn new(inputs: Vec<Tensor>) -> Self {
        SubmitRequest {
            inputs,
            model: None,
            priority: Priority::Normal,
            deadline: None,
        }
    }

    /// Routes the request to the model registered under `key` instead
    /// of the default model.
    #[must_use]
    pub fn model(mut self, key: impl Into<String>) -> Self {
        self.model = Some(key.into());
        self
    }

    /// Sets the priority class.
    #[must_use]
    pub fn priority(mut self, priority: Priority) -> Self {
        self.priority = priority;
        self
    }

    /// Sets an execution deadline; a request still queued past it is
    /// purged with `ServeError::DeadlineExceeded`, never run late.
    #[must_use]
    pub fn deadline(mut self, deadline: Instant) -> Self {
        self.deadline = Some(deadline);
        self
    }
}

/// Per-model pool configuration for [`Server::load`](crate::Server::load).
///
/// Gateway-wide policy (total queue capacity, intra-batch parallelism,
/// the resilience layers, tracing) comes from
/// [`ServeConfig`](crate::ServeConfig); this struct sizes one tenant.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ModelConfig {
    /// Worker threads dedicated to this model's pool.
    pub workers: usize,
    /// Relative capacity share. A model with weight `w` out of a total
    /// `W` across loaded models gets a default queue quota of
    /// `max(1, w·C/W)` slots of the gateway capacity `C`.
    pub weight: u32,
    /// Hard per-model queue quota, overriding the weight-derived share.
    /// Bounds how much of the shared queue one tenant can occupy.
    pub quota: Option<usize>,
    /// Dynamic batching policy for this pool.
    pub batch: BatchPolicy,
    /// Golden-copy output checking; `None` disables it.
    pub golden: Option<GoldenPolicy>,
    /// Chaos-injection test hook scoped to this pool; `None` (the
    /// default) injects nothing.
    pub chaos: Option<FaultPlan>,
}

impl Default for ModelConfig {
    fn default() -> Self {
        ModelConfig {
            workers: 1,
            weight: 1,
            quota: None,
            batch: BatchPolicy::default(),
            golden: None,
            chaos: None,
        }
    }
}

impl ModelConfig {
    /// Sets the worker count.
    #[must_use]
    pub fn workers(mut self, workers: usize) -> Self {
        self.workers = workers;
        self
    }

    /// Sets the relative capacity weight.
    #[must_use]
    pub fn weight(mut self, weight: u32) -> Self {
        self.weight = weight;
        self
    }

    /// Sets a hard queue quota.
    #[must_use]
    pub fn quota(mut self, quota: usize) -> Self {
        self.quota = Some(quota);
        self
    }

    /// Sets the batching policy.
    #[must_use]
    pub fn batch(mut self, batch: BatchPolicy) -> Self {
        self.batch = batch;
        self
    }

    /// Enables golden-copy output checking.
    #[must_use]
    pub fn golden(mut self, golden: GoldenPolicy) -> Self {
        self.golden = Some(golden);
        self
    }

    /// Arms a chaos fault plan for this pool.
    #[must_use]
    pub fn chaos(mut self, chaos: FaultPlan) -> Self {
        self.chaos = Some(chaos);
        self
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::Duration;
    use vedliot_nnir::Shape;

    #[test]
    fn priority_order_and_labels_are_stable() {
        assert!(Priority::High < Priority::Normal);
        assert!(Priority::Normal < Priority::Batch);
        assert_eq!(Priority::default(), Priority::Normal);
        for (i, p) in Priority::ALL.into_iter().enumerate() {
            assert_eq!(p.index(), i);
            assert_eq!(Priority::from_index(i), p);
        }
        assert_eq!(Priority::High.to_string(), "high");
        assert_eq!(Priority::Normal.to_string(), "normal");
        assert_eq!(Priority::Batch.to_string(), "batch");
    }

    #[test]
    fn submit_request_builder_sets_every_field() {
        let input = Tensor::random(Shape::nchw(1, 1, 4, 4), 1, 1.0);
        let deadline = Instant::now() + Duration::from_secs(1);
        let req = SubmitRequest::new(vec![input])
            .model("zoo-a")
            .priority(Priority::Batch)
            .deadline(deadline);
        assert_eq!(req.model.as_deref(), Some("zoo-a"));
        assert_eq!(req.priority, Priority::Batch);
        assert_eq!(req.deadline, Some(deadline));
        assert_eq!(req.inputs.len(), 1);
        let bare = SubmitRequest::new(vec![]);
        assert_eq!(bare.model, None);
        assert_eq!(bare.priority, Priority::Normal);
        assert_eq!(bare.deadline, None);
    }

    #[test]
    fn model_config_default_is_one_worker_weight_one() {
        let cfg = ModelConfig::default();
        assert_eq!((cfg.workers, cfg.weight, cfg.quota), (1, 1, None));
        let cfg = cfg.workers(3).weight(5).quota(7);
        assert_eq!((cfg.workers, cfg.weight, cfg.quota), (3, 5, Some(7)));
    }
}
