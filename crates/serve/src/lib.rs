//! `vedliot-serve` — multi-tenant batched serving gateway for VEDLIoT
//! models.
//!
//! The paper's pipeline ends at an optimised model; this crate is the
//! piece that puts a *zoo* of them in front of traffic on an edge node.
//! A model registry hosts many verified graphs concurrently
//! ([`Server::load`] / [`Server::unload`] are hot — unload drains
//! in-flight work before returning). Requests enter through a typed
//! [`SubmitRequest`] naming a model and a [`Priority`] class, a
//! per-model dynamic batcher coalesces them along axis 0 (close on
//! `max_batch` reached or `max_linger` elapsed), and each model's
//! worker pool executes
//! batches through the one-door [`Runner`](vedliot_nnir::exec::Runner)
//! API — one warm arena-backed runner per batch size per worker.
//!
//! The serving contract:
//!
//! - **No request is silently dropped.** Every submission is answered
//!   with outputs or a typed [`ServeError`]; after
//!   [`Server::shutdown`], `served + rejected + timed_out + failed`
//!   equals `submitted` ([`MetricsSnapshot::accounted_for`]) — per
//!   model and for the merged gateway aggregate.
//! - **Backpressure over buffering.** A full gateway queue rejects at
//!   the door with [`ServeError::Rejected`]; a tenant that exhausts its
//!   weighted queue share is refused with [`ServeError::QuotaExceeded`]
//!   before it can starve the others.
//! - **Priority admission sheds lowest-first.** Under pressure the
//!   queue evicts the youngest request of the lowest queued class to
//!   admit strictly-higher-priority work
//!   ([`ServeError::ShedLowPriority`]), and degraded health closes
//!   `Batch` admission entirely — `Priority::High` is never refused
//!   while lower-priority work sits queued.
//! - **Deadlines are enforced before execution.** An expired request is
//!   purged with [`ServeError::DeadlineExceeded`], never run late.
//! - **Batching is invisible and never crosses models.** Kernels reduce
//!   batch rows independently in identical element order, so a
//!   coalesced request receives bit-identical bytes to a solo run
//!   (property-tested in `tests/serving.rs`), and a batch only ever
//!   holds requests for its own pool's model.
//! - **Faults stay contained — per tenant.** A panicking batch is
//!   absorbed at the worker's isolation boundary
//!   ([`ServeError::WorkerCrashed`]), transient failures retry under a
//!   bounded-backoff [`RetryPolicy`], deterministically failing batches
//!   are bisected so only the poisoned request fails
//!   ([`ServeError::Quarantined`]), and a supervisor respawns dead
//!   worker threads within a budget. One model's poisoned traffic
//!   cannot degrade another tenant's pool (seeded chaos harness:
//!   [`FaultPlan`], `tests/chaos.rs`, experiments E22/E25).
//! - **Observability is free when off, cheap when on.** Latency
//!   percentiles come from a wait-free log2 histogram (no lock on the
//!   reply path), queue depth / high-water mark / inflight gauges ride
//!   the existing atomics, per-priority counters make class
//!   availability a snapshot read, and opt-in request tracing
//!   ([`TracePolicy`]) records a per-request stage timeline
//!   (enqueue → queue-wait → linger → execute → reply) tagged with
//!   model and priority into a lock-free ring read by
//!   [`Server::trace_spans`] — experiment E23 measures the tax.
//! - **Incidents explain themselves.** An opt-in flight recorder
//!   ([`JournalPolicy`]) journals admission, shed, displacement, retry,
//!   quarantine and worker-crash events with causal links
//!   ([`Server::journal_chain`] answers "what shed this request?").
//!   Every reply takes one path that updates the counters, the SLO
//!   record, the trace span and the journal together, so the ledgers
//!   cannot disagree. An opt-in SLO engine ([`SloPolicy`]) evaluates
//!   availability and p99-latency objectives as multi-window burn
//!   rates on the submission-seq clock — with `drive_health`, a firing
//!   alert flips every pool to [`Health::Degraded`] shedding, and each
//!   shed cites the alert event that caused it (experiment E28
//!   measures the tax and checks the accounting is exact).

pub mod error;
pub mod metrics;
mod pool;
pub mod resilience;
pub mod routing;
pub mod server;

pub use error::ServeError;
pub use metrics::MetricsSnapshot;
pub use resilience::{FaultPlan, Health, ResilienceConfig, RetryPolicy};
pub use routing::{ModelConfig, Priority, SubmitRequest};
pub use server::{
    BatchPolicy, GoldenPolicy, JournalPolicy, ServeConfig, ServeConfigBuilder, Server, SloPolicy,
    Ticket, TracePolicy, DEFAULT_MODEL,
};
// Journal and SLO vocabulary, so callers can chain causes and read
// burn state without depending on vedliot-obs directly.
pub use vedliot_obs::{
    BurnWindows, CauseId, Event, EventKind, Objective, Slo, SloState, SloTransition,
};
