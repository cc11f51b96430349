//! Observability substrate for the VEDLIoT reproduction.
//!
//! The paper's evaluation methodology is *measurement*: Fig. 4 compares
//! measured against theoretical performance per platform, and §II-A's
//! dynamically configurable infrastructure is driven by per-node
//! power/thermal/utilization telemetry. This crate is the shared
//! machinery that lets every subsystem produce such measurements
//! without perturbing the thing being measured:
//!
//! * [`hist`] — wait-free log2-bucketed atomic histograms. Workers
//!   record a sample with a handful of relaxed atomic increments; a
//!   snapshot yields the *full* latency distribution, not just two
//!   percentiles (and replaces the serving layer's old
//!   mutex-guarded rolling window — the reply-path hot lock).
//! * [`trace`] — a bounded lock-free ring of request-lifecycle
//!   [`SpanRecord`]s. Each request's timeline (enqueue → queue-wait →
//!   batch-linger → dispatch → execute → reply) is written with
//!   per-slot seqlock versioning: writers never block, readers retry
//!   until they observe a torn-free record.
//! * [`export`] — one [`Exportable`] trait and two renderers
//!   (hand-rolled JSON and Prometheus text exposition) shared
//!   by serving metrics, runner profiles and RECS telemetry, so every
//!   subsystem exports over the same path. The vendored `serde` is a
//!   no-op stand-in, so the JSON model here *is* the wire format — it
//!   round-trips through [`export::Export::from_json`].
//! * [`journal`] — the flight recorder: a bounded seqlock ring of
//!   typed, timestamped [`Event`]s with stable J-codes and namespaced
//!   [`CauseId`] correlation, so "why did device 117 roll back" is a
//!   [`chain`](journal::EventJournal::chain) query, not a re-run.
//!   The journal and the trace ring are thin typed wrappers over one
//!   private seqlock ring, so its protocol exists once.
//! * [`series`] — windowed time-series: a ring of fixed-width time
//!   buckets (rate / error-ratio / quantile-over-window) over
//!   caller-supplied `u64` instants, so fleet ticks and serve
//!   submission seqs both work and seeded runs reproduce bucket
//!   contents exactly.
//! * [`slo`] — declared objectives (availability, p99, event budgets)
//!   evaluated as multi-window burn rates; alerts are journal events,
//!   closing the observe→act loop (serve can drive `Health` off burn).
//!
//! The overhead budget (DESIGN.md §9): disabled observability costs one
//! branch per batch; enabled tracing is a few relaxed atomics per
//! request and must stay within a single-digit-percent tax, asserted
//! live by experiment E23 (`harness observe`); the journal + SLO layer
//! is held to the same budget by E28 (`harness slo`).

pub mod export;
pub mod hist;
pub mod journal;
mod ring;
pub mod series;
pub mod slo;
pub mod trace;

pub use export::{Export, Exportable, Metric, MetricValue};
pub use hist::{Histogram, HistogramSnapshot};
pub use journal::{CauseId, Event, EventJournal, EventKind};
pub use series::TimeSeries;
pub use slo::{BurnRate, BurnWindows, Objective, Slo, SloEngine, SloState, SloTransition};
pub use trace::{SpanOutcome, SpanRecord, StageBreakdown, TraceRing};
