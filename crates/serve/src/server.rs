//! The serving gateway: a registry of per-model worker pools behind one
//! typed front door.
//!
//! [`Server::start`] boots the gateway with one model (registered as
//! `"default"`); [`Server::load`] / [`Server::unload`] grow and shrink
//! the zoo at runtime without stopping traffic. Each model gets its own
//! pool: priority queues, worker threads, metrics, chaos stream and
//! golden service — isolation is per tenant, while the gateway enforces
//! the global queue capacity and hosts the shared span ring.
//!
//! Clients submit through [`Server::submit_request`] with a typed
//! [`SubmitRequest`] naming the model and
//! [`Priority`](crate::Priority) class.
//!
//! The per-pool serving pipeline — dynamic batching under the
//! bit-identical batching contract, four-layer fault tolerance (panic
//! isolation, bounded-backoff retry, quarantine bisection, supervised
//! respawn) and golden-copy output checking — is documented in the
//! private `pool` module, together with the priority admission/eviction
//! protocol and the one path every reply takes.

use crate::error::ServeError;
use crate::metrics::MetricsSnapshot;
use crate::pool::{GatewayShared, ModelPool, SloShared};
use crate::resilience::{FaultPlan, Health, ResilienceConfig};
use crate::routing::{ModelConfig, SubmitRequest};
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::{mpsc, Arc, Mutex, PoisonError, RwLock};
use std::time::{Duration, Instant};
use vedliot_nnir::exec::Parallelism;
use vedliot_nnir::{Graph, Tensor};
use vedliot_obs::{
    BurnWindows, CauseId, Event, EventJournal, EventKind, Export, Exportable, Objective, Slo,
    SloEngine, SloState, SloTransition, SpanRecord, TraceRing,
};

/// Key [`Server::start`] registers its boot model under.
pub const DEFAULT_MODEL: &str = "default";

/// Batch-closure policy for the dynamic batcher.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct BatchPolicy {
    /// Largest number of requests coalesced into one forward pass.
    pub max_batch: usize,
    /// Longest the oldest queued request may wait for companions before
    /// its (possibly partial) batch executes.
    pub max_linger: Duration,
}

impl BatchPolicy {
    /// Degenerate policy: every request executes alone, immediately.
    #[must_use]
    pub fn sequential() -> Self {
        BatchPolicy {
            max_batch: 1,
            max_linger: Duration::ZERO,
        }
    }
}

impl Default for BatchPolicy {
    fn default() -> Self {
        BatchPolicy {
            max_batch: 8,
            max_linger: Duration::from_micros(500),
        }
    }
}

/// Golden-check policy: route sampled (input, output) pairs through a
/// robustness service holding an uncorrupted copy of the model taken at
/// load time (paper §IV-B — the robustness service "holds a copy of the
/// DL model and can verify the correctness of the output data").
/// Divergences surface as [`MetricsSnapshot::golden_mismatches`]; with
/// `repair` the diverged reply is replaced by the golden output.
///
/// Requires a single-input, single-output model.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct GoldenPolicy {
    /// Check every `period`-th served request (1 = check everything).
    pub period: u64,
    /// Maximum absolute output difference tolerated before a pair
    /// counts as diverged.
    pub tolerance: f32,
    /// Replace diverged outputs with the golden copy's answer instead
    /// of serving the corrupted one.
    pub repair: bool,
}

impl Default for GoldenPolicy {
    fn default() -> Self {
        GoldenPolicy {
            period: 8,
            tolerance: 1e-4,
            repair: true,
        }
    }
}

/// Request-lifecycle tracing policy: every request gets a
/// [`SpanRecord`] timeline (enqueue → queue-wait → batch-linger →
/// execute → reply) written into a bounded lock-free ring at reply
/// time, labelled with the model id and priority class. Read the ring
/// with [`Server::trace_spans`].
///
/// Tracing off (`ServeConfig::trace = None`, the default) costs zero
/// extra clock reads on the request path.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TracePolicy {
    /// Spans retained in the ring; once full, new spans overwrite the
    /// oldest slots.
    pub capacity: usize,
}

impl Default for TracePolicy {
    fn default() -> Self {
        TracePolicy { capacity: 1024 }
    }
}

/// Flight-recorder policy: the gateway appends typed, causally
/// correlated [`Event`]s (admission, shedding, displacement, retries,
/// quarantines, worker crashes, model load/unload, health transitions)
/// into a bounded [`EventJournal`]. Read it with
/// [`Server::journal_events`]; answer "what shed this request" with
/// [`Server::journal_chain`].
///
/// Off (`ServeConfig::journal = None`, the default) costs zero branches
/// on the request path beyond one `Option` check per emission site.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct JournalPolicy {
    /// Events retained in the ring; once full, new events overwrite the
    /// oldest slots (sequence numbers keep citations unambiguous).
    pub capacity: usize,
}

impl Default for JournalPolicy {
    fn default() -> Self {
        JournalPolicy { capacity: 4096 }
    }
}

/// Burn-rate SLO policy: declared objectives evaluated as multi-window
/// burn rates over the stream of request outcomes.
///
/// The engine's clock is the **submission sequence number** (not wall
/// time), so seeded replays evaluate bit-identically: the same request
/// outcomes in the same order produce the same burns and the same
/// alerts. Evaluation happens only at explicit
/// [`Server::evaluate_slo`] calls — the engine never evaluates behind
/// the caller's back, which is what makes burn-driven degradation
/// deterministic under replay (experiment E28).
///
/// With `drive_health`, a firing alert flips admission to degraded mode
/// (the same shedding [`ResilienceConfig::shed_to`] governs) until a
/// later evaluation clears it — health driven by the error *budget*
/// instead of raw queue depth.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SloPolicy {
    /// Availability objective: at most `1 - target` of requests may
    /// fail. `None` skips the objective.
    pub availability: Option<f64>,
    /// Latency objective: at most 1% of requests may exceed this bound
    /// (µs). `None` skips the objective.
    pub p99_max_us: Option<u64>,
    /// Burn windows, in submission-seq units, shared by every
    /// objective.
    pub windows: BurnWindows,
    /// Whether a firing alert drives [`Health::Degraded`] admission.
    pub drive_health: bool,
}

impl Default for SloPolicy {
    fn default() -> Self {
        SloPolicy {
            availability: Some(0.99),
            p99_max_us: None,
            windows: BurnWindows {
                short: 25,
                long: 100,
                threshold: 2.0,
            },
            drive_health: false,
        }
    }
}

impl SloPolicy {
    /// The declared objectives, in stable order.
    pub(crate) fn objectives(&self) -> Vec<Objective> {
        let mut objectives = Vec::new();
        if let Some(target) = self.availability {
            objectives.push(Objective::new(
                "availability",
                Slo::Availability { target },
                self.windows,
            ));
        }
        if let Some(max_us) = self.p99_max_us {
            objectives.push(Objective::new(
                "p99_latency",
                Slo::LatencyP99 { max_us },
                self.windows,
            ));
        }
        objectives
    }
}

/// Gateway configuration.
///
/// `#[non_exhaustive]`: construct it with [`ServeConfig::builder`] (or
/// start from [`ServeConfig::default`] inside this crate) — fields may
/// be added without a breaking change.
#[non_exhaustive]
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ServeConfig {
    /// Bounded gateway-wide queue capacity, shared by every loaded
    /// model; submissions beyond it are rejected with
    /// [`ServeError::Rejected`] (unless they can displace queued
    /// lower-priority work in their own pool).
    pub queue_capacity: usize,
    /// Worker threads for the default model's pool.
    pub workers: usize,
    /// Dynamic batching policy for the default model.
    pub batch: BatchPolicy,
    /// Intra-batch parallelism of each worker's runners, gateway-wide.
    /// On single-core targets leave this [`Parallelism::Serial`];
    /// batching, not threading, is the throughput lever there.
    pub parallelism: Parallelism,
    /// Fault-tolerance policy (panic isolation, retry, quarantine,
    /// supervision, degraded-mode load shedding), applied to every
    /// pool.
    pub resilience: ResilienceConfig,
    /// Golden-copy output checking for the default model.
    pub golden: Option<GoldenPolicy>,
    /// Chaos-injection test hook for the default model; `None` (the
    /// default) injects nothing.
    pub chaos: Option<FaultPlan>,
    /// Request-lifecycle tracing; `None` (the default) disables it.
    pub trace: Option<TracePolicy>,
    /// Flight recorder; `None` (the default) disables it.
    pub journal: Option<JournalPolicy>,
    /// Burn-rate SLO engine; `None` (the default) disables it.
    pub slo: Option<SloPolicy>,
}

impl Default for ServeConfig {
    fn default() -> Self {
        ServeConfig {
            queue_capacity: 64,
            workers: 1,
            batch: BatchPolicy::default(),
            parallelism: Parallelism::Serial,
            resilience: ResilienceConfig::default(),
            golden: None,
            chaos: None,
            trace: None,
            journal: None,
            slo: None,
        }
    }
}

impl ServeConfig {
    /// A validating builder — the only way to construct a
    /// [`ServeConfig`] outside this crate.
    #[must_use]
    pub fn builder() -> ServeConfigBuilder {
        ServeConfigBuilder {
            config: ServeConfig::default(),
        }
    }

    pub(crate) fn validate(&self) -> Result<(), ServeError> {
        if self.queue_capacity == 0 {
            return Err(ServeError::InvalidConfig(
                "queue_capacity must be at least 1".into(),
            ));
        }
        if self.workers == 0 {
            return Err(ServeError::InvalidConfig(
                "workers must be at least 1".into(),
            ));
        }
        self.resilience.validate()?;
        if let Some(trace) = &self.trace {
            if trace.capacity == 0 {
                return Err(ServeError::InvalidConfig(
                    "trace.capacity must be at least 1".into(),
                ));
            }
        }
        if let Some(journal) = &self.journal {
            if journal.capacity == 0 {
                return Err(ServeError::InvalidConfig(
                    "journal.capacity must be at least 1".into(),
                ));
            }
        }
        if let Some(slo) = &self.slo {
            let objectives = slo.objectives();
            if objectives.is_empty() {
                return Err(ServeError::InvalidConfig(
                    "slo policy declares no objectives".into(),
                ));
            }
            for objective in &objectives {
                objective.validate().map_err(ServeError::InvalidConfig)?;
            }
        }
        validate_model_config(&self.default_model_config())
    }

    /// The default model's pool configuration implied by the gateway
    /// config (weight 1, weight-derived quota).
    pub(crate) fn default_model_config(&self) -> ModelConfig {
        let mut cfg = ModelConfig::default()
            .workers(self.workers)
            .batch(self.batch);
        cfg.golden = self.golden;
        cfg.chaos = self.chaos;
        cfg
    }
}

/// Validates one model's pool configuration.
fn validate_model_config(cfg: &ModelConfig) -> Result<(), ServeError> {
    if cfg.workers == 0 {
        return Err(ServeError::InvalidConfig(
            "model workers must be at least 1".into(),
        ));
    }
    if cfg.weight == 0 {
        return Err(ServeError::InvalidConfig(
            "model weight must be at least 1".into(),
        ));
    }
    if cfg.quota == Some(0) {
        return Err(ServeError::InvalidConfig(
            "model quota must be at least 1".into(),
        ));
    }
    if cfg.batch.max_batch == 0 {
        return Err(ServeError::InvalidConfig(
            "max_batch must be at least 1".into(),
        ));
    }
    if let Some(chaos) = &cfg.chaos {
        chaos.validate()?;
    }
    if let Some(golden) = &cfg.golden {
        if golden.period == 0 {
            return Err(ServeError::InvalidConfig(
                "golden.period must be at least 1".into(),
            ));
        }
        if golden.tolerance.is_nan() || golden.tolerance < 0.0 {
            return Err(ServeError::InvalidConfig(
                "golden.tolerance must be non-negative".into(),
            ));
        }
    }
    Ok(())
}

/// Validating builder for [`ServeConfig`]; see [`ServeConfig::builder`].
#[derive(Debug, Clone)]
pub struct ServeConfigBuilder {
    config: ServeConfig,
}

impl ServeConfigBuilder {
    /// Sets the gateway-wide queue capacity.
    #[must_use]
    pub fn queue_capacity(mut self, capacity: usize) -> Self {
        self.config.queue_capacity = capacity;
        self
    }

    /// Sets the default model's worker count.
    #[must_use]
    pub fn workers(mut self, workers: usize) -> Self {
        self.config.workers = workers;
        self
    }

    /// Sets the default model's batching policy.
    #[must_use]
    pub fn batch(mut self, batch: BatchPolicy) -> Self {
        self.config.batch = batch;
        self
    }

    /// Sets the gateway-wide intra-batch parallelism.
    #[must_use]
    pub fn parallelism(mut self, parallelism: Parallelism) -> Self {
        self.config.parallelism = parallelism;
        self
    }

    /// Sets the gateway-wide resilience policy.
    #[must_use]
    pub fn resilience(mut self, resilience: ResilienceConfig) -> Self {
        self.config.resilience = resilience;
        self
    }

    /// Enables golden-copy output checking for the default model.
    #[must_use]
    pub fn golden(mut self, golden: GoldenPolicy) -> Self {
        self.config.golden = Some(golden);
        self
    }

    /// Arms a chaos fault plan for the default model.
    #[must_use]
    pub fn chaos(mut self, chaos: FaultPlan) -> Self {
        self.config.chaos = Some(chaos);
        self
    }

    /// Enables request-lifecycle tracing.
    #[must_use]
    pub fn trace(mut self, trace: TracePolicy) -> Self {
        self.config.trace = Some(trace);
        self
    }

    /// Enables the flight recorder.
    #[must_use]
    pub fn journal(mut self, journal: JournalPolicy) -> Self {
        self.config.journal = Some(journal);
        self
    }

    /// Enables the burn-rate SLO engine.
    #[must_use]
    pub fn slo(mut self, slo: SloPolicy) -> Self {
        self.config.slo = Some(slo);
        self
    }

    /// Validates and returns the configuration.
    ///
    /// # Errors
    ///
    /// [`ServeError::InvalidConfig`] for a zero capacity, worker count
    /// or batch bound, or an out-of-range resilience/chaos/golden
    /// parameter.
    pub fn build(self) -> Result<ServeConfig, ServeError> {
        self.config.validate()?;
        Ok(self.config)
    }
}

/// Handle for one submitted request. Redeem it with [`Ticket::wait`].
#[must_use = "an unredeemed ticket discards the request's result"]
#[derive(Debug)]
pub struct Ticket {
    pub(crate) rx: mpsc::Receiver<Result<Vec<Tensor>, ServeError>>,
}

impl Ticket {
    /// Blocks until the server answers.
    ///
    /// # Errors
    ///
    /// Propagates the server's typed verdict for this request, or
    /// [`ServeError::Disconnected`] if a worker died without replying.
    pub fn wait(self) -> Result<Vec<Tensor>, ServeError> {
        self.rx.recv().unwrap_or(Err(ServeError::Disconnected))
    }

    /// Like [`Ticket::wait`] but gives up after `timeout`.
    ///
    /// Dropping the ticket afterwards orphans the request, never the
    /// server: a worker answering an orphaned request sends into a
    /// closed channel, which is ignored, and the request still counts
    /// in exactly one metrics bucket (the `accounted_for` invariant is
    /// property-tested under random timeout/fault schedules in
    /// `tests/chaos.rs`).
    ///
    /// # Errors
    ///
    /// [`ServeError::Disconnected`] on timeout or a dead worker;
    /// otherwise the server's verdict.
    pub fn wait_timeout(self, timeout: Duration) -> Result<Vec<Tensor>, ServeError> {
        self.rx
            .recv_timeout(timeout)
            .unwrap_or(Err(ServeError::Disconnected))
    }
}

/// Multi-tenant batched model gateway.
///
/// ```
/// use vedliot_nnir::{zoo, Shape, Tensor};
/// use vedliot_serve::{Priority, ServeConfig, Server, SubmitRequest};
///
/// let graph = zoo::tiny_cnn("demo", Shape::nchw(1, 1, 8, 8), &[4], 3).unwrap();
/// let config = ServeConfig::builder().build().unwrap();
/// let server = Server::start(&graph, config).unwrap();
/// let input = Tensor::random(Shape::nchw(1, 1, 8, 8), 7, 1.0);
/// let ticket = server
///     .submit_request(SubmitRequest::new(vec![input]).priority(Priority::High))
///     .unwrap();
/// let outputs = ticket.wait().unwrap();
/// assert_eq!(outputs[0].shape(), &Shape::nf(1, 3));
/// server.shutdown();
/// ```
pub struct Server {
    gateway: Arc<GatewayShared>,
    /// Loaded pools in load order; the first entry is the default
    /// model.
    pools: RwLock<Vec<Arc<ModelPool>>>,
    /// Final snapshots of unloaded pools — aggregate accounting
    /// survives an unload.
    retired: Mutex<Vec<MetricsSnapshot>>,
    next_model_id: AtomicUsize,
    parallelism: Parallelism,
    resilience: ResilienceConfig,
    shutting_down: AtomicBool,
}

impl Server {
    /// Boots the gateway and loads `graph` as the `"default"` model
    /// (compiled for batch sizes `1..=max_batch`, workers spawned).
    ///
    /// When a chaos plan requests weight bit flips, the flips corrupt
    /// the *deployed* batch-compiled graphs only; the golden copy held
    /// by a [`GoldenPolicy`] is taken before the corruption.
    ///
    /// # Errors
    ///
    /// [`ServeError::InvalidConfig`] for a zero capacity, worker count
    /// or batch bound, an out-of-range resilience/chaos parameter, or a
    /// golden policy on a model that is not single-input single-output;
    /// [`ServeError::Execution`] if the graph fails validation or batch
    /// rewriting.
    pub fn start(graph: &Graph, config: ServeConfig) -> Result<Self, ServeError> {
        config.validate()?;
        let journal = config
            .journal
            .map(|p| Arc::new(EventJournal::new(p.capacity)));
        let slo = match config.slo {
            Some(policy) => {
                let mut engine =
                    SloEngine::new(policy.objectives()).map_err(ServeError::InvalidConfig)?;
                if let Some(journal) = &journal {
                    engine = engine.with_journal(Arc::clone(journal));
                }
                Some(SloShared {
                    engine: Mutex::new(engine),
                    last_at: AtomicU64::new(0),
                    burning: AtomicBool::new(false),
                    drive_health: policy.drive_health,
                    degraded_cause: AtomicU64::new(0),
                })
            }
            None => None,
        };
        let gateway = Arc::new(GatewayShared {
            total_queued: AtomicUsize::new(0),
            queue_capacity: config.queue_capacity,
            total_weight: AtomicU64::new(0),
            trace: config.trace.map(|t| TraceRing::new(t.capacity)),
            journal,
            slo,
            epoch: Instant::now(),
        });
        let server = Server {
            gateway,
            pools: RwLock::new(Vec::new()),
            retired: Mutex::new(Vec::new()),
            next_model_id: AtomicUsize::new(0),
            parallelism: config.parallelism,
            resilience: config.resilience,
            shutting_down: AtomicBool::new(false),
        };
        server.load(DEFAULT_MODEL, graph, config.default_model_config())?;
        Ok(server)
    }

    /// Loads `graph` under `key` as a new tenant: compiles its batch
    /// variants, spawns its pool and registers it for routing. Hot:
    /// traffic to other models is never paused.
    ///
    /// # Errors
    ///
    /// [`ServeError::InvalidConfig`] for an invalid model config or a
    /// key that is already loaded; [`ServeError::ShuttingDown`] once
    /// shutdown began; [`ServeError::Execution`] if the graph fails
    /// validation or batch rewriting.
    pub fn load(&self, key: &str, graph: &Graph, cfg: ModelConfig) -> Result<(), ServeError> {
        if self.shutting_down.load(Ordering::Acquire) {
            return Err(ServeError::ShuttingDown);
        }
        validate_model_config(&cfg)?;
        let mut pools = self.pools.write().unwrap_or_else(PoisonError::into_inner);
        if pools.iter().any(|p| p.key == key) {
            return Err(ServeError::InvalidConfig(format!(
                "model '{key}' is already loaded"
            )));
        }
        let id = self.next_model_id.fetch_add(1, Ordering::Relaxed);
        let pool = ModelPool::start(
            key,
            id as u16,
            graph,
            &cfg,
            self.parallelism,
            self.resilience,
            Arc::clone(&self.gateway),
        )?;
        self.gateway
            .total_weight
            .fetch_add(u64::from(cfg.weight), Ordering::Relaxed);
        self.gateway.journal_append(
            self.gateway.now_us(),
            EventKind::ModelLoaded,
            CauseId::model(id as u64),
            CauseId::NONE,
            u64::from(cfg.weight),
        );
        pools.push(pool);
        Ok(())
    }

    /// Unloads the model registered under `key`: new submissions to it
    /// are refused immediately ([`ServeError::UnknownModel`]), queued
    /// requests drain with typed replies, its workers are joined, and
    /// its final statistics are returned (and folded into the gateway
    /// aggregate forever). If the default model is unloaded, the next
    /// still-loaded model (in load order) becomes the default.
    ///
    /// # Errors
    ///
    /// [`ServeError::UnknownModel`] if no such model is loaded.
    pub fn unload(&self, key: &str) -> Result<MetricsSnapshot, ServeError> {
        let pool = {
            let mut pools = self.pools.write().unwrap_or_else(PoisonError::into_inner);
            let idx = pools.iter().position(|p| p.key == key).ok_or_else(|| {
                ServeError::UnknownModel {
                    model: key.to_string(),
                }
            })?;
            pools.remove(idx)
        };
        pool.begin_shutdown();
        pool.join_workers();
        self.gateway
            .total_weight
            .fetch_sub(u64::from(pool.weight), Ordering::Relaxed);
        let snapshot = pool.snapshot();
        self.gateway.journal_append(
            self.gateway.now_us(),
            EventKind::ModelUnloaded,
            CauseId::model(u64::from(pool.id)),
            CauseId::NONE,
            0,
        );
        self.retired
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .push(snapshot.clone());
        Ok(snapshot)
    }

    /// Keys of the currently loaded models, in load order (the first is
    /// the default).
    #[must_use]
    pub fn models(&self) -> Vec<String> {
        self.pools
            .read()
            .unwrap_or_else(PoisonError::into_inner)
            .iter()
            .map(|p| p.key.clone())
            .collect()
    }

    /// Submits one typed request (one single-sample tensor per graph
    /// input). Returns immediately with a [`Ticket`]; the request is
    /// answered by its model's pool, batched with whatever else that
    /// pool has queued — never with another model's requests.
    ///
    /// # Errors
    ///
    /// [`ServeError::UnknownModel`] for an unloaded model key,
    /// [`ServeError::InvalidInput`] on an input-signature mismatch,
    /// [`ServeError::Rejected`] when the gateway queue is full,
    /// [`ServeError::QuotaExceeded`] when the model's queue share is
    /// exhausted, [`ServeError::ShedLowPriority`] when degraded
    /// admission sheds the request, and [`ServeError::ShuttingDown`]
    /// after [`Server::shutdown`] began. (The quota/capacity refusals
    /// apply only when no strictly-lower-priority request could be
    /// displaced instead.)
    pub fn submit_request(&self, request: SubmitRequest) -> Result<Ticket, ServeError> {
        let pool = {
            let pools = self.pools.read().unwrap_or_else(PoisonError::into_inner);
            let found = match &request.model {
                Some(key) => pools.iter().find(|p| &p.key == key),
                None => pools.first(),
            };
            match found {
                Some(pool) => Arc::clone(pool),
                None => {
                    return Err(ServeError::UnknownModel {
                        model: request.model.unwrap_or_else(|| DEFAULT_MODEL.to_string()),
                    })
                }
            }
        };
        pool.submit(request.inputs, request.priority, request.deadline)
    }

    /// Gateway-wide serving statistics: every live pool's counters plus
    /// the retained final snapshots of unloaded models, merged. The
    /// accounting partition (`accounted_for`) holds for the aggregate
    /// exactly as for each pool.
    #[must_use]
    pub fn metrics(&self) -> MetricsSnapshot {
        let mut aggregate = MetricsSnapshot::empty();
        for snapshot in self
            .retired
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .iter()
        {
            aggregate.merge(snapshot);
        }
        for pool in self
            .pools
            .read()
            .unwrap_or_else(PoisonError::into_inner)
            .iter()
        {
            aggregate.merge(&pool.snapshot());
        }
        aggregate
    }

    /// One model's current statistics.
    ///
    /// # Errors
    ///
    /// [`ServeError::UnknownModel`] if no such model is loaded.
    pub fn model_metrics(&self, key: &str) -> Result<MetricsSnapshot, ServeError> {
        self.with_pool(key, super::pool::ModelPool::snapshot)
    }

    /// The request-lifecycle spans currently held in the shared trace
    /// ring, oldest first — all models interleaved; the span's `model`
    /// field is the model's load-order id. Empty unless
    /// [`ServeConfig::trace`] was set. A span is recorded immediately
    /// *before* its reply is sent, so a request whose ticket has been
    /// redeemed is guaranteed visible here (until the ring overwrites
    /// it).
    #[must_use]
    pub fn trace_spans(&self) -> Vec<SpanRecord> {
        self.gateway
            .trace
            .as_ref()
            .map(TraceRing::snapshot)
            .unwrap_or_default()
    }

    /// The gateway's flight recorder, if [`ServeConfig::journal`] was
    /// set — share it with exporters or a fleet that journals into the
    /// same ring.
    #[must_use]
    pub fn journal(&self) -> Option<Arc<EventJournal>> {
        self.gateway.journal.as_ref().map(Arc::clone)
    }

    /// Every retained journal event, in sequence order. Empty unless
    /// [`ServeConfig::journal`] was set.
    #[must_use]
    pub fn journal_events(&self) -> Vec<Event> {
        self.gateway
            .journal
            .as_ref()
            .map(|j| j.snapshot())
            .unwrap_or_default()
    }

    /// The causal chain of `id` — "what shed request 42" is
    /// `journal_chain(CauseId::request(42))`; the walk follows `cause`
    /// citations upward until it reaches root-cause events.
    #[must_use]
    pub fn journal_chain(&self, id: CauseId) -> Vec<Event> {
        self.gateway
            .journal
            .as_ref()
            .map(|j| j.chain(id))
            .unwrap_or_default()
    }

    /// Evaluates every declared SLO objective at the engine's current
    /// clock (the largest recorded submission seq) and returns the
    /// fire/clear transitions. With [`SloPolicy::drive_health`], a
    /// firing alert flips admission to degraded mode here — and a
    /// clear restores it — with `HealthDegraded`/`HealthRecovered`
    /// journal events citing the alert, so burn-driven shedding is
    /// causally accounted end to end.
    ///
    /// Evaluation happens *only* here: callers control the evaluation
    /// points, which is what makes seeded replays bit-deterministic.
    /// No-op (empty) unless [`ServeConfig::slo`] was set.
    pub fn evaluate_slo(&self) -> Vec<SloTransition> {
        let Some(slo) = &self.gateway.slo else {
            return Vec::new();
        };
        let now = slo.last_at.load(Ordering::Relaxed);
        let (transitions, firing, alert_cause) = {
            let mut engine = slo.engine.lock().unwrap_or_else(PoisonError::into_inner);
            let transitions = engine.evaluate(now);
            (transitions, engine.firing(), engine.firing_cause())
        };
        let was_burning = slo.burning.load(Ordering::Relaxed);
        if firing && !was_burning {
            let seq = self.gateway.journal_append(
                now,
                EventKind::HealthDegraded,
                CauseId::model(0),
                CauseId::event(alert_cause),
                0,
            );
            slo.degraded_cause.store(seq, Ordering::Relaxed);
            slo.burning.store(true, Ordering::Relaxed);
        } else if !firing && was_burning {
            self.gateway.journal_append(
                now,
                EventKind::HealthRecovered,
                CauseId::model(0),
                CauseId::event(slo.degraded_cause.load(Ordering::Relaxed)),
                0,
            );
            slo.burning.store(false, Ordering::Relaxed);
        }
        transitions
    }

    /// Point-in-time burn/firing state of every declared objective (as
    /// of the last [`evaluate_slo`](Self::evaluate_slo)). Empty unless
    /// [`ServeConfig::slo`] was set.
    #[must_use]
    pub fn slo_states(&self) -> Vec<SloState> {
        self.gateway
            .slo
            .as_ref()
            .map(|s| {
                s.engine
                    .lock()
                    .unwrap_or_else(PoisonError::into_inner)
                    .states()
            })
            .unwrap_or_default()
    }

    /// The SLO engine's exporter view (subsystem `slo`), if configured.
    #[must_use]
    pub fn slo_export(&self) -> Option<Export> {
        self.gateway.slo.as_ref().map(|s| {
            s.engine
                .lock()
                .unwrap_or_else(PoisonError::into_inner)
                .export()
        })
    }

    /// Gateway health: [`Health::Draining`] once shutdown began,
    /// [`Health::Degraded`] when *any* loaded pool is degraded,
    /// [`Health::Serving`] otherwise.
    #[must_use]
    pub fn health(&self) -> Health {
        if self.shutting_down.load(Ordering::Acquire) {
            return Health::Draining;
        }
        let pools = self.pools.read().unwrap_or_else(PoisonError::into_inner);
        if pools.iter().any(|p| p.health() == Health::Degraded) {
            Health::Degraded
        } else {
            Health::Serving
        }
    }

    /// One model's health.
    ///
    /// # Errors
    ///
    /// [`ServeError::UnknownModel`] if no such model is loaded.
    pub fn model_health(&self, key: &str) -> Result<Health, ServeError> {
        self.with_pool(key, ModelPool::health)
    }

    /// Graceful shutdown: refuses new submissions, drains every pool's
    /// queued requests (each still gets a typed reply), joins all
    /// workers — including any the supervisors respawned — and returns
    /// the final gateway-wide statistics.
    pub fn shutdown(self) -> MetricsSnapshot {
        self.begin_shutdown();
        self.join_workers();
        self.metrics()
    }

    pub(crate) fn begin_shutdown(&self) {
        self.shutting_down.store(true, Ordering::Release);
        let pools = self.live_pools();
        for pool in &pools {
            pool.begin_shutdown();
        }
    }

    fn join_workers(&self) {
        let pools = self.live_pools();
        for pool in &pools {
            pool.join_workers();
        }
    }

    fn live_pools(&self) -> Vec<Arc<ModelPool>> {
        self.pools
            .read()
            .unwrap_or_else(PoisonError::into_inner)
            .iter()
            .map(Arc::clone)
            .collect()
    }

    fn with_pool<T>(&self, key: &str, f: impl FnOnce(&ModelPool) -> T) -> Result<T, ServeError> {
        let pools = self.pools.read().unwrap_or_else(PoisonError::into_inner);
        pools
            .iter()
            .find(|p| p.key == key)
            .map(|p| f(p))
            .ok_or_else(|| ServeError::UnknownModel {
                model: key.to_string(),
            })
    }
}

impl Drop for Server {
    fn drop(&mut self) {
        // `shutdown` already drained the pools; a plain drop still
        // stops and joins them so no thread outlives the server.
        self.begin_shutdown();
        self.join_workers();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::resilience::Health;
    use vedliot_nnir::zoo;
    use vedliot_nnir::Shape;

    fn demo_graph() -> Graph {
        zoo::tiny_cnn("serve-test", Shape::nchw(1, 1, 8, 8), &[4], 3).unwrap()
    }

    fn demo_input(seed: u64) -> Tensor {
        Tensor::random(Shape::nchw(1, 1, 8, 8), seed, 1.0)
    }

    #[test]
    fn builder_rejects_zero_capacity_and_workers() {
        assert!(matches!(
            ServeConfig::builder().queue_capacity(0).build(),
            Err(ServeError::InvalidConfig(_))
        ));
        assert!(matches!(
            ServeConfig::builder().workers(0).build(),
            Err(ServeError::InvalidConfig(_))
        ));
        assert!(matches!(
            ServeConfig::builder()
                .batch(BatchPolicy {
                    max_batch: 0,
                    max_linger: Duration::ZERO,
                })
                .build(),
            Err(ServeError::InvalidConfig(_))
        ));
    }

    #[test]
    fn invalid_chaos_probability_is_rejected() {
        let cfg = ServeConfig {
            chaos: Some(FaultPlan {
                panic_per_batch: 2.0,
                ..FaultPlan::quiet(1)
            }),
            ..ServeConfig::default()
        };
        assert!(matches!(
            Server::start(&demo_graph(), cfg),
            Err(ServeError::InvalidConfig(_))
        ));
    }

    #[test]
    fn zero_golden_period_is_rejected() {
        let cfg = ServeConfig {
            golden: Some(GoldenPolicy {
                period: 0,
                ..GoldenPolicy::default()
            }),
            ..ServeConfig::default()
        };
        assert!(matches!(
            Server::start(&demo_graph(), cfg),
            Err(ServeError::InvalidConfig(_))
        ));
    }

    #[test]
    fn wrong_input_arity_and_shape_are_typed_invalid_input() {
        let server = Server::start(&demo_graph(), ServeConfig::default()).unwrap();
        let err = server
            .submit_request(SubmitRequest::new(vec![]))
            .unwrap_err();
        assert!(matches!(err, ServeError::InvalidInput(_)));
        let bad = Tensor::random(Shape::nchw(1, 1, 4, 4), 3, 1.0);
        assert!(matches!(
            server
                .submit_request(SubmitRequest::new(vec![bad]))
                .unwrap_err(),
            ServeError::InvalidInput(_)
        ));
    }

    #[test]
    fn single_request_round_trips() {
        let server = Server::start(&demo_graph(), ServeConfig::default()).unwrap();
        assert_eq!(server.health(), Health::Serving);
        assert_eq!(server.models(), vec![DEFAULT_MODEL.to_string()]);
        let out = server
            .submit_request(SubmitRequest::new(vec![demo_input(11)]))
            .unwrap()
            .wait()
            .unwrap();
        assert_eq!(out.len(), 1);
        assert_eq!(out[0].shape(), &Shape::nf(1, 3));
        let m = server.shutdown();
        assert_eq!(m.served, 1);
        assert_eq!(m.served_by_priority, [0, 1, 0]);
        assert!(m.accounted_for());
    }

    #[test]
    fn submit_after_shutdown_is_refused() {
        let server = Server::start(&demo_graph(), ServeConfig::default()).unwrap();
        server.begin_shutdown();
        assert_eq!(server.health(), Health::Draining);
        assert_eq!(
            server
                .submit_request(SubmitRequest::new(vec![demo_input(1)]))
                .unwrap_err(),
            ServeError::ShuttingDown
        );
        assert_eq!(
            server.load("late", &demo_graph(), ModelConfig::default()),
            Err(ServeError::ShuttingDown)
        );
    }

    #[test]
    fn unknown_model_is_a_typed_refusal() {
        let server = Server::start(&demo_graph(), ServeConfig::default()).unwrap();
        let err = server
            .submit_request(SubmitRequest::new(vec![demo_input(1)]).model("missing"))
            .unwrap_err();
        assert_eq!(
            err,
            ServeError::UnknownModel {
                model: "missing".into()
            }
        );
        assert!(server.model_metrics("missing").is_err());
        assert!(server.model_health("missing").is_err());
        server.shutdown();
    }

    #[test]
    fn load_routes_and_unload_drains() {
        let server = Server::start(&demo_graph(), ServeConfig::default()).unwrap();
        // Second tenant with a distinct class count so routing is
        // observable in the output shape.
        let other = zoo::tiny_cnn("other", Shape::nchw(1, 1, 8, 8), &[4], 5).unwrap();
        server
            .load("other", &other, ModelConfig::default().weight(3))
            .unwrap();
        assert_eq!(server.models(), vec!["default".to_string(), "other".into()]);
        // Duplicate keys are refused.
        assert!(matches!(
            server.load("other", &other, ModelConfig::default()),
            Err(ServeError::InvalidConfig(_))
        ));
        let out = server
            .submit_request(SubmitRequest::new(vec![demo_input(2)]).model("other"))
            .unwrap()
            .wait()
            .unwrap();
        assert_eq!(out[0].shape(), &Shape::nf(1, 5), "routed to 'other'");
        let out = server
            .submit_request(SubmitRequest::new(vec![demo_input(3)]))
            .unwrap()
            .wait()
            .unwrap();
        assert_eq!(out[0].shape(), &Shape::nf(1, 3), "default still default");
        // Unload returns the tenant's final accounting and folds it
        // into the aggregate.
        let final_other = server.unload("other").unwrap();
        assert_eq!(final_other.served, 1);
        assert!(final_other.accounted_for());
        assert_eq!(server.models(), vec!["default".to_string()]);
        assert_eq!(
            server
                .submit_request(SubmitRequest::new(vec![demo_input(4)]).model("other"))
                .unwrap_err(),
            ServeError::UnknownModel {
                model: "other".into()
            }
        );
        assert!(server.unload("other").is_err());
        let m = server.shutdown();
        // default: 2 submissions (one refused as UnknownModel never
        // reached a pool); other: 1. Aggregate keeps the unloaded
        // tenant's counters.
        assert_eq!(m.served, 2);
        assert!(m.accounted_for());
    }

    #[test]
    fn default_falls_to_next_model_after_unload() {
        let server = Server::start(&demo_graph(), ServeConfig::default()).unwrap();
        let other = zoo::tiny_cnn("other", Shape::nchw(1, 1, 8, 8), &[4], 5).unwrap();
        server
            .load("other", &other, ModelConfig::default())
            .unwrap();
        server.unload(DEFAULT_MODEL).unwrap();
        let out = server
            .submit_request(SubmitRequest::new(vec![demo_input(1)]))
            .unwrap()
            .wait()
            .unwrap();
        assert_eq!(out[0].shape(), &Shape::nf(1, 5), "'other' became default");
        server.shutdown();
    }

    #[test]
    fn degraded_crash_threshold_sheds_lowest_priority_first() {
        // Crash-threshold degradation with a shed bound of half the
        // quota: Normal admission shrinks to 2 slots and the third
        // Normal submission is shed — the new typed refusal replaces
        // the old `Rejected{capacity}` answer.
        let server = Server::start(
            &demo_graph(),
            ServeConfig {
                queue_capacity: 4,
                batch: BatchPolicy {
                    max_batch: 4,
                    max_linger: Duration::from_secs(30),
                },
                resilience: ResilienceConfig {
                    degraded_crash_threshold: 1,
                    shed_to: 0.5,
                    ..ResilienceConfig::default()
                },
                ..ServeConfig::default()
            },
        )
        .unwrap();
        assert_eq!(server.health(), Health::Serving);
        server
            .with_pool(DEFAULT_MODEL, |pool| pool.metrics.inc_worker_crash())
            .unwrap();
        assert_eq!(server.health(), Health::Degraded);
        assert_eq!(server.model_health(DEFAULT_MODEL), Ok(Health::Degraded));
        let t1 = server
            .submit_request(SubmitRequest::new(vec![demo_input(1)]))
            .unwrap();
        let t2 = server
            .submit_request(SubmitRequest::new(vec![demo_input(2)]))
            .unwrap();
        // Shed bound ceil(0.5 * 4) = 2: the third Normal submission is
        // shed (no lower-priority work to displace).
        let err = server
            .submit_request(SubmitRequest::new(vec![demo_input(3)]))
            .unwrap_err();
        assert_eq!(err, ServeError::ShedLowPriority);
        let m = {
            let handle = std::thread::spawn(move || server.shutdown());
            assert!(t1.wait().is_ok());
            assert!(t2.wait().is_ok());
            handle.join().unwrap()
        };
        assert!(m.accounted_for());
        assert_eq!(m.rejected, 1);
        assert_eq!(m.shed_by_priority, [0, 1, 0]);
    }
}
