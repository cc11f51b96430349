//! Per-model worker pool: bounded priority queues → dynamic batcher →
//! workers, plus the gateway-shared admission state.
//!
//! One [`ModelPool`] hosts one verified graph. The gateway
//! ([`Server`](crate::Server)) owns a registry of pools; each pool owns
//! its own queue triple (one FIFO per [`Priority`] class), worker
//! threads, metrics, chaos stream and golden service — so one tenant's
//! poisoned batches, panics or crash-respawn churn cannot degrade a
//! neighbour. Only two things are shared across pools, both held in
//! [`GatewayShared`]: the gateway-wide queued-request count (the global
//! backpressure bound) and the span trace ring (spans carry the model
//! id, so one ring serves the whole zoo).
//!
//! **Admission** (per pool, under its queue lock): a submission of
//! priority `p` is admitted while the pool is under its quota and the
//! gateway under its capacity. When either bound is hit, the pool first
//! tries to *evict* the youngest queued request of the lowest-priority
//! class strictly below `p` (the victim is answered
//! [`ServeError::ShedLowPriority`]) — so a high-priority request is
//! never refused while lower-priority work occupies its pool. With no
//! victim available the submission itself is refused: with the typed
//! reason closest to the cause — gateway full ⇒ [`ServeError::Rejected`],
//! pool quota hit ⇒ [`ServeError::QuotaExceeded`], degraded shed bound
//! hit ⇒ [`ServeError::ShedLowPriority`]. While degraded, per-class
//! bounds tighten: `High` keeps the full quota, `Normal` is shed to
//! `ceil(shed_to · quota)`, and `Batch` admission closes entirely.
//!
//! **Batching** drains classes in priority order (`High` first) and
//! never mixes models — a batch is formed inside exactly one pool. A
//! free worker takes whatever is queued, up to `max_batch`, at once:
//! the default zero `max_linger` is work-conserving, and requests that
//! arrive while a batch runs form the next one. A positive `max_linger`
//! holds a partial batch until it is full or its oldest request has
//! waited that long.
//!
//! **One answer path.** Every admitted request is answered through
//! [`ModelPool::finish`], whatever ends it — a served batch, a deadline
//! purge, a displacement, a quarantine or a failed batch — and every
//! door refusal through [`ModelPool::refuse`]. `finish` updates the
//! ledgers in a fixed order: the metrics bucket, the SLO outcome
//! (skipped for sheds), the trace span, then the send; so a redeemed
//! ticket implies its counters, SLO outcome and span are visible.
//! Journal events that have a counter are appended by the call that
//! bumps that counter, so the metrics and the journal cannot disagree.

use crate::error::ServeError;
use crate::metrics::{Metrics, MetricsSnapshot};
use crate::resilience::{splitmix64, ChaosState, Health, ResilienceConfig, RetryPolicy};
use crate::routing::{ModelConfig, Priority};
use crate::server::{BatchPolicy, Ticket};
use std::any::Any;
use std::collections::VecDeque;
use std::panic::AssertUnwindSafe;
use std::sync::atomic::{AtomicBool, AtomicI64, AtomicU64, AtomicUsize, Ordering};
use std::sync::{mpsc, PoisonError};
use std::sync::{Arc, Condvar, Mutex, MutexGuard};
use std::thread::JoinHandle;
use std::time::Instant;
use vedliot_nnir::exec::{Parallelism, RunOptions, Runner};
use vedliot_nnir::{Graph, NnirError, Shape, Tensor};
use vedliot_obs::{
    CauseId, EventJournal, EventKind, SloEngine, SpanOutcome, SpanRecord, TraceRing,
};
use vedliot_safety::robustness::{OutputVerdict, RobustnessService};

/// State shared by every pool behind one gateway.
pub(crate) struct GatewayShared {
    /// Requests queued across all pools right now — the global
    /// backpressure bound. Kept exactly in sync with the per-pool
    /// queues: every push increments, every pop (drain, purge,
    /// eviction) decrements.
    pub(crate) total_queued: AtomicUsize,
    /// Gateway-wide queue capacity (`ServeConfig::queue_capacity`).
    pub(crate) queue_capacity: usize,
    /// Sum of loaded models' weights; the denominator of weight-derived
    /// quotas. Updated by load/unload.
    pub(crate) total_weight: AtomicU64,
    /// Shared span ring, if tracing is configured — spans carry the
    /// model id, so one ring serves the whole zoo.
    pub(crate) trace: Option<TraceRing>,
    /// Shared flight recorder, if configured — events carry the request
    /// seq / model id as subject, so one journal serves the whole zoo.
    pub(crate) journal: Option<Arc<EventJournal>>,
    /// Burn-rate SLO state, if configured.
    pub(crate) slo: Option<SloShared>,
    /// Gateway start time: the zero point of every span timestamp.
    pub(crate) epoch: Instant,
}

/// Burn-rate SLO state shared by every pool behind one gateway.
pub(crate) struct SloShared {
    /// The engine; locked briefly per reply to record an outcome, and
    /// by [`Server::evaluate_slo`](crate::Server::evaluate_slo).
    pub(crate) engine: Mutex<SloEngine>,
    /// Largest engine-clock instant recorded so far (the submission
    /// seq) — the `now` of the next evaluation.
    pub(crate) last_at: AtomicU64,
    /// Latched by `evaluate_slo`: some objective's alert is firing.
    pub(crate) burning: AtomicBool,
    /// Whether a firing alert drives admission to degraded mode.
    pub(crate) drive_health: bool,
    /// Journal seq of the `HealthDegraded` event burn-driven sheds cite
    /// as their cause (0 before the first degradation).
    pub(crate) degraded_cause: AtomicU64,
}

impl GatewayShared {
    /// Microseconds since the gateway epoch — the journal timestamp.
    pub(crate) fn now_us(&self) -> u64 {
        us_since(self.epoch, Instant::now())
    }

    /// Appends to the flight recorder, if one is configured; returns
    /// the event's journal seq (0 without a journal).
    pub(crate) fn journal_append(
        &self,
        at: u64,
        kind: EventKind,
        subject: CauseId,
        cause: CauseId,
        detail: u64,
    ) -> u64 {
        self.journal
            .as_ref()
            .map_or(0, |j| j.append(at, kind, subject, cause, detail))
    }

    /// Whether burn-driven degradation is currently in force: an SLO
    /// policy with `drive_health` and a firing alert.
    pub(crate) fn burn_degraded(&self) -> bool {
        self.slo
            .as_ref()
            .is_some_and(|s| s.drive_health && s.burning.load(Ordering::Relaxed))
    }

    /// The cause burn-driven sheds cite: the latched `HealthDegraded`
    /// journal event, or `NONE` when degradation is not burn-driven.
    pub(crate) fn shed_cause(&self) -> CauseId {
        if !self.burn_degraded() {
            return CauseId::NONE;
        }
        CauseId::event(
            self.slo
                .as_ref()
                .map_or(0, |s| s.degraded_cause.load(Ordering::Relaxed)),
        )
    }

    /// Records one request outcome into the SLO engine. The engine
    /// clock is the submission seq, so seeded replays evaluate
    /// bit-identically regardless of wall timing.
    pub(crate) fn slo_record(&self, seq: u64, ok: bool, latency_us: u64) {
        if let Some(slo) = &self.slo {
            slo.last_at.fetch_max(seq, Ordering::Relaxed);
            slo.engine
                .lock()
                .unwrap_or_else(PoisonError::into_inner)
                .record_request(seq, ok, latency_us);
        }
    }
}

/// Per-request span scratch: stage timestamps (µs since the gateway
/// epoch) accumulated while the request moves through the pipeline,
/// folded into a [`SpanRecord`] at reply time. All zeros when tracing
/// is disabled — and never read.
#[derive(Debug, Clone, Copy, Default)]
struct SpanScratch {
    dequeue_us: u64,
    linger_us: u64,
    exec_start_us: u64,
    exec_end_us: u64,
    retries: u32,
    /// Whether `exec_start_us` has been stamped — 0 is a legal
    /// epoch-relative timestamp, so a flag is needed to stamp only the
    /// *first* attempt.
    started: bool,
}

/// One queued request.
struct Request {
    /// 1-based submission sequence number (chaos poison targeting).
    seq: u64,
    inputs: Vec<Tensor>,
    priority: Priority,
    deadline: Option<Instant>,
    enqueued_at: Instant,
    /// Size of the batch this request was dequeued into; 0 while it is
    /// still queued (answered from the queue, it never executed).
    batch: u32,
    span: SpanScratch,
    reply: mpsc::Sender<Result<Vec<Tensor>, ServeError>>,
}

/// Queue state guarded by the pool mutex: one FIFO per priority class,
/// indexed by [`Priority::index`].
struct QueueState {
    queues: [VecDeque<Request>; 3],
    shutting_down: bool,
}

impl QueueState {
    /// Total queued requests across all classes.
    fn depth(&self) -> usize {
        self.queues.iter().map(VecDeque::len).sum()
    }

    /// Enqueue instant of the oldest queued request across all classes
    /// (the linger clock runs against the oldest, whatever its class).
    fn oldest_enqueued_at(&self) -> Option<Instant> {
        self.queues
            .iter()
            .filter_map(|q| q.front().map(|r| r.enqueued_at))
            .min()
    }

    /// Drains up to `take` requests in priority order: High rows first,
    /// then Normal, then Batch, FIFO within each class. Never across
    /// models — a batch is formed wholly inside one pool.
    fn drain_ordered(&mut self, take: usize) -> Vec<Request> {
        let mut batch = Vec::with_capacity(take);
        for queue in &mut self.queues {
            while batch.len() < take {
                match queue.pop_front() {
                    Some(req) => batch.push(req),
                    None => break,
                }
            }
        }
        batch
    }

    /// Pops the youngest request of the lowest-priority nonempty class
    /// *strictly below* `p` — the eviction victim, or `None`.
    fn evict_below(&mut self, p: Priority) -> Option<Request> {
        for class in (p.index() + 1..3).rev() {
            if let Some(victim) = self.queues[class].pop_back() {
                return Some(victim);
            }
        }
        None
    }
}

/// One model's worker pool: queues, workers, metrics, chaos and golden
/// state, isolated from every other tenant.
pub(crate) struct ModelPool {
    /// Registry key the model was loaded under.
    pub(crate) key: String,
    /// Dense model id in load order — the span `model` field.
    pub(crate) id: u16,
    /// Relative capacity weight (quota numerator).
    pub(crate) weight: u32,
    /// Hard quota override; `None` derives it from the weight.
    quota: Option<usize>,
    state: Mutex<QueueState>,
    /// Signals workers: new request, or shutdown.
    work_ready: Condvar,
    pub(crate) metrics: Metrics,
    /// Per-sample graph input shapes (batch dimension forced to 1).
    input_shapes: Vec<Shape>,
    policy: BatchPolicy,
    resilience: ResilienceConfig,
    /// Live chaos stream, if a fault plan is configured for this model.
    chaos: Option<ChaosState>,
    gateway: Arc<GatewayShared>,
    /// Golden-copy robustness service, if configured.
    golden: Option<Mutex<RobustnessService>>,
    golden_repair: bool,
    /// Next submission sequence number (1-based, per pool).
    next_seq: AtomicU64,
    /// Remaining worker respawns (may go negative under races; only
    /// positive values grant a respawn).
    respawns_left: AtomicI64,
    /// Monotonic worker-thread name counter.
    next_worker_id: AtomicUsize,
    /// Every live worker's join handle — original and respawned alike.
    /// Shutdown drains this until empty; a crashing worker pushes its
    /// replacement's handle *before* its own thread exits, so the drain
    /// cannot miss a respawn.
    handles: Mutex<Vec<JoinHandle<()>>>,
}

/// Microseconds from `epoch` to `t`, saturating at zero.
fn us_since(epoch: Instant, t: Instant) -> u64 {
    t.saturating_duration_since(epoch).as_micros() as u64
}

impl ModelPool {
    /// Deploys `graph` at batch `max_batch`, builds the golden service
    /// and chaos stream, and spawns the worker pool; each worker builds
    /// one runner over the deployed graph, which runs every batch up to
    /// `max_batch`. `cfg` must already be validated by the gateway.
    pub(crate) fn start(
        key: &str,
        id: u16,
        graph: &Graph,
        cfg: &ModelConfig,
        resilience: ResilienceConfig,
        gateway: Arc<GatewayShared>,
    ) -> Result<Arc<ModelPool>, ServeError> {
        graph.validate()?;
        let mut deployed = graph.with_batch(cfg.batch.max_batch)?;
        // The golden copy is cloned before chaos corrupts the deployed
        // graph: it is the uncorrupted reference of §IV-B.
        let golden = match &cfg.golden {
            Some(policy) => {
                if graph.inputs().len() != 1 || graph.outputs().len() != 1 {
                    return Err(ServeError::InvalidConfig(
                        "golden checking requires a single-input single-output model".into(),
                    ));
                }
                Some(Mutex::new(RobustnessService::new(
                    graph.with_batch(1)?,
                    policy.period,
                    policy.tolerance,
                )))
            }
            None => None,
        };
        if let Some(plan) = &cfg.chaos {
            if plan.weight_bit_flips > 0 {
                let flips = plan.weight_bit_flips;
                vedliot_safety::inject::flip_weight_bits(&mut deployed, flips, plan.seed)?;
            }
        }
        // The graph was verified above, so every input has a shape.
        let input_shapes: Vec<Shape> = deployed
            .inputs()
            .iter()
            .filter_map(|&tid| deployed.tensor_shape(tid).map(|s| s.with_batch(1)))
            .collect();
        let pool = Arc::new(ModelPool {
            key: key.to_string(),
            id,
            weight: cfg.weight,
            quota: cfg.quota,
            state: Mutex::new(QueueState {
                queues: [VecDeque::new(), VecDeque::new(), VecDeque::new()],
                shutting_down: false,
            }),
            work_ready: Condvar::new(),
            metrics: Metrics::default(),
            input_shapes,
            policy: cfg.batch,
            resilience,
            chaos: cfg.chaos.map(ChaosState::new),
            gateway,
            golden,
            golden_repair: cfg.golden.is_some_and(|g| g.repair),
            next_seq: AtomicU64::new(0),
            respawns_left: AtomicI64::new(i64::from(resilience.respawn_budget)),
            next_worker_id: AtomicUsize::new(0),
            handles: Mutex::new(Vec::new()),
        });
        let ctx = Arc::new(WorkerContext {
            pool: Arc::clone(&pool),
            graph: deployed,
        });
        for _ in 0..cfg.workers {
            assert!(spawn_worker(&ctx), "spawn serve worker");
        }
        Ok(pool)
    }

    /// Locks the queue state, recovering from poisoning: a worker that
    /// panicked can never be allowed to wedge the whole pool, and every
    /// mutation of `QueueState` is panic-free (pushes/pops of
    /// already-constructed values), so the state is always consistent.
    fn lock_state(&self) -> MutexGuard<'_, QueueState> {
        self.state.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// The queue quota currently in force: the configured hard quota,
    /// or the weight-derived share `max(1, w·C/W)` of the gateway
    /// capacity `C`.
    pub(crate) fn effective_quota(&self) -> usize {
        if let Some(quota) = self.quota {
            return quota;
        }
        let total = self.gateway.total_weight.load(Ordering::Relaxed).max(1);
        let share = (u128::from(self.weight) * self.gateway.queue_capacity as u128
            / u128::from(total)) as usize;
        share.max(1)
    }

    /// Whether this pool counts as degraded at the given queue depth.
    /// A fraction of 1.0 disables depth-based degradation entirely —
    /// a queue at full quota is ordinary backpressure, not distress.
    /// A firing burn alert (with `SloPolicy::drive_health`) degrades
    /// every pool behind the gateway at once.
    fn degraded(&self, depth: usize, quota: usize) -> bool {
        self.gateway.burn_degraded()
            || self.metrics.worker_crashes() >= self.resilience.degraded_crash_threshold
            || (self.resilience.degraded_queue_fraction < 1.0
                && (depth as f64) >= self.resilience.degraded_queue_fraction * quota as f64)
    }

    /// The admission bound for class `p`: the full quota while healthy;
    /// while degraded, `High` keeps the quota, `Normal` is shed to
    /// `ceil(shed_to · quota)` and `Batch` admission closes.
    fn admission_bound(&self, p: Priority, quota: usize, degraded: bool) -> usize {
        if !degraded {
            return quota;
        }
        match p {
            Priority::High => quota,
            Priority::Normal => ((self.resilience.shed_to * quota as f64).ceil() as usize).max(1),
            Priority::Batch => 0,
        }
    }

    /// Admits one single-sample request into this pool's queue triple,
    /// evicting lower-priority work when the pool or gateway bound is
    /// hit (see the module doc for the full admission protocol).
    pub(crate) fn submit(
        &self,
        inputs: Vec<Tensor>,
        priority: Priority,
        deadline: Option<Instant>,
    ) -> Result<Ticket, ServeError> {
        self.metrics.inc_submitted(priority.index());
        if inputs.len() != self.input_shapes.len() {
            let err = format!(
                "expected {} input tensors, got {}",
                self.input_shapes.len(),
                inputs.len()
            );
            return self.refuse(priority, ServeError::InvalidInput(err));
        }
        for (tensor, expected) in inputs.iter().zip(&self.input_shapes) {
            if tensor.shape() != expected {
                let err = format!(
                    "input shape {:?} does not match single-sample signature {:?}",
                    tensor.shape(),
                    expected
                );
                return self.refuse(priority, ServeError::InvalidInput(err));
            }
        }
        let (tx, rx) = mpsc::channel();
        {
            let mut state = self.lock_state();
            if state.shutting_down {
                return self.refuse(priority, ServeError::ShuttingDown);
            }
            let quota = self.effective_quota();
            let depth = state.depth();
            let degraded = self.degraded(depth, quota);
            let bound = self.admission_bound(priority, quota, degraded);
            let gateway_full =
                self.gateway.total_queued.load(Ordering::Relaxed) >= self.gateway.queue_capacity;
            // Victim of an eviction, if one happened: its seq and
            // priority index, journalled as RequestDisplaced once the
            // incoming request's seq exists to cite as the cause.
            let mut displaced: Option<(u64, u64)> = None;
            if depth >= bound || gateway_full {
                match state.evict_below(priority) {
                    Some(victim) => {
                        // Displace the youngest lowest-priority request:
                        // it is answered ShedLowPriority and its queue
                        // slot (pool and gateway alike) transfers to
                        // the incoming request.
                        self.metrics.queue_popped(1);
                        self.gateway.total_queued.fetch_sub(1, Ordering::Relaxed);
                        displaced = Some((victim.seq, victim.priority.index() as u64));
                        self.finish(&victim, Err(ServeError::ShedLowPriority), Instant::now());
                    }
                    None => {
                        // Nothing below this class to displace: refuse
                        // the submission with the typed reason closest
                        // to the cause. Refusals never consume a seq,
                        // so chaos poison targeting is unaffected by
                        // how many submissions were turned away.
                        let err = if gateway_full {
                            ServeError::Rejected {
                                capacity: self.gateway.queue_capacity,
                            }
                        } else if depth >= quota {
                            ServeError::QuotaExceeded { quota }
                        } else {
                            ServeError::ShedLowPriority
                        };
                        return self.refuse(priority, err);
                    }
                }
            }
            let seq = self.next_seq.fetch_add(1, Ordering::Relaxed) + 1;
            let enqueued_at = Instant::now();
            if self.gateway.journal.is_some() {
                let at = us_since(self.gateway.epoch, enqueued_at);
                if let Some((victim_seq, victim_priority)) = displaced {
                    self.gateway.journal_append(
                        at,
                        EventKind::RequestDisplaced,
                        CauseId::request(victim_seq),
                        CauseId::request(seq),
                        victim_priority,
                    );
                }
                self.gateway.journal_append(
                    at,
                    EventKind::RequestAdmitted,
                    CauseId::request(seq),
                    CauseId::NONE,
                    priority.index() as u64,
                );
            }
            state.queues[priority.index()].push_back(Request {
                seq,
                inputs,
                priority,
                deadline,
                enqueued_at,
                batch: 0,
                span: SpanScratch::default(),
                reply: tx,
            });
            self.metrics.queue_pushed();
            self.gateway.total_queued.fetch_add(1, Ordering::Relaxed);
        }
        self.work_ready.notify_one();
        Ok(Ticket { rx })
    }

    /// Refuses a submission at the door. The call that counts a shed
    /// also journals it (J002), citing the burn-driven degradation that
    /// caused it, if any — chaining it back to the alert.
    fn refuse(&self, priority: Priority, err: ServeError) -> Result<Ticket, ServeError> {
        if self.metrics.record_reply(priority.index(), Some(&err)) == SpanOutcome::Shed {
            self.gateway.journal_append(
                self.gateway.now_us(),
                EventKind::RequestShed,
                CauseId::model(u64::from(self.id)),
                self.gateway.shed_cause(),
                priority.index() as u64,
            );
        }
        Err(err)
    }

    /// Answers one admitted request: the one reply path. In order: the
    /// metrics bucket, the SLO outcome (sheds are not recorded, so
    /// burn-driven shedding cannot feed its own error signal), the
    /// trace span, then the send — so a redeemed ticket implies its
    /// counters, SLO outcome and span are already visible.
    fn finish(&self, req: &Request, reply: Result<Vec<Tensor>, ServeError>, at: Instant) {
        let outcome = self
            .metrics
            .record_reply(req.priority.index(), reply.as_ref().err());
        if req.batch > 0 {
            self.metrics.inflight_sub(1);
        }
        match outcome {
            SpanOutcome::Ok => {
                let micros = at.duration_since(req.enqueued_at).as_micros() as u64;
                self.metrics.record_latency(micros);
                self.gateway.slo_record(req.seq, true, micros);
            }
            SpanOutcome::Shed => {}
            _ => self.gateway.slo_record(req.seq, false, 0),
        }
        if let Some(ring) = &self.gateway.trace {
            let s = &req.span;
            let reply_us = us_since(self.gateway.epoch, at);
            // A request answered from the queue never executed: every
            // post-queue stage collapses to the reply instant, so queue
            // wait accounts for its whole lifetime.
            let (dequeue_us, exec_start_us, exec_end_us) = if req.batch == 0 {
                (reply_us, reply_us, reply_us)
            } else {
                (s.dequeue_us, s.exec_start_us, s.exec_end_us)
            };
            ring.record(&SpanRecord {
                seq: req.seq,
                enqueue_us: us_since(self.gateway.epoch, req.enqueued_at),
                dequeue_us,
                exec_start_us,
                exec_end_us,
                reply_us,
                linger_us: s.linger_us,
                batch: req.batch,
                retries: s.retries,
                model: self.id,
                priority: req.priority.index() as u8,
                outcome,
            });
        }
        let _ = req.reply.send(reply);
    }

    /// Current health of this pool.
    pub(crate) fn health(&self) -> Health {
        let (shutting_down, depth) = {
            let state = self.lock_state();
            (state.shutting_down, state.depth())
        };
        if shutting_down {
            Health::Draining
        } else if self.degraded(depth, self.effective_quota()) {
            Health::Degraded
        } else {
            Health::Serving
        }
    }

    /// Point-in-time statistics for this pool.
    pub(crate) fn snapshot(&self) -> MetricsSnapshot {
        self.metrics.snapshot()
    }

    /// Refuses new submissions and wakes the workers to drain.
    pub(crate) fn begin_shutdown(&self) {
        let mut state = self.lock_state();
        state.shutting_down = true;
        drop(state);
        self.work_ready.notify_all();
    }

    /// Joins every worker handle. The lock is released around each
    /// join: a crashing worker's guard pushes its replacement's handle
    /// before the crashed thread exits, so re-checking until the vector
    /// is empty observes every respawn.
    pub(crate) fn join_workers(&self) {
        loop {
            let handle = self
                .handles
                .lock()
                .unwrap_or_else(PoisonError::into_inner)
                .pop();
            match handle {
                Some(h) => {
                    let _ = h.join();
                }
                None => break,
            }
        }
    }
}

/// Everything a worker thread needs — held in an `Arc` so a crash guard
/// can hand the same context to a replacement worker: the pool and its
/// one deployed graph, at batch `max_batch`.
struct WorkerContext {
    pool: Arc<ModelPool>,
    graph: Graph,
}

/// Armed for the lifetime of a worker thread; if the thread unwinds
/// (a panic escaped the isolation boundary, or isolation is disabled),
/// the guard's drop is the supervisor: it counts the crash and respawns
/// a replacement while the budget lasts.
struct CrashGuard {
    ctx: Arc<WorkerContext>,
}

impl Drop for CrashGuard {
    fn drop(&mut self) {
        if !std::thread::panicking() {
            return; // normal worker exit (drained shutdown)
        }
        let pool = &self.ctx.pool;
        // A worker dying while the pool drains an empty queue is
        // indistinguishable from a normal exit: no work was lost and no
        // replacement is wanted, so it does not count as a crash.
        // try_lock: never risk deadlocking a dying thread.
        let idle_drain = match pool.state.try_lock() {
            Ok(state) => state.shutting_down && state.depth() == 0,
            Err(std::sync::TryLockError::Poisoned(p)) => {
                let state = p.into_inner();
                state.shutting_down && state.depth() == 0
            }
            Err(std::sync::TryLockError::WouldBlock) => false,
        };
        if idle_drain {
            return;
        }
        let crash_event = self.crash();
        if pool.respawns_left.fetch_sub(1, Ordering::AcqRel) <= 0 {
            return; // budget exhausted: degrade instead of flapping
        }
        self.respawn(crash_event);
    }
}

impl CrashGuard {
    /// Counts this worker's crash and journals it (J006); returns the
    /// event's journal seq.
    fn crash(&self) -> u64 {
        let pool = &self.ctx.pool;
        pool.metrics.inc_worker_crash();
        pool.gateway.journal_append(
            pool.gateway.now_us(),
            EventKind::WorkerCrashed,
            CauseId::model(u64::from(pool.id)),
            CauseId::NONE,
            0,
        )
    }

    /// Counts a respawn and journals it (J007) citing the crash it
    /// replaces, then spawns the replacement.
    fn respawn(&self, crash_event: u64) {
        let pool = &self.ctx.pool;
        pool.metrics.inc_respawned();
        pool.gateway.journal_append(
            pool.gateway.now_us(),
            EventKind::WorkerRespawned,
            CauseId::model(u64::from(pool.id)),
            CauseId::event(crash_event),
            0,
        );
        spawn_worker(&self.ctx);
        // The replacement may have queued work waiting already.
        pool.work_ready.notify_all();
    }
}

/// Spawns one worker thread over `ctx` and registers its handle for the
/// shutdown drain. Returns whether the spawn succeeded.
fn spawn_worker(ctx: &Arc<WorkerContext>) -> bool {
    let id = ctx.pool.next_worker_id.fetch_add(1, Ordering::Relaxed);
    let worker_ctx = Arc::clone(ctx);
    let spawned = std::thread::Builder::new()
        .name(format!("vedliot-serve-{}-{id}", ctx.pool.key))
        .spawn(move || {
            let _guard = CrashGuard {
                ctx: Arc::clone(&worker_ctx),
            };
            worker_loop(&worker_ctx);
        });
    match spawned {
        Ok(handle) => {
            ctx.pool
                .handles
                .lock()
                .unwrap_or_else(PoisonError::into_inner)
                .push(handle);
            true
        }
        Err(_) => false,
    }
}

/// Replies to every queued request whose deadline has already expired
/// and drops it from the queues. Returns how many were purged (the
/// caller settles the gateway count).
fn purge_expired(state: &mut QueueState, pool: &ModelPool, now: Instant) -> usize {
    let mut purged = 0usize;
    for queue in &mut state.queues {
        queue.retain(|req| {
            let expired = req.deadline.is_some_and(|d| now >= d);
            if expired {
                purged += 1;
                pool.finish(req, Err(ServeError::DeadlineExceeded), now);
            }
            !expired
        });
    }
    pool.metrics.queue_popped(purged as u64);
    purged
}

/// Worker body: form a batch under the lock, execute it outside.
fn worker_loop(ctx: &WorkerContext) {
    let pool = &*ctx.pool;
    // The runner is built once and reused for the worker's lifetime, so
    // every batch after the first hits warm arenas and cached weights;
    // it runs every batch size up to the deployed graph's. It runs
    // serially: batching, not threading, is the throughput lever on the
    // single-core targets a pool serves.
    let mut runner = Runner::builder()
        .parallelism(Parallelism::Serial)
        .build(&ctx.graph)
        .unwrap_or_else(|e| {
            // The graph was verified at ModelPool::start; a worker that
            // cannot build is a resilience event.
            panic!("worker failed to build a verified graph: {e}")
        });
    loop {
        // Chaos hard kill: strictly before the lock is taken and while
        // no requests are held, so a dying worker cannot poison the
        // queue or lose a batch — only supervision is exercised.
        if let Some(chaos) = &pool.chaos {
            if chaos.kill_now() {
                panic!("chaos: worker killed at wakeup");
            }
        }
        let batch = {
            let mut state = pool.lock_state();
            loop {
                let now = Instant::now();
                let purged = purge_expired(&mut state, pool, now);
                if purged > 0 {
                    pool.gateway
                        .total_queued
                        .fetch_sub(purged, Ordering::Relaxed);
                }
                let depth = state.depth();
                if let Some(oldest_at) = state.oldest_enqueued_at() {
                    let full = depth >= pool.policy.max_batch;
                    let linger_until = oldest_at + pool.policy.max_linger;
                    if full || state.shutting_down || now >= linger_until {
                        let take = depth.min(pool.policy.max_batch);
                        let mut batch = state.drain_ordered(take);
                        pool.metrics.queue_popped(take as u64);
                        pool.metrics.inflight_add(take as u64);
                        pool.gateway.total_queued.fetch_sub(take, Ordering::Relaxed);
                        // Stamp the dequeue; with tracing, attribute the
                        // part of the wait the batcher *chose* (up to
                        // max_linger) to the linger stage.
                        let dequeue_us = pool
                            .gateway
                            .trace
                            .is_some()
                            .then(|| us_since(pool.gateway.epoch, now));
                        for req in &mut batch {
                            req.batch = take as u32;
                            if let Some(dequeue_us) = dequeue_us {
                                req.span.dequeue_us = dequeue_us;
                                req.span.linger_us =
                                    now.saturating_duration_since(req.enqueued_at)
                                        .min(pool.policy.max_linger)
                                        .as_micros() as u64;
                            }
                        }
                        break batch;
                    }
                    // Wait for companions, a shutdown, or the linger
                    // window to elapse — whichever comes first.
                    let (s, _) = pool
                        .work_ready
                        .wait_timeout(state, linger_until - now)
                        .unwrap_or_else(PoisonError::into_inner);
                    state = s;
                } else if state.shutting_down {
                    return;
                } else {
                    state = pool
                        .work_ready
                        .wait(state)
                        .unwrap_or_else(PoisonError::into_inner);
                }
            }
        };
        let salt = splitmix64(batch.first().map_or(0, |r| r.seq));
        run_batch(ctx, &mut runner, batch, salt);
    }
}

/// Runs one formed batch through the resilience layers: retry transient
/// failures under the backoff policy, send deterministic failures to
/// quarantine bisection, reply to every request exactly once.
///
/// With quarantine on, a lone request failing deterministically — one
/// that bisection isolated, or one that formed its batch alone — is
/// the poison and fails as [`ServeError::Quarantined`]. `salt` keys the
/// batch's chaos draw and backoff jitter; each bisected half gets its
/// own.
fn run_batch(ctx: &WorkerContext, runner: &mut Runner<'_>, mut batch: Vec<Request>, salt: u64) {
    let pool = &*ctx.pool;
    let policy: RetryPolicy = pool.resilience.retry;
    let mut attempt = 0u32;
    loop {
        attempt += 1;
        if pool.gateway.trace.is_some() {
            // Stamp the first attempt's start; retries and bisection
            // sub-batches keep the original start so the execute stage
            // covers the request's whole time on a runner.
            let now_us = us_since(pool.gateway.epoch, Instant::now());
            for req in &mut batch {
                if !req.span.started {
                    req.span.exec_start_us = now_us;
                    req.span.started = true;
                }
            }
        }
        let result = attempt_execute(ctx, runner, &batch, salt, attempt);
        if pool.gateway.trace.is_some() {
            let now_us = us_since(pool.gateway.epoch, Instant::now());
            for req in &mut batch {
                req.span.exec_end_us = now_us;
            }
        }
        let error = match result {
            Ok(rows) => {
                reply_ok(ctx, &batch, rows);
                return;
            }
            Err(e) => e,
        };
        if error.class().is_transient() && attempt < policy.max_attempts {
            pool.metrics.inc_retry();
            let retried_at = pool.gateway.now_us();
            for req in &mut batch {
                req.span.retries += 1;
                pool.gateway.journal_append(
                    retried_at,
                    EventKind::RequestRetried,
                    CauseId::request(req.seq),
                    CauseId::NONE,
                    u64::from(attempt),
                );
            }
            // Respect remaining deadlines: purge what already expired,
            // and never sleep past the earliest deadline still in the
            // batch.
            purge_batch_expired(&mut batch, pool);
            if batch.is_empty() {
                return;
            }
            let mut delay = policy.backoff(attempt, salt);
            if let Some(earliest) = batch.iter().filter_map(|r| r.deadline).min() {
                delay = delay.min(earliest.saturating_duration_since(Instant::now()));
            }
            if !delay.is_zero() {
                std::thread::sleep(delay);
            }
            purge_batch_expired(&mut batch, pool);
            if batch.is_empty() {
                return;
            }
            continue;
        }
        let quarantine = !error.class().is_transient() && pool.resilience.quarantine;
        if quarantine && batch.len() > 1 {
            // Bisect: the poisoned request is in one half; the other
            // half (and the poisoned half's innocent remainder,
            // recursively) still gets served.
            let right = batch.split_off(batch.len() / 2);
            run_batch(ctx, runner, batch, splitmix64(salt ^ 1));
            run_batch(ctx, runner, right, splitmix64(salt ^ 2));
            return;
        }
        // A lone request failing deterministically under quarantine is
        // the poison, whether bisection isolated it or it formed its
        // batch alone; its answer also journals it (J005).
        let replied = Instant::now();
        for req in &batch {
            let reply = if quarantine {
                pool.gateway.journal_append(
                    us_since(pool.gateway.epoch, replied),
                    EventKind::RequestQuarantined,
                    CauseId::request(req.seq),
                    CauseId::NONE,
                    u64::from(attempt),
                );
                ServeError::Quarantined {
                    detail: error.to_string(),
                }
            } else {
                error.clone()
            };
            pool.finish(req, Err(reply), replied);
        }
        return;
    }
}

/// One execution attempt, the `attempt`-th of the batch salted `salt`:
/// chaos hooks, the panic-isolation boundary, and the batched forward
/// pass. Returns per-request output rows.
fn attempt_execute(
    ctx: &WorkerContext,
    runner: &mut Runner<'_>,
    batch: &[Request],
    salt: u64,
    attempt: u32,
) -> Result<Vec<Vec<Tensor>>, ServeError> {
    let pool = &*ctx.pool;
    if let Some(chaos) = &pool.chaos {
        // A poisoned request fails any batch containing it, the same
        // deterministic way every time — the quarantine target.
        if let Some(req) = batch.iter().find(|r| chaos.poisoned(r.seq)) {
            return Err(ServeError::Execution(NnirError::ExecutionFailure(format!(
                "chaos: poisoned request #{}",
                req.seq
            ))));
        }
    }
    let guarded = std::panic::catch_unwind(AssertUnwindSafe(|| {
        if let Some(chaos) = &pool.chaos {
            if chaos.panic_now(salt, attempt) {
                panic!("chaos: injected worker panic");
            }
        }
        execute_core(runner, batch)
    }));
    match guarded {
        Ok(result) => result,
        Err(payload) => {
            if pool.resilience.isolate_panics {
                pool.metrics.inc_panic_absorbed();
                Err(ServeError::WorkerCrashed {
                    detail: panic_detail(payload.as_ref()),
                })
            } else {
                // Baseline behaviour: the panic kills the worker (and
                // silently takes the batch with it — the failure mode
                // this module exists to remove).
                std::panic::resume_unwind(payload);
            }
        }
    }
}

/// Best-effort stringification of a panic payload.
fn panic_detail(payload: &(dyn Any + Send)) -> String {
    payload
        .downcast_ref::<&str>()
        .map(|s| (*s).to_string())
        .or_else(|| payload.downcast_ref::<String>().cloned())
        .unwrap_or_else(|| "non-string panic payload".into())
}

/// Coalesce → execute → split back into per-request output rows: the
/// runner runs the batch at its size.
fn execute_core(
    runner: &mut Runner<'_>,
    batch: &[Request],
) -> Result<Vec<Vec<Tensor>>, ServeError> {
    if let [req] = batch {
        let out = runner.execute(&req.inputs, RunOptions::default())?;
        return Ok(vec![out.into_outputs()]);
    }
    // Coalesce along axis 0: input position i of the batched run is
    // the concatenation of every request's tensor i, in queue order.
    let coalesced = (0..batch.first().map_or(0, |req| req.inputs.len()))
        .map(|i| {
            let rows: Vec<&Tensor> = batch.iter().map(|req| &req.inputs[i]).collect();
            Tensor::concat_batch(&rows)
        })
        .collect::<Result<Vec<_>, _>>()?;
    let out = runner.execute(&coalesced, RunOptions::default())?;
    // Split every output back into per-request rows; row j belongs to
    // request j because concat preserved queue order.
    let mut rows: Vec<Vec<Tensor>> = batch.iter().map(|_| Vec::new()).collect();
    for output in out.outputs() {
        for (row, part) in rows.iter_mut().zip(output.split_batch()?) {
            row.push(part);
        }
    }
    Ok(rows)
}

/// Answers every request in a successful batch, running sampled golden
/// checks (and repairs) first. Latency and span both end at
/// `completed`, so the golden check's cost falls outside them.
fn reply_ok(ctx: &WorkerContext, batch: &[Request], mut rows: Vec<Vec<Tensor>>) {
    let pool = &*ctx.pool;
    let completed = Instant::now();
    if let Some(service) = &pool.golden {
        let mut service = service.lock().unwrap_or_else(PoisonError::into_inner);
        for (req, outputs) in batch.iter().zip(rows.iter_mut()) {
            // The golden check is an observer: its own failure must
            // never fail a request that executed successfully.
            if let Ok(check) = service.check(&req.inputs[0], &outputs[0]) {
                if matches!(check.verdict, OutputVerdict::Diverged { .. }) {
                    pool.metrics.inc_golden_mismatch();
                    if pool.golden_repair {
                        if let Some(golden) = check.golden {
                            outputs[0] = golden;
                        }
                    }
                }
            }
        }
    }
    pool.metrics.record_batch(batch.len() as u64);
    for (req, outputs) in batch.iter().zip(rows) {
        pool.finish(req, Ok(outputs), completed);
    }
}

/// Replies `DeadlineExceeded` to every request in the batch whose
/// deadline has passed and removes it (mid-retry counterpart of
/// [`purge_expired`]; these requests *did* dequeue and execute, so
/// their spans keep the real stage timestamps).
fn purge_batch_expired(batch: &mut Vec<Request>, pool: &ModelPool) {
    let now = Instant::now();
    batch.retain(|req| {
        let expired = req.deadline.is_some_and(|d| now >= d);
        if expired {
            pool.finish(req, Err(ServeError::DeadlineExceeded), now);
        }
        !expired
    });
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::Duration;
    use vedliot_nnir::zoo;

    fn gateway(capacity: usize, total_weight: u64) -> Arc<GatewayShared> {
        Arc::new(GatewayShared {
            total_queued: AtomicUsize::new(0),
            queue_capacity: capacity,
            total_weight: AtomicU64::new(total_weight),
            trace: None,
            journal: None,
            slo: None,
            epoch: Instant::now(),
        })
    }

    fn pool_on(gateway: &Arc<GatewayShared>, cfg: &ModelConfig) -> Arc<ModelPool> {
        let graph = zoo::tiny_cnn("pool-test", Shape::nchw(1, 1, 8, 8), &[4], 3).unwrap();
        ModelPool::start(
            "pool-test",
            0,
            &graph,
            cfg,
            ResilienceConfig::default(),
            Arc::clone(gateway),
        )
        .unwrap()
    }

    fn input(seed: u64) -> Tensor {
        Tensor::random(Shape::nchw(1, 1, 8, 8), seed, 1.0)
    }

    /// A batch policy that holds requests in the queue practically
    /// forever, so admission tests observe a stable queue.
    fn holding(max_batch: usize) -> BatchPolicy {
        BatchPolicy {
            max_batch,
            max_linger: Duration::from_secs(30),
        }
    }

    #[test]
    fn weight_derived_quota_is_the_capacity_share() {
        let gw = gateway(60, 6);
        let cfg = ModelConfig::default().weight(2);
        let pool = pool_on(&gw, &cfg);
        // 2 of 6 weight on a 60-slot gateway: 20 slots.
        assert_eq!(pool.effective_quota(), 20);
        pool.begin_shutdown();
        pool.join_workers();
    }

    #[test]
    fn hard_quota_overrides_the_weight_share() {
        let gw = gateway(60, 6);
        let cfg = ModelConfig::default().weight(2).quota(3);
        let pool = pool_on(&gw, &cfg);
        assert_eq!(pool.effective_quota(), 3);
        pool.begin_shutdown();
        pool.join_workers();
    }

    #[test]
    fn quota_refusal_names_the_quota() {
        let gw = gateway(64, 1);
        let cfg = ModelConfig::default().quota(2).batch(holding(8));
        let pool = pool_on(&gw, &cfg);
        let t1 = pool.submit(vec![input(1)], Priority::Normal, None).unwrap();
        let t2 = pool.submit(vec![input(2)], Priority::Normal, None).unwrap();
        // Same class queued: nothing strictly lower to evict.
        let err = pool
            .submit(vec![input(3)], Priority::Normal, None)
            .unwrap_err();
        assert_eq!(err, ServeError::QuotaExceeded { quota: 2 });
        pool.begin_shutdown();
        assert!(t1.wait().is_ok());
        assert!(t2.wait().is_ok());
        pool.join_workers();
        let m = pool.snapshot();
        assert!(m.accounted_for());
        assert_eq!(m.rejected, 1);
    }

    #[test]
    fn high_priority_displaces_queued_batch_work() {
        let gw = gateway(64, 1);
        let cfg = ModelConfig::default().quota(2).batch(holding(8));
        let pool = pool_on(&gw, &cfg);
        let _b1 = pool.submit(vec![input(1)], Priority::Batch, None).unwrap();
        let b2 = pool.submit(vec![input(2)], Priority::Batch, None).unwrap();
        // Quota full of Batch work: a High submission evicts the
        // *youngest* Batch request and takes its slot.
        let th = pool.submit(vec![input(3)], Priority::High, None).unwrap();
        assert_eq!(b2.wait(), Err(ServeError::ShedLowPriority));
        assert_eq!(gw.total_queued.load(Ordering::Relaxed), 2, "net-zero swap");
        pool.begin_shutdown();
        assert!(th.wait().is_ok());
        pool.join_workers();
        let m = pool.snapshot();
        assert!(m.accounted_for());
        assert_eq!(m.shed_by_priority, [0, 0, 1]);
    }

    #[test]
    fn degraded_pool_closes_batch_admission_and_sheds_normal() {
        let gw = gateway(64, 1);
        let cfg = ModelConfig::default().quota(4).batch(holding(8));
        let pool = pool_on(&gw, &cfg);
        // Trip crash-threshold degradation directly (default threshold
        // is 16 crashes).
        for _ in 0..16 {
            pool.metrics.inc_worker_crash();
        }
        assert_eq!(pool.health(), Health::Degraded);
        // Batch admission is closed outright.
        assert_eq!(
            pool.submit(vec![input(1)], Priority::Batch, None)
                .unwrap_err(),
            ServeError::ShedLowPriority
        );
        // Normal is shed to ceil(shed_to × quota) = 2 of 4 slots.
        let n1 = pool.submit(vec![input(2)], Priority::Normal, None).unwrap();
        let n2 = pool.submit(vec![input(3)], Priority::Normal, None).unwrap();
        assert_eq!(
            pool.submit(vec![input(4)], Priority::Normal, None)
                .unwrap_err(),
            ServeError::ShedLowPriority
        );
        // High keeps the full quota: two more slots.
        let h1 = pool.submit(vec![input(5)], Priority::High, None).unwrap();
        let h2 = pool.submit(vec![input(6)], Priority::High, None).unwrap();
        pool.begin_shutdown();
        for t in [n1, n2, h1, h2] {
            assert!(t.wait().is_ok());
        }
        pool.join_workers();
        let m = pool.snapshot();
        assert!(m.accounted_for());
        assert_eq!(m.shed_by_priority, [0, 1, 1]);
        assert_eq!(m.served_by_priority, [2, 2, 0]);
    }

    #[test]
    fn gateway_capacity_binds_across_pools() {
        let gw = gateway(2, 2);
        let cfg = ModelConfig::default().batch(holding(8));
        let a = pool_on(&gw, &cfg);
        let graph = zoo::tiny_cnn("pool-b", Shape::nchw(1, 1, 8, 8), &[4], 3).unwrap();
        let b = ModelPool::start(
            "pool-b",
            1,
            &graph,
            &cfg,
            ResilienceConfig::default(),
            Arc::clone(&gw),
        )
        .unwrap();
        let ta = a.submit(vec![input(1)], Priority::Normal, None).unwrap();
        let tb = b.submit(vec![input(2)], Priority::Normal, None).unwrap();
        // The gateway is full; pool B has no lower-priority work of its
        // own to displace, so the submission is rejected with the
        // gateway capacity.
        assert_eq!(
            b.submit(vec![input(3)], Priority::Normal, None)
                .unwrap_err(),
            ServeError::Rejected { capacity: 2 }
        );
        a.begin_shutdown();
        b.begin_shutdown();
        assert!(ta.wait().is_ok());
        assert!(tb.wait().is_ok());
        a.join_workers();
        b.join_workers();
        assert_eq!(gw.total_queued.load(Ordering::Relaxed), 0);
    }

    #[test]
    fn priority_order_drains_high_first() {
        // The batcher's drain order, tested on the queue state alone so
        // no worker-timing race can mask it: High rows first despite
        // later arrival, FIFO within a class, Batch last.
        let (tx, _rx) = mpsc::channel();
        let mk = |seq: u64, priority: Priority| Request {
            seq,
            inputs: Vec::new(),
            priority,
            deadline: None,
            enqueued_at: Instant::now(),
            batch: 0,
            span: SpanScratch::default(),
            reply: tx.clone(),
        };
        let mut state = QueueState {
            queues: Default::default(),
            shutting_down: false,
        };
        for (seq, priority) in [
            (1, Priority::Batch),
            (2, Priority::Normal),
            (3, Priority::High),
            (4, Priority::High),
        ] {
            state.queues[priority.index()].push_back(mk(seq, priority));
        }
        let batch: Vec<u64> = state.drain_ordered(3).iter().map(|r| r.seq).collect();
        assert_eq!(batch, vec![3, 4, 2], "High FIFO, then Normal; Batch left");
        assert_eq!(state.depth(), 1);
        let rest: Vec<u64> = state.drain_ordered(8).iter().map(|r| r.seq).collect();
        assert_eq!(rest, vec![1]);

        // End-to-end: a pool under holding linger serves both classes
        // and splits the served counters per class.
        let gw = gateway(64, 1);
        let cfg = ModelConfig::default().quota(8).batch(holding(2));
        let pool = pool_on(&gw, &cfg);
        let tb = pool.submit(vec![input(1)], Priority::Batch, None).unwrap();
        let th = pool.submit(vec![input(2)], Priority::High, None).unwrap();
        pool.begin_shutdown();
        assert!(th.wait().is_ok());
        assert!(tb.wait().is_ok());
        pool.join_workers();
        let m = pool.snapshot();
        assert_eq!(m.served, 2);
        assert_eq!(m.served_by_priority, [1, 0, 1]);
    }
}
