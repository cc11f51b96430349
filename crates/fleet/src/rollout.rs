//! The fleet and its health-gated wave rollout engine.
//!
//! A [`Fleet`] holds the device population, the version registry (each
//! entry a packed [`ModelArtifact`] plus a golden probe output and an
//! optional held-out accuracy), and the attestation [`Verifier`]. A
//! [`Rollout`] pushes one registered version to the whole fleet in
//! exponentially growing waves — canary cohort first — advancing only
//! while the per-wave [`FleetHealth`] gate holds, and rolling every
//! updated device back the moment a wave regresses.
//!
//! The simulation is tick-based and fully deterministic: device order
//! is fixed, every stochastic draw comes from a salted [`DetRng`]
//! stream, and durations from the shared [`RetryPolicy`] are quantized
//! to ticks. Two runs with the
//! same seeds produce byte-identical [`RolloutReport`]s — the property
//! the convergence harness (E26) asserts against.

use std::sync::Arc;
use std::time::Duration;

use vedliot_nnir::det::{splitmix64, DetRng};
use vedliot_nnir::exec::{RunOptions, Runner};
use vedliot_nnir::graph::Graph;
use vedliot_nnir::tensor::Tensor;
use vedliot_nnir::NnirError;
use vedliot_obs::export::{Export, Exportable, Metric};
use vedliot_obs::{CauseId, EventJournal, EventKind};
use vedliot_safety::inject::flip_weight_bits;
use vedliot_serve::resilience::RetryPolicy;
use vedliot_trust::attestation::{attest, RootOfTrust, SecureBootChain, Verifier};
use vedliot_trust::hash::sha256;

use crate::artifact::{ArtifactError, ModelArtifact};
use crate::device::{Device, Phase};
use crate::fault::{CompromiseKind, FleetFaultPlan};

/// Salt for per-rollout device streams.
const DEVICE_SALT: u64 = 0x5EED_DE71_CE00_0001;
/// Salt for the partition event stream.
const PARTITION_SALT: u64 = 0x5EED_9A47_1710_0002;
/// Salt for retry-backoff jitter.
const BACKOFF_SALT: u64 = 0x5EED_BAC0_FF00_0003;
/// Salt for installed-weight bit-flip placement.
const FLIP_SALT: u64 = 0x5EED_F11B_B175_0004;

/// Fleet-level errors.
#[derive(Debug)]
#[non_exhaustive]
pub enum FleetError {
    /// Artifact packing/unpacking failed.
    Artifact(ArtifactError),
    /// Graph execution failed (golden probe, accuracy eval).
    Graph(NnirError),
    /// Configuration rejected, with the reason.
    Config(String),
}

impl std::fmt::Display for FleetError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            FleetError::Artifact(e) => write!(f, "artifact: {e}"),
            FleetError::Graph(e) => write!(f, "graph: {e}"),
            FleetError::Config(why) => write!(f, "fleet config: {why}"),
        }
    }
}

impl std::error::Error for FleetError {}

impl From<ArtifactError> for FleetError {
    fn from(e: ArtifactError) -> Self {
        FleetError::Artifact(e)
    }
}

impl From<NnirError> for FleetError {
    fn from(e: NnirError) -> Self {
        FleetError::Graph(e)
    }
}

/// Fleet construction parameters.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FleetConfig {
    /// Number of devices to provision.
    pub devices: usize,
    /// Seed for provisioning and every per-device stream.
    pub seed: u64,
    /// Length of each device's link trace (samples, wraps by tick).
    pub trace_len: usize,
}

impl Default for FleetConfig {
    fn default() -> Self {
        FleetConfig {
            devices: 256,
            seed: 0xF1EE7,
            trace_len: 512,
        }
    }
}

/// One entry in the fleet's version registry.
#[derive(Debug, Clone)]
pub struct VersionEntry {
    /// Human-readable label.
    pub name: String,
    /// The model as shipped (explicit weights).
    pub graph: Graph,
    /// Packed OTA artifact.
    pub artifact: ModelArtifact,
    /// Output of the released model on the fleet probe input — the
    /// reference for post-install golden checks.
    pub golden: Tensor,
    /// Held-out accuracy, if the fleet was given an eval set (feeds the
    /// canary accuracy gate).
    pub accuracy: Option<f64>,
}

/// Wave pacing, health gating and timing knobs for one rollout.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RolloutPolicy {
    /// Devices in wave 0 (the canary cohort).
    pub canary: usize,
    /// Wave size multiplier after each gated wave.
    pub wave_growth: usize,
    /// Minimum fraction of a wave's non-quarantined devices that must
    /// land healthy on the target for the rollout to continue.
    pub health_threshold: f64,
    /// Maximum tolerated drop in held-out accuracy vs the baseline
    /// version (canary accuracy gate; ignored without an eval set).
    pub max_accuracy_drop: f64,
    /// Chunk size artifacts are packed with, bytes.
    pub chunk_bytes: usize,
    /// Wall-clock milliseconds one tick represents (scales chunk
    /// throughput and retry backoff quantization).
    pub tick_ms: f64,
    /// Upper bound on chunks one device transfers per tick.
    pub max_chunks_per_tick: u32,
    /// Per-chunk retry budget and backoff (shared with the serving
    /// layer's resilience machinery).
    pub retry: RetryPolicy,
    /// Ticks a device cools down after exhausting the retry budget on
    /// one chunk, before starting a fresh attempt cycle.
    pub retry_cooldown_ticks: u64,
    /// Ticks a crash reboot takes.
    pub reboot_ticks: u64,
    /// Ticks an install (write + activate reboot) takes.
    pub install_ticks: u64,
    /// Ticks a device soaks on the new version before its verdict.
    pub soak_ticks: u64,
    /// Ticks after which a wave's stragglers are abandoned.
    pub wave_deadline_ticks: u64,
}

impl Default for RolloutPolicy {
    fn default() -> Self {
        RolloutPolicy {
            canary: 8,
            wave_growth: 4,
            health_threshold: 0.9,
            max_accuracy_drop: 0.05,
            chunk_bytes: 256,
            tick_ms: 100.0,
            max_chunks_per_tick: 4,
            retry: RetryPolicy {
                max_attempts: 4,
                base_delay: Duration::from_millis(200),
                max_delay: Duration::from_secs(5),
                jitter: true,
            },
            retry_cooldown_ticks: 50,
            reboot_ticks: 8,
            install_ticks: 5,
            soak_ticks: 30,
            wave_deadline_ticks: 900,
        }
    }
}

impl RolloutPolicy {
    fn validate(&self) -> Result<(), FleetError> {
        if self.canary == 0 {
            return Err(FleetError::Config("canary wave must be non-empty".into()));
        }
        if self.wave_growth < 2 {
            return Err(FleetError::Config("wave_growth must be ≥ 2".into()));
        }
        if !(0.0..=1.0).contains(&self.health_threshold) {
            return Err(FleetError::Config("health_threshold not a fraction".into()));
        }
        if self.tick_ms <= 0.0 || self.chunk_bytes == 0 {
            return Err(FleetError::Config(
                "tick_ms and chunk_bytes must be positive".into(),
            ));
        }
        if self.wave_deadline_ticks <= self.install_ticks + self.soak_ticks {
            return Err(FleetError::Config(
                "wave deadline must exceed install + soak time".into(),
            ));
        }
        Ok(())
    }

    /// Quantizes a backoff duration to ticks (at least one).
    fn ticks(&self, d: Duration) -> u64 {
        ((d.as_secs_f64() * 1e3 / self.tick_ms).ceil() as u64).max(1)
    }
}

/// Monotone event counters for one rollout, exported through obs.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct FleetCounters {
    /// Chunks delivered and hash-verified.
    pub chunks_delivered: u64,
    /// Chunk transfer attempts that failed and were retried.
    pub chunk_retries: u64,
    /// In-transit bit flips rejected by per-chunk hashes.
    pub artifact_flips_caught: u64,
    /// Downloads resumed from a checkpoint after a crash.
    pub resumed_downloads: u64,
    /// Downloads abandoned at the wave deadline.
    pub downloads_abandoned: u64,
    /// Device crashes (mid-download and crash-loop soak crashes).
    pub crashes: u64,
    /// Devices that passed attestation this rollout.
    pub attest_ok: u64,
    /// Devices quarantined on failed attestation.
    pub quarantined: u64,
    /// Successful installs (activations).
    pub installs: u64,
    /// Installs whose written weights took injected bit flips.
    pub weight_flips_injected: u64,
    /// Flipped installs caught by the golden soak check.
    pub weight_flips_caught: u64,
    /// Crash-looping installs detected during soak.
    pub crash_loops_detected: u64,
    /// Device-level rollbacks (failed soak → previous slot).
    pub device_rollbacks: u64,
    /// Wave-level rollbacks (gate failed → whole wave reverted).
    pub wave_rollbacks: u64,
    /// Device-ticks spent serving inference traffic.
    pub served_device_ticks: u64,
    /// Total device-ticks simulated.
    pub total_device_ticks: u64,
}

/// Aggregate fleet state, used both as the per-wave gate input and as
/// the whole-fleet summary in the report.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct FleetHealth {
    /// Devices healthy on the target version.
    pub on_target: usize,
    /// Devices still on an older version (not attempted, abandoned, or
    /// rolled back).
    pub on_previous: usize,
    /// Devices that rolled back after a failed soak.
    pub rolled_back: usize,
    /// Devices abandoned at a wave deadline.
    pub abandoned: usize,
    /// Devices quarantined by attestation.
    pub quarantined: usize,
    /// Devices still mid-update (zero at rollout end).
    pub in_flight: usize,
}

impl FleetHealth {
    /// Fraction of attempted, non-quarantined devices that landed
    /// healthy on the target. Quarantine is a security outcome, not a
    /// health regression — a wave of mostly compromised devices should
    /// not look "unhealthy", it should look *contained*.
    #[must_use]
    pub fn success_rate(&self) -> f64 {
        let attempted = self.on_target + self.rolled_back + self.abandoned;
        if attempted == 0 {
            return 0.0;
        }
        self.on_target as f64 / attempted as f64
    }
}

/// Why a rollout ended.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RolloutOutcome {
    /// Every reachable, honest device converged on the target.
    Completed,
    /// A wave gate failed; every updated device was reverted.
    RolledBack {
        /// Index of the wave that tripped the gate.
        wave: usize,
    },
}

/// Per-wave record in the report.
#[derive(Debug, Clone, PartialEq)]
pub struct WaveReport {
    /// Wave index (0 = canary).
    pub index: usize,
    /// Devices assigned to the wave.
    pub size: usize,
    /// Wave-local health at gate time.
    pub health: FleetHealth,
    /// Gate verdict (health threshold and, on the canary, accuracy).
    pub gate_passed: bool,
    /// Tick the wave started at.
    pub started_tick: u64,
    /// Tick the wave's gate was decided at.
    pub ended_tick: u64,
}

/// The full, deterministic record of one rollout.
#[derive(Debug, Clone, PartialEq)]
pub struct RolloutReport {
    /// Version label the rollout targeted.
    pub target: String,
    /// Registry index of the target.
    pub target_index: usize,
    /// How it ended.
    pub outcome: RolloutOutcome,
    /// Ticks from first chunk to convergence (or rollback).
    pub ticks: u64,
    /// Per-wave records.
    pub waves: Vec<WaveReport>,
    /// Event counters.
    pub counters: FleetCounters,
    /// Fleet-wide health at the end.
    pub health: FleetHealth,
    /// Fraction of device-ticks spent serving during the rollout.
    pub availability: f64,
}

impl Exportable for RolloutReport {
    fn export(&self) -> Export {
        let c = &self.counters;
        Export {
            subsystem: "fleet".into(),
            metrics: vec![
                Metric::gauge(
                    "convergence_ticks",
                    "Ticks from rollout start to convergence or rollback",
                    self.ticks as f64,
                )
                .with_label("target", self.target.clone()),
                Metric::gauge(
                    "availability",
                    "Fraction of device-ticks serving during the rollout",
                    self.availability,
                ),
                Metric::gauge(
                    "waves",
                    "Waves executed before the rollout ended",
                    self.waves.len() as f64,
                ),
                Metric::gauge(
                    "on_target",
                    "Devices healthy on the target version at the end",
                    self.health.on_target as f64,
                ),
                Metric::counter(
                    "chunks_delivered",
                    "Hash-verified chunks delivered",
                    c.chunks_delivered,
                ),
                Metric::counter("chunk_retries", "Chunk transfer retries", c.chunk_retries),
                Metric::counter(
                    "artifact_flips_caught",
                    "In-transit bit flips rejected by chunk hashes",
                    c.artifact_flips_caught,
                ),
                Metric::counter(
                    "resumed_downloads",
                    "Downloads resumed from a checkpoint after a crash",
                    c.resumed_downloads,
                ),
                Metric::counter("crashes", "Device crashes during the rollout", c.crashes),
                Metric::counter("installs", "Successful activations", c.installs),
                Metric::counter(
                    "weight_flips_caught",
                    "Corrupted installs caught by golden soak checks",
                    c.weight_flips_caught,
                ),
                Metric::counter(
                    "crash_loops_detected",
                    "Crash-looping installs detected during soak",
                    c.crash_loops_detected,
                ),
                Metric::counter(
                    "device_rollbacks",
                    "Device-level rollbacks",
                    c.device_rollbacks,
                ),
                Metric::counter("wave_rollbacks", "Wave-level rollbacks", c.wave_rollbacks),
                Metric::counter(
                    "quarantined",
                    "Devices quarantined by attestation",
                    c.quarantined,
                ),
            ],
        }
    }
}

/// The device population plus everything a rollout needs: version
/// registry, probe input, attestation verifier, released measurement.
#[derive(Debug)]
pub struct Fleet {
    config: FleetConfig,
    devices: Vec<Device>,
    versions: Vec<VersionEntry>,
    verifier: Verifier,
    released_measurement: [u8; 32],
    probe: Tensor,
    chunk_bytes: usize,
    /// Flight recorder, if attached — rollout/wave/device transitions
    /// journal into it with simulation ticks as timestamps, so "why did
    /// device 117 roll back" is one causal-chain query.
    journal: Option<Arc<EventJournal>>,
}

impl Fleet {
    /// Provisions `config.devices` devices, enrolls them with the
    /// verifier, boots the released firmware chain to pin the expected
    /// measurement, and registers `baseline` as version 0 (pre-loaded
    /// on every device).
    ///
    /// # Errors
    ///
    /// Propagates artifact packing or probe execution failures; rejects
    /// an empty fleet.
    pub fn new(
        config: FleetConfig,
        baseline: (&str, Graph),
        probe: Tensor,
        eval: Option<&vedliot_nnir::dataset::ClassificationSet>,
    ) -> Result<Self, FleetError> {
        Self::with_chunk_bytes(
            config,
            baseline,
            probe,
            eval,
            RolloutPolicy::default().chunk_bytes,
        )
    }

    /// [`Fleet::new`] with an explicit artifact chunk size.
    ///
    /// # Errors
    ///
    /// Same as [`Fleet::new`].
    pub fn with_chunk_bytes(
        config: FleetConfig,
        baseline: (&str, Graph),
        probe: Tensor,
        eval: Option<&vedliot_nnir::dataset::ClassificationSet>,
        chunk_bytes: usize,
    ) -> Result<Self, FleetError> {
        if config.devices == 0 {
            return Err(FleetError::Config("fleet must have devices".into()));
        }
        // Pin the released firmware measurement by actually booting the
        // release chain once (the same measurement honest devices report).
        let images: Vec<Vec<u8>> = ["bl2-r4", "trusted-os-r9", "model-runtime-r2"]
            .iter()
            .map(|s| s.as_bytes().to_vec())
            .collect();
        let mut chain = SecureBootChain::new();
        for (name, image) in ["bl2", "trusted-os", "runtime"].iter().zip(&images) {
            chain.add_stage(*name, image);
        }
        let flash: Vec<&[u8]> = images.iter().map(Vec::as_slice).collect();
        let released_measurement = match chain.boot(&flash) {
            vedliot_trust::attestation::BootOutcome::Trusted { boot_measurement } => {
                boot_measurement
            }
            other => {
                return Err(FleetError::Config(format!(
                    "release chain failed its own boot: {other:?}"
                )))
            }
        };

        let mut verifier = Verifier::new();
        verifier.expect_measurement(released_measurement);
        let devices: Vec<Device> = (0..config.devices)
            .map(|i| Device::provision(i as u32, config.seed, config.trace_len))
            .collect();
        for d in &devices {
            verifier.enroll(&d.rot);
        }

        let mut fleet = Fleet {
            config,
            devices,
            versions: Vec::new(),
            verifier,
            released_measurement,
            probe,
            chunk_bytes,
            journal: None,
        };
        fleet.register_version(baseline.0, baseline.1, eval)?;
        Ok(fleet)
    }

    /// Packs and registers a new model version; returns its registry
    /// index (the handle [`Rollout`] targets).
    ///
    /// # Errors
    ///
    /// Packing, pack/unpack self-check, golden probe, or accuracy
    /// evaluation failures.
    pub fn register_version(
        &mut self,
        name: &str,
        graph: Graph,
        eval: Option<&vedliot_nnir::dataset::ClassificationSet>,
    ) -> Result<usize, FleetError> {
        let artifact = ModelArtifact::pack(name, &graph, self.chunk_bytes)?;
        // Release-time self-check: the packed image must reproduce the
        // model exactly (devices then share this verified image,
        // content-addressed by the manifest root).
        let unpacked = artifact.unpack()?;
        let golden = run_probe(&unpacked, &self.probe)?;
        let reference = run_probe(&graph, &self.probe)?;
        if golden.max_abs_diff(&reference)? != 0.0 {
            return Err(FleetError::Config(format!(
                "packed artifact for {name} does not reproduce the model"
            )));
        }
        let accuracy = match eval {
            Some(set) => Some(vedliot_nnir::train::evaluate(&graph, set)?.accuracy()),
            None => None,
        };
        self.versions.push(VersionEntry {
            name: name.to_string(),
            graph,
            artifact,
            golden,
            accuracy,
        });
        Ok(self.versions.len() - 1)
    }

    /// Attaches a flight recorder: subsequent rollouts journal their
    /// wave and device transitions into it (timestamps are simulation
    /// ticks). Share the same journal with a serving gateway to get
    /// one causally-correlated record across both layers.
    pub fn attach_journal(&mut self, journal: Arc<EventJournal>) {
        self.journal = Some(journal);
    }

    /// The attached flight recorder, if any.
    #[must_use]
    pub fn journal(&self) -> Option<Arc<EventJournal>> {
        self.journal.as_ref().map(Arc::clone)
    }

    /// The version registry.
    #[must_use]
    pub fn versions(&self) -> &[VersionEntry] {
        &self.versions
    }

    /// The device population.
    #[must_use]
    pub fn devices(&self) -> &[Device] {
        &self.devices
    }

    /// Fleet-wide health relative to `target`.
    #[must_use]
    pub fn health(&self, target: usize) -> FleetHealth {
        let mut h = FleetHealth::default();
        for d in &self.devices {
            match d.phase {
                Phase::Quarantined => h.quarantined += 1,
                Phase::RolledBack => h.rolled_back += 1,
                Phase::Abandoned => h.abandoned += 1,
                Phase::Running => {
                    if d.active == target {
                        h.on_target += 1;
                    } else {
                        h.on_previous += 1;
                    }
                }
                _ => h.in_flight += 1,
            }
        }
        h
    }

    /// Audits the post-rollout fleet against the safety invariants and
    /// returns every violation (empty = safe). Checked by the E26
    /// harness and the integration tests after *every* fault plan:
    ///
    /// 1. no device is stuck mid-update;
    /// 2. quarantined devices never installed the target;
    /// 3. no device serves weights that diverge from its version's
    ///    golden output (corrupted installs were caught and reverted);
    /// 4. on `Completed`, every non-quarantined device that wasn't
    ///    individually rolled back or abandoned runs the target;
    /// 5. on `RolledBack`, *no* device runs the target.
    #[must_use]
    pub fn audit(&self, report: &RolloutReport) -> Vec<String> {
        let mut violations = Vec::new();
        let target = report.target_index;
        for d in &self.devices {
            if !d.phase.is_terminal() {
                violations.push(format!("device {} stuck in {:?}", d.id, d.phase));
            }
            if d.phase == Phase::Quarantined && d.installed.contains(&target) {
                violations.push(format!("quarantined device {} installed the target", d.id));
            }
            if let Some(corrupted) = &d.corrupted {
                let golden = &self.versions[d.active].golden;
                match run_probe(corrupted, &self.probe).and_then(|out| out.max_abs_diff(golden)) {
                    // diff == 0.0 is an output-invisible flip: not a violation.
                    Ok(diff) => {
                        if diff != 0.0 {
                            violations.push(format!(
                                "device {} serves weights diverging from {}",
                                d.id, self.versions[d.active].name
                            ));
                        }
                    }
                    Err(e) => violations.push(format!("device {} probe failed: {e}", d.id)),
                }
            }
            match report.outcome {
                RolloutOutcome::Completed => {
                    let excused = matches!(
                        d.phase,
                        Phase::Quarantined | Phase::RolledBack | Phase::Abandoned
                    );
                    if !excused && d.active != target {
                        violations.push(format!(
                            "device {} missed the completed rollout (on {})",
                            d.id, self.versions[d.active].name
                        ));
                    }
                }
                RolloutOutcome::RolledBack { .. } => {
                    if d.active == target {
                        violations.push(format!("device {} still on the rolled-back target", d.id));
                    }
                }
            }
        }
        violations
    }
}

fn run_probe(graph: &Graph, probe: &Tensor) -> Result<Tensor, NnirError> {
    let mut runner = Runner::builder().build(graph)?;
    let out = runner.execute(std::slice::from_ref(probe), RunOptions::default())?;
    Ok(out.outputs()[0].clone())
}

/// Appends to an optionally attached journal; returns the event seq
/// (0 when no journal is attached).
fn jappend(
    journal: &Option<Arc<EventJournal>>,
    at: u64,
    kind: EventKind,
    subject: CauseId,
    cause: CauseId,
    detail: u64,
) -> u64 {
    journal
        .as_ref()
        .map_or(0, |j| j.append(at, kind, subject, cause, detail))
}

/// `DeviceRolledBack` detail codes: why the device reverted.
const ROLLBACK_SOAK_DEADLINE: u64 = 0;
const ROLLBACK_CRASH_LOOP: u64 = 1;
const ROLLBACK_GOLDEN_DIVERGED: u64 = 2;
const ROLLBACK_WAVE_REVERT: u64 = 3;

/// One staged, health-gated push of a registered version to the fleet.
#[derive(Debug, Clone)]
pub struct Rollout {
    /// Registry index of the version to push.
    pub target: usize,
    /// Pacing and gating knobs.
    pub policy: RolloutPolicy,
    /// Adversity schedule.
    pub fault: FleetFaultPlan,
}

/// An active network partition event.
struct Partition {
    offset: usize,
    span: usize,
    until: u64,
}

impl Rollout {
    /// Creates a rollout of `target` under `policy` and `fault`.
    #[must_use]
    pub fn new(target: usize, policy: RolloutPolicy, fault: FleetFaultPlan) -> Self {
        Rollout {
            target,
            policy,
            fault,
        }
    }

    /// Runs the rollout to a terminal state and returns the report.
    ///
    /// # Errors
    ///
    /// Rejects invalid policies/plans, unknown targets, and propagates
    /// fault-injection or probe execution failures.
    ///
    /// # Panics
    ///
    /// Never under a validated policy: internal draws are bounds-checked.
    #[allow(clippy::too_many_lines)]
    pub fn run(&self, fleet: &mut Fleet) -> Result<RolloutReport, FleetError> {
        self.policy.validate()?;
        self.fault.validate().map_err(FleetError::Config)?;
        if self.target >= fleet.versions.len() {
            return Err(FleetError::Config(format!(
                "unknown target version {}",
                self.target
            )));
        }
        if self.policy.chunk_bytes != fleet.chunk_bytes {
            return Err(FleetError::Config(
                "policy chunk size differs from the fleet's packed artifacts".into(),
            ));
        }
        let rollout_seed = splitmix64(
            fleet.config.seed ^ self.fault.seed.rotate_left(17) ^ (self.target as u64) << 48,
        );

        // Reset transient phases from any previous rollout; re-salt the
        // per-device streams; mark this rollout's compromised devices.
        let mut plan_rng = DetRng::new(rollout_seed ^ DEVICE_SALT);
        for d in &mut fleet.devices {
            if d.phase != Phase::Quarantined {
                d.phase = Phase::Running;
            }
            d.crashed_this_tick = false;
            d.rng = DetRng::new(splitmix64(rollout_seed ^ DEVICE_SALT ^ u64::from(d.id)));
            d.compromise = if plan_rng.chance(self.fault.compromised_rate) {
                Some(if plan_rng.chance(0.5) {
                    CompromiseKind::TamperedFirmware
                } else {
                    CompromiseKind::ForgedSignature
                })
            } else {
                None
            };
        }

        let n = fleet.devices.len();
        let mut partition_rng = DetRng::new(rollout_seed ^ PARTITION_SALT);
        let mut partitions: Vec<Partition> = Vec::new();
        let mut counters = FleetCounters::default();
        let mut waves: Vec<WaveReport> = Vec::new();
        let mut tick: u64 = 0;
        let mut outcome = RolloutOutcome::Completed;

        // Wave plan: canary, then exponential growth over the remaining
        // candidates (devices not quarantined and not on the target).
        let mut pending: Vec<usize> = (0..n)
            .filter(|&i| {
                fleet.devices[i].phase != Phase::Quarantined
                    && fleet.devices[i].active != self.target
            })
            .collect();
        let mut wave_size = self.policy.canary;
        let mut wave_index = 0usize;
        // The rollout's root-cause event: every wave cites it, so any
        // device outcome chains back to "this release was pushed".
        let root_event = jappend(
            &fleet.journal,
            tick,
            EventKind::RolloutStarted,
            CauseId::release(self.target as u64),
            CauseId::NONE,
            pending.len() as u64,
        );

        while !pending.is_empty() {
            let take = wave_size.min(pending.len());
            let members: Vec<usize> = pending.drain(..take).collect();
            let started_tick = tick;
            let wave_event = jappend(
                &fleet.journal,
                started_tick,
                EventKind::WaveStarted,
                CauseId::wave(wave_index as u64),
                CauseId::event(root_event),
                members.len() as u64,
            );
            for &i in &members {
                fleet.devices[i].phase = Phase::Downloading {
                    next_chunk: 0,
                    attempt: 0,
                    backoff_until: 0,
                };
                jappend(
                    &fleet.journal,
                    started_tick,
                    EventKind::DevicePhase,
                    CauseId::device(u64::from(fleet.devices[i].id)),
                    CauseId::event(wave_event),
                    fleet.devices[i].phase.code(),
                );
            }

            // Tick until every member is terminal or the deadline hits.
            let deadline = started_tick + self.policy.wave_deadline_ticks;
            loop {
                let all_terminal = members
                    .iter()
                    .all(|&i| fleet.devices[i].phase.is_terminal());
                if all_terminal {
                    break;
                }
                if tick >= deadline {
                    for &i in &members {
                        let d = &mut fleet.devices[i];
                        match d.phase {
                            // Not yet activated: the partial download /
                            // staged image is simply dropped.
                            Phase::Downloading { .. }
                            | Phase::Rebooting { .. }
                            | Phase::Verifying
                            | Phase::Attesting
                            | Phase::Installing { .. } => {
                                counters.downloads_abandoned += 1;
                                d.phase = Phase::Abandoned;
                                jappend(
                                    &fleet.journal,
                                    tick,
                                    EventKind::DevicePhase,
                                    CauseId::device(u64::from(d.id)),
                                    CauseId::event(wave_event),
                                    Phase::Abandoned.code(),
                                );
                            }
                            // Mid-soak at the deadline: already active —
                            // abort conservatively to the known-good slot.
                            Phase::Soaking { .. } => {
                                counters.device_rollbacks += 1;
                                d.roll_back();
                                jappend(
                                    &fleet.journal,
                                    tick,
                                    EventKind::DeviceRolledBack,
                                    CauseId::device(u64::from(d.id)),
                                    CauseId::event(wave_event),
                                    ROLLBACK_SOAK_DEADLINE,
                                );
                            }
                            _ => {}
                        }
                    }
                    break;
                }

                // Partition bookkeeping (global stream).
                partitions.retain(|p| p.until > tick);
                if partition_rng.chance(self.fault.partition_rate) && self.fault.partition_span > 0
                {
                    partitions.push(Partition {
                        offset: partition_rng.index(n),
                        span: self.fault.partition_span,
                        until: tick + self.fault.partition_ticks,
                    });
                }

                for &i in &members {
                    self.step_device(fleet, i, tick, &partitions, &mut counters, wave_event)?;
                }

                // Availability over the whole fleet, every tick.
                for d in &fleet.devices {
                    counters.total_device_ticks += 1;
                    if d.is_serving() {
                        counters.served_device_ticks += 1;
                    }
                }
                tick += 1;
            }

            // Gate the wave.
            let mut health = FleetHealth::default();
            for &i in &members {
                let d = &fleet.devices[i];
                match d.phase {
                    Phase::Quarantined => health.quarantined += 1,
                    Phase::RolledBack => health.rolled_back += 1,
                    Phase::Abandoned => health.abandoned += 1,
                    Phase::Running if d.active == self.target => health.on_target += 1,
                    _ => health.on_previous += 1,
                }
            }
            let mut gate = health.success_rate() >= self.policy.health_threshold;
            // Canary accuracy gate: the target must not regress held-out
            // accuracy vs the best already-deployed version.
            if wave_index == 0 {
                if let Some(target_acc) = fleet.versions[self.target].accuracy {
                    let baseline_acc = fleet
                        .versions
                        .iter()
                        .enumerate()
                        .filter(|(i, _)| *i != self.target)
                        .filter_map(|(_, v)| v.accuracy)
                        .fold(0.0_f64, f64::max);
                    if target_acc < baseline_acc - self.policy.max_accuracy_drop {
                        gate = false;
                    }
                }
            }
            waves.push(WaveReport {
                index: wave_index,
                size: members.len(),
                health,
                gate_passed: gate,
                started_tick,
                ended_tick: tick,
            });
            let gate_event = jappend(
                &fleet.journal,
                tick,
                EventKind::HealthGate,
                CauseId::wave(wave_index as u64),
                CauseId::event(wave_event),
                u64::from(gate),
            );

            if !gate {
                // Wave-level rollback: revert every device that
                // activated the target, in any wave. Each revert cites
                // the failed gate — the chain from any reverted device
                // runs gate → wave → rollout root.
                let mut reverted = 0u64;
                for d in &mut fleet.devices {
                    if d.active == self.target && d.phase != Phase::Quarantined {
                        counters.device_rollbacks += 1;
                        reverted += 1;
                        d.roll_back();
                        jappend(
                            &fleet.journal,
                            tick,
                            EventKind::DeviceRolledBack,
                            CauseId::device(u64::from(d.id)),
                            CauseId::event(gate_event),
                            ROLLBACK_WAVE_REVERT,
                        );
                    }
                }
                counters.wave_rollbacks += 1;
                jappend(
                    &fleet.journal,
                    tick,
                    EventKind::WaveRolledBack,
                    CauseId::wave(wave_index as u64),
                    CauseId::event(gate_event),
                    reverted,
                );
                outcome = RolloutOutcome::RolledBack { wave: wave_index };
                break;
            }

            wave_index += 1;
            wave_size = wave_size.saturating_mul(self.policy.wave_growth);
        }

        let entry = &fleet.versions[self.target];
        let availability = if counters.total_device_ticks == 0 {
            1.0
        } else {
            counters.served_device_ticks as f64 / counters.total_device_ticks as f64
        };
        let report = RolloutReport {
            target: entry.name.clone(),
            target_index: self.target,
            outcome,
            ticks: tick,
            waves,
            counters,
            health: fleet.health(self.target),
            availability,
        };
        Ok(report)
    }

    /// Advances one device by one tick.
    #[allow(clippy::too_many_lines)]
    fn step_device(
        &self,
        fleet: &mut Fleet,
        idx: usize,
        tick: u64,
        partitions: &[Partition],
        counters: &mut FleetCounters,
        wave_event: u64,
    ) -> Result<(), FleetError> {
        let n = fleet.devices.len();
        let partitioned = partitions.iter().any(|p| (idx + n - p.offset) % n < p.span);
        let Fleet {
            devices,
            versions,
            verifier,
            released_measurement,
            probe,
            journal,
            ..
        } = fleet;
        let entry = &versions[self.target];
        let artifact = &entry.artifact;
        let d = &mut devices[idx];
        d.crashed_this_tick = false;

        match d.phase {
            Phase::Downloading {
                mut next_chunk,
                mut attempt,
                mut backoff_until,
            } => {
                // Crash mid-download: reboot, then resume from the last
                // verified chunk.
                if d.rng.chance(self.fault.crash_per_tick) {
                    counters.crashes += 1;
                    d.crashed_this_tick = true;
                    d.phase = Phase::Rebooting {
                        until: tick + self.policy.reboot_ticks,
                        resume: Some(next_chunk),
                    };
                    return Ok(());
                }
                if tick < backoff_until {
                    return Ok(());
                }
                let cond = d.link_at(tick, partitioned);
                let total = artifact.manifest.chunk_count();
                if let Some(per_chunk_ms) = cond.upload_ms(self.policy.chunk_bytes as u64) {
                    let budget = (self.policy.tick_ms / per_chunk_ms).floor().max(1.0) as u32;
                    let budget = budget.min(self.policy.max_chunks_per_tick);
                    for _ in 0..budget {
                        if next_chunk >= total {
                            break;
                        }
                        let chunk = &artifact.chunks[next_chunk as usize];
                        // In-transit corruption: flip one bit of the
                        // received copy and run the *real* hash check.
                        let received_ok = if d.rng.chance(self.fault.transit_flip_rate) {
                            let mut received = chunk.clone();
                            let byte = d.rng.index(received.payload.len().max(1));
                            let bit = d.rng.index(8) as u8;
                            received.payload[byte] ^= 1 << bit;
                            let ok = received.verify(&artifact.manifest);
                            debug_assert!(!ok, "hash check missed a flipped bit");
                            ok
                        } else {
                            chunk.verify(&artifact.manifest)
                        };
                        if received_ok {
                            counters.chunks_delivered += 1;
                            next_chunk += 1;
                            attempt = 0;
                        } else {
                            counters.artifact_flips_caught += 1;
                            counters.chunk_retries += 1;
                            attempt += 1;
                            if attempt >= self.policy.retry.max_attempts {
                                // Budget exhausted: long cool-down, then
                                // a fresh attempt cycle (bounded retry
                                // must not brick the device).
                                attempt = 0;
                                backoff_until = tick + self.policy.retry_cooldown_ticks;
                            } else {
                                let salt =
                                    BACKOFF_SALT ^ u64::from(d.id) << 24 ^ u64::from(next_chunk);
                                let delay = self.policy.retry.backoff(attempt, salt);
                                backoff_until = tick + self.policy.ticks(delay);
                            }
                            break;
                        }
                    }
                }
                d.phase = if next_chunk >= total {
                    jappend(
                        journal,
                        tick,
                        EventKind::DevicePhase,
                        CauseId::device(u64::from(d.id)),
                        CauseId::event(wave_event),
                        Phase::Verifying.code(),
                    );
                    Phase::Verifying
                } else {
                    Phase::Downloading {
                        next_chunk,
                        attempt,
                        backoff_until,
                    }
                };
            }
            Phase::Rebooting { until, resume } => {
                if tick >= until {
                    d.phase = match resume {
                        Some(chunk) => {
                            counters.resumed_downloads += 1;
                            Phase::Downloading {
                                next_chunk: chunk,
                                attempt: 0,
                                backoff_until: 0,
                            }
                        }
                        None => Phase::Running,
                    };
                }
            }
            Phase::Verifying => {
                // Whole-image check: every chunk hash plus the chained
                // root (the release identity the device will attest to
                // having installed).
                debug_assert!(artifact.verify().is_ok());
                d.phase = Phase::Attesting;
            }
            Phase::Attesting => {
                let nonce = verifier.challenge_for(d.rot.device_id);
                let report = match d.compromise {
                    None => attest(&d.rot, *released_measurement, nonce),
                    Some(CompromiseKind::TamperedFirmware) => {
                        // Honest key, dishonest measurement.
                        attest(&d.rot, sha256(b"tampered-firmware"), nonce)
                    }
                    Some(CompromiseKind::ForgedSignature) => {
                        // An attacker without the fused key signs with a
                        // rogue one and claims this device's identity.
                        let rogue = RootOfTrust::provision(b"rogue-key");
                        let mut forged = attest(&rogue, *released_measurement, nonce);
                        forged.device_id = d.rot.device_id;
                        forged
                    }
                };
                if verifier.verify(&report) {
                    counters.attest_ok += 1;
                    d.phase = Phase::Installing {
                        until: tick + self.policy.install_ticks,
                    };
                    jappend(
                        journal,
                        tick,
                        EventKind::DevicePhase,
                        CauseId::device(u64::from(d.id)),
                        CauseId::event(wave_event),
                        d.phase.code(),
                    );
                } else {
                    counters.quarantined += 1;
                    d.phase = Phase::Quarantined;
                    // Detail: what the attestation caught (1 =
                    // tampered firmware, 2 = forged signature; 0 would
                    // be an honest device wrongly cordoned — never
                    // expected).
                    let detail = match d.compromise {
                        None => 0,
                        Some(CompromiseKind::TamperedFirmware) => 1,
                        Some(CompromiseKind::ForgedSignature) => 2,
                    };
                    jappend(
                        journal,
                        tick,
                        EventKind::DeviceQuarantined,
                        CauseId::device(u64::from(d.id)),
                        CauseId::event(wave_event),
                        detail,
                    );
                }
            }
            Phase::Installing { until } => {
                if tick >= until {
                    d.activate(self.target);
                    counters.installs += 1;
                    // Install-time fault draws.
                    let crash_loop = d.rng.chance(self.fault.install_crash_rate);
                    if d.rng.chance(self.fault.weight_flip_rate) {
                        let mut shadow = entry.graph.clone();
                        let flip_seed = splitmix64(self.fault.seed ^ FLIP_SALT ^ u64::from(d.id));
                        flip_weight_bits(&mut shadow, self.fault.weight_flips, flip_seed)?;
                        d.corrupted = Some(shadow);
                        counters.weight_flips_injected += 1;
                    }
                    d.phase = Phase::Soaking {
                        until: tick + self.policy.soak_ticks,
                        crashes: 0,
                        crash_loop,
                    };
                    jappend(
                        journal,
                        tick,
                        EventKind::DevicePhase,
                        CauseId::device(u64::from(d.id)),
                        CauseId::event(wave_event),
                        d.phase.code(),
                    );
                }
            }
            Phase::Soaking {
                until,
                mut crashes,
                crash_loop,
            } => {
                if crash_loop && d.rng.chance(0.5) {
                    crashes += 1;
                    counters.crashes += 1;
                    d.crashed_this_tick = true;
                }
                if crashes >= 3 {
                    counters.crash_loops_detected += 1;
                    counters.device_rollbacks += 1;
                    d.roll_back();
                    jappend(
                        journal,
                        tick,
                        EventKind::DeviceRolledBack,
                        CauseId::device(u64::from(d.id)),
                        CauseId::event(wave_event),
                        ROLLBACK_CRASH_LOOP,
                    );
                } else if tick >= until {
                    // Golden check: clean installs share the verified
                    // image (content-addressed by the manifest root), so
                    // only a corrupted shadow needs a real inference.
                    let diverged = match &d.corrupted {
                        None => false,
                        Some(shadow) => {
                            let out = run_probe(shadow, probe)?;
                            out.max_abs_diff(&entry.golden)? != 0.0
                        }
                    };
                    if diverged {
                        counters.weight_flips_caught += 1;
                        counters.device_rollbacks += 1;
                        d.roll_back();
                        jappend(
                            journal,
                            tick,
                            EventKind::DeviceRolledBack,
                            CauseId::device(u64::from(d.id)),
                            CauseId::event(wave_event),
                            ROLLBACK_GOLDEN_DIVERGED,
                        );
                    } else {
                        d.phase = Phase::Running;
                        jappend(
                            journal,
                            tick,
                            EventKind::DevicePhase,
                            CauseId::device(u64::from(d.id)),
                            CauseId::event(wave_event),
                            Phase::Running.code(),
                        );
                    }
                } else {
                    d.phase = Phase::Soaking {
                        until,
                        crashes,
                        crash_loop,
                    };
                }
            }
            Phase::Running | Phase::RolledBack | Phase::Quarantined | Phase::Abandoned => {}
        }
        Ok(())
    }
}
