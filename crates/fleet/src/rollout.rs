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

/// Chunk size every release is packed with, bytes — sized for lossy
/// device links; it also sets how many chunks one tick can carry.
const CHUNK_BYTES: usize = 256;

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

/// Wave size multiplier after each gated wave.
const WAVE_GROWTH: usize = 4;
/// Maximum tolerated drop in held-out accuracy vs the baseline version
/// (canary accuracy gate; ignored without an eval set).
const MAX_ACCURACY_DROP: f64 = 0.05;
/// Wall-clock milliseconds one tick represents (scales chunk throughput
/// and retry backoff quantization).
const TICK_MS: f64 = 100.0;
/// Upper bound on chunks one device transfers per tick.
const MAX_CHUNKS_PER_TICK: u32 = 4;
/// Per-chunk retry budget and backoff (shared with the serving layer's
/// resilience machinery).
const RETRY: RetryPolicy = RetryPolicy {
    max_attempts: 4,
    base_delay: Duration::from_millis(200),
    max_delay: Duration::from_secs(5),
    jitter: true,
};
/// Ticks a device cools down after exhausting the retry budget on one
/// chunk, before starting a fresh attempt cycle.
const RETRY_COOLDOWN_TICKS: u64 = 50;
/// Ticks a crash reboot takes.
const REBOOT_TICKS: u64 = 8;
/// Ticks an install (write + activate reboot) takes.
const INSTALL_TICKS: u64 = 5;
/// Ticks a device soaks on the new version before its verdict.
const SOAK_TICKS: u64 = 30;
/// Ticks after which a wave's stragglers are abandoned.
const WAVE_DEADLINE_TICKS: u64 = 900;

const _: () = assert!(WAVE_GROWTH >= 2, "waves must grow");
const _: () = assert!(TICK_MS > 0.0, "a tick must take time");
const _: () = assert!(
    WAVE_DEADLINE_TICKS > INSTALL_TICKS + SOAK_TICKS,
    "wave deadline must exceed install + soak time"
);

/// Quantizes a backoff duration to ticks (at least one).
fn ticks(d: Duration) -> u64 {
    ((d.as_secs_f64() * 1e3 / TICK_MS).ceil() as u64).max(1)
}

/// Canary size and health gate for one rollout. Pacing and timing
/// (wave growth, chunk throughput, retry backoff, reboot, install and
/// soak durations, the wave deadline) are this module's constants.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RolloutPolicy {
    /// Devices in wave 0 (the canary cohort).
    pub canary: usize,
    /// Minimum fraction of a wave's non-quarantined devices that must
    /// land healthy on the target for the rollout to continue.
    pub health_threshold: f64,
}

impl Default for RolloutPolicy {
    fn default() -> Self {
        RolloutPolicy {
            canary: 8,
            health_threshold: 0.9,
        }
    }
}

impl RolloutPolicy {
    fn validate(&self) -> Result<(), FleetError> {
        if self.canary == 0 {
            return Err(FleetError::Config("canary wave must be non-empty".into()));
        }
        if !(0.0..=1.0).contains(&self.health_threshold) {
            return Err(FleetError::Config("health_threshold not a fraction".into()));
        }
        Ok(())
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
    /// Tallies the phases of `devices` relative to `target`.
    fn of<'d>(devices: impl IntoIterator<Item = &'d Device>, target: usize) -> Self {
        let mut h = FleetHealth::default();
        for d in devices {
            match d.phase {
                Phase::Quarantined => h.quarantined += 1,
                Phase::RolledBack => h.rolled_back += 1,
                Phase::Abandoned => h.abandoned += 1,
                Phase::Running if d.active == target => h.on_target += 1,
                Phase::Running => h.on_previous += 1,
                _ => h.in_flight += 1,
            }
        }
        h
    }

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
        let artifact = ModelArtifact::pack(name, &graph, CHUNK_BYTES)?;
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
        FleetHealth::of(&self.devices, target)
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

/// Why a device reverted; the discriminant is the `DeviceRolledBack`
/// event's detail code.
#[derive(Debug, Clone, Copy)]
enum Rollback {
    /// Still soaking at the wave deadline.
    SoakDeadline = 0,
    /// Crash-looped during soak.
    CrashLoop = 1,
    /// Its corrupted weights diverged from the golden output.
    GoldenDiverged = 2,
    /// Its wave's gate failed and the whole target was reverted.
    WaveRevert = 3,
}

/// The one place a rollout records an event: each method bumps the
/// event's counter, applies the device transition and journals it (in
/// that order), so the report's counts and the journal cannot disagree.
/// Journal seqs are 0 when no journal is attached.
struct Recorder {
    counters: FleetCounters,
    journal: Option<Arc<EventJournal>>,
}

impl Recorder {
    /// Journals one event citing event seq `cause` (0 cites nothing:
    /// seqs start at 1, so `CauseId::event(0)` is `CauseId::NONE`).
    fn append(&self, at: u64, kind: EventKind, subject: CauseId, cause: u64, detail: u64) -> u64 {
        self.journal.as_ref().map_or(0, |j| {
            j.append(at, kind, subject, CauseId::event(cause), detail)
        })
    }

    fn device_event(&self, at: u64, kind: EventKind, d: &Device, cause: u64, detail: u64) {
        self.append(at, kind, CauseId::device(u64::from(d.id)), cause, detail);
    }

    /// The rollout's root-cause event: every wave cites it, so any
    /// device outcome chains back to "this release was pushed".
    fn rollout_started(&self, at: u64, target: usize, candidates: usize) -> u64 {
        let subject = CauseId::release(target as u64);
        self.append(at, EventKind::RolloutStarted, subject, 0, candidates as u64)
    }

    fn wave_started(&self, at: u64, wave: usize, root: u64, size: usize) -> u64 {
        let subject = CauseId::wave(wave as u64);
        self.append(at, EventKind::WaveStarted, subject, root, size as u64)
    }

    fn gate(&self, at: u64, wave: usize, wave_event: u64, passed: bool) -> u64 {
        let (subject, detail) = (CauseId::wave(wave as u64), u64::from(passed));
        self.append(at, EventKind::HealthGate, subject, wave_event, detail)
    }

    fn wave_rolled_back(&mut self, at: u64, wave: usize, gate_event: u64, reverted: u64) {
        self.counters.wave_rollbacks += 1;
        let subject = CauseId::wave(wave as u64);
        self.append(at, EventKind::WaveRolledBack, subject, gate_event, reverted);
    }

    /// A journaled phase change. Entering `Installing` means the device
    /// attested, entering `Soaking` means it activated, and `Abandoned`
    /// means the wave deadline dropped its download.
    fn phase(&mut self, at: u64, d: &mut Device, phase: Phase, wave_event: u64) {
        match phase {
            Phase::Installing { .. } => self.counters.attest_ok += 1,
            Phase::Soaking { .. } => self.counters.installs += 1,
            Phase::Abandoned => self.counters.downloads_abandoned += 1,
            _ => {}
        }
        d.phase = phase;
        self.device_event(at, EventKind::DevicePhase, d, wave_event, phase.code());
    }

    fn rollback(&mut self, at: u64, d: &mut Device, cause: u64, why: Rollback) {
        match why {
            Rollback::CrashLoop => self.counters.crash_loops_detected += 1,
            Rollback::GoldenDiverged => self.counters.weight_flips_caught += 1,
            Rollback::SoakDeadline | Rollback::WaveRevert => {}
        }
        self.counters.device_rollbacks += 1;
        d.roll_back();
        self.device_event(at, EventKind::DeviceRolledBack, d, cause, why as u64);
    }

    /// Failed attestation. The detail says what it caught: 1 = tampered
    /// firmware, 2 = forged signature; 0 would be an honest device
    /// wrongly cordoned (never expected).
    fn quarantine(&mut self, at: u64, d: &mut Device, wave_event: u64) {
        self.counters.quarantined += 1;
        d.phase = Phase::Quarantined;
        let detail = match d.compromise {
            None => 0,
            Some(CompromiseKind::TamperedFirmware) => 1,
            Some(CompromiseKind::ForgedSignature) => 2,
        };
        self.device_event(at, EventKind::DeviceQuarantined, d, wave_event, detail);
    }
}

/// One staged, health-gated push of a registered version to the fleet.
#[derive(Debug, Clone)]
pub struct Rollout {
    /// Registry index of the version to push.
    pub target: usize,
    /// Canary size and health gate.
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
        let mut rec = Recorder {
            counters: FleetCounters::default(),
            journal: fleet.journal.clone(),
        };
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
        let root_event = rec.rollout_started(tick, self.target, pending.len());

        while !pending.is_empty() {
            let take = wave_size.min(pending.len());
            let members: Vec<usize> = pending.drain(..take).collect();
            let started_tick = tick;
            let wave_event = rec.wave_started(started_tick, wave_index, root_event, members.len());
            for &i in &members {
                let download = Phase::Downloading {
                    next_chunk: 0,
                    attempt: 0,
                    backoff_until: 0,
                };
                rec.phase(started_tick, &mut fleet.devices[i], download, wave_event);
            }

            // Tick until every member is terminal or the deadline hits.
            let deadline = started_tick + WAVE_DEADLINE_TICKS;
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
                                rec.phase(tick, d, Phase::Abandoned, wave_event);
                            }
                            // Mid-soak at the deadline: already active —
                            // abort conservatively to the known-good slot.
                            Phase::Soaking { .. } => {
                                rec.rollback(tick, d, wave_event, Rollback::SoakDeadline);
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
                    self.step_device(fleet, i, tick, &partitions, &mut rec, wave_event)?;
                }

                // Availability over the whole fleet, every tick.
                for d in &fleet.devices {
                    rec.counters.total_device_ticks += 1;
                    if d.is_serving() {
                        rec.counters.served_device_ticks += 1;
                    }
                }
                tick += 1;
            }

            // Gate the wave (every member is terminal by now).
            let health = FleetHealth::of(members.iter().map(|&i| &fleet.devices[i]), self.target);
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
                    if target_acc < baseline_acc - MAX_ACCURACY_DROP {
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
            let gate_event = rec.gate(tick, wave_index, wave_event, gate);

            if !gate {
                // Wave-level rollback: revert every device that
                // activated the target, in any wave. Each revert cites
                // the failed gate — the chain from any reverted device
                // runs gate → wave → rollout root.
                let mut reverted = 0u64;
                for d in &mut fleet.devices {
                    if d.active == self.target && d.phase != Phase::Quarantined {
                        reverted += 1;
                        rec.rollback(tick, d, gate_event, Rollback::WaveRevert);
                    }
                }
                rec.wave_rolled_back(tick, wave_index, gate_event, reverted);
                outcome = RolloutOutcome::RolledBack { wave: wave_index };
                break;
            }

            wave_index += 1;
            wave_size = wave_size.saturating_mul(WAVE_GROWTH);
        }

        let entry = &fleet.versions[self.target];
        let counters = rec.counters;
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
        rec: &mut Recorder,
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
                    rec.counters.crashes += 1;
                    d.crashed_this_tick = true;
                    d.phase = Phase::Rebooting {
                        until: tick + REBOOT_TICKS,
                        resume: next_chunk,
                    };
                    return Ok(());
                }
                if tick < backoff_until {
                    return Ok(());
                }
                let cond = d.link_at(tick, partitioned);
                let total = artifact.manifest.chunk_count();
                if let Some(per_chunk_ms) = cond.upload_ms(CHUNK_BYTES as u64) {
                    let budget = (TICK_MS / per_chunk_ms).floor().max(1.0) as u32;
                    let budget = budget.min(MAX_CHUNKS_PER_TICK);
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
                            rec.counters.chunks_delivered += 1;
                            next_chunk += 1;
                            attempt = 0;
                        } else {
                            rec.counters.artifact_flips_caught += 1;
                            rec.counters.chunk_retries += 1;
                            attempt += 1;
                            if attempt >= RETRY.max_attempts {
                                // Budget exhausted: long cool-down, then
                                // a fresh attempt cycle (bounded retry
                                // must not brick the device).
                                attempt = 0;
                                backoff_until = tick + RETRY_COOLDOWN_TICKS;
                            } else {
                                let salt =
                                    BACKOFF_SALT ^ u64::from(d.id) << 24 ^ u64::from(next_chunk);
                                backoff_until = tick + ticks(RETRY.backoff(attempt, salt));
                            }
                            break;
                        }
                    }
                }
                if next_chunk >= total {
                    rec.phase(tick, d, Phase::Verifying, wave_event);
                } else {
                    d.phase = Phase::Downloading {
                        next_chunk,
                        attempt,
                        backoff_until,
                    };
                }
            }
            Phase::Rebooting { until, resume } => {
                if tick >= until {
                    rec.counters.resumed_downloads += 1;
                    d.phase = Phase::Downloading {
                        next_chunk: resume,
                        attempt: 0,
                        backoff_until: 0,
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
                    let install = Phase::Installing {
                        until: tick + INSTALL_TICKS,
                    };
                    rec.phase(tick, d, install, wave_event);
                } else {
                    rec.quarantine(tick, d, wave_event);
                }
            }
            Phase::Installing { until } => {
                if tick >= until {
                    d.activate(self.target);
                    // Install-time fault draws.
                    let crash_loop = d.rng.chance(self.fault.install_crash_rate);
                    if d.rng.chance(self.fault.weight_flip_rate) {
                        let mut shadow = entry.graph.clone();
                        let flip_seed = splitmix64(self.fault.seed ^ FLIP_SALT ^ u64::from(d.id));
                        flip_weight_bits(&mut shadow, self.fault.weight_flips, flip_seed)?;
                        d.corrupted = Some(shadow);
                        rec.counters.weight_flips_injected += 1;
                    }
                    let soak = Phase::Soaking {
                        until: tick + SOAK_TICKS,
                        crashes: 0,
                        crash_loop,
                    };
                    rec.phase(tick, d, soak, wave_event);
                }
            }
            Phase::Soaking {
                until,
                mut crashes,
                crash_loop,
            } => {
                if crash_loop && d.rng.chance(0.5) {
                    crashes += 1;
                    rec.counters.crashes += 1;
                    d.crashed_this_tick = true;
                }
                if crashes >= 3 {
                    rec.rollback(tick, d, wave_event, Rollback::CrashLoop);
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
                        rec.rollback(tick, d, wave_event, Rollback::GoldenDiverged);
                    } else {
                        rec.phase(tick, d, Phase::Running, wave_event);
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
