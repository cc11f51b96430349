//! Per-device OTA state machine.
//!
//! Each simulated device owns a root of trust, an A/B slot pair
//! (modelled as the active version index plus the previous one to fall
//! back to), a deterministic link trace from `recs::net`, and its own
//! salted RNG stream. The update lifecycle is:
//!
//! ```text
//! Running ──wave──▶ Downloading ──all chunks──▶ Verifying ──▶ Attesting
//!    ▲    assigned      │ ▲                                      │
//!    │                  ▼ │ resume                     pass      │ fail
//!    │              Rebooting                            ▼       ▼
//!    ├◀─────────── RolledBack ◀──soak fails── Soaking ◀── Installing
//!    │                                           │
//!    └◀──────────────── soak passes ─────────────┘        Quarantined
//! ```
//!
//! Downloads go to the inactive slot, so a device keeps serving its
//! current model while updating (the availability metric counts on
//! this); `Rebooting` and `Installing` are the only planned outage
//! phases. A failed soak (crash loop or golden-output divergence) flips
//! back to the previous slot — the rollback is local and immediate,
//! while *wave*-level rollback is the engine's call.

use vedliot_nnir::det::DetRng;
use vedliot_nnir::graph::Graph;
use vedliot_recs::net::{NetworkCondition, NetworkTrace};
use vedliot_trust::attestation::RootOfTrust;

use crate::fault::CompromiseKind;

/// Where a device is in the update lifecycle.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Phase {
    /// Steady state: serving the active slot.
    Running,
    /// Fetching chunks into the inactive slot (still serving).
    Downloading {
        /// Next chunk index to fetch.
        next_chunk: u32,
        /// Failed attempts on that chunk (bounded by the retry policy).
        attempt: u32,
        /// No transfer before this tick (backoff / retry cool-down).
        backoff_until: u64,
    },
    /// Crashed mid-download; back at `until`, resuming the download at
    /// `resume` (chunked resume — verified chunks are not re-fetched).
    Rebooting {
        /// Tick at which the device is back.
        until: u64,
        /// Chunk index the download resumes at.
        resume: u32,
    },
    /// Whole-image root verification of the downloaded slot.
    Verifying,
    /// Challenge/response attestation before install is authorized.
    Attesting,
    /// Writing the new image and rebooting into it (outage).
    Installing {
        /// Tick at which activation completes.
        until: u64,
    },
    /// Serving the new version under observation.
    Soaking {
        /// Tick at which the soak verdict is due.
        until: u64,
        /// Crashes observed so far this soak.
        crashes: u32,
        /// Fault injection: this install crash-loops.
        crash_loop: bool,
    },
    /// Soak failed; flipped back to the previous slot (terminal for
    /// this rollout, still serving).
    RolledBack,
    /// Attestation failed; cordoned off (terminal, not serving).
    Quarantined,
    /// Hit the wave deadline before finishing (terminal, still serving
    /// the old version; the partial download is abandoned).
    Abandoned,
}

impl Phase {
    /// Whether the device has reached a rollout-terminal state for the
    /// current wave (given the version it set out to install).
    #[must_use]
    pub fn is_terminal(&self) -> bool {
        matches!(
            self,
            Phase::Running | Phase::RolledBack | Phase::Quarantined | Phase::Abandoned
        )
    }

    /// Stable numeric code for journal `DevicePhase` events (the
    /// `detail` field). Codes are part of the flight-recorder wire
    /// vocabulary — append-only, never renumber.
    #[must_use]
    pub fn code(&self) -> u64 {
        match self {
            Phase::Running => 0,
            Phase::Downloading { .. } => 1,
            Phase::Rebooting { .. } => 2,
            Phase::Verifying => 3,
            Phase::Attesting => 4,
            Phase::Installing { .. } => 5,
            Phase::Soaking { .. } => 6,
            Phase::RolledBack => 7,
            Phase::Quarantined => 8,
            Phase::Abandoned => 9,
        }
    }
}

/// One simulated edge device.
#[derive(Debug, Clone)]
pub struct Device {
    /// Fleet-unique index.
    pub id: u32,
    /// Fused root of trust (enrolled with the fleet verifier).
    pub rot: RootOfTrust,
    /// `Some` if the fault plan compromised this device for the current
    /// rollout.
    pub compromise: Option<CompromiseKind>,
    /// Active slot: index into the fleet's version registry.
    pub active: usize,
    /// Previous slot (rollback target), if any.
    pub previous: Option<usize>,
    /// Copy-on-corrupt shadow of the active model: `Some` only when the
    /// installed weights took bit flips, so clean devices share the one
    /// verified image and golden checks on them are content-equality.
    pub corrupted: Option<Graph>,
    /// Every version index ever installed (activation history — the
    /// quarantine invariant is asserted against this).
    pub installed: Vec<usize>,
    /// Lifecycle phase.
    pub phase: Phase,
    /// Link condition trace (indexed by tick, wrapping).
    pub trace: NetworkTrace,
    /// Device-local fault/jitter stream, re-salted per rollout.
    pub rng: DetRng,
    /// Set by the engine when the device crashed this tick (an outage
    /// tick even in otherwise-serving phases).
    pub crashed_this_tick: bool,
}

impl Device {
    /// Provisions a device: fused secrets and a link personality, both
    /// derived deterministically from the fleet seed.
    #[must_use]
    pub fn provision(id: u32, fleet_seed: u64, trace_len: usize) -> Self {
        let mut fuse = [0u8; 12];
        fuse[..8].copy_from_slice(&fleet_seed.to_le_bytes());
        fuse[8..].copy_from_slice(&id.to_le_bytes());
        let rot = RootOfTrust::provision(&fuse);
        let trace_seed = fleet_seed
            .wrapping_mul(0x9E37_79B9_7F4A_7C15)
            .wrapping_add(u64::from(id));
        Device {
            id,
            rot,
            compromise: None,
            active: 0,
            previous: None,
            corrupted: None,
            installed: vec![0],
            phase: Phase::Running,
            trace: NetworkTrace::generate(trace_len, trace_seed),
            rng: DetRng::new(trace_seed),
            crashed_this_tick: false,
        }
    }

    /// Link condition at `tick`: the trace sample, unless the engine
    /// says this device is inside a partition.
    #[must_use]
    pub fn link_at(&self, tick: u64, partitioned: bool) -> NetworkCondition {
        if partitioned {
            return NetworkCondition::down();
        }
        let len = self.trace.len().max(1);
        self.trace.samples[(tick as usize) % len]
    }

    /// Whether the device serves inference traffic this tick.
    /// Downloads ride the inactive slot, so `Downloading`, `Verifying`
    /// and `Attesting` all still serve; planned outages (`Rebooting`,
    /// `Installing`), quarantine and crash ticks do not.
    #[must_use]
    pub fn is_serving(&self) -> bool {
        if self.crashed_this_tick {
            return false;
        }
        match self.phase {
            Phase::Running
            | Phase::Downloading { .. }
            | Phase::Verifying
            | Phase::Attesting
            | Phase::Soaking { .. }
            | Phase::RolledBack
            | Phase::Abandoned => true,
            Phase::Rebooting { .. } | Phase::Installing { .. } | Phase::Quarantined => false,
        }
    }

    /// Activates `version`: the old active slot becomes the rollback
    /// target and the activation is recorded in the install history.
    pub fn activate(&mut self, version: usize) {
        self.previous = Some(self.active);
        self.active = version;
        self.corrupted = None;
        self.installed.push(version);
    }

    /// Flips back to the previous slot (device-level rollback). The
    /// corrupted shadow, if any, is discarded with the bad slot.
    ///
    /// # Panics
    ///
    /// Panics if there is no previous slot — the engine only calls this
    /// after an activation.
    pub fn roll_back(&mut self) {
        let Some(previous) = self.previous.take() else {
            panic!("rollback without a previous slot")
        };
        self.active = previous;
        self.corrupted = None;
        self.phase = Phase::RolledBack;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn provisioning_is_deterministic_and_unique() {
        let a = Device::provision(7, 42, 64);
        let b = Device::provision(7, 42, 64);
        assert_eq!(a.rot.device_id, b.rot.device_id);
        assert_eq!(a.trace, b.trace);
        let c = Device::provision(8, 42, 64);
        assert_ne!(a.rot.device_id, c.rot.device_id);
        assert_ne!(a.trace, c.trace);
    }

    #[test]
    fn activation_and_rollback_manage_slots() {
        let mut d = Device::provision(0, 1, 8);
        d.activate(3);
        assert_eq!((d.active, d.previous), (3, Some(0)));
        assert_eq!(d.installed, vec![0, 3]);
        d.roll_back();
        assert_eq!((d.active, d.previous), (0, None));
        assert_eq!(d.phase, Phase::RolledBack);
        // History still records that 3 was installed once.
        assert_eq!(d.installed, vec![0, 3]);
    }

    #[test]
    fn serving_tracks_phase_and_crash_ticks() {
        let mut d = Device::provision(0, 1, 8);
        assert!(d.is_serving());
        d.phase = Phase::Downloading {
            next_chunk: 0,
            attempt: 0,
            backoff_until: 0,
        };
        assert!(d.is_serving(), "A/B download must not interrupt serving");
        d.phase = Phase::Installing { until: 5 };
        assert!(!d.is_serving());
        d.phase = Phase::Soaking {
            until: 5,
            crashes: 0,
            crash_loop: true,
        };
        assert!(d.is_serving());
        d.crashed_this_tick = true;
        assert!(!d.is_serving());
        d.crashed_this_tick = false;
        d.phase = Phase::Quarantined;
        assert!(!d.is_serving());
    }

    #[test]
    fn partition_overrides_the_trace() {
        let d = Device::provision(0, 1, 8);
        assert!(d.link_at(3, true).is_down());
        // The trace itself is mostly usable.
        let up = (0..8).filter(|&t| !d.link_at(t, false).is_down()).count();
        assert!(up > 0);
    }
}
