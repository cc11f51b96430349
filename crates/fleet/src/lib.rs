//! Fleet-scale OTA model rollout for VEDLIoT edge deployments.
//!
//! The paper's toolchain ends at a deployable model; this crate covers
//! the last mile at fleet scale: shipping that model to thousands of
//! heterogeneous edge devices over unreliable links without ever
//! leaving the fleet in an unsafe state. It composes the trust layer
//! (attestation before install), the safety layer (bit-flip fault
//! models and golden checks), the serving layer's retry/backoff
//! machinery, and the `recs` network model into one deterministic
//! simulation:
//!
//! - [`artifact`] — packed model releases: graph + explicit weights in
//!   hash-chained chunks, so corruption is caught per chunk in transit
//!   and end-to-end at install.
//! - [`device`] — the per-device state machine: chunked resume across
//!   crashes, A/B slots, attest-before-install, soak with golden
//!   checks, local rollback.
//! - [`fault`] — seeded [`FleetFaultPlan`]: crashes, partitions,
//!   transit and weight bit flips, crash loops, forged attestations.
//! - [`rollout`] — the [`Fleet`] and the health-gated wave engine:
//!   canary cohort, exponential expansion gated on a [`FleetHealth`]
//!   aggregate, automatic wave rollback, quarantine, and an
//!   obs-exportable [`RolloutReport`].
//!
//! Everything is seeded and tick-based: the same fleet seed and fault
//! plan replay the identical rollout, which is what lets the E26
//! harness assert hard convergence invariants (no corrupted weights
//! served, quarantined devices never installed to, regressed waves
//! rolled back) rather than statistical tendencies.

pub mod artifact;
pub mod device;
pub mod fault;
pub mod rollout;

pub use artifact::{ArtifactError, Chunk, Manifest, ModelArtifact};
pub use device::{Device, Phase};
pub use fault::{CompromiseKind, FleetFaultPlan};
pub use rollout::{
    Fleet, FleetConfig, FleetCounters, FleetError, FleetHealth, Rollout, RolloutOutcome,
    RolloutPolicy, RolloutReport, WaveReport,
};
