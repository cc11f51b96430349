//! Fault-tolerance policies and the chaos-injection test hook.
//!
//! Paper §IV-B treats systematic run-time faults — SEUs, sensor faults,
//! attacks — striking DL execution on edge nodes as a first-class
//! concern. This module is the serving layer's answer: the knobs that
//! decide how a [`Server`](crate::Server) survives those faults
//! ([`ResilienceConfig`]), the bounded-backoff retry schedule
//! ([`RetryPolicy`]), the externally observable health state
//! ([`Health`]) and a seeded [`FaultPlan`] that *injects* the same
//! fault classes deterministically so every recovery path is testable
//! (the chaos harness: `tests/chaos.rs`, experiment E22).
//!
//! Chaos draws are splitmix64 functions of the plan's seed. A batch's
//! soft-panic draw is keyed to the batch itself, so whether a batch
//! panics never depends on how the workers interleave; the worker-kill
//! draws count wakeups across the pool, but a kill holds no batch.

use std::time::Duration;

/// Bounded exponential backoff for transient batch failures.
///
/// Attempt `k` (1-based) sleeps `base_delay * 2^(k-1)`, capped at
/// `max_delay`; with `jitter` the sleep is scaled by a deterministic
/// factor in `[0.5, 1.0)` so co-failing workers decorrelate. The
/// request deadline always wins: the server truncates any backoff sleep
/// to the earliest remaining deadline in the batch.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RetryPolicy {
    /// Total execution attempts per batch (1 = no retry).
    pub max_attempts: u32,
    /// Sleep before the first retry.
    pub base_delay: Duration,
    /// Upper bound on any single backoff sleep.
    pub max_delay: Duration,
    /// Whether to apply deterministic jitter to each sleep.
    pub jitter: bool,
}

impl RetryPolicy {
    /// No retries: every failure is final on the first attempt.
    #[must_use]
    pub fn none() -> Self {
        RetryPolicy {
            max_attempts: 1,
            base_delay: Duration::ZERO,
            max_delay: Duration::ZERO,
            jitter: false,
        }
    }

    /// The backoff sleep after `attempt` failed attempts (1-based).
    /// `salt` seeds the jitter so concurrent retriers spread out.
    #[must_use]
    pub fn backoff(&self, attempt: u32, salt: u64) -> Duration {
        let exp = attempt.saturating_sub(1).min(20);
        let raw = self
            .base_delay
            .saturating_mul(1u32 << exp)
            .min(self.max_delay);
        if !self.jitter || raw.is_zero() {
            return raw;
        }
        // Deterministic factor in [0.5, 1.0).
        let factor = 0.5 + 0.5 * unit_draw(splitmix64(salt ^ u64::from(attempt) ^ JITTER_SALT));
        raw.mul_f64(factor)
    }
}

impl Default for RetryPolicy {
    fn default() -> Self {
        RetryPolicy {
            max_attempts: 3,
            base_delay: Duration::from_micros(200),
            max_delay: Duration::from_millis(5),
            jitter: true,
        }
    }
}

/// How the server reacts to faults. The default enables every recovery
/// feature; [`ResilienceConfig::disabled`] is the pre-fault-tolerance
/// baseline (used as the control arm of experiment E22).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ResilienceConfig {
    /// Catch panics at the batch boundary and convert them to
    /// [`ServeError::WorkerCrashed`](crate::ServeError::WorkerCrashed)
    /// instead of letting the worker thread die with its batch.
    pub isolate_panics: bool,
    /// Retry schedule for transiently failing batches.
    pub retry: RetryPolicy,
    /// Bisect deterministically failing batches to isolate poisoned
    /// requests ([`ServeError::Quarantined`](crate::ServeError::Quarantined))
    /// instead of failing all co-batched requests.
    pub quarantine: bool,
    /// How many crashed worker threads the supervisor may respawn over
    /// the server's lifetime before it stops replacing them.
    pub respawn_budget: u32,
    /// Worker crashes at or above this count flip health to
    /// [`Health::Degraded`].
    pub degraded_crash_threshold: u64,
    /// Queue depth at or above this fraction of capacity flips health
    /// to [`Health::Degraded`]. `1.0` disables depth-based degradation
    /// (the door already rejects at full capacity).
    pub degraded_queue_fraction: f64,
    /// While degraded the server sheds load: submissions are admitted
    /// only up to `shed_to * queue_capacity` queued requests.
    pub shed_to: f64,
}

impl ResilienceConfig {
    /// Every recovery feature off — the crash-amplifying baseline:
    /// panics kill workers (and their batches), nothing is retried,
    /// a poisoned request fails its whole batch, dead workers stay
    /// dead.
    #[must_use]
    pub fn disabled() -> Self {
        ResilienceConfig {
            isolate_panics: false,
            retry: RetryPolicy::none(),
            quarantine: false,
            respawn_budget: 0,
            degraded_crash_threshold: u64::MAX,
            degraded_queue_fraction: 1.0,
            shed_to: 1.0,
        }
    }

    pub(crate) fn validate(&self) -> Result<(), crate::ServeError> {
        if self.retry.max_attempts == 0 {
            return Err(crate::ServeError::InvalidConfig(
                "retry.max_attempts must be at least 1".into(),
            ));
        }
        for (name, v) in [
            ("degraded_queue_fraction", self.degraded_queue_fraction),
            ("shed_to", self.shed_to),
        ] {
            if !(v > 0.0 && v <= 1.0) {
                return Err(crate::ServeError::InvalidConfig(format!(
                    "{name} must be in (0, 1], got {v}"
                )));
            }
        }
        Ok(())
    }
}

impl Default for ResilienceConfig {
    fn default() -> Self {
        ResilienceConfig {
            isolate_panics: true,
            retry: RetryPolicy::default(),
            quarantine: true,
            respawn_budget: 4,
            degraded_crash_threshold: 16,
            degraded_queue_fraction: 1.0,
            shed_to: 0.5,
        }
    }
}

/// Externally observable server health.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Health {
    /// Normal operation.
    Serving,
    /// Crash count or queue depth crossed its threshold — or, with
    /// [`SloPolicy::drive_health`](crate::SloPolicy), an SLO burn
    /// alert is firing; the server keeps answering but sheds load at
    /// the door (see [`ResilienceConfig::shed_to`]).
    Degraded,
    /// Shutdown has begun: queued requests drain, new ones are refused.
    Draining,
}

/// A seeded schedule of injected faults — the chaos-injection test
/// hook, armed per pool through [`ModelConfig::chaos`](crate::ModelConfig::chaos).
///
/// `None` (the default) compiles the hooks out of the hot path at the
/// branch level; a plan with all rates zero is equally inert. The fault
/// classes mirror paper §IV-B:
///
/// * **weight bit flips** (SEU/rowhammer): applied once at startup to
///   the pool's *deployed* graph via
///   `vedliot_safety::inject::flip_weight_bits`; a golden-check policy
///   ([`GoldenPolicy`](crate::GoldenPolicy)) holds the uncorrupted copy,
/// * **worker panics**: soft panics inside the execution boundary, at
///   most one per batch, on its first attempt (absorbed by isolation
///   and a retry, which runs clean), and hard kills of whole worker
///   threads (absorbed by supervision/respawn),
/// * **poisoned requests**: every `poison_every`-th submission fails
///   any batch containing it deterministically (absorbed by
///   quarantine bisection).
///
/// Deadline storms and queue-full bursts are client-side behaviours;
/// the chaos tests and experiment E22 generate them from the same seed.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FaultPlan {
    /// Seed of the deterministic fault stream.
    pub seed: u64,
    /// Probability that a batch panics inside the isolation boundary on
    /// its first execution attempt (a soft error in control logic). The
    /// draw is a function of the seed and the batch's salt (its first
    /// request's seq; each half a quarantine bisection makes has its
    /// own), so it does not depend on timing; no later attempt draws.
    pub panic_per_batch: f64,
    /// Probability per worker wakeup that the worker thread is killed
    /// outright (panic outside the isolation boundary, no batch held).
    pub kill_per_wakeup: f64,
    /// Every `poison_every`-th submitted request (1-based) is poisoned:
    /// any batch containing it fails deterministically. `0` disables.
    pub poison_every: u64,
    /// Weight bits flipped in the deployed graph at startup. The
    /// golden copy used by [`GoldenPolicy`](crate::GoldenPolicy) is
    /// taken *before* the flips, so divergence is detectable.
    pub weight_bit_flips: usize,
}

impl FaultPlan {
    /// A plan that injects nothing (useful as a base for struct update
    /// syntax in tests).
    #[must_use]
    pub fn quiet(seed: u64) -> Self {
        FaultPlan {
            seed,
            panic_per_batch: 0.0,
            kill_per_wakeup: 0.0,
            poison_every: 0,
            weight_bit_flips: 0,
        }
    }

    pub(crate) fn validate(&self) -> Result<(), crate::ServeError> {
        for (name, v) in [
            ("panic_per_batch", self.panic_per_batch),
            ("kill_per_wakeup", self.kill_per_wakeup),
        ] {
            if !(0.0..=1.0).contains(&v) {
                return Err(crate::ServeError::InvalidConfig(format!(
                    "chaos {name} must be a probability in [0, 1], got {v}"
                )));
            }
        }
        Ok(())
    }
}

/// Installs, once per process, a panic hook that silences the panics a
/// [`FaultPlan`] injects — their messages start with `chaos:`, and a
/// chaos run raises them by the dozen — and hands every other panic to
/// the previously installed hook untouched.
pub fn silence_chaos_panics() {
    static ONCE: std::sync::Once = std::sync::Once::new();
    ONCE.call_once(|| {
        let default_hook = std::panic::take_hook();
        std::panic::set_hook(Box::new(move |info| {
            let payload = info.payload();
            let chaos = payload
                .downcast_ref::<&str>()
                .copied()
                .or_else(|| payload.downcast_ref::<String>().map(String::as_str))
                .is_some_and(|msg| msg.starts_with("chaos:"));
            if !chaos {
                default_hook(info);
            }
        }));
    });
}

const PANIC_SALT: u64 = 0x9e37_79b9_7f4a_7c15;
const KILL_SALT: u64 = 0xbf58_476d_1ce4_e5b9;
const JITTER_SALT: u64 = 0x94d0_49bb_1331_11eb;

/// Live chaos state: the plan plus the wakeup counter that advances the
/// worker-kill stream. Shared by all workers.
#[derive(Debug)]
pub(crate) struct ChaosState {
    plan: FaultPlan,
    wake_ticks: std::sync::atomic::AtomicU64,
}

impl ChaosState {
    pub(crate) fn new(plan: FaultPlan) -> Self {
        ChaosState {
            plan,
            wake_ticks: std::sync::atomic::AtomicU64::new(0),
        }
    }

    /// The soft-panic decision for attempt `attempt` (1-based) of the
    /// batch salted `salt`: drawn on the first attempt only, from the
    /// seed and the salt alone.
    pub(crate) fn panic_now(&self, salt: u64, attempt: u32) -> bool {
        attempt == 1
            && unit_draw(splitmix64(self.plan.seed ^ PANIC_SALT ^ salt)) < self.plan.panic_per_batch
    }

    /// Draws the next hard worker-kill decision (one per wakeup).
    pub(crate) fn kill_now(&self) -> bool {
        let t = self
            .wake_ticks
            .fetch_add(1, std::sync::atomic::Ordering::Relaxed);
        unit_draw(splitmix64(self.plan.seed ^ KILL_SALT ^ t)) < self.plan.kill_per_wakeup
    }

    /// Whether submission `seq` (1-based) is a poisoned request.
    pub(crate) fn poisoned(&self, seq: u64) -> bool {
        seq > 0 && self.plan.poison_every > 0 && seq.is_multiple_of(self.plan.poison_every)
    }
}

// The chaos streams draw from the workspace-wide deterministic RNG
// substrate (one shared splitmix64, not a per-crate copy); the streams
// are unchanged, so every recorded chaos schedule replays identically.
pub(crate) use vedliot_nnir::det::splitmix64;
use vedliot_nnir::det::unit_draw;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn backoff_grows_exponentially_and_caps() {
        let p = RetryPolicy {
            max_attempts: 10,
            base_delay: Duration::from_millis(1),
            max_delay: Duration::from_millis(6),
            jitter: false,
        };
        assert_eq!(p.backoff(1, 0), Duration::from_millis(1));
        assert_eq!(p.backoff(2, 0), Duration::from_millis(2));
        assert_eq!(p.backoff(3, 0), Duration::from_millis(4));
        // Capped, and immune to shift overflow at silly attempt counts.
        assert_eq!(p.backoff(4, 0), Duration::from_millis(6));
        assert_eq!(p.backoff(63, 0), Duration::from_millis(6));
    }

    #[test]
    fn jitter_is_deterministic_and_bounded() {
        let p = RetryPolicy {
            jitter: true,
            ..RetryPolicy::default()
        };
        let a = p.backoff(2, 42);
        let b = p.backoff(2, 42);
        let c = p.backoff(2, 43);
        assert_eq!(a, b, "same salt, same sleep");
        assert_ne!(a, c, "different salt decorrelates");
        let raw = p.base_delay * 2;
        assert!(a >= raw / 2 && a < raw);
    }

    #[test]
    fn none_policy_never_sleeps() {
        let p = RetryPolicy::none();
        assert_eq!(p.max_attempts, 1);
        assert_eq!(p.backoff(1, 7), Duration::ZERO);
    }

    #[test]
    fn quiet_plan_injects_nothing() {
        let chaos = ChaosState::new(FaultPlan::quiet(9));
        for seq in 1..=1000u64 {
            assert!(!chaos.panic_now(splitmix64(seq), 1));
            assert!(!chaos.kill_now());
            assert!(!chaos.poisoned(seq));
        }
    }

    #[test]
    fn fault_stream_is_deterministic_per_seed() {
        let plan = FaultPlan {
            panic_per_batch: 0.3,
            kill_per_wakeup: 0.2,
            poison_every: 7,
            ..FaultPlan::quiet(1234)
        };
        let a = ChaosState::new(plan);
        let b = ChaosState::new(plan);
        let draws_a: Vec<bool> = (0..200).map(|salt| a.panic_now(salt, 1)).collect();
        let draws_b: Vec<bool> = (0..200).map(|salt| b.panic_now(salt, 1)).collect();
        assert_eq!(draws_a, draws_b);
        assert!(draws_a.iter().any(|&x| x), "0.3 over 200 draws fires");
        assert!(!draws_a.iter().all(|&x| x));
        assert!(a.poisoned(7) && a.poisoned(14) && !a.poisoned(8));
        assert!(!a.poisoned(0), "seq is 1-based; 0 is never poisoned");
    }

    #[test]
    fn panic_draws_once_per_batch_keyed_to_seed_and_salt() {
        let plan = FaultPlan {
            panic_per_batch: 0.5,
            ..FaultPlan::quiet(77)
        };
        let (a, b) = (ChaosState::new(plan), ChaosState::new(plan));
        // Equal (seed, salt), equal draws, in any order.
        let salts: Vec<u64> = (1..=64).map(splitmix64).collect();
        let draws: Vec<bool> = salts.iter().map(|&s| a.panic_now(s, 1)).collect();
        let again: Vec<bool> = salts.iter().rev().map(|&s| b.panic_now(s, 1)).collect();
        assert_eq!(draws, again.into_iter().rev().collect::<Vec<_>>());
        assert!(draws.contains(&true) && draws.contains(&false));
        let other = ChaosState::new(FaultPlan { seed: 78, ..plan });
        assert_ne!(
            draws,
            salts
                .iter()
                .map(|&s| other.panic_now(s, 1))
                .collect::<Vec<_>>()
        );
        // No attempt after the first draws, even at certainty.
        let always = ChaosState::new(FaultPlan {
            panic_per_batch: 1.0,
            ..plan
        });
        for &salt in &salts {
            assert!(always.panic_now(salt, 1));
            assert!((2..=5).all(|attempt| !always.panic_now(salt, attempt)));
        }
    }

    #[test]
    fn disabled_config_turns_everything_off() {
        let c = ResilienceConfig::disabled();
        assert!(!c.isolate_panics);
        assert!(!c.quarantine);
        assert_eq!(c.respawn_budget, 0);
        assert_eq!(c.retry.max_attempts, 1);
        c.validate().unwrap();
        ResilienceConfig::default().validate().unwrap();
    }

    #[test]
    fn invalid_probabilities_are_rejected() {
        let bad = FaultPlan {
            panic_per_batch: 1.5,
            ..FaultPlan::quiet(0)
        };
        assert!(bad.validate().is_err());
        let bad_shed = ResilienceConfig {
            shed_to: 0.0,
            ..ResilienceConfig::default()
        };
        assert!(bad_shed.validate().is_err());
        let bad_retry = ResilienceConfig {
            retry: RetryPolicy {
                max_attempts: 0,
                ..RetryPolicy::default()
            },
            ..ResilienceConfig::default()
        };
        assert!(bad_retry.validate().is_err());
    }
}
