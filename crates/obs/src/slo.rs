//! SLO objectives evaluated as multi-window burn rates.
//!
//! An [`Objective`] declares what good looks like — availability, p99
//! latency, or a budgeted event count (e.g. rollbacks per window) —
//! and a pair of evaluation windows. The [`SloEngine`] feeds samples
//! into one [`TimeSeries`] per objective and
//! computes **burn rates**: how fast the error budget is being spent,
//! as a multiple of the rate that would exactly exhaust it (burn 1.0 =
//! on budget; burn 10 = the budget gone in a tenth of the window). An
//! alert fires only when *both* the short and the long window burn
//! above threshold — the standard fast-burn/slow-burn guard against
//! paging on blips — and alerts are themselves journal events
//! ([`EventKind::SloAlertFired`]/[`SloAlertCleared`](EventKind::SloAlertCleared)),
//! so "why did the server degrade" is one
//! [`chain`](crate::journal::EventJournal::chain) query away.
//!
//! Everything is driven by caller-supplied instants (see
//! [`series`](crate::series)), so seeded runs
//! evaluate bit-identically: the same samples at the same instants
//! produce the same burns, the same alerts, in the same order.

use crate::journal::{CauseId, EventJournal, EventKind};
use crate::series::TimeSeries;
use crate::{Export, Exportable, Metric};
use serde::{Deserialize, Serialize};
use std::fmt;
use std::sync::Arc;

/// The two evaluation windows and the shared firing threshold.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct BurnWindows {
    /// Fast-burn window (clock units). Catches sharp regressions.
    pub short: u64,
    /// Slow-burn window (clock units). Requires the regression to be
    /// sustained; also the window the budget is declared over.
    pub long: u64,
    /// Both windows must burn at or above this multiple of budget-rate
    /// for the alert to fire.
    pub threshold: f64,
}

impl BurnWindows {
    /// Validates window sanity.
    ///
    /// # Errors
    ///
    /// Returns a description of the first violated constraint.
    pub fn validate(&self) -> Result<(), String> {
        if self.short == 0 || self.long == 0 {
            return Err("burn windows must be positive".into());
        }
        if self.short > self.long {
            return Err(format!(
                "short window {} exceeds long window {}",
                self.short, self.long
            ));
        }
        if !(self.threshold > 0.0 && self.threshold.is_finite()) {
            return Err(format!(
                "burn threshold must be positive, got {}",
                self.threshold
            ));
        }
        Ok(())
    }
}

/// What an objective promises.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub enum Slo {
    /// At most `1 - target` of samples may fail.
    Availability {
        /// Success-ratio target in (0, 1), e.g. `0.95`.
        target: f64,
    },
    /// At most 1% of samples may exceed `max_us` — a p99 promise
    /// expressed as a budget so it burns like everything else. Failed
    /// samples count as slow.
    LatencyP99 {
        /// The latency bound (clock-owner units, serve uses µs).
        max_us: u64,
    },
    /// At most `budget` discrete events (rollbacks, quarantines) per
    /// long window.
    EventBudget {
        /// Allowed events per long window.
        budget: u64,
    },
}

impl Slo {
    /// The allowed bad-fraction (or bad-count for budgets) per long
    /// window — the denominator of every burn rate.
    fn budget_fraction(&self) -> f64 {
        match self {
            Slo::Availability { target } => 1.0 - target,
            Slo::LatencyP99 { .. } => 0.01,
            Slo::EventBudget { budget } => *budget as f64,
        }
    }
}

impl fmt::Display for Slo {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Slo::Availability { target } => write!(f, "availability>={target}"),
            Slo::LatencyP99 { max_us } => write!(f, "p99<={max_us}us"),
            Slo::EventBudget { budget } => write!(f, "budget<={budget}/window"),
        }
    }
}

/// One declared objective.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Objective {
    /// Name (exporter label, alert display).
    pub name: String,
    /// The promise.
    pub slo: Slo,
    /// Evaluation windows.
    pub windows: BurnWindows,
}

impl Objective {
    /// A named objective.
    #[must_use]
    pub fn new(name: impl Into<String>, slo: Slo, windows: BurnWindows) -> Self {
        Objective {
            name: name.into(),
            slo,
            windows,
        }
    }

    /// Validates the objective's parameters.
    ///
    /// # Errors
    ///
    /// Returns a description of the first violated constraint.
    pub fn validate(&self) -> Result<(), String> {
        self.windows.validate()?;
        match self.slo {
            Slo::Availability { target } => {
                if !(target > 0.0 && target < 1.0) {
                    return Err(format!(
                        "availability target must be in (0, 1), got {target}"
                    ));
                }
            }
            Slo::LatencyP99 { max_us } => {
                if max_us == 0 {
                    return Err("latency bound must be positive".into());
                }
            }
            Slo::EventBudget { budget } => {
                if budget == 0 {
                    return Err("event budget must be at least 1".into());
                }
            }
        }
        Ok(())
    }
}

/// The burn rates of one objective at an evaluation instant.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct BurnRate {
    /// Budget-spend multiple over the short window.
    pub short: f64,
    /// Budget-spend multiple over the long window.
    pub long: f64,
}

impl BurnRate {
    fn firing(&self, threshold: f64) -> bool {
        self.short >= threshold && self.long >= threshold
    }
}

/// A fire/clear transition returned by [`SloEngine::evaluate`].
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct SloTransition {
    /// Index of the objective in the engine.
    pub objective: usize,
    /// Objective name.
    pub name: String,
    /// `true` = fired, `false` = cleared.
    pub fired: bool,
    /// Burn rates at the transition.
    pub burn: BurnRate,
    /// Journal seq of the appended alert event (0 without a journal).
    pub event_seq: u64,
}

/// Point-in-time view of one objective.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct SloState {
    /// Objective name.
    pub name: String,
    /// Current burn rates (as of the last evaluation).
    pub burn: BurnRate,
    /// Whether the alert is currently firing.
    pub firing: bool,
}

struct ObjectiveState {
    objective: Objective,
    series: TimeSeries,
    burn: BurnRate,
    firing: bool,
    fired_event: u64,
}

/// The burn-rate evaluator: one series per objective, explicit
/// evaluation points, alerts appended to an optional journal.
pub struct SloEngine {
    objectives: Vec<ObjectiveState>,
    journal: Option<Arc<EventJournal>>,
    last_eval: u64,
    alerts_fired: u64,
    alerts_cleared: u64,
}

impl fmt::Debug for SloEngine {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("SloEngine")
            .field("objectives", &self.objectives.len())
            .field("alerts_fired", &self.alerts_fired)
            .field("alerts_cleared", &self.alerts_cleared)
            .finish()
    }
}

impl SloEngine {
    /// An engine over validated objectives. Each objective gets a
    /// series sized so both of its windows are always fully retained
    /// (bucket width = `short`, enough buckets to cover `long` twice).
    ///
    /// # Errors
    ///
    /// Returns the first objective validation failure.
    pub fn new(objectives: Vec<Objective>) -> Result<Self, String> {
        let mut states = Vec::with_capacity(objectives.len());
        for o in objectives {
            o.validate()
                .map_err(|e| format!("objective '{}': {e}", o.name))?;
            let width = o.windows.short;
            let retain = (o.windows.long / width + 2) as usize * 2;
            states.push(ObjectiveState {
                series: TimeSeries::new(o.name.clone(), width, retain),
                objective: o,
                burn: BurnRate {
                    short: 0.0,
                    long: 0.0,
                },
                firing: false,
                fired_event: 0,
            });
        }
        Ok(SloEngine {
            objectives: states,
            journal: None,
            last_eval: 0,
            alerts_fired: 0,
            alerts_cleared: 0,
        })
    }

    /// Attaches the journal alerts are appended to.
    #[must_use]
    pub fn with_journal(mut self, journal: Arc<EventJournal>) -> Self {
        self.journal = Some(journal);
        self
    }

    /// Feeds one request outcome to every request-shaped objective
    /// (availability counts failures, latency counts slow-or-failed).
    pub fn record_request(&mut self, at: u64, ok: bool, latency_us: u64) {
        for s in &mut self.objectives {
            match s.objective.slo {
                Slo::Availability { .. } => {
                    if ok {
                        s.series.record_ok(at, latency_us);
                    } else {
                        s.series.record_err(at);
                    }
                }
                Slo::LatencyP99 { max_us } => {
                    if ok && latency_us <= max_us {
                        s.series.record_ok(at, latency_us);
                    } else {
                        s.series.record_err(at);
                    }
                }
                Slo::EventBudget { .. } => {}
            }
        }
    }

    /// Feeds one budgeted event (a rollback, a quarantine) to every
    /// [`Slo::EventBudget`] objective.
    pub fn record_budget_event(&mut self, at: u64) {
        for s in &mut self.objectives {
            if matches!(s.objective.slo, Slo::EventBudget { .. }) {
                s.series.record_err(at);
            }
        }
    }

    fn burn_at(state: &ObjectiveState, now: u64, window: u64) -> f64 {
        let budget = state.objective.slo.budget_fraction();
        match state.objective.slo {
            Slo::Availability { .. } | Slo::LatencyP99 { .. } => {
                state.series.error_ratio(now, window) / budget
            }
            Slo::EventBudget { .. } => {
                // Budget declared per long window, scaled to this one;
                // burn = observed events / allowed events.
                let (_, err) = state.series.counts(now, window);
                let allowed = budget * window as f64 / state.objective.windows.long as f64;
                if allowed <= 0.0 {
                    0.0
                } else {
                    err as f64 / allowed
                }
            }
        }
    }

    /// Evaluates every objective at instant `now`, updating burns and
    /// firing states; fire/clear transitions are returned and appended
    /// to the journal (subject `slo:<index>`; a clear cites its firing
    /// event as cause; detail = short-window burn in ‰, saturated).
    pub fn evaluate(&mut self, now: u64) -> Vec<SloTransition> {
        self.last_eval = now;
        let mut transitions = Vec::new();
        for (i, s) in self.objectives.iter_mut().enumerate() {
            let burn = BurnRate {
                short: Self::burn_at(s, now, s.objective.windows.short),
                long: Self::burn_at(s, now, s.objective.windows.long),
            };
            s.burn = burn;
            let firing = burn.firing(s.objective.windows.threshold);
            if firing == s.firing {
                continue;
            }
            s.firing = firing;
            let detail = (burn.short * 1000.0).min(u64::MAX as f64) as u64;
            let event_seq = if let Some(j) = &self.journal {
                if firing {
                    j.append(
                        now,
                        EventKind::SloAlertFired,
                        CauseId::slo(i as u64),
                        CauseId::NONE,
                        detail,
                    )
                } else {
                    j.append(
                        now,
                        EventKind::SloAlertCleared,
                        CauseId::slo(i as u64),
                        CauseId::event(s.fired_event),
                        detail,
                    )
                }
            } else {
                0
            };
            if firing {
                self.alerts_fired += 1;
                s.fired_event = event_seq;
            } else {
                self.alerts_cleared += 1;
            }
            transitions.push(SloTransition {
                objective: i,
                name: s.objective.name.clone(),
                fired: firing,
                burn,
                event_seq,
            });
        }
        transitions
    }

    /// Whether any objective's alert is currently firing.
    #[must_use]
    pub fn firing(&self) -> bool {
        self.objectives.iter().any(|s| s.firing)
    }

    /// Journal seq of the most recent firing event of any currently
    /// firing objective (0 when none) — what degraded admission cites
    /// as the cause of burn-driven sheds.
    #[must_use]
    pub fn firing_cause(&self) -> u64 {
        self.objectives
            .iter()
            .filter(|s| s.firing)
            .map(|s| s.fired_event)
            .max()
            .unwrap_or(0)
    }

    /// Alerts fired so far.
    #[must_use]
    pub fn alerts_fired(&self) -> u64 {
        self.alerts_fired
    }

    /// Alerts cleared so far.
    #[must_use]
    pub fn alerts_cleared(&self) -> u64 {
        self.alerts_cleared
    }

    /// Point-in-time view of every objective (as of the last
    /// [`evaluate`](Self::evaluate)).
    #[must_use]
    pub fn states(&self) -> Vec<SloState> {
        self.objectives
            .iter()
            .map(|s| SloState {
                name: s.objective.name.clone(),
                burn: s.burn,
                firing: s.firing,
            })
            .collect()
    }
}

impl Exportable for SloEngine {
    /// Subsystem `slo`: per-objective burn gauges + firing flags
    /// (labelled by objective name) plus alert counters, all as of the
    /// last evaluation.
    fn export(&self) -> Export {
        let mut metrics = vec![
            Metric::counter("alerts_fired", "burn-rate alerts fired", self.alerts_fired),
            Metric::counter(
                "alerts_cleared",
                "burn-rate alerts cleared",
                self.alerts_cleared,
            ),
            Metric::gauge(
                "last_eval",
                "instant of the last evaluation (owner clock units)",
                self.last_eval as f64,
            ),
        ];
        for s in &self.objectives {
            let label = |m: Metric| m.with_label("slo", s.objective.name.clone());
            metrics.push(label(Metric::gauge(
                "burn_short",
                "short-window budget-spend multiple",
                s.burn.short,
            )));
            metrics.push(label(Metric::gauge(
                "burn_long",
                "long-window budget-spend multiple",
                s.burn.long,
            )));
            metrics.push(label(Metric::gauge(
                "firing",
                "1 while the burn-rate alert fires",
                f64::from(u8::from(s.firing)),
            )));
        }
        Export {
            subsystem: "slo".into(),
            metrics,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn avail_objective() -> Objective {
        Objective::new(
            "availability",
            Slo::Availability { target: 0.9 },
            BurnWindows {
                short: 10,
                long: 40,
                threshold: 2.0,
            },
        )
    }

    #[test]
    fn objectives_validate() {
        avail_objective().validate().unwrap();
        assert!(Objective::new(
            "bad",
            Slo::Availability { target: 1.5 },
            BurnWindows {
                short: 10,
                long: 40,
                threshold: 2.0
            }
        )
        .validate()
        .is_err());
        assert!(Objective::new(
            "bad",
            Slo::LatencyP99 { max_us: 0 },
            BurnWindows {
                short: 10,
                long: 40,
                threshold: 2.0
            }
        )
        .validate()
        .is_err());
        assert!(Objective::new(
            "bad",
            Slo::EventBudget { budget: 1 },
            BurnWindows {
                short: 50,
                long: 40,
                threshold: 2.0
            }
        )
        .validate()
        .is_err());
        assert!(SloEngine::new(vec![Objective::new(
            "bad",
            Slo::Availability { target: 0.9 },
            BurnWindows {
                short: 0,
                long: 40,
                threshold: 2.0
            }
        )])
        .is_err());
    }

    #[test]
    fn healthy_traffic_never_fires() {
        let mut e = SloEngine::new(vec![avail_objective()]).unwrap();
        for at in 0..200u64 {
            e.record_request(at, at % 50 != 0, 100); // 2% errors < 10% budget
        }
        let t = e.evaluate(199);
        assert!(t.is_empty());
        assert!(!e.firing());
        let s = &e.states()[0];
        assert!(s.burn.long < 1.0, "2% errors on a 10% budget: {:?}", s.burn);
    }

    #[test]
    fn fast_burn_fires_and_clears_with_journal_events() {
        let journal = Arc::new(EventJournal::new(64));
        let mut e = SloEngine::new(vec![avail_objective()])
            .unwrap()
            .with_journal(Arc::clone(&journal));
        // 100% failures across both windows.
        for at in 0..50u64 {
            e.record_request(at, false, 0);
        }
        let fired = e.evaluate(49);
        assert_eq!(fired.len(), 1);
        assert!(fired[0].fired);
        assert!(fired[0].burn.short >= 2.0 && fired[0].burn.long >= 2.0);
        assert!(e.firing());
        assert_eq!(e.alerts_fired(), 1);
        assert!(e.firing_cause() > 0);
        // Recovery: long stretch of successes pushes both windows down.
        for at in 50..200u64 {
            e.record_request(at, true, 10);
        }
        let cleared = e.evaluate(199);
        assert_eq!(cleared.len(), 1);
        assert!(!cleared[0].fired);
        assert!(!e.firing());
        assert_eq!(e.alerts_cleared(), 1);
        let events = journal.snapshot();
        assert_eq!(events.len(), 2);
        assert_eq!(events[0].kind, EventKind::SloAlertFired);
        assert!(events[0].cause.is_none(), "a fired alert is a root cause");
        assert_eq!(events[1].kind, EventKind::SloAlertCleared);
        assert_eq!(events[1].cause, CauseId::event(events[0].seq));
        // The chain of the objective links clear back to fire.
        let chain = journal.chain(CauseId::slo(0));
        assert_eq!(chain.len(), 2);
    }

    #[test]
    fn short_blip_does_not_fire_the_long_window() {
        let mut e = SloEngine::new(vec![avail_objective()]).unwrap();
        // Long healthy history, then a 4-sample blip: 40% of the short
        // window (burn 4) but only 10% of the long one (burn 1).
        for at in 0..196u64 {
            e.record_request(at, true, 10);
        }
        for at in 196..200u64 {
            e.record_request(at, false, 0);
        }
        let t = e.evaluate(199);
        assert!(t.is_empty(), "short window burns but long does not: {t:?}");
        let s = &e.states()[0];
        assert!(s.burn.short >= 2.0);
        assert!(s.burn.long < 2.0);
    }

    #[test]
    fn latency_objective_counts_slow_samples_as_burn() {
        let mut e = SloEngine::new(vec![Objective::new(
            "p99",
            Slo::LatencyP99 { max_us: 1000 },
            BurnWindows {
                short: 10,
                long: 40,
                threshold: 2.0,
            },
        )])
        .unwrap();
        // 10% of samples are slow: 10x the 1% budget.
        for at in 0..200u64 {
            let lat = if at % 10 == 0 { 5000 } else { 100 };
            e.record_request(at, true, lat);
        }
        let t = e.evaluate(199);
        assert_eq!(t.len(), 1);
        assert!(t[0].fired);
        assert!(t[0].burn.long > 5.0);
    }

    #[test]
    fn event_budget_burns_on_counts() {
        let mut e = SloEngine::new(vec![Objective::new(
            "rollbacks",
            Slo::EventBudget { budget: 2 },
            BurnWindows {
                short: 100,
                long: 400,
                threshold: 2.0,
            },
        )])
        .unwrap();
        // 8 rollbacks inside one long window, budget 2: long burn 4.
        // Evaluate while the burst is still inside the short window so
        // the fast-burn guard agrees.
        for i in 0..8u64 {
            e.record_budget_event(i * 40);
        }
        let t = e.evaluate(299);
        assert_eq!(t.len(), 1);
        assert!(t[0].fired);
        assert!(t[0].burn.long >= 2.0, "{:?}", t[0].burn);
    }

    #[test]
    fn evaluation_is_deterministic() {
        let run = || {
            let mut e = SloEngine::new(vec![avail_objective()]).unwrap();
            let mut log = Vec::new();
            for at in 0..300u64 {
                e.record_request(at, at % 7 != 0 || at > 150, (at * 13) % 900);
                if at % 10 == 9 {
                    for t in e.evaluate(at) {
                        log.push((at, t.name.clone(), t.fired));
                    }
                }
            }
            (log, e.alerts_fired(), e.alerts_cleared())
        };
        assert_eq!(run(), run());
    }

    #[test]
    fn export_round_trips() {
        let mut e = SloEngine::new(vec![avail_objective()]).unwrap();
        for at in 0..50u64 {
            e.record_request(at, false, 0);
        }
        e.evaluate(49);
        let export = e.export();
        assert_eq!(export.subsystem, "slo");
        assert!(export.metrics.iter().any(|m| m.name == "burn_short"));
        assert_eq!(Export::from_json(&export.to_json()), Some(export));
    }
}
