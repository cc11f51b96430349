//! The flight recorder: a bounded, lock-cheap journal of causally
//! correlated events.
//!
//! Point-in-time snapshots (histograms, spans) answer *how much*; the
//! [`EventJournal`] answers *what happened, in what order, caused by
//! what*. Every [`Event`] is a typed, timestamped record with a stable
//! code (the J-registry in DESIGN.md §8), a **subject** — the thing the
//! event is about — and a **cause** — the upstream correlation that
//! provoked it. Both are [`CauseId`]s: namespaced 64-bit correlation
//! keys (request seq, model id, device id, wave index, another event's
//! journal seq, …), so one query walks across subsystem boundaries:
//! "why did device 117 roll back" and "what shed this request" are both
//! [`EventJournal::chain`] calls, not simulation re-runs.
//!
//! The storage is the crate's one seqlock ring, shared with the trace
//! ring: appending is lock-free and bounded, the only loss mode is a
//! writer lapped by the whole ring mid-write (counted in
//! [`dropped`](EventJournal::dropped)), and a snapshot never contains a
//! torn record. Timestamps are caller supplied — serve stamps
//! microseconds since its trace epoch, fleet stamps simulation ticks —
//! so seeded runs journal deterministically.

use crate::ring::SeqRing;
use crate::{Export, Exportable, Metric};
use serde::{Deserialize, Serialize};
use std::fmt;
use std::sync::atomic::{AtomicU64, Ordering};

/// Namespaced correlation key. The top byte is the namespace, the low
/// 56 bits the identifier within it; [`CauseId::NONE`] is the absence
/// of a correlation (an event whose `cause` is `NONE` is a **root
/// cause** — a causal chain terminates there).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize, Default)]
pub struct CauseId(u64);

const NS_SHIFT: u32 = 56;
const NS_REQUEST: u64 = 1;
const NS_MODEL: u64 = 2;
const NS_DEVICE: u64 = 3;
const NS_WAVE: u64 = 4;
const NS_EVENT: u64 = 5;
const NS_RELEASE: u64 = 6;
const NS_SLO: u64 = 7;

impl CauseId {
    /// No correlation. Events caused by `NONE` are root causes.
    pub const NONE: CauseId = CauseId(0);

    fn tagged(ns: u64, id: u64) -> CauseId {
        CauseId((ns << NS_SHIFT) | (id & ((1 << NS_SHIFT) - 1)))
    }

    /// A serve request, keyed by its submission sequence number — the
    /// same `seq` its trace span carries, so journal and trace join.
    #[must_use]
    pub fn request(seq: u64) -> CauseId {
        CauseId::tagged(NS_REQUEST, seq)
    }

    /// A model pool, keyed by its dense gateway id.
    #[must_use]
    pub fn model(id: u64) -> CauseId {
        CauseId::tagged(NS_MODEL, id)
    }

    /// A fleet device, keyed by its device id.
    #[must_use]
    pub fn device(id: u64) -> CauseId {
        CauseId::tagged(NS_DEVICE, id)
    }

    /// A rollout wave, keyed by its index.
    #[must_use]
    pub fn wave(index: u64) -> CauseId {
        CauseId::tagged(NS_WAVE, index)
    }

    /// Another journal event, keyed by its journal sequence number —
    /// how an event cites a previously recorded event as its cause.
    /// Journal seqs are 1-based, so `event(0)` — the seq an emitter
    /// holds when no journal is attached — is [`CauseId::NONE`].
    #[must_use]
    pub fn event(seq: u64) -> CauseId {
        if seq == 0 {
            return CauseId::NONE;
        }
        CauseId::tagged(NS_EVENT, seq)
    }

    /// A released model version, keyed by its registry index.
    #[must_use]
    pub fn release(version: u64) -> CauseId {
        CauseId::tagged(NS_RELEASE, version)
    }

    /// A declared SLO objective, keyed by its engine index.
    #[must_use]
    pub fn slo(index: u64) -> CauseId {
        CauseId::tagged(NS_SLO, index)
    }

    /// The raw tagged word (for packing).
    #[must_use]
    pub fn raw(self) -> u64 {
        self.0
    }

    /// Rebuilds a key from its raw tagged word.
    #[must_use]
    pub fn from_raw(raw: u64) -> CauseId {
        CauseId(raw)
    }

    /// Whether this is [`CauseId::NONE`].
    #[must_use]
    pub fn is_none(self) -> bool {
        self.0 == 0
    }

    /// The identifier within the namespace.
    #[must_use]
    pub fn id(self) -> u64 {
        self.0 & ((1 << NS_SHIFT) - 1)
    }
}

impl fmt::Display for CauseId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let id = self.id();
        match self.0 >> NS_SHIFT {
            _ if self.0 == 0 => write!(f, "none"),
            NS_REQUEST => write!(f, "request:{id}"),
            NS_MODEL => write!(f, "model:{id}"),
            NS_DEVICE => write!(f, "device:{id}"),
            NS_WAVE => write!(f, "wave:{id}"),
            NS_EVENT => write!(f, "event:{id}"),
            NS_RELEASE => write!(f, "release:{id}"),
            NS_SLO => write!(f, "slo:{id}"),
            ns => write!(f, "ns{ns}:{id}"),
        }
    }
}

/// Typed event kinds with stable codes. Codes are never renumbered
/// (registry in DESIGN.md §8; `event_codes_are_stable` covenants the
/// exact strings): J0xx are serve-side, J1xx fleet-side, J2xx SLO.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum EventKind {
    /// A request passed admission and joined its pool's queue.
    RequestAdmitted,
    /// A request was refused at the door by priority-class admission
    /// (degraded shedding or nothing lower-priority to displace).
    RequestShed,
    /// A queued request was evicted to make room for a strictly
    /// higher-priority arrival; the cause is the displacing request.
    RequestDisplaced,
    /// A batch execution attempt containing this request failed
    /// transiently and will be retried.
    RequestRetried,
    /// Quarantine bisection isolated this request as the deterministic
    /// poison. The poisoned input itself is the root cause.
    RequestQuarantined,
    /// A worker thread died outside the isolation boundary.
    WorkerCrashed,
    /// The supervisor respawned a crashed worker; the cause is the
    /// crash event.
    WorkerRespawned,
    /// A model was loaded into the gateway registry.
    ModelLoaded,
    /// A model was unloaded (drained and retired).
    ModelUnloaded,
    /// Server health entered `Degraded`; admission starts shedding.
    HealthDegraded,
    /// Server health left `Degraded`; the cause is the degradation.
    HealthRecovered,
    /// An OTA rollout began; subject is the target release (root).
    RolloutStarted,
    /// A rollout wave began; the cause is the rollout-start event.
    WaveStarted,
    /// A device changed update phase (detail carries the phase code).
    DevicePhase,
    /// A device reverted to its previous slot.
    DeviceRolledBack,
    /// A device failed attestation and was quarantined before install.
    DeviceQuarantined,
    /// A wave health gate was evaluated (detail: 1 = passed, 0 = failed).
    HealthGate,
    /// A wave was rolled back; the cause is the failed gate event.
    WaveRolledBack,
    /// An SLO burn-rate alert began firing (detail: burn ‰ over the
    /// short window).
    SloAlertFired,
    /// A firing SLO alert cleared; the cause is the firing event.
    SloAlertCleared,
}

impl EventKind {
    /// Every kind, in registry order — the exhaustive-registry test and
    /// the journal exporter iterate this.
    pub const ALL: [EventKind; 20] = [
        EventKind::RequestAdmitted,
        EventKind::RequestShed,
        EventKind::RequestDisplaced,
        EventKind::RequestRetried,
        EventKind::RequestQuarantined,
        EventKind::WorkerCrashed,
        EventKind::WorkerRespawned,
        EventKind::ModelLoaded,
        EventKind::ModelUnloaded,
        EventKind::HealthDegraded,
        EventKind::HealthRecovered,
        EventKind::RolloutStarted,
        EventKind::WaveStarted,
        EventKind::DevicePhase,
        EventKind::DeviceRolledBack,
        EventKind::DeviceQuarantined,
        EventKind::HealthGate,
        EventKind::WaveRolledBack,
        EventKind::SloAlertFired,
        EventKind::SloAlertCleared,
    ];

    /// The stable registry code (DESIGN.md §8), e.g. `"J001"`.
    #[must_use]
    pub fn code(self) -> &'static str {
        match self {
            EventKind::RequestAdmitted => "J001",
            EventKind::RequestShed => "J002",
            EventKind::RequestDisplaced => "J003",
            EventKind::RequestRetried => "J004",
            EventKind::RequestQuarantined => "J005",
            EventKind::WorkerCrashed => "J006",
            EventKind::WorkerRespawned => "J007",
            EventKind::ModelLoaded => "J008",
            EventKind::ModelUnloaded => "J009",
            EventKind::HealthDegraded => "J010",
            EventKind::HealthRecovered => "J011",
            EventKind::RolloutStarted => "J100",
            EventKind::WaveStarted => "J101",
            EventKind::DevicePhase => "J102",
            EventKind::DeviceRolledBack => "J103",
            EventKind::DeviceQuarantined => "J104",
            EventKind::HealthGate => "J105",
            EventKind::WaveRolledBack => "J106",
            EventKind::SloAlertFired => "J201",
            EventKind::SloAlertCleared => "J202",
        }
    }

    /// Stable snake-case name (exporter label / display).
    #[must_use]
    pub fn name(self) -> &'static str {
        match self {
            EventKind::RequestAdmitted => "request_admitted",
            EventKind::RequestShed => "request_shed",
            EventKind::RequestDisplaced => "request_displaced",
            EventKind::RequestRetried => "request_retried",
            EventKind::RequestQuarantined => "request_quarantined",
            EventKind::WorkerCrashed => "worker_crashed",
            EventKind::WorkerRespawned => "worker_respawned",
            EventKind::ModelLoaded => "model_loaded",
            EventKind::ModelUnloaded => "model_unloaded",
            EventKind::HealthDegraded => "health_degraded",
            EventKind::HealthRecovered => "health_recovered",
            EventKind::RolloutStarted => "rollout_started",
            EventKind::WaveStarted => "wave_started",
            EventKind::DevicePhase => "device_phase",
            EventKind::DeviceRolledBack => "device_rolled_back",
            EventKind::DeviceQuarantined => "device_quarantined",
            EventKind::HealthGate => "health_gate",
            EventKind::WaveRolledBack => "wave_rolled_back",
            EventKind::SloAlertFired => "slo_alert_fired",
            EventKind::SloAlertCleared => "slo_alert_cleared",
        }
    }

    fn wire(self) -> u64 {
        match self {
            EventKind::RequestAdmitted => 1,
            EventKind::RequestShed => 2,
            EventKind::RequestDisplaced => 3,
            EventKind::RequestRetried => 4,
            EventKind::RequestQuarantined => 5,
            EventKind::WorkerCrashed => 6,
            EventKind::WorkerRespawned => 7,
            EventKind::ModelLoaded => 8,
            EventKind::ModelUnloaded => 9,
            EventKind::HealthDegraded => 10,
            EventKind::HealthRecovered => 11,
            EventKind::RolloutStarted => 100,
            EventKind::WaveStarted => 101,
            EventKind::DevicePhase => 102,
            EventKind::DeviceRolledBack => 103,
            EventKind::DeviceQuarantined => 104,
            EventKind::HealthGate => 105,
            EventKind::WaveRolledBack => 106,
            EventKind::SloAlertFired => 201,
            EventKind::SloAlertCleared => 202,
        }
    }

    fn from_wire(wire: u64) -> Option<EventKind> {
        EventKind::ALL.iter().copied().find(|k| k.wire() == wire)
    }
}

impl fmt::Display for EventKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{} {}", self.code(), self.name())
    }
}

/// One journal record.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct Event {
    /// Journal sequence number (1-based, assigned at append). An event
    /// is cited as a cause via [`CauseId::event`]`(seq)`.
    pub seq: u64,
    /// Caller-supplied timestamp: µs since the serve trace epoch, or
    /// the fleet simulation tick — whatever clock the emitter journals
    /// in. Seeded runs produce identical timestamps.
    pub at: u64,
    /// What happened.
    pub kind: EventKind,
    /// What the event is about.
    pub subject: CauseId,
    /// What provoked it; [`CauseId::NONE`] marks a root cause.
    pub cause: CauseId,
    /// Kind-specific payload (priority index, phase code, burn ‰, …).
    pub detail: u64,
}

impl fmt::Display for Event {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "#{:<5} t={:<8} {} subject={} cause={} detail={}",
            self.seq, self.at, self.kind, self.subject, self.cause, self.detail
        )
    }
}

/// Packed words per ring slot: seq, at, kind, subject, cause, detail.
const WORDS: usize = 6;

impl Event {
    fn pack(&self) -> [u64; WORDS] {
        [
            self.seq,
            self.at,
            self.kind.wire(),
            self.subject.raw(),
            self.cause.raw(),
            self.detail,
        ]
    }

    fn unpack(words: [u64; WORDS]) -> Option<Event> {
        Some(Event {
            seq: words[0],
            at: words[1],
            kind: EventKind::from_wire(words[2])?,
            subject: CauseId::from_raw(words[3]),
            cause: CauseId::from_raw(words[4]),
            detail: words[5],
        })
    }
}

/// Bounded, lock-free flight recorder holding the most recent
/// `capacity` events.
pub struct EventJournal {
    ring: SeqRing<WORDS>,
    next_seq: AtomicU64,
}

impl fmt::Debug for EventJournal {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        self.ring.debug_as("EventJournal", f)
    }
}

impl EventJournal {
    /// A journal retaining the most recent `capacity` events.
    ///
    /// # Panics
    ///
    /// Panics if `capacity` is 0.
    #[must_use]
    pub fn new(capacity: usize) -> Self {
        EventJournal {
            ring: SeqRing::new(capacity),
            next_seq: AtomicU64::new(0),
        }
    }

    /// Slots in the ring.
    #[must_use]
    pub fn capacity(&self) -> usize {
        self.ring.capacity()
    }

    /// Events successfully recorded (including those since overwritten).
    #[must_use]
    pub fn recorded(&self) -> u64 {
        self.ring.recorded()
    }

    /// Events dropped because a concurrent writer held the claimed slot.
    #[must_use]
    pub fn dropped(&self) -> u64 {
        self.ring.dropped()
    }

    /// Appends one event and returns its journal sequence number (which
    /// callers cite as [`CauseId::event`] in downstream events). The
    /// seq is assigned even if the slot write loses a lap race, so
    /// cause references stay unambiguous.
    pub fn append(
        &self,
        at: u64,
        kind: EventKind,
        subject: CauseId,
        cause: CauseId,
        detail: u64,
    ) -> u64 {
        let seq = self.next_seq.fetch_add(1, Ordering::Relaxed) + 1;
        let event = Event {
            seq,
            at,
            kind,
            subject,
            cause,
            detail,
        };
        self.ring.push(event.pack());
        seq
    }

    /// Reads every stable event currently retained, ordered by seq.
    #[must_use]
    pub fn snapshot(&self) -> Vec<Event> {
        self.ring
            .snapshot()
            .into_iter()
            .filter_map(Event::unpack)
            .collect()
    }

    /// The causal chain of `id`: every retained event *about* `id`
    /// (subject match, or the event `id` names directly), plus —
    /// transitively — every event those cite as a cause. The walk goes
    /// *upward* only (toward root causes), so a chain ends at events
    /// whose `cause` is [`CauseId::NONE`]. Returned in seq order.
    #[must_use]
    pub fn chain(&self, id: CauseId) -> Vec<Event> {
        chain_of(&self.snapshot(), id)
    }
}

/// [`EventJournal::chain`] over an already-taken snapshot (replay over
/// exported/stored event lists).
#[must_use]
pub fn chain_of(events: &[Event], id: CauseId) -> Vec<Event> {
    if id.is_none() {
        return Vec::new();
    }
    let mut want = std::collections::HashSet::new();
    want.insert(id);
    let mut marked = vec![false; events.len()];
    loop {
        let mut changed = false;
        for (i, e) in events.iter().enumerate() {
            if marked[i] {
                continue;
            }
            if want.contains(&e.subject) || want.contains(&CauseId::event(e.seq)) {
                marked[i] = true;
                changed = true;
                if !e.cause.is_none() {
                    want.insert(e.cause);
                }
            }
        }
        if !changed {
            return events
                .iter()
                .zip(&marked)
                .filter_map(|(e, &m)| m.then_some(*e))
                .collect();
        }
    }
}

impl Exportable for EventJournal {
    /// Subsystem `journal`: append/drop counters plus one labelled
    /// counter per event kind currently retained (code + name labels),
    /// so scrapers see the event mix without parsing records.
    fn export(&self) -> Export {
        let events = self.snapshot();
        let mut metrics = vec![
            Metric::counter(
                "events_recorded",
                "events appended to the journal (including overwritten)",
                self.recorded(),
            ),
            Metric::counter(
                "events_dropped",
                "events lost to a writer lapped mid-append",
                self.dropped(),
            ),
        ];
        for kind in EventKind::ALL {
            let count = events.iter().filter(|e| e.kind == kind).count() as u64;
            metrics.push(
                Metric::counter("events", "retained events of this kind", count)
                    .with_label("code", kind.code())
                    .with_label("event", kind.name()),
            );
        }
        Export {
            subsystem: "journal".into(),
            metrics,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cause_ids_are_namespaced_and_display_stably() {
        assert_eq!(CauseId::NONE.to_string(), "none");
        assert_eq!(CauseId::request(17).to_string(), "request:17");
        assert_eq!(CauseId::model(2).to_string(), "model:2");
        assert_eq!(CauseId::device(117).to_string(), "device:117");
        assert_eq!(CauseId::wave(3).to_string(), "wave:3");
        assert_eq!(CauseId::event(42).to_string(), "event:42");
        assert_eq!(CauseId::event(0), CauseId::NONE, "seqs are 1-based");
        assert_eq!(CauseId::release(1).to_string(), "release:1");
        assert_eq!(CauseId::slo(0).to_string(), "slo:0");
        // Same id, different namespace: distinct keys.
        assert_ne!(CauseId::request(7), CauseId::device(7));
        assert_eq!(CauseId::from_raw(CauseId::wave(9).raw()), CauseId::wave(9));
        assert!(CauseId::NONE.is_none());
        assert!(!CauseId::request(0).is_none(), "request:0 is a real key");
    }

    #[test]
    fn append_assigns_monotonic_seqs_and_snapshot_orders_them() {
        let j = EventJournal::new(64);
        for i in 0..10u64 {
            let seq = j.append(
                i,
                EventKind::RequestAdmitted,
                CauseId::request(i),
                CauseId::NONE,
                0,
            );
            assert_eq!(seq, i + 1);
        }
        let events = j.snapshot();
        assert_eq!(events.len(), 10);
        assert_eq!(j.recorded(), 10);
        assert_eq!(j.dropped(), 0);
        for (i, e) in events.iter().enumerate() {
            assert_eq!(e.seq, i as u64 + 1);
            assert_eq!(e.at, i as u64);
        }
    }

    #[test]
    fn bounded_ring_keeps_the_most_recent_events() {
        let j = EventJournal::new(8);
        for i in 0..20u64 {
            j.append(
                i,
                EventKind::DevicePhase,
                CauseId::device(i),
                CauseId::NONE,
                0,
            );
        }
        let events = j.snapshot();
        assert_eq!(events.len(), 8);
        let seqs: Vec<u64> = events.iter().map(|e| e.seq).collect();
        assert_eq!(seqs, (13..=20).collect::<Vec<_>>());
    }

    #[test]
    fn chain_walks_upward_to_the_root_cause() {
        let j = EventJournal::new(64);
        // rollout (root) -> wave -> device phases -> rollback.
        let root = j.append(
            0,
            EventKind::RolloutStarted,
            CauseId::release(2),
            CauseId::NONE,
            2,
        );
        let wave = j.append(
            1,
            EventKind::WaveStarted,
            CauseId::wave(0),
            CauseId::event(root),
            24,
        );
        j.append(
            2,
            EventKind::DevicePhase,
            CauseId::device(117),
            CauseId::event(wave),
            1,
        );
        let gate = j.append(
            9,
            EventKind::HealthGate,
            CauseId::wave(0),
            CauseId::event(wave),
            0,
        );
        let wrb = j.append(
            9,
            EventKind::WaveRolledBack,
            CauseId::wave(0),
            CauseId::event(gate),
            0,
        );
        j.append(
            9,
            EventKind::DeviceRolledBack,
            CauseId::device(117),
            CauseId::event(wrb),
            0,
        );
        // Unrelated noise that must stay out of the chain.
        j.append(
            3,
            EventKind::DevicePhase,
            CauseId::device(5),
            CauseId::event(wave),
            1,
        );

        let chain = j.chain(CauseId::device(117));
        let kinds: Vec<EventKind> = chain.iter().map(|e| e.kind).collect();
        assert!(kinds.contains(&EventKind::DeviceRolledBack));
        assert!(kinds.contains(&EventKind::DevicePhase));
        assert!(kinds.contains(&EventKind::WaveRolledBack));
        assert!(kinds.contains(&EventKind::HealthGate));
        assert!(kinds.contains(&EventKind::WaveStarted));
        assert!(kinds.contains(&EventKind::RolloutStarted), "root reached");
        // The sibling device's phase event is not about device 117.
        assert!(!chain.iter().any(|e| e.subject == CauseId::device(5)));
        // Chains terminate at a root cause.
        assert!(chain.iter().any(|e| e.cause.is_none()));
        // Seq order.
        let seqs: Vec<u64> = chain.iter().map(|e| e.seq).collect();
        let mut sorted = seqs.clone();
        sorted.sort_unstable();
        assert_eq!(seqs, sorted);
    }

    #[test]
    fn chain_joins_serve_requests_through_displacement() {
        let j = EventJournal::new(64);
        let adm = j.append(
            10,
            EventKind::RequestAdmitted,
            CauseId::request(9),
            CauseId::NONE,
            0,
        );
        assert!(adm > 0);
        j.append(
            10,
            EventKind::RequestDisplaced,
            CauseId::request(4),
            CauseId::request(9),
            2,
        );
        let chain = j.chain(CauseId::request(4));
        assert_eq!(
            chain.len(),
            2,
            "victim event plus the displacer's admission"
        );
        assert!(chain.iter().any(|e| e.kind == EventKind::RequestAdmitted));
        assert!(chain.iter().any(|e| e.cause.is_none()), "root recorded");
        assert!(j.chain(CauseId::NONE).is_empty());
        assert!(j.chain(CauseId::request(99)).is_empty());
    }

    #[test]
    fn concurrent_appends_lose_nothing_on_an_unlapped_ring() {
        let j = std::sync::Arc::new(EventJournal::new(4096));
        let threads: Vec<_> = (0..4)
            .map(|t| {
                let j = std::sync::Arc::clone(&j);
                std::thread::spawn(move || {
                    for i in 0..1000u64 {
                        j.append(
                            i,
                            EventKind::RequestAdmitted,
                            CauseId::request(t * 1000 + i),
                            CauseId::NONE,
                            t,
                        );
                    }
                })
            })
            .collect();
        for t in threads {
            t.join().unwrap();
        }
        assert_eq!(j.recorded() + j.dropped(), 4000);
        let events = j.snapshot();
        assert_eq!(events.len() as u64, j.recorded());
        // Seqs are unique even across racing appenders.
        let mut seqs: Vec<u64> = events.iter().map(|e| e.seq).collect();
        seqs.dedup();
        assert_eq!(seqs.len(), events.len());
    }

    #[test]
    fn display_is_stable() {
        let e = Event {
            seq: 3,
            at: 120,
            kind: EventKind::RequestShed,
            subject: CauseId::request(7),
            cause: CauseId::event(1),
            detail: 2,
        };
        assert_eq!(
            e.to_string(),
            "#3     t=120      J002 request_shed subject=request:7 cause=event:1 detail=2"
        );
    }

    #[test]
    fn export_counts_retained_events_per_kind() {
        let j = EventJournal::new(16);
        j.append(
            0,
            EventKind::RequestAdmitted,
            CauseId::request(1),
            CauseId::NONE,
            0,
        );
        j.append(
            1,
            EventKind::RequestAdmitted,
            CauseId::request(2),
            CauseId::NONE,
            0,
        );
        j.append(
            2,
            EventKind::RequestShed,
            CauseId::request(3),
            CauseId::NONE,
            1,
        );
        let export = j.export();
        assert_eq!(export.subsystem, "journal");
        let admitted = export
            .metrics
            .iter()
            .find(|m| m.labels.iter().any(|(_, v)| v == "request_admitted"))
            .unwrap();
        assert_eq!(admitted.value, crate::MetricValue::Counter(2));
        let json = export.to_json();
        assert_eq!(Export::from_json(&json), Some(export));
    }
}
