//! The one bounded seqlock ring behind [`TraceRing`](crate::TraceRing)
//! and [`EventJournal`](crate::EventJournal).
//!
//! Each slot holds `W` packed words under a seqlock version: even when
//! stable, odd while a writer owns it, 0 before the first write. The
//! version strictly increases, so a reader that sees the same even
//! version before and after its word loads read a coherent record.
//! Writers are lock-free: a slot is claimed by a single CAS on its
//! version and filled with relaxed stores; a writer that loses the CAS
//! race (only possible when another writer has lapped the whole ring
//! mid-write) drops its record and counts it. Readers retry a slot a
//! few times, then skip it, so a snapshot never contains a torn record
//! — property-tested under concurrent hammering through both wrappers
//! in `tests/proptests.rs`.

use std::fmt;
use std::sync::atomic::{fence, AtomicU64, Ordering};

struct Slot<const W: usize> {
    version: AtomicU64,
    words: [AtomicU64; W],
}

/// A ring of the most recent `capacity` records of `W` words each.
pub(crate) struct SeqRing<const W: usize> {
    slots: Vec<Slot<W>>,
    head: AtomicU64,
    recorded: AtomicU64,
    dropped: AtomicU64,
}

impl<const W: usize> SeqRing<W> {
    /// # Panics
    ///
    /// Panics if `capacity` is 0.
    pub(crate) fn new(capacity: usize) -> Self {
        assert!(capacity >= 1, "a seqlock ring needs at least one slot");
        SeqRing {
            slots: (0..capacity)
                .map(|_| Slot {
                    version: AtomicU64::new(0),
                    words: std::array::from_fn(|_| AtomicU64::new(0)),
                })
                .collect(),
            head: AtomicU64::new(0),
            recorded: AtomicU64::new(0),
            dropped: AtomicU64::new(0),
        }
    }

    pub(crate) fn capacity(&self) -> usize {
        self.slots.len()
    }

    /// Records written (including those since overwritten).
    pub(crate) fn recorded(&self) -> u64 {
        self.recorded.load(Ordering::Relaxed)
    }

    /// Records dropped because a concurrent writer held the claimed slot.
    pub(crate) fn dropped(&self) -> u64 {
        self.dropped.load(Ordering::Relaxed)
    }

    /// Writes one record into the next slot, or counts it dropped.
    pub(crate) fn push(&self, record: [u64; W]) {
        let idx = (self.head.fetch_add(1, Ordering::Relaxed) % self.slots.len() as u64) as usize;
        let slot = &self.slots[idx];
        let version = slot.version.load(Ordering::Acquire);
        if version & 1 == 1
            || slot
                .version
                .compare_exchange(version, version + 1, Ordering::Acquire, Ordering::Relaxed)
                .is_err()
        {
            self.dropped.fetch_add(1, Ordering::Relaxed);
            return;
        }
        for (word, value) in slot.words.iter().zip(record) {
            word.store(value, Ordering::Relaxed);
        }
        slot.version.store(version + 2, Ordering::Release);
        self.recorded.fetch_add(1, Ordering::Relaxed);
    }

    /// Every stable record currently in the ring, ordered by word 0 —
    /// where both wrappers pack their sequence number.
    pub(crate) fn snapshot(&self) -> Vec<[u64; W]> {
        let mut records: Vec<[u64; W]> = self.slots.iter().filter_map(read_slot).collect();
        records.sort_unstable_by_key(|r| r[0]);
        records
    }

    /// The wrappers' shared `Debug` body: capacity and counters.
    pub(crate) fn debug_as(&self, name: &str, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct(name)
            .field("capacity", &self.capacity())
            .field("recorded", &self.recorded())
            .field("dropped", &self.dropped())
            .finish()
    }
}

fn read_slot<const W: usize>(slot: &Slot<W>) -> Option<[u64; W]> {
    for _ in 0..16 {
        let before = slot.version.load(Ordering::Acquire);
        if before == 0 {
            return None; // never written
        }
        if before & 1 == 1 {
            std::hint::spin_loop();
            continue; // writer active
        }
        let mut words = [0u64; W];
        for (out, word) in words.iter_mut().zip(&slot.words) {
            *out = word.load(Ordering::Relaxed);
        }
        fence(Ordering::Acquire);
        if slot.version.load(Ordering::Relaxed) == before {
            return Some(words);
        }
    }
    None
}
