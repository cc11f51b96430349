//! The arena memory plan: values with disjoint live ranges share one
//! buffer slot of their width.

use super::plan::default_cut;
use crate::graph::{Graph, TensorId};
use crate::shape::Shape;
use std::ops::Range;

/// Bytes one element occupies in an arena slot: an f32 value, or the
/// INT8 code of a value the runner stores as codes.
fn elem_bytes(coded: bool) -> u64 {
    if coded {
        1
    } else {
        4
    }
}

/// The arena slot-reuse plan the liveness analysis drives: a mapping
/// from tensor ids to arena slots such that two tensors share a slot
/// only when their live ranges are disjoint and they are stored at the
/// same width.
///
/// A value is stored as f32 values, 4 bytes each, unless the runner
/// stores it as INT8 codes, 1 byte each: a value only INT8 kernels read,
/// written by an INT8 kernel, a lone `FakeQuant` or a copy (DESIGN.md
/// §10, "Values stored as codes"). An f32 graph has none.
///
/// Computed once at [`RunnerBuilder::build`](super::RunnerBuilder::build) by greedy interval-graph
/// coloring over the [`Liveness`](crate::analysis::Liveness) intervals,
/// counted in the runner's *steps* (a head node together with the
/// elementwise nodes, and the max-pool an INT8 conv folds, run in its
/// output write) rather than nodes: a fused chain's inner values — a
/// folded pool's full-resolution input among them — are never written,
/// so they own no slot; its final value is defined, and every operand
/// it reads is live, at the head's step. Tensors are visited in
/// definition order, each taking the free slot of its width that fits
/// its size best (preferring the smallest already-large-enough buffer,
/// then the largest smaller one) or opening a new slot. Graph outputs stay live past the end of the
/// schedule, so their slots are never recycled and output collection is
/// untouched.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct MemoryPlan {
    /// Arena slot per tensor id; `None` for a fused chain's inner value.
    slot_of: Vec<Option<usize>>,
    /// Peak element capacity per slot (the max over its occupants).
    slot_elems: Vec<usize>,
    /// Whether each slot holds INT8 codes rather than f32 values.
    slot_coded: Vec<bool>,
    /// Whether each tensor is stored as INT8 codes.
    coded: Vec<bool>,
    /// Bytes of the one-slot-per-tensor layout.
    unplanned_bytes: u64,
}

impl MemoryPlan {
    /// Computes the slot-reuse plan for `graph` from tensor liveness
    /// over the steps a default runner runs: its INT8 plans, so the
    /// pools they fold and the values it stores as codes, included. A
    /// graph whose INT8 payload does not fit its weights, which no
    /// runner builds, gets its f32 plan.
    #[must_use]
    pub fn plan(graph: &Graph) -> Self {
        let (steps, codes) = default_cut(graph);
        Self::over(graph, &steps, &codes)
    }

    /// The slot-reuse plan over `steps`, the runner's cut of the
    /// schedule, with the values `codes` marks stored as codes.
    pub(super) fn over(graph: &Graph, steps: &[Range<usize>], codes: &[Option<f32>]) -> Self {
        let live = crate::analysis::Liveness::of(graph);
        // Step of each schedule position; graph outputs, live past the
        // last node, stay live past the last step.
        let mut step_of = vec![steps.len(); graph.nodes().len() + 1];
        let mut owns_slot = vec![true; graph.tensor_count()];
        for (s, step) in steps.iter().enumerate() {
            step_of[step.clone()].fill(s);
            for node in &graph.nodes()[step.start..step.end - 1] {
                owns_slot[node.output.0] = false;
            }
        }
        let ranges: Vec<crate::analysis::LiveRange> = live
            .ranges()
            .iter()
            .map(|r| crate::analysis::LiveRange {
                def: step_of[r.def],
                last_use: step_of[r.last_use],
            })
            .collect();
        let tc = graph.tensor_count();
        let elems: Vec<usize> = (0..tc)
            .map(|t| graph.tensor_shape(TensorId(t)).map_or(0, Shape::elem_count))
            .collect();
        // Visit tensors in definition order (ties by id — producer
        // order), the order their buffers come alive during a run.
        let mut order: Vec<usize> = (0..tc).filter(|&t| owns_slot[t]).collect();
        order.sort_by_key(|&t| (ranges[t].def, t));
        let coded: Vec<bool> = codes.iter().map(Option::is_some).collect();
        let mut slot_of = vec![None; tc];
        let mut slot_elems: Vec<usize> = Vec::new();
        let mut slot_coded: Vec<bool> = Vec::new();
        // Step at which each slot's current occupant dies.
        let mut slot_busy_until: Vec<Option<usize>> = Vec::new();
        for &t in &order {
            let r = ranges[t];
            let need = elems[t];
            // Best fit among the free slots of its width: smallest
            // capacity that already holds `need`, else the largest
            // smaller one (grows the arena least).
            let mut best: Option<usize> = None;
            for (s, busy) in slot_busy_until.iter().enumerate() {
                if busy.is_some_and(|until| until >= r.def) || slot_coded[s] != coded[t] {
                    continue; // occupant's live range overlaps ours, or another width
                }
                best = match best {
                    None => Some(s),
                    Some(b) => {
                        let (cb, cs) = (slot_elems[b], slot_elems[s]);
                        let better = if cb >= need && cs >= need {
                            cs < cb
                        } else {
                            cs > cb
                        };
                        Some(if better { s } else { b })
                    }
                };
            }
            let s = match best {
                Some(s) => s,
                None => {
                    slot_elems.push(0);
                    slot_coded.push(coded[t]);
                    slot_busy_until.push(None);
                    slot_elems.len() - 1
                }
            };
            slot_of[t] = Some(s);
            slot_elems[s] = slot_elems[s].max(need);
            slot_busy_until[s] = Some(r.last_use);
        }
        MemoryPlan {
            slot_of,
            slot_elems,
            slot_coded,
            unplanned_bytes: unshared_bytes(&elems, &coded),
            coded,
        }
    }

    /// The identity (one-slot-per-tensor) plan — the historical layout
    /// `memory_planning(false)` keeps — of a default runner, each slot
    /// of its tensor's width.
    #[must_use]
    pub fn identity(graph: &Graph) -> Self {
        Self::unshared(graph, &default_cut(graph).1)
    }

    /// The identity plan with the values `codes` marks stored as codes.
    pub(super) fn unshared(graph: &Graph, codes: &[Option<f32>]) -> Self {
        let tc = graph.tensor_count();
        let slot_elems: Vec<usize> = (0..tc)
            .map(|t| graph.tensor_shape(TensorId(t)).map_or(0, Shape::elem_count))
            .collect();
        let coded: Vec<bool> = codes.iter().map(Option::is_some).collect();
        MemoryPlan {
            slot_of: (0..tc).map(Some).collect(),
            unplanned_bytes: unshared_bytes(&slot_elems, &coded),
            slot_coded: coded.clone(),
            coded,
            slot_elems,
        }
    }

    /// The arena slot holding tensor `t` during a run; `None` for the
    /// inner value of a fused chain, which never has a buffer of its
    /// own.
    #[must_use]
    pub fn slot_of(&self, t: TensorId) -> Option<usize> {
        self.slot_of[t.0]
    }

    /// Whether tensor `t` is stored as INT8 codes, one byte each, rather
    /// than as f32 values.
    #[must_use]
    pub fn is_coded(&self, t: TensorId) -> bool {
        self.coded[t.0]
    }

    /// Number of arena slots the plan allocates.
    #[must_use]
    pub fn slot_count(&self) -> usize {
        self.slot_elems.len()
    }

    /// Peak value-arena bytes under this plan: each slot sized for its
    /// largest occupant, 4 bytes per element of an f32 slot and 1 per
    /// element of a code slot.
    #[must_use]
    pub fn peak_bytes(&self) -> u64 {
        self.slot_elems
            .iter()
            .zip(&self.slot_coded)
            .map(|(&e, &coded)| e as u64 * elem_bytes(coded))
            .sum()
    }

    /// Value-arena bytes of the one-slot-per-tensor layout, each tensor
    /// at its width — the baseline the plan is measured against.
    #[must_use]
    pub fn unplanned_bytes(&self) -> u64 {
        self.unplanned_bytes
    }

    /// Fractional peak-memory reduction vs the unplanned layout
    /// (`0.25` = 25% smaller).
    #[must_use]
    pub fn reduction(&self) -> f64 {
        if self.unplanned_bytes() == 0 {
            0.0
        } else {
            1.0 - self.peak_bytes() as f64 / self.unplanned_bytes() as f64
        }
    }
}

/// Bytes of one slot per tensor, of `elems` elements each, at the
/// widths `coded` gives.
fn unshared_bytes(elems: &[usize], coded: &[bool]) -> u64 {
    elems
        .iter()
        .zip(coded)
        .map(|(&e, &c)| e as u64 * elem_bytes(c))
        .sum()
}
