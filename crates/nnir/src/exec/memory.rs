//! The arena memory plan: each value a step writes placed at an offset
//! of one arena per width, so values whose live ranges overlap never
//! share a byte.

use super::plan::{block_of, default_cut};
use super::stage::Extent;
use crate::graph::{Graph, TensorId};
use crate::shape::Shape;
use std::ops::Range;

/// Bytes one element occupies in an arena: an f32 value, or the INT8
/// code of a value the runner stores as codes.
fn elem_bytes(coded: bool) -> u64 {
    if coded {
        1
    } else {
        4
    }
}

/// The arena layout the liveness analysis drives: each value a step
/// writes at an offset of its width's arena, such that two values whose
/// live ranges overlap occupy disjoint ranges.
///
/// The runner holds two arenas: f32 values, 4 bytes each, and INT8
/// codes, 1 byte each. A value is stored as codes when only INT8 kernels
/// read it and an INT8 kernel, a lone `FakeQuant` or a copy writes it
/// (DESIGN.md §10, "Values stored as codes"). An f32 graph has none.
///
/// Computed once at [`RunnerBuilder::build`](super::RunnerBuilder::build)
/// over the [`Liveness`](crate::analysis::Liveness) intervals, counted in
/// the runner's *steps* (a head node together with the elementwise
/// nodes, and the max-pool an INT8 conv folds, run in its output write)
/// rather than nodes. A fused chain's inner values — a folded pool's
/// full-resolution input among them — are never written, so they own no
/// arena space; its final value is defined, and every operand it reads
/// is live, at the head's step. An expansion conv's value that its
/// depthwise reader takes in one block of channels at a time (the two
/// convs are one step) owns one block's range, live at that step only.
/// Graph inputs own none: steps read them from the caller's tensors.
/// Graph outputs stay live past the end of the schedule, so their ranges
/// are never reused.
///
/// The placement is greedy by size: the largest value first (ties by
/// definition step, then tensor id), each at the lowest offset of its
/// arena that no value with an overlapping live range already occupies.
/// Every offset is 0 or the end of a placed value, so a sum of value
/// sizes.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct MemoryPlan {
    /// Offset in its width's arena, in elements at the graph's batch, per
    /// tensor id; `None` for a graph input or a fused chain's inner value.
    offset_of: Vec<Option<usize>>,
    /// Elements of each tensor's range at the graph's batch: its value's,
    /// or one block's for a value computed a block at a time.
    elems: Vec<usize>,
    /// Whether each tensor is stored as INT8 codes.
    coded: Vec<bool>,
    /// Elements of the f32 arena and of the code arena: the furthest end
    /// of a value placed in each, saturated at `usize::MAX`.
    f32_len: usize,
    codes_len: usize,
    /// Bytes of the one-range-per-value layout.
    unplanned_bytes: u64,
}

impl MemoryPlan {
    /// Computes the offset plan for `graph` from tensor liveness over the
    /// steps a default runner runs: its INT8 plans, so the pools they
    /// fold and the values it stores as codes, included. A graph whose
    /// INT8 payload does not fit its weights, which no runner builds,
    /// gets its f32 plan.
    #[must_use]
    pub fn plan(graph: &Graph) -> Self {
        let (steps, codes) = default_cut(graph);
        Self::over(graph, &steps, &codes)
    }

    /// The offset plan over `steps`, the runner's cut of the schedule,
    /// with the values `codes` marks stored as codes.
    pub(super) fn over(graph: &Graph, steps: &[Range<usize>], codes: &[Option<f32>]) -> Self {
        let ranges = step_ranges(graph, steps);
        let owns = owns_space(graph, steps);
        let elems = elem_counts(graph, steps);
        let coded: Vec<bool> = codes.iter().map(Option::is_some).collect();
        let mut order: Vec<usize> = (0..graph.tensor_count()).filter(|&t| owns[t]).collect();
        order.sort_by_key(|&t| (std::cmp::Reverse(elems[t]), ranges[t].def, t));
        let mut offset_of = vec![None; graph.tensor_count()];
        // The placed values, per width: (offset, end, tensor id).
        let mut placed: [Vec<(usize, usize, usize)>; 2] = [Vec::new(), Vec::new()];
        for t in order {
            let (size, live) = (elems[t], ranges[t]);
            let mut taken: Vec<(usize, usize)> = placed[usize::from(coded[t])]
                .iter()
                .filter(|&&(at, end, u)| end > at && live.overlaps(ranges[u]))
                .map(|&(at, end, _)| (at, end))
                .collect();
            taken.sort_unstable();
            // The lowest gap of `size` elements below, between or above
            // the ranges the value may not share.
            let mut at = 0usize;
            for (from, end) in taken {
                if at.checked_add(size).is_some_and(|need| need <= from) {
                    break;
                }
                at = at.max(end);
            }
            offset_of[t] = Some(at);
            placed[usize::from(coded[t])].push((at, at.saturating_add(size), t));
        }
        let len = |p: &[(usize, usize, usize)]| p.iter().map(|&(_, end, _)| end).max();
        MemoryPlan {
            f32_len: len(&placed[0]).unwrap_or_default(),
            codes_len: len(&placed[1]).unwrap_or_default(),
            unplanned_bytes: unshared_bytes(graph, &elems, &coded),
            offset_of,
            elems,
            coded,
        }
    }

    /// The identity (one-range-per-value) plan — the layout
    /// `memory_planning(false)` keeps — of a default runner, each value
    /// at its width.
    #[must_use]
    pub fn identity(graph: &Graph) -> Self {
        let (steps, codes) = default_cut(graph);
        Self::unshared(graph, &steps, &codes)
    }

    /// The identity plan over `steps` with the values `codes` marks
    /// stored as codes: every value but a graph input its own range, in
    /// tensor id order, one block's for a value computed a block at a
    /// time.
    pub(super) fn unshared(graph: &Graph, steps: &[Range<usize>], codes: &[Option<f32>]) -> Self {
        let elems = elem_counts(graph, steps);
        let coded: Vec<bool> = codes.iter().map(Option::is_some).collect();
        let mut ends = [0usize; 2];
        let offset_of = (0..graph.tensor_count())
            .map(|t| {
                let end = &mut ends[usize::from(coded[t])];
                let at = *end;
                (!graph.inputs().contains(&TensorId(t))).then(|| {
                    *end = at.saturating_add(elems[t]);
                    at
                })
            })
            .collect();
        MemoryPlan {
            offset_of,
            f32_len: ends[0],
            codes_len: ends[1],
            unplanned_bytes: unshared_bytes(graph, &elems, &coded),
            elems,
            coded,
        }
    }

    /// The offset of tensor `t` in its width's arena, in elements at the
    /// graph's batch; `None` for a graph input, which steps read from the
    /// caller's tensor, or for the inner value of a fused chain, which is
    /// never written.
    #[must_use]
    pub fn offset_of(&self, t: TensorId) -> Option<usize> {
        self.offset_of[t.0]
    }

    /// Tensor `t`'s range of its width's arena, at the graph's batch;
    /// `None` where [`offset_of`](Self::offset_of) is.
    pub(super) fn extent(&self, t: TensorId) -> Option<Extent> {
        let at = self.offset_of[t.0]?;
        Some(Extent {
            at,
            len: self.elems[t.0],
        })
    }

    /// Whether tensor `t` is stored as INT8 codes, one byte each, rather
    /// than as f32 values.
    #[must_use]
    pub fn is_coded(&self, t: TensorId) -> bool {
        self.coded[t.0]
    }

    /// Elements of the f32 arena and of the code arena at the graph's
    /// batch; `usize::MAX` for an arena whose ends overflow.
    pub(super) fn arena_lens(&self) -> (usize, usize) {
        (self.f32_len, self.codes_len)
    }

    /// Peak value-arena bytes under this plan: the f32 arena's length at
    /// 4 bytes per element plus the code arena's at 1, saturating at
    /// `u64::MAX`.
    #[must_use]
    pub fn peak_bytes(&self) -> u64 {
        let f32s = (self.f32_len as u64).saturating_mul(elem_bytes(false));
        f32s.saturating_add(self.codes_len as u64)
    }

    /// Value-arena bytes of the one-range-per-value layout, each value
    /// but a graph input at its width, saturating at `u64::MAX` — the
    /// baseline the plan is measured against.
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

/// Each tensor's live range in `steps`, by tensor id: the step that
/// defines it through the step that last reads it, graph outputs live
/// past the last step.
fn step_ranges(graph: &Graph, steps: &[Range<usize>]) -> Vec<crate::analysis::LiveRange> {
    let mut step_of = vec![steps.len(); graph.nodes().len() + 1];
    for (s, step) in steps.iter().enumerate() {
        step_of[step.clone()].fill(s);
    }
    crate::analysis::Liveness::of(graph)
        .ranges()
        .iter()
        .map(|r| crate::analysis::LiveRange {
            def: step_of[r.def],
            last_use: step_of[r.last_use],
        })
        .collect()
}

/// Whether each tensor owns arena space in `steps`: every value but a
/// graph input and a fused chain's inner value, which an expansion a
/// step computes a block at a time is not.
fn owns_space(graph: &Graph, steps: &[Range<usize>]) -> Vec<bool> {
    let mut owns = vec![true; graph.tensor_count()];
    for &t in graph.inputs() {
        owns[t.0] = false;
    }
    for step in steps {
        for node in &graph.nodes()[step.start..step.end - 1] {
            owns[node.output.0] = false;
        }
        if let Some((t, _)) = block_of(graph, step) {
            owns[t.0] = true;
        }
    }
    owns
}

/// The elements each tensor's range holds at the graph's batch, by
/// tensor id: its value's, or one block's for a value a step of `steps`
/// computes a block at a time.
fn elem_counts(graph: &Graph, steps: &[Range<usize>]) -> Vec<usize> {
    let mut elems: Vec<usize> = (0..graph.tensor_count())
        .map(|t| graph.tensor_shape(TensorId(t)).map_or(0, Shape::elem_count))
        .collect();
    for (t, block) in steps.iter().filter_map(|step| block_of(graph, step)) {
        elems[t.0] = block;
    }
    elems
}

/// Bytes of one range per value but a graph input, of `elems` elements
/// each, at the widths `coded` gives.
fn unshared_bytes(graph: &Graph, elems: &[usize], coded: &[bool]) -> u64 {
    (0..elems.len())
        .filter(|&t| !graph.inputs().contains(&TensorId(t)))
        .map(|t| (elems[t] as u64).saturating_mul(elem_bytes(coded[t])))
        .fold(0, u64::saturating_add)
}
