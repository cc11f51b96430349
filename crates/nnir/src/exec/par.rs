//! Kernel parallelism: the [`Parallelism`] policy and the scoped-thread
//! helpers that split a kernel's output into disjoint contiguous tiles
//! over workers. Each output is computed by one worker with the
//! association a serial run uses, so every policy computes the same
//! bits; [`Parallelism::Serial`] is the equivalence baseline.

/// Minimum per-kernel scalar-op estimate before threads are spawned;
/// below this the spawn overhead dwarfs the work.
const PAR_MIN_WORK: usize = 1 << 15;

/// How the execution engine distributes kernel work over threads.
///
/// `Serial` is the default: at batch 1 a kernel call is too short to
/// pay for spawning, and `Threads(2)` ran LeNet-5 2.49× slower than
/// `Serial` (medians of alternating rounds on a 2-thread host). Every
/// policy computes the same bits.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum Parallelism {
    /// Single-threaded reference path (equivalence baseline; default).
    #[default]
    Serial,
    /// Exactly this many worker threads for large kernels.
    Threads(usize),
    /// One worker per available hardware thread.
    Auto,
}

impl Parallelism {
    /// Upper bound on worker threads this policy allows.
    #[must_use]
    pub fn max_threads(&self) -> usize {
        match self {
            Parallelism::Serial => 1,
            Parallelism::Threads(n) => (*n).max(1),
            Parallelism::Auto => hardware_threads(),
        }
    }

    /// Workers to use for a kernel that performs roughly `work` scalar
    /// operations: 1 when the kernel is too small to amortize spawning.
    pub(super) fn workers_for(&self, work: usize) -> usize {
        let t = self.max_threads();
        if t <= 1 || work < PAR_MIN_WORK {
            1
        } else {
            t
        }
    }
}

/// Hardware thread count, probed once: `available_parallelism` is a
/// syscall (plus cgroup reads) and `Auto` consults it on every kernel.
fn hardware_threads() -> usize {
    use std::sync::OnceLock;
    static THREADS: OnceLock<usize> = OnceLock::new();
    *THREADS
        .get_or_init(|| std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get))
}

/// Runs `f(unit_index, chunk)` for every `chunk_len`-sized chunk of
/// `data`, distributing contiguous runs of chunks over `workers` scoped
/// threads. Each chunk is touched by exactly one thread, so results are
/// independent of the worker count.
pub(super) fn par_chunks<T, F>(workers: usize, data: &mut [T], chunk_len: usize, f: F)
where
    T: Send,
    F: Fn(usize, &mut [T]) + Sync,
{
    let units = data.len().div_ceil(chunk_len.max(1));
    if workers <= 1 || units <= 1 {
        for (i, chunk) in data.chunks_mut(chunk_len.max(1)).enumerate() {
            f(i, chunk);
        }
        return;
    }
    let per_worker = units.div_ceil(workers);
    std::thread::scope(|scope| {
        let f = &f;
        let mut rest = data;
        let mut base = 0usize;
        while !rest.is_empty() {
            let take = (per_worker * chunk_len).min(rest.len());
            let (head, tail) = rest.split_at_mut(take);
            rest = tail;
            scope.spawn(move || {
                for (i, chunk) in head.chunks_mut(chunk_len).enumerate() {
                    f(base + i, chunk);
                }
            });
            base += take.div_ceil(chunk_len);
        }
    });
}

/// [`par_chunks`] for kernels that need private scratch: `scratch` is
/// split into `workers` equal parts and `f(unit_index, chunk, part)`
/// gets its worker's part (the whole of `scratch` when it runs
/// inline), so the kernel allocates nothing per call. A separate body
/// rather than the engine of [`par_chunks`]: routing the f32 kernels
/// through this one measurably slowed them (~3% on LeNet-5).
pub(super) fn par_chunks_with<T, S, F>(
    workers: usize,
    data: &mut [T],
    chunk_len: usize,
    scratch: &mut [S],
    f: F,
) where
    T: Send,
    S: Send,
    F: Fn(usize, &mut [T], &mut [S]) + Sync,
{
    let units = data.len().div_ceil(chunk_len.max(1));
    if workers <= 1 || units <= 1 {
        for (i, chunk) in data.chunks_mut(chunk_len.max(1)).enumerate() {
            f(i, chunk, scratch);
        }
        return;
    }
    let per_worker = units.div_ceil(workers);
    let part_len = scratch.len() / workers;
    std::thread::scope(|scope| {
        let f = &f;
        let mut rest = data;
        let mut spare = scratch;
        let mut base = 0usize;
        while !rest.is_empty() {
            let take = (per_worker * chunk_len).min(rest.len());
            let (head, tail) = rest.split_at_mut(take);
            rest = tail;
            let (part, others) = spare.split_at_mut(part_len);
            spare = others;
            scope.spawn(move || {
                for (i, chunk) in head.chunks_mut(chunk_len).enumerate() {
                    f(base + i, chunk, part);
                }
            });
            base += take.div_ceil(chunk_len);
        }
    });
}
