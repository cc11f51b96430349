// Test/bench/example target: panics are the failure report.
#![allow(clippy::unwrap_used, clippy::expect_used)]

//! Deterministic-interleaving model check of the serving concurrency
//! protocol.
//!
//! The server's correctness argument rests on two properties that unit
//! tests only probe for *some* thread schedules:
//!
//! 1. **Ticket/accounting partition** — every submitted request gets
//!    exactly one reply, and `served + rejected == submitted` (the
//!    model has no deadlines or faults, so the other outcome counters
//!    stay zero).
//! 2. **Close/drain protocol** — once shutdown begins, no new request
//!    is accepted, every already-queued request is still drained and
//!    answered, and every worker terminates (no deadlock, no abandoned
//!    queue).
//!
//! This test checks the properties for **every** schedule, by modelling
//! the protocol as an explicit-state transition system and exhaustively
//! enumerating interleavings with memoized DFS. Each transition is one
//! lock-held critical section from `server.rs`:
//!
//! * `Submit(c)` — the body of `Server::submit`'s locked block:
//!   check `shutting_down`, check capacity, enqueue (all under the
//!   queue mutex, exactly as in the implementation).
//! * `Shutdown` — `begin_shutdown`: set the flag, notify.
//! * `Take(w)` — the worker's locked batch-take: enabled whenever the
//!   queue is non-empty, because the default zero linger takes at once
//!   and a positive linger's timeout can always have elapsed; drains
//!   `min(len, max_batch)`.
//! * `Finish(w)` — the out-of-lock batch execution: one `Ok` reply per
//!   request in the held batch.
//! * `Exit(w)` — the worker's exit path: queue empty **and**
//!   `shutting_down`.
//!
//! A worker with an empty queue and no shutdown is parked on the
//! condvar — its transition set is empty, which the enumeration treats
//! as "blocked", and the deadlock check requires that some other
//! transition is always enabled until the system reaches a terminal
//! state.
//!
//! A meta-test then seeds two protocol bugs (exit-while-queued and
//! submit-ignores-shutdown) and asserts the checker rejects both — the
//! checker has teeth.
//!
//! Set `INTERLEAVE_DEPTH=deep` (as `ci.sh --deep` does) to enlarge the
//! bounds.

use std::collections::HashSet;

/// Which deliberately-broken protocol variant to model, if any.
#[derive(Clone, Copy, PartialEq, Eq)]
enum Bug {
    /// Worker exit checks only `shutting_down`, not queue emptiness —
    /// the drain half of the close/drain protocol is missing.
    ExitWithQueuedWork,
    /// `submit` checks capacity but not `shutting_down` — requests can
    /// slip into the queue after the workers have begun (or finished)
    /// exiting.
    IgnoreShutdownOnSubmit,
}

#[derive(Clone, Copy)]
struct Spec {
    capacity: usize,
    max_batch: usize,
    clients: usize,
    workers: usize,
    bug: Option<Bug>,
}

#[derive(Clone, PartialEq, Eq, Hash)]
enum Worker {
    /// At the top of `worker_loop`, about to take the lock.
    AtLoop,
    /// Holding a formed batch outside the lock.
    Executing(Vec<u8>),
    /// Returned.
    Exited,
}

#[derive(Clone, PartialEq, Eq, Hash)]
struct State {
    queue: Vec<u8>,
    shutting_down: bool,
    shutdown_fired: bool,
    /// Per-client: has this client's single submit run yet?
    submitted_by: Vec<bool>,
    workers: Vec<Worker>,
    /// Per-request reply count (must end at exactly 1).
    replies: Vec<u8>,
    submitted: u32,
    served: u32,
    rejected: u32,
}

impl State {
    fn initial(spec: &Spec) -> State {
        State {
            queue: Vec::new(),
            shutting_down: false,
            shutdown_fired: false,
            submitted_by: vec![false; spec.clients],
            workers: vec![Worker::AtLoop; spec.workers],
            replies: vec![0; spec.clients],
            submitted: 0,
            served: 0,
            rejected: 0,
        }
    }

    fn terminal(&self) -> bool {
        self.submitted_by.iter().all(|&s| s)
            && self.shutdown_fired
            && self.workers.iter().all(|w| *w == Worker::Exited)
    }
}

#[derive(Clone, Copy)]
enum Transition {
    Submit(usize),
    Shutdown,
    Take(usize),
    Finish(usize),
    Exit(usize),
}

fn enabled(spec: &Spec, s: &State) -> Vec<Transition> {
    let mut out = Vec::new();
    for (c, done) in s.submitted_by.iter().enumerate() {
        if !done {
            out.push(Transition::Submit(c));
        }
    }
    if !s.shutdown_fired {
        out.push(Transition::Shutdown);
    }
    for (w, worker) in s.workers.iter().enumerate() {
        match worker {
            Worker::AtLoop => {
                if !s.queue.is_empty() {
                    // A zero linger takes at once and a positive one may
                    // always have elapsed, so a non-empty queue always
                    // permits a (partial) take.
                    out.push(Transition::Take(w));
                }
                let exit_ok = if spec.bug == Some(Bug::ExitWithQueuedWork) {
                    s.shutting_down
                } else {
                    s.queue.is_empty() && s.shutting_down
                };
                if exit_ok {
                    out.push(Transition::Exit(w));
                }
                // Empty queue without shutdown: parked on the condvar,
                // no transition.
            }
            Worker::Executing(_) => out.push(Transition::Finish(w)),
            Worker::Exited => {}
        }
    }
    out
}

fn apply(spec: &Spec, s: &State, t: Transition) -> State {
    let mut n = s.clone();
    match t {
        Transition::Submit(c) => {
            n.submitted_by[c] = true;
            n.submitted += 1;
            let reject_for_shutdown =
                n.shutting_down && spec.bug != Some(Bug::IgnoreShutdownOnSubmit);
            if reject_for_shutdown || n.queue.len() >= spec.capacity {
                n.rejected += 1;
                n.replies[c] += 1;
            } else {
                n.queue.push(c as u8);
            }
        }
        Transition::Shutdown => {
            n.shutdown_fired = true;
            n.shutting_down = true;
        }
        Transition::Take(w) => {
            let take = n.queue.len().min(spec.max_batch);
            let batch: Vec<u8> = n.queue.drain(..take).collect();
            n.workers[w] = Worker::Executing(batch);
        }
        Transition::Finish(w) => {
            if let Worker::Executing(batch) = std::mem::replace(&mut n.workers[w], Worker::AtLoop) {
                for req in batch {
                    n.replies[req as usize] += 1;
                    n.served += 1;
                }
            }
        }
        Transition::Exit(w) => {
            n.workers[w] = Worker::Exited;
        }
    }
    n
}

/// Safety invariants that must hold in *every* reachable state.
fn check_state(spec: &Spec, s: &State) -> Result<(), String> {
    if s.queue.len() > spec.capacity {
        return Err(format!(
            "queue overflow: {} > capacity {}",
            s.queue.len(),
            spec.capacity
        ));
    }
    for (c, &count) in s.replies.iter().enumerate() {
        if count > 1 {
            return Err(format!("request {c} replied to {count} times"));
        }
    }
    Ok(())
}

/// Invariants of a terminal (fully quiesced) state.
fn check_terminal(s: &State) -> Result<(), String> {
    if !s.queue.is_empty() {
        return Err(format!(
            "shutdown abandoned {} queued request(s)",
            s.queue.len()
        ));
    }
    for (c, &count) in s.replies.iter().enumerate() {
        if count != 1 {
            return Err(format!("request {c} got {count} replies, want exactly 1"));
        }
    }
    if s.served + s.rejected != s.submitted {
        return Err(format!(
            "accounting leak: served {} + rejected {} != submitted {}",
            s.served, s.rejected, s.submitted
        ));
    }
    Ok(())
}

#[derive(Debug)]
struct Explored {
    states: usize,
    terminals: usize,
}

/// Exhaustive memoized DFS over every interleaving of the model.
fn explore(spec: &Spec) -> Result<Explored, String> {
    let mut visited: HashSet<State> = HashSet::new();
    let mut stack = vec![State::initial(spec)];
    let mut terminals = 0usize;
    while let Some(s) = stack.pop() {
        if visited.contains(&s) {
            continue;
        }
        check_state(spec, &s)?;
        let ts = enabled(spec, &s);
        if ts.is_empty() {
            if !s.terminal() {
                return Err(format!(
                    "deadlock: no transition enabled, queue={:?} workers alive={}",
                    s.queue,
                    s.workers.iter().filter(|w| **w != Worker::Exited).count()
                ));
            }
            check_terminal(&s)?;
            terminals += 1;
        } else {
            for t in ts {
                let n = apply(spec, &s, t);
                if !visited.contains(&n) {
                    stack.push(n);
                }
            }
        }
        visited.insert(s);
    }
    Ok(Explored {
        states: visited.len(),
        terminals,
    })
}

fn base_spec() -> Spec {
    let deep = std::env::var("INTERLEAVE_DEPTH").is_ok_and(|v| v == "deep");
    if deep {
        Spec {
            capacity: 2,
            max_batch: 2,
            clients: 5,
            workers: 3,
            bug: None,
        }
    } else {
        Spec {
            capacity: 2,
            max_batch: 2,
            clients: 3,
            workers: 2,
            bug: None,
        }
    }
}

#[test]
fn every_interleaving_preserves_ticket_accounting_and_drain() {
    let spec = base_spec();
    let explored = explore(&spec).unwrap_or_else(|violation| {
        panic!("model check failed: {violation}");
    });
    // The bound must actually generate schedule diversity, or the
    // check is vacuous.
    assert!(
        explored.states > 300,
        "suspiciously small state space: {}",
        explored.states
    );
    assert!(explored.terminals >= 1);
}

#[test]
fn single_worker_single_client_is_also_clean() {
    // The degenerate bound where the close/drain races are sharpest:
    // one worker must both drain and exit.
    let spec = Spec {
        capacity: 1,
        max_batch: 1,
        clients: 2,
        workers: 1,
        bug: None,
    };
    explore(&spec).expect("protocol holds at minimal bounds");
}

#[test]
fn checker_rejects_exit_with_queued_work() {
    let spec = Spec {
        bug: Some(Bug::ExitWithQueuedWork),
        ..base_spec()
    };
    let violation = explore(&spec).expect_err("bug must be caught");
    assert!(
        violation.contains("abandoned") || violation.contains("replies"),
        "unexpected violation message: {violation}"
    );
}

#[test]
fn checker_rejects_submit_that_ignores_shutdown() {
    let spec = Spec {
        bug: Some(Bug::IgnoreShutdownOnSubmit),
        ..base_spec()
    };
    let violation = explore(&spec).expect_err("bug must be caught");
    assert!(
        violation.contains("abandoned") || violation.contains("replies"),
        "unexpected violation message: {violation}"
    );
}

// ---------------------------------------------------------------------
// Routing model: the multi-tenant admission/priority/unload protocol.
// ---------------------------------------------------------------------
//
// A second transition system models the PR-7 gateway: two model pools
// behind one gateway capacity, per-pool quotas, three priority classes,
// priority-ordered eviction, and hot unload-with-drain. Checked in
// every reachable state:
//
// 1. **No cross-model batch mixing** — a formed batch holds requests of
//    exactly one model.
// 2. **Priority shed order** — a request is never shed in favour of
//    equal-or-lower-priority work, and never shed while strictly
//    lower-priority work remains queued in its pool.
// 3. **Unload drains** — unloading a model answers every queued and
//    in-flight request; nothing is abandoned.
// 4. The ticket/accounting partition from the base model still holds.
//
// Meta-tests seed three protocol bugs (batch steals across pools,
// eviction picks the wrong side of the priority order, unload drops its
// queue) and assert the checker rejects each.

/// Which deliberately-broken routing variant to model, if any.
#[derive(Clone, Copy, PartialEq, Eq)]
enum RoutingBug {
    /// The batcher refills a short batch from the *other* pool's queue.
    MixesModels,
    /// Admission evicts strictly-higher-priority work to admit a
    /// lower-priority submission.
    EvictsAboveInsteadOfBelow,
    /// Unload clears the pool's queues without replying.
    UnloadDropsQueuedWork,
}

#[derive(Clone, Copy)]
struct RoutingSpec {
    /// Per-client (model, priority-class index 0=High 1=Normal 2=Batch).
    clients: [(usize, usize); 4],
    gateway_capacity: usize,
    /// Per-pool queue quota.
    quota: usize,
    max_batch: usize,
    bug: Option<RoutingBug>,
}

#[derive(Clone, PartialEq, Eq, Hash)]
enum PoolWorker {
    AtLoop,
    /// Holding a formed batch (client ids) outside the lock.
    Executing(Vec<u8>),
    Exited,
}

#[derive(Clone, PartialEq, Eq, Hash)]
struct RoutingState {
    /// pool → class → FIFO of client ids.
    queues: [[Vec<u8>; 3]; 2],
    /// Pool B can be hot-unloaded; a draining pool refuses submissions.
    draining: [bool; 2],
    unload_fired: bool,
    shutdown_fired: bool,
    submitted_by: [bool; 4],
    workers: [PoolWorker; 2],
    replies: [u8; 4],
    served: u32,
    refused: u32,
}

impl RoutingState {
    fn initial() -> RoutingState {
        RoutingState {
            queues: Default::default(),
            draining: [false; 2],
            unload_fired: false,
            shutdown_fired: false,
            submitted_by: [false; 4],
            workers: [PoolWorker::AtLoop, PoolWorker::AtLoop],
            replies: [0; 4],
            served: 0,
            refused: 0,
        }
    }

    fn pool_depth(&self, pool: usize) -> usize {
        self.queues[pool].iter().map(Vec::len).sum()
    }

    fn total_queued(&self) -> usize {
        self.pool_depth(0) + self.pool_depth(1)
    }

    fn terminal(&self) -> bool {
        self.submitted_by.iter().all(|&s| s)
            && self.shutdown_fired
            && self.workers.iter().all(|w| *w == PoolWorker::Exited)
    }
}

#[derive(Clone, Copy)]
enum RoutingTransition {
    Submit(usize),
    /// Hot-unload pool B (begin its drain).
    Unload,
    Shutdown,
    Take(usize),
    Finish(usize),
    Exit(usize),
}

fn routing_enabled(s: &RoutingState) -> Vec<RoutingTransition> {
    let mut out = Vec::new();
    for (c, done) in s.submitted_by.iter().enumerate() {
        if !done {
            out.push(RoutingTransition::Submit(c));
        }
    }
    if !s.unload_fired {
        out.push(RoutingTransition::Unload);
    }
    if !s.shutdown_fired {
        out.push(RoutingTransition::Shutdown);
    }
    for (w, worker) in s.workers.iter().enumerate() {
        match worker {
            PoolWorker::AtLoop => {
                if s.pool_depth(w) > 0 {
                    out.push(RoutingTransition::Take(w));
                }
                if s.pool_depth(w) == 0 && s.draining[w] {
                    out.push(RoutingTransition::Exit(w));
                }
            }
            PoolWorker::Executing(_) => out.push(RoutingTransition::Finish(w)),
            PoolWorker::Exited => {}
        }
    }
    out
}

/// The admission critical section, mirroring `ModelPool::submit`.
/// Returns an error string on a priority-order violation.
fn routing_submit(spec: &RoutingSpec, n: &mut RoutingState, c: usize) -> Result<(), String> {
    let (pool, class) = spec.clients[c];
    n.submitted_by[c] = true;
    if n.draining[pool] {
        n.refused += 1;
        n.replies[c] += 1;
        return Ok(());
    }
    let over = n.pool_depth(pool) >= spec.quota || n.total_queued() >= spec.gateway_capacity;
    if over {
        // Eviction: youngest request of the lowest-priority nonempty
        // class strictly below the incoming one (the seeded bug scans
        // strictly *above* instead).
        let candidates: Vec<usize> = if spec.bug == Some(RoutingBug::EvictsAboveInsteadOfBelow) {
            (0..class).rev().collect()
        } else {
            (class + 1..3).rev().collect()
        };
        let victim = candidates
            .into_iter()
            .find(|&cls| !n.queues[pool][cls].is_empty());
        match victim {
            Some(cls) => {
                let evicted = n.queues[pool][cls].pop().unwrap();
                // Property 2, victim half: never shed in favour of
                // equal-or-lower-priority work.
                if cls <= class {
                    return Err(format!(
                        "priority inversion: class-{cls} request {evicted} shed \
                         to admit class-{class} request {c}"
                    ));
                }
                n.refused += 1;
                n.replies[evicted as usize] += 1;
            }
            None => {
                // Property 2, self half: never refused while strictly
                // lower-priority work sits queued in the same pool.
                if (class + 1..3).any(|cls| !n.queues[pool][cls].is_empty()) {
                    return Err(format!(
                        "class-{class} request {c} refused while lower-priority \
                         work is queued in pool {pool}"
                    ));
                }
                n.refused += 1;
                n.replies[c] += 1;
                return Ok(());
            }
        }
    }
    n.queues[pool][class].push(c as u8);
    Ok(())
}

fn routing_apply(
    spec: &RoutingSpec,
    s: &RoutingState,
    t: RoutingTransition,
) -> Result<RoutingState, String> {
    let mut n = s.clone();
    match t {
        RoutingTransition::Submit(c) => routing_submit(spec, &mut n, c)?,
        RoutingTransition::Unload => {
            n.unload_fired = true;
            n.draining[1] = true;
            if spec.bug == Some(RoutingBug::UnloadDropsQueuedWork) {
                n.queues[1] = Default::default();
            }
        }
        RoutingTransition::Shutdown => {
            n.shutdown_fired = true;
            n.draining = [true; 2];
        }
        RoutingTransition::Take(w) => {
            let mut batch = Vec::new();
            for cls in 0..3 {
                while batch.len() < spec.max_batch && !n.queues[w][cls].is_empty() {
                    batch.push(n.queues[w][cls].remove(0));
                }
            }
            if spec.bug == Some(RoutingBug::MixesModels) {
                let other = 1 - w;
                'steal: for cls in 0..3 {
                    while batch.len() < spec.max_batch {
                        if n.queues[other][cls].is_empty() {
                            continue 'steal;
                        }
                        batch.push(n.queues[other][cls].remove(0));
                    }
                }
            }
            n.workers[w] = PoolWorker::Executing(batch);
        }
        RoutingTransition::Finish(w) => {
            if let PoolWorker::Executing(batch) =
                std::mem::replace(&mut n.workers[w], PoolWorker::AtLoop)
            {
                for req in batch {
                    n.replies[req as usize] += 1;
                    n.served += 1;
                }
            }
        }
        RoutingTransition::Exit(w) => {
            n.workers[w] = PoolWorker::Exited;
        }
    }
    Ok(n)
}

/// Safety invariants of every reachable routing state.
fn routing_check_state(spec: &RoutingSpec, s: &RoutingState) -> Result<(), String> {
    if s.total_queued() > spec.gateway_capacity {
        return Err(format!(
            "gateway overflow: {} queued > capacity {}",
            s.total_queued(),
            spec.gateway_capacity
        ));
    }
    for (c, &count) in s.replies.iter().enumerate() {
        if count > 1 {
            return Err(format!("request {c} replied to {count} times"));
        }
    }
    // Property 1: a formed batch never mixes models.
    for (w, worker) in s.workers.iter().enumerate() {
        if let PoolWorker::Executing(batch) = worker {
            for &req in batch {
                let (model, _) = spec.clients[req as usize];
                if model != w {
                    return Err(format!(
                        "cross-model batch: pool {w} executing request {req} of model {model}"
                    ));
                }
            }
        }
    }
    Ok(())
}

fn routing_check_terminal(s: &RoutingState) -> Result<(), String> {
    if s.total_queued() != 0 {
        return Err(format!(
            "drain abandoned {} queued request(s)",
            s.total_queued()
        ));
    }
    for (c, &count) in s.replies.iter().enumerate() {
        if count != 1 {
            return Err(format!("request {c} got {count} replies, want exactly 1"));
        }
    }
    let submitted = s.submitted_by.iter().filter(|&&b| b).count() as u32;
    if s.served + s.refused != submitted {
        return Err(format!(
            "accounting leak: served {} + refused {} != submitted {submitted}",
            s.served, s.refused
        ));
    }
    Ok(())
}

/// Exhaustive memoized DFS over the routing model.
fn routing_explore(spec: &RoutingSpec) -> Result<Explored, String> {
    let mut visited: HashSet<RoutingState> = HashSet::new();
    let mut stack = vec![RoutingState::initial()];
    let mut terminals = 0usize;
    while let Some(s) = stack.pop() {
        if visited.contains(&s) {
            continue;
        }
        routing_check_state(spec, &s)?;
        let ts = routing_enabled(&s);
        if ts.is_empty() {
            if !s.terminal() {
                return Err(format!(
                    "deadlock: queued={} workers alive={}",
                    s.total_queued(),
                    s.workers
                        .iter()
                        .filter(|w| **w != PoolWorker::Exited)
                        .count()
                ));
            }
            routing_check_terminal(&s)?;
            terminals += 1;
        } else {
            for t in ts {
                let n = routing_apply(spec, &s, t)?;
                if !visited.contains(&n) {
                    stack.push(n);
                }
            }
        }
        visited.insert(s);
    }
    Ok(Explored {
        states: visited.len(),
        terminals,
    })
}

/// Two tenants, all three priority classes, tight quota (1) and gateway
/// capacity (2) so eviction, quota refusal and gateway backpressure are
/// all reachable, plus a hot unload racing every submission order.
fn routing_spec() -> RoutingSpec {
    RoutingSpec {
        clients: [(0, 2), (0, 0), (1, 1), (1, 2)],
        gateway_capacity: 2,
        quota: 1,
        max_batch: 2,
        bug: None,
    }
}

#[test]
fn every_routing_interleaving_preserves_isolation_and_priority_order() {
    let explored = routing_explore(&routing_spec()).unwrap_or_else(|violation| {
        panic!("routing model check failed: {violation}");
    });
    assert!(
        explored.states > 500,
        "suspiciously small state space: {}",
        explored.states
    );
    assert!(explored.terminals >= 1);
}

#[test]
fn routing_checker_rejects_cross_model_batches() {
    let spec = RoutingSpec {
        bug: Some(RoutingBug::MixesModels),
        ..routing_spec()
    };
    let violation = routing_explore(&spec).expect_err("bug must be caught");
    assert!(
        violation.contains("cross-model"),
        "unexpected violation message: {violation}"
    );
}

#[test]
fn routing_checker_rejects_shedding_high_before_low() {
    let spec = RoutingSpec {
        bug: Some(RoutingBug::EvictsAboveInsteadOfBelow),
        ..routing_spec()
    };
    let violation = routing_explore(&spec).expect_err("bug must be caught");
    assert!(
        violation.contains("priority inversion") || violation.contains("refused while"),
        "unexpected violation message: {violation}"
    );
}

#[test]
fn routing_checker_rejects_unload_that_drops_queued_work() {
    let spec = RoutingSpec {
        bug: Some(RoutingBug::UnloadDropsQueuedWork),
        ..routing_spec()
    };
    let violation = routing_explore(&spec).expect_err("bug must be caught");
    assert!(
        violation.contains("got 0 replies"),
        "unexpected violation message: {violation}"
    );
}
