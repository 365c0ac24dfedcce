//! Worker shards of the sharded engine: a pool of threads exploring
//! candidates for the one commit lane.
//!
//! Each worker checks an exploration unit (a forked `Session` plus
//! suspended §4.1 planner state) out of the shared session pool,
//! explores its task, and checks the unit back in. Planner state —
//! Esc-recovery epochs, tab dirt, effort counters — travels with the
//! pooled unit, so recovery amortizes across tasks exactly as it did when
//! workers owned one session for life.
//!
//! The dispatch queue is one FIFO: urgent tasks (the lane is blocked on
//! them right now) go to its front, speculative ones to its back. It
//! shapes only latency, never bytes: merge order is fixed by the lane
//! regardless of where or when outcomes are computed.
//!
//! A worker that finishes an exploration does not necessarily return to
//! the queue empty-handed: its session already sits in exactly the
//! post-click state, so — up to the per-walk cap `spec_walk` — it keeps
//! walking into the candidates its own fresh capture revealed, publishing
//! each result as a [`Reply::Spec`] keyed by the full exploration input.
//! The lane adopts speculations that match its sequential DFS pops and
//! discards the rest; see [`crate::parallel::spec`].

use crate::parallel::spec::SpecKey;
use crate::ripper::{diff_fresh, ExploreUnit, RipConfig, RipStats, UnitState};
use dmi_gui::Session;
use dmi_uia::{ControlId, Snapshot};
use std::collections::{HashSet, VecDeque};
use std::sync::mpsc::Sender;
use std::sync::{Arc, Condvar, Mutex, MutexGuard, PoisonError};

/// One unit of speculative work: explore `cid` after establishing
/// `setup` + `path`.
pub(super) struct Task {
    /// The scheduler-side stack-entry id this result answers.
    pub seq: u64,
    /// Context-setup clicks (shared per pass).
    pub setup: Arc<[String]>,
    /// The candidate control to click.
    pub cid: ControlId,
    /// The click path revealing the candidate.
    pub path: Vec<ControlId>,
}

/// A completed exploration, ready to merge: the post-click capture plus
/// the precomputed fresh-control diff (the pure half of differential
/// capture, computed on the worker).
pub(super) struct Outcome {
    /// The post-click snapshot (its identity index already materialized
    /// by the diff).
    pub post: Arc<Snapshot>,
    /// Post-snapshot indices newly available after the click.
    pub fresh: Vec<u32>,
    /// Whether the click opened a new window.
    pub window_opened: bool,
}

/// One worker answer. Every dispatched task produces exactly one reply —
/// the scheduler's in-flight accounting depends on it — so faults are
/// answers, not silences: `Panicked` reports that the exploration
/// unwound (the unit died with it; the scheduler quarantines the lane),
/// `Unserved` hands the task back because the session pool was empty (a
/// sibling worker died holding a unit; the scheduler re-dispatches).
pub(super) enum Reply {
    Done {
        /// The exploration result (`None` when establish/click failed —
        /// skipped on commit, exactly like the sequential DFS).
        outcome: Option<Outcome>,
        /// The digest of the fork's post-restart base, when serving this
        /// task restarted ([`crate::ripper::snapshot_digest`]). Carried
        /// on the reply — *not* the outcome — because a drifted fork is
        /// most likely to fail its exploration (the control it came to
        /// click got renamed under it): the probe evidence must reach
        /// the scheduler even when there is no outcome to merge. The
        /// scheduler compares it against the lane's seed digest and
        /// quarantines on mismatch before any byte can merge.
        base_digest: Option<u64>,
    },
    Panicked(String),
    Unserved,
    /// A speculative subtree result: the worker kept walking past its
    /// dispatched task and explored `key` on its own initiative. Not an
    /// answer to any dispatched task — the scheduler's in-flight
    /// accounting ignores it — but the probe-digest contract still
    /// applies: a restart during the walk carries its base digest here,
    /// so a drifted fork's speculations quarantine the lane exactly like
    /// its dispatched replies would.
    Spec {
        key: SpecKey,
        outcome: Option<Outcome>,
        base_digest: Option<u64>,
    },
    /// The speculative walk unwound after `Done` was already sent. The
    /// unit died with it; the scheduler treats it like [`Reply::Panicked`]
    /// (quarantine) minus the in-flight bookkeeping.
    SpecPanicked(String),
}

/// Renders a `catch_unwind` payload as text (panic messages are `&str`
/// or `String` in practice).
pub(super) fn panic_payload(p: &(dyn std::any::Any + Send)) -> String {
    if let Some(s) = p.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = p.downcast_ref::<String>() {
        s.clone()
    } else {
        String::from("non-string panic payload")
    }
}

/// A parked exploration unit: one forked session plus the suspended
/// planner state of the last checkout.
pub(super) struct PooledUnit {
    pub session: Session,
    pub state: UnitState,
}

/// Why the queue lock cannot be poisoned: it is held only for queue
/// operations, none of which can panic.
const QUEUE_HELD_BRIEFLY: &str = "the task queue lock is held only for queue operations";

struct Queue {
    tasks: VecDeque<Task>,
    shutdown: bool,
}

/// Everything the worker pool shares: the dispatch queue, the rip
/// configuration and the session pool. The pool starts with one unit per
/// worker, so a checkout never blocks — each running task holds one
/// unit. A panicking exploration destroys its unit (the pool shrinks); a
/// worker finding the pool empty hands the task back as
/// [`Reply::Unserved`] instead of waiting on a pool that may never refill.
pub(super) struct Shared {
    queue: Mutex<Queue>,
    cond: Condvar,
    config: RipConfig,
    units: Mutex<Vec<PooledUnit>>,
    /// Per-walk cap on speculative subtree steps (0 disables walks).
    spec_walk: usize,
}

impl Shared {
    pub fn new(config: RipConfig, units: Vec<PooledUnit>, spec_walk: usize) -> Arc<Shared> {
        Arc::new(Shared {
            queue: Mutex::new(Queue { tasks: VecDeque::new(), shutdown: false }),
            cond: Condvar::new(),
            config,
            units: Mutex::new(units),
            spec_walk,
        })
    }

    /// Enqueues a must-run-next task (the lane is about to block on it),
    /// ahead of every speculative one.
    pub fn push_front(&self, t: Task) {
        self.queue().tasks.push_front(t);
        self.cond.notify_one();
    }

    /// Enqueues a speculative task behind the backlog.
    pub fn push_back(&self, t: Task) {
        self.queue().tasks.push_back(t);
        self.cond.notify_one();
    }

    /// Drops every queued task (the lane quarantined) so no worker burns
    /// time exploring a frontier whose outcome is already failed. Returns
    /// how many were dropped — the lane deducts them from its in-flight
    /// count, since a dropped task never replies.
    pub fn cancel_queued(&self) -> usize {
        self.queue().tasks.drain(..).count()
    }

    /// Wakes every worker and makes further pops return `None`.
    pub fn shutdown(&self) {
        self.queue().shutdown = true;
        self.cond.notify_all();
    }

    fn pop(&self) -> Option<Task> {
        let mut q = self.queue();
        loop {
            // Shutdown wins over queued work: leftover speculative tasks
            // at rip end are dropped, not explored into the void.
            if q.shutdown {
                return None;
            }
            if let Some(t) = q.tasks.pop_front() {
                return Some(t);
            }
            q = self.cond.wait(q).expect(QUEUE_HELD_BRIEFLY);
        }
    }

    fn queue(&self) -> MutexGuard<'_, Queue> {
        self.queue.lock().expect(QUEUE_HELD_BRIEFLY)
    }

    /// Locks the unit pool, shrugging off poison: the pool holds parked
    /// sessions between checkouts, and the lock is never held across
    /// exploration, so a poisoned guard's contents are structurally
    /// intact — the panic happened elsewhere.
    fn units(&self) -> MutexGuard<'_, Vec<PooledUnit>> {
        self.units.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// Drains the session pool at teardown, absorbing every pooled unit's
    /// effort counters and capture-pool counters into `stats`.
    pub fn drain_units(&self, stats: &mut RipStats) {
        for unit in std::mem::take(&mut *self.units()) {
            stats.absorb(&unit.state.stats);
            let cs = unit.session.capture_stats();
            stats.pool_hits += cs.pool_hits;
            stats.pool_misses += cs.pool_misses;
            stats.poison_recoveries += cs.poison_recoveries;
        }
    }
}

/// The worker main loop: pull a task from the queue, check an
/// exploration unit out of the session pool, explore, diff, check the
/// unit back in, send — until shutdown. Effort counters accumulate on the
/// pooled unit's state; the lane drains them at teardown.
///
/// Exploration runs under `catch_unwind`: a panicking application (or a
/// bug in the explore path) kills only the checked-out unit, never the
/// worker thread — the thread reports [`Reply::Panicked`] and moves on.
pub(super) fn worker_loop(shared: Arc<Shared>, results: Sender<(u64, Reply)>) {
    while let Some(task) = shared.pop() {
        let Some(slot) = shared.units().pop() else {
            // A sibling worker panicked and its unit died with it; hand
            // the task back so the scheduler re-dispatches once a unit
            // frees up (or quarantines the lane).
            if results.send((task.seq, Reply::Unserved)).is_err() {
                break;
            }
            continue;
        };
        let PooledUnit { mut session, state } = slot;
        let explore_span = dmi_obs::span(dmi_obs::Cat::Worker, "explore", 0);
        let explored = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            let mut unit = ExploreUnit::resume(&mut session, &shared.config, state);
            let out = unit.explore(&task.setup, &task.cid, &task.path).map(|ex| Outcome {
                window_opened: ex.post.windows().len() > ex.pre.windows().len(),
                fresh: diff_fresh(&ex.pre, &ex.post),
                post: ex.post,
            });
            // Taken unconditionally: a failed exploration on a drifted
            // fork still probed its restart base, and that evidence must
            // reach the scheduler's divergence oracle.
            let digest = unit.take_base_digest();
            (out, digest, unit.suspend())
        }));
        drop(explore_span);
        match explored {
            Ok((outcome, base_digest, state)) => {
                // Seed for the speculative subtree walk, cloned before
                // the outcome moves into the reply. Skipped when walks
                // are disabled.
                let seed = outcome
                    .as_ref()
                    .filter(|_| shared.spec_walk > 0)
                    .map(|o| (Arc::clone(&o.post), o.fresh.clone()));
                let done = Reply::Done { outcome, base_digest };
                match seed {
                    None => {
                        shared.units().push(PooledUnit { session, state });
                        if results.send((task.seq, done)).is_err() {
                            break;
                        }
                    }
                    Some((post, fresh)) => {
                        // Reply first: the scheduler commits the parent
                        // (and can adopt the walk's results) while the
                        // walk runs.
                        if results.send((task.seq, done)).is_err() {
                            break;
                        }
                        match speculative_walk(
                            &shared,
                            &results,
                            &task,
                            &mut session,
                            state,
                            &post,
                            &fresh,
                        ) {
                            Ok(state) => shared.units().push(PooledUnit { session, state }),
                            // Mid-walk unwind: the unit is forfeited
                            // exactly like a dispatched-task panic.
                            Err(payload) => {
                                let reply = Reply::SpecPanicked(payload);
                                if results.send((task.seq, reply)).is_err() {
                                    break;
                                }
                            }
                        }
                    }
                }
            }
            // The session's state is arbitrary mid-unwind; the unit is
            // forfeited (dropped with `session`) and the pool shrinks.
            Err(payload) => {
                let reply = Reply::Panicked(panic_payload(payload.as_ref()));
                if results.send((task.seq, reply)).is_err() {
                    break; // Scheduler gone (it only drops the receiver on exit).
                }
            }
        }
    }
}

/// Predicts which fresh controls of a capture the scheduler's commit
/// will enqueue as candidates, in enqueue order: the candidate-type /
/// blocklist / depth filter of the frontier's `maybe_enqueue`, minus the
/// visited-set and graph-dedup checks only the scheduler can evaluate
/// (a wrong guess there costs a wasted publication, never a byte).
/// `depth` is the length of the click path that would reveal them.
fn predict_children(
    post: &Snapshot,
    fresh: &[u32],
    depth: usize,
    config: &RipConfig,
) -> Vec<ControlId> {
    if depth >= config.max_depth {
        return Vec::new();
    }
    let index = post.index();
    let mut out = Vec::new();
    for &idx in fresh {
        let idx = idx as usize;
        let node = post.node(idx);
        let ct = node.props.control_type;
        if !config.candidate_types.contains(&ct) {
            continue;
        }
        let name = &node.props.name;
        let auto = &node.props.automation_id;
        if config.blocklist.iter().any(|b| b == name || (!auto.is_empty() && b == auto)) {
            continue;
        }
        out.push(index.control_id(post, idx));
    }
    out
}

/// The speculative subtree walk: starting from the fresh controls the
/// just-finished task revealed, keep exploring candidates depth-first —
/// pushed in enqueue order, popped LIFO, exactly the order the
/// scheduler's own DFS will pop them — publishing each result as a
/// [`Reply::Spec`], for at most `spec_walk` steps.
///
/// Each step is the same pure `explore(setup, path, candidate)` the
/// scheduler would have dispatched, run on the same class of pooled
/// unit, so an adopted publication is byte-identical to the dispatched
/// result by construction. Returns the suspended planner state to pool,
/// or the panic payload when a step unwound (the unit is forfeited).
fn speculative_walk(
    shared: &Shared,
    results: &Sender<(u64, Reply)>,
    task: &Task,
    session: &mut Session,
    state: UnitState,
    post: &Arc<Snapshot>,
    fresh: &[u32],
) -> Result<UnitState, String> {
    let root_path: Vec<ControlId> =
        task.path.iter().cloned().chain(std::iter::once(task.cid.clone())).collect();
    let mut stack: Vec<(ControlId, Vec<ControlId>)> =
        predict_children(post, fresh, root_path.len(), &shared.config)
            .into_iter()
            .map(|cid| (cid, root_path.clone()))
            .collect();
    let mut walked: HashSet<ControlId> = HashSet::new();
    let mut state = state;
    let mut steps = 0usize;
    while steps < shared.spec_walk {
        let Some((cid, path)) = stack.pop() else {
            break;
        };
        if !walked.insert(cid.clone()) {
            continue;
        }
        let stepped = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            let span = dmi_obs::span(dmi_obs::Cat::Worker, "spec.explore", 0);
            let mut unit = ExploreUnit::resume(session, &shared.config, state);
            let out = unit.explore(&task.setup, &cid, &path).map(|ex| Outcome {
                window_opened: ex.post.windows().len() > ex.pre.windows().len(),
                fresh: diff_fresh(&ex.pre, &ex.post),
                post: ex.post,
            });
            unit.stats.spec_published += 1;
            dmi_obs::tally("spec.depth", 1);
            let digest = unit.take_base_digest();
            drop(span);
            (out, digest, unit.suspend())
        }));
        let (outcome, base_digest, next_state) = match stepped {
            Ok(v) => v,
            Err(payload) => return Err(panic_payload(payload.as_ref())),
        };
        state = next_state;
        if let Some(o) = &outcome {
            let mut child_path = path.clone();
            child_path.push(cid.clone());
            for child in predict_children(&o.post, &o.fresh, child_path.len(), &shared.config) {
                stack.push((child, child_path.clone()));
            }
        }
        let key = SpecKey { setup: Arc::clone(&task.setup), path, cid };
        let reply = Reply::Spec { key, outcome, base_digest };
        if results.send((task.seq, reply)).is_err() {
            break;
        }
        steps += 1;
    }
    Ok(state)
}
