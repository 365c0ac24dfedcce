//! App-agnostic worker shards: a shared pool of threads exploring
//! candidates for every frontier in the fleet.
//!
//! Workers are not pinned to an application. Each task names its app; the
//! worker checks an exploration unit (a forked `Session` plus suspended
//! §4.1 planner state) out of that app's session pool, explores, and
//! checks the unit back in. Planner state — Esc-recovery epochs, tab
//! dirt, effort counters — travels with the pooled unit, so recovery
//! amortizes across tasks exactly as it did when workers owned one
//! session for life, while any worker can serve any app the moment it
//! goes idle.
//!
//! The dispatch queue is the shared [`FairQueue`] multi-queue (one lane
//! per app; see [`crate::parallel::fairness`] for the policy): urgent
//! tasks — the scheduler is blocked on them right now — always win, and
//! speculative backlogs are served by cost-aware weight, the
//! scheduler-reported remaining DFS stack depth scaled by a worker-fed
//! EWMA of the app's observed per-task latency, ties rotated
//! round-robin. Latency observations make the pick clock-*informed*, but
//! it still shapes only latency, never bytes: per-app merge order is
//! fixed by the scheduler regardless of where or when outcomes are
//! computed.
//!
//! A worker that finishes an exploration does not necessarily return to
//! the queue empty-handed: its session already sits in exactly the
//! post-click state, so — within the cost-aware budget the fair queue
//! grants ([`FairQueue::spec_budget`]) — it keeps walking into the
//! candidates its own fresh capture revealed, publishing each result as
//! a [`Reply::Spec`] keyed by the full exploration input. The scheduler
//! adopts speculations that match its sequential DFS pops and discards
//! the rest; see [`crate::parallel::spec`].

use crate::parallel::fairness::FairQueue;
use crate::parallel::spec::SpecKey;
use crate::ripper::{diff_fresh, ExploreUnit, RipConfig, RipStats, UnitState};
use dmi_gui::Session;
use dmi_uia::{ControlId, Snapshot};
use std::collections::HashSet;
use std::sync::mpsc::Sender;
use std::sync::{Arc, Condvar, Mutex};
use std::time::Instant;

/// One unit of speculative work: explore `cid` for frontier `app` after
/// establishing `setup` + `path`.
pub(super) struct Task {
    /// Fleet index of the frontier this task belongs to.
    pub app: usize,
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
/// unwound (the unit died with it; the scheduler quarantines the app),
/// `Unserved` hands the task back because the app's session pool was
/// empty (a sibling worker died holding a unit; the scheduler
/// re-dispatches).
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

/// Everything the worker pool shares for one app: the rip configuration
/// and the session pool. The pool starts with one unit per worker, so a
/// checkout never blocks — at most `workers` tasks of one app run
/// concurrently, each holding one unit. A panicking exploration destroys
/// its unit (the pool shrinks); a worker finding the pool empty hands
/// the task back as [`Reply::Unserved`] instead of waiting on a pool
/// that may never refill.
pub(super) struct AppShared {
    pub config: Arc<RipConfig>,
    pub units: Mutex<Vec<PooledUnit>>,
}

impl AppShared {
    /// Locks the unit pool, shrugging off poison: the pool holds parked
    /// sessions between checkouts, and the lock is never held across
    /// exploration, so a poisoned guard's contents are structurally
    /// intact — the panic happened elsewhere.
    fn units(&self) -> std::sync::MutexGuard<'_, Vec<PooledUnit>> {
        self.units.lock().unwrap_or_else(std::sync::PoisonError::into_inner)
    }
}

struct QueueState {
    queue: FairQueue<Task>,
    shutdown: bool,
}

/// The fleet's shared dispatch state: the multi-queue and the per-app
/// session pools.
pub(super) struct FleetShared {
    queue: Mutex<QueueState>,
    cond: Condvar,
    pub apps: Vec<AppShared>,
    /// Per-walk cap on speculative subtree steps (0 disables walks).
    spec_walk: usize,
}

impl FleetShared {
    pub fn new(apps: Vec<AppShared>, spec_walk: usize) -> Arc<FleetShared> {
        let lanes = apps.len();
        Arc::new(FleetShared {
            queue: Mutex::new(QueueState { queue: FairQueue::new(lanes), shutdown: false }),
            cond: Condvar::new(),
            apps,
            spec_walk,
        })
    }

    /// Enqueues a must-run-next task (the scheduler is about to block on
    /// it): front of its app's sub-queue, preferred over every
    /// speculative backlog.
    pub fn push_front(&self, t: Task) {
        let mut q = self.queue.lock().unwrap();
        let app = t.app;
        q.queue.push_front(app, t);
        drop(q);
        self.cond.notify_one();
    }

    /// Enqueues a speculative task behind its app's backlog.
    pub fn push_back(&self, t: Task) {
        let mut q = self.queue.lock().unwrap();
        let app = t.app;
        q.queue.push_back(app, t);
        drop(q);
        self.cond.notify_one();
    }

    /// Updates an app's reported remaining stack depth (the count half
    /// of its cost-aware fairness weight).
    pub fn set_depth(&self, app: usize, depth: u64) {
        self.queue.lock().unwrap().queue.set_depth(app, depth);
    }

    /// Folds one worker-observed task latency into the app's cost model
    /// (the seconds half of its cost-aware fairness weight).
    pub fn observe_latency(&self, app: usize, secs: f64) {
        self.queue.lock().unwrap().queue.observe_latency(app, secs);
    }

    /// Drops every queued task for one app (the scheduler quarantined
    /// it) so no worker burns time exploring a frontier whose outcome is
    /// already failed. Returns how many tasks were dropped — the
    /// scheduler deducts them from the lane's in-flight count, since a
    /// purged task will never produce a reply.
    pub fn purge_app(&self, app: usize) -> usize {
        self.queue.lock().unwrap().queue.purge(app)
    }

    /// How many speculative subtree steps a worker that just served
    /// `app` may walk right now: the configured per-walk cap shaped by
    /// the fair queue's cost-aware share policy
    /// ([`FairQueue::spec_budget`]).
    pub fn spec_budget(&self, app: usize) -> usize {
        self.queue.lock().unwrap().queue.spec_budget(app, self.spec_walk)
    }

    /// Wakes every worker and makes further pops return `None`.
    pub fn shutdown(&self) {
        self.queue.lock().unwrap().shutdown = true;
        self.cond.notify_all();
    }

    fn pop(&self) -> Option<Task> {
        let mut q = self.queue.lock().unwrap();
        loop {
            // Shutdown wins over queued work: leftover speculative tasks
            // at rip end are dropped, not explored into the void.
            if q.shutdown {
                return None;
            }
            if let Some(t) = q.queue.pop() {
                return Some(t);
            }
            q = self.cond.wait(q).unwrap();
        }
    }
}

/// The worker main loop: pull a task from the multi-queue, check an
/// exploration unit out of the task's app pool, explore, diff, check the
/// unit back in, send — until shutdown. Effort counters accumulate on the
/// pooled unit's state; the scheduler drains them per app at teardown.
///
/// Exploration runs under `catch_unwind`: a panicking application (or a
/// bug in the explore path) kills only the checked-out unit, never the
/// worker thread — the thread reports [`Reply::Panicked`] and moves on
/// to other apps' tasks, so one hostile frontier cannot take lanes it
/// never served down with it.
pub(super) fn worker_loop(shared: Arc<FleetShared>, results: Sender<(usize, u64, Reply)>) {
    while let Some(task) = shared.pop() {
        let app = &shared.apps[task.app];
        let Some(slot) = app.units().pop() else {
            // A sibling worker panicked and its unit died with it; hand
            // the task back so the scheduler re-dispatches once a unit
            // frees up (or quarantines the app).
            if results.send((task.app, task.seq, Reply::Unserved)).is_err() {
                break;
            }
            continue;
        };
        let PooledUnit { mut session, state } = slot;
        let started = Instant::now();
        let explore_span = dmi_obs::span(dmi_obs::Cat::Worker, "explore", task.app as u64);
        let explored = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            let mut unit = ExploreUnit::resume(&mut session, &app.config, state);
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
        // Feed the cost model on success and failure alike: a hostile
        // app that burns seconds before failing is still expensive.
        shared.observe_latency(task.app, started.elapsed().as_secs_f64());
        match explored {
            Ok((outcome, base_digest, state)) => {
                // Seed for the speculative subtree walk, cloned before
                // the outcome moves into the reply. Skipped when the
                // fair queue grants no budget right now.
                let seed = outcome.as_ref().and_then(|o| {
                    if shared.spec_budget(task.app) == 0 {
                        None
                    } else {
                        Some((Arc::clone(&o.post), o.fresh.clone()))
                    }
                });
                let done = Reply::Done { outcome, base_digest };
                match seed {
                    None => {
                        app.units().push(PooledUnit { session, state });
                        if results.send((task.app, task.seq, done)).is_err() {
                            break;
                        }
                    }
                    Some((post, fresh)) => {
                        // Reply first: the scheduler commits the parent
                        // (and can adopt the walk's results) while the
                        // walk runs.
                        if results.send((task.app, task.seq, done)).is_err() {
                            break;
                        }
                        match speculative_walk(
                            &shared,
                            &results,
                            app,
                            &task,
                            &mut session,
                            state,
                            &post,
                            &fresh,
                        ) {
                            Ok(state) => app.units().push(PooledUnit { session, state }),
                            // Mid-walk unwind: the unit is forfeited
                            // exactly like a dispatched-task panic.
                            Err(payload) => {
                                let reply = Reply::SpecPanicked(payload);
                                if results.send((task.app, task.seq, reply)).is_err() {
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
                if results.send((task.app, task.seq, reply)).is_err() {
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
/// [`Reply::Spec`]. Every step re-consults the fair queue's cost-aware
/// budget, so a sibling lane blocking mid-walk reels the worker back in.
///
/// Each step is the same pure `explore(setup, path, candidate)` the
/// scheduler would have dispatched, run on the same class of pooled
/// unit, so an adopted publication is byte-identical to the dispatched
/// result by construction. Returns the suspended planner state to pool,
/// or the panic payload when a step unwound (the unit is forfeited).
#[allow(clippy::too_many_arguments)]
fn speculative_walk(
    shared: &FleetShared,
    results: &Sender<(usize, u64, Reply)>,
    app: &AppShared,
    task: &Task,
    session: &mut Session,
    state: UnitState,
    post: &Arc<Snapshot>,
    fresh: &[u32],
) -> Result<UnitState, String> {
    let root_path: Vec<ControlId> =
        task.path.iter().cloned().chain(std::iter::once(task.cid.clone())).collect();
    let mut stack: Vec<(ControlId, Vec<ControlId>)> =
        predict_children(post, fresh, root_path.len(), &app.config)
            .into_iter()
            .map(|cid| (cid, root_path.clone()))
            .collect();
    let mut walked: HashSet<ControlId> = HashSet::new();
    let mut state = state;
    let mut steps = 0usize;
    while steps < shared.spec_budget(task.app) {
        let Some((cid, path)) = stack.pop() else {
            break;
        };
        if !walked.insert(cid.clone()) {
            continue;
        }
        let stepped = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            let span = dmi_obs::span(dmi_obs::Cat::Worker, "spec.explore", task.app as u64);
            let mut unit = ExploreUnit::resume(session, &app.config, state);
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
            for child in predict_children(&o.post, &o.fresh, child_path.len(), &app.config) {
                stack.push((child, child_path.clone()));
            }
        }
        let key = SpecKey { setup: Arc::clone(&task.setup), path, cid };
        let reply = Reply::Spec { key, outcome, base_digest };
        if results.send((task.app, task.seq, reply)).is_err() {
            break;
        }
        steps += 1;
    }
    Ok(state)
}

/// Drains an app's session pool at teardown, absorbing every pooled
/// unit's effort counters and capture-pool counters into `stats`.
pub(super) fn drain_pool(app: &AppShared, stats: &mut RipStats) {
    for unit in std::mem::take(&mut *app.units()) {
        stats.absorb(&unit.state.stats);
        let cs = unit.session.capture_stats();
        stats.pool_hits += cs.pool_hits;
        stats.pool_misses += cs.pool_misses;
        stats.poison_recoveries += cs.poison_recoveries;
    }
}
