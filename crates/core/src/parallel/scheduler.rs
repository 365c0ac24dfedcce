//! The fleet entry points and the sharded scheduler: app lanes for
//! multi-entry fleets, one deterministic commit lane over a worker pool
//! for a one-entry fleet, and the sequential rip on one commit path.
//!
//! A multi-entry fleet with two or more workers runs as app lanes
//! ([`run_app_lanes`]): each lane thread takes whole entries and runs the
//! sequential [`rip`] on them. Everything else goes to the sharded engine
//! ([`run_sharded`]): [`FleetPlan`] holds one [`Frontier`] plus lane
//! scheduler state and drives the commit loop on the caller's thread —
//! the lane replays its app's exact sequential DFS (pop → visited-gate →
//! commit, in pop order), while the expensive explorations behind those
//! commits run on the worker pool ([`super::worker`]). The caller parks
//! in `recv` only when the lane cannot progress.
//!
//! [`rip_parallel`] is the 1-entry fleet; the sequential [`rip`] is what
//! an app lane runs and what an entry falls back to when it cannot fork.
//! Every path folds commits through the same
//! `Frontier::seed`/`Frontier::commit` code, which is what keeps every
//! per-app UNG byte-identical to its sequential rip (see the determinism
//! argument in [`crate::parallel`]).

use super::plan::{ParRipConfig, ShardPlan};
use super::spec::SpecTable;
use super::worker::{
    drain_pool, panic_payload, worker_loop, AppShared, FleetShared, Outcome, PooledUnit, Reply,
    Task,
};
use crate::error::RipError;
use crate::graph::Ung;
use crate::ripper::{
    rip, rip_contained, snapshot_digest, Candidate, ExploreUnit, Frontier, RipConfig, RipStats,
    UnitState,
};
use dmi_gui::{CapturePool, CaptureStats, Session};
use std::collections::{HashMap, HashSet};
use std::sync::mpsc::{channel, Receiver};
use std::sync::{Arc, Mutex};
use std::thread;

/// One application in a fleet rip: a session to rip, the configuration to
/// rip it under, and a caller-chosen id naming it in outcomes and panic
/// reports.
pub struct FleetEntry {
    /// Caller-chosen identifier (e.g. `"Word"`, `"Excel-v2"`).
    pub app_id: String,
    /// The session whose application is ripped.
    pub session: Session,
    /// The rip configuration for this entry.
    pub config: RipConfig,
}

impl FleetEntry {
    /// Convenience constructor.
    pub fn new(app_id: impl Into<String>, session: Session, config: RipConfig) -> FleetEntry {
        FleetEntry { app_id: app_id.into(), session, config }
    }
}

/// How one fleet entry's rip concluded.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum RipStatus {
    /// Ripped in parallel and every fault oracle stayed quiet: as an app
    /// lane (a multi-entry fleet; the entry's own sequential rip on a
    /// lane thread, so its graph and [`RipStats`] equal that rip's
    /// exactly — unforkable and `max_clicks` entries included), or
    /// sharded across worker forks (a one-entry fleet).
    Parallel,
    /// Ran on the sequential engine in place, on the caller's thread:
    /// the plan resolved to one worker, or a one-entry fleet could not
    /// shard (the app cannot fork, or `max_clicks` is set). The UNG is
    /// byte-identical either way.
    FellBack,
    /// A determinism oracle fired mid-rip: the parallel merge could no
    /// longer be trusted, so the engine quarantined the lane, threw the
    /// partial merge away, and re-ripped this entry sequentially on the
    /// caller's session with cleared capture caches. The graph is the
    /// sequential reference result; the error records the fault.
    Degraded(RipError),
    /// The rip panicked while serving this entry: on a worker shard of
    /// the sharded engine, or in the entry's own sequential rip (an app
    /// lane, or an in-place rip). The graph holds the partial merge
    /// committed before the fault (every byte of it matches a prefix of
    /// the sequential rip); sibling entries are unaffected.
    Failed(RipError),
}

/// The result of ripping one fleet entry.
pub struct RipOutcome {
    /// The entry's `app_id`, echoed back.
    pub app_id: String,
    /// The merged UNG — byte-identical to this entry's sequential rip
    /// (partial for [`RipStatus::Failed`] entries).
    pub graph: Ung,
    /// Effort counters: the sequential rip's own for app lanes and
    /// in-place rips; for a sharded entry, the scheduler lane's plus every
    /// worker's that served it, capture-pool counters included.
    pub stats: RipStats,
    /// Which engine produced the graph, and whether a fault was
    /// contained along the way.
    pub status: RipStatus,
}

impl RipOutcome {
    /// Whether this entry ran on the sequential fallback engine.
    pub fn fell_back(&self) -> bool {
        matches!(self.status, RipStatus::FellBack)
    }

    /// The contained fault, when one was detected.
    pub fn error(&self) -> Option<&RipError> {
        match &self.status {
            RipStatus::Degraded(e) | RipStatus::Failed(e) => Some(e),
            RipStatus::Parallel | RipStatus::FellBack => None,
        }
    }
}

/// Rips a fleet of applications concurrently, producing — for every
/// entry — a UNG byte-identical to that entry's sequential [`rip`].
/// Outcomes are returned in entry order, one per entry, and a panic in
/// one entry's rip is contained in that entry's outcome
/// ([`RipStatus::Failed`]).
///
/// The fleet takes one of two shapes:
///
/// - **App lanes** (two or more entries, `workers >= 2`): `min(workers,
///   entries)` threads each take whole entries, longest first, and run
///   the sequential [`rip`] on the entry's own session. Every outcome
///   *is* that entry's sequential rip: same bytes, same [`RipStats`].
/// - **Sharded** (one entry): the entry gets a frontier, a session pool
///   of `workers` forks, and a shared [`CapturePool`] so all of its
///   shards serve identical snapshots from one structure. An entry that
///   cannot fork (or uses `max_clicks`) falls back to the sequential
///   engine in place.
///
/// With `workers <= 1` every entry rips sequentially in place.
pub fn rip_fleet(entries: &mut [FleetEntry], par: &ParRipConfig) -> Vec<RipOutcome> {
    let plan = ShardPlan::resolve(par);
    let seeds = entries
        .iter_mut()
        .map(|e| LaneSeed { app_id: e.app_id.clone(), session: &mut e.session, config: &e.config })
        .collect();
    run_fleet(seeds, &plan)
}

/// Rips an application into a UNG using worker shards, producing a graph
/// byte-identical to the sequential [`rip`] — the 1-entry fleet.
///
/// Falls back to the sequential engine when the plan resolves to a single
/// worker, when the application cannot fork from a pristine image, or
/// when `config.max_clicks` is set (its global click gate has no
/// order-independent parallel equivalent).
///
/// A contained panic ([`RipStatus::Failed`]) comes back as its
/// [`RipError::WorkerPanic`]: the single-entry caller asked for one graph
/// and there is no complete one to return. Divergence degrades to the
/// sequential re-rip transparently — the returned graph is the sequential
/// reference result. Use [`rip_fleet`] to observe per-entry [`RipStatus`]
/// instead.
pub fn rip_parallel(
    session: &mut Session,
    config: &RipConfig,
    par: &ParRipConfig,
) -> Result<(Ung, RipStats), RipError> {
    let plan = ShardPlan::resolve(par);
    let seeds = vec![LaneSeed { app_id: String::from("app"), session, config }];
    let outcome = run_fleet(seeds, &plan).pop().expect("one seed yields one outcome");
    match outcome.status {
        RipStatus::Failed(err) => Err(err),
        _ => Ok((outcome.graph, outcome.stats)),
    }
}

/// One lane's inputs, borrowed from the caller.
struct LaneSeed<'a> {
    app_id: String,
    session: &'a mut Session,
    config: &'a RipConfig,
}

/// Shuts the multi-queue down even if the scheduler unwinds (a re-raised
/// worker panic, a poisoned expect): without this, surviving workers
/// would block in the condvar wait forever. Idempotent with the explicit
/// shutdown on the normal path.
struct ShutdownOnDrop(Arc<FleetShared>);
impl Drop for ShutdownOnDrop {
    fn drop(&mut self) {
        self.0.shutdown();
    }
}

/// Runs a fleet in its shape (see [`rip_fleet`]) and returns outcomes in
/// seed order. The `rip.fleet` span covers the whole call on the caller's
/// thread.
fn run_fleet(seeds: Vec<LaneSeed<'_>>, plan: &ShardPlan) -> Vec<RipOutcome> {
    let _fleet_span = dmi_obs::span(dmi_obs::Cat::Rip, "rip.fleet", seeds.len() as u64);
    if plan.workers >= 2 && seeds.len() >= 2 {
        return run_app_lanes(seeds, plan.workers);
    }
    run_sharded(seeds, plan)
}

/// Runs a multi-entry fleet as app lanes: `min(workers, entries)` scoped
/// threads each take whole entries, longest first, and rip each on the
/// entry's own session with the sequential engine ([`run_contained`]).
/// No fork, worker pool or shared capture pool is involved: every session
/// keeps its own capture cache, exactly as under [`rip`].
///
/// "Longest" is estimated from the launch widget count, which reads the
/// application's tree without issuing an accessibility query. Lane order
/// — which thread takes which entry, and when — changes wall time only,
/// never bytes or stats: each outcome is its entry's sequential rip.
///
/// The caller's wait for the lanes is the `scheduler.park` span, so a
/// trace splits the `rip.fleet` span into the join wait and the caller's
/// own work.
fn run_app_lanes(seeds: Vec<LaneSeed<'_>>, workers: usize) -> Vec<RipOutcome> {
    let n = seeds.len();
    let mut queue: Vec<(usize, LaneSeed<'_>)> = seeds.into_iter().enumerate().collect();
    // Sorted shortest first: lanes pop from the back, so they take the
    // longest entry first (the earliest entry among equals).
    queue.sort_by_key(|(idx, seed)| (seed.session.app().tree().len(), std::cmp::Reverse(*idx)));
    let queue = Mutex::new(queue);
    let take = || queue.lock().expect("the lane queue is locked only to pop").pop();

    let mut out: Vec<Option<RipOutcome>> = (0..n).map(|_| None).collect();
    thread::scope(|scope| {
        let lanes: Vec<_> = (0..workers.min(n))
            .map(|_| {
                scope.spawn(|| {
                    let mut done = Vec::new();
                    while let Some((idx, seed)) = take() {
                        done.push((idx, run_contained(seed, RipStatus::Parallel)));
                    }
                    done
                })
            })
            .collect();
        let _park = dmi_obs::span(dmi_obs::Cat::Scheduler, "scheduler.park", 0);
        for lane in lanes {
            for (idx, outcome) in lane.join().expect("app lanes contain rip panics") {
                out[idx] = Some(outcome);
            }
        }
    });
    out.into_iter().map(|o| o.expect("every seed produced an outcome")).collect()
}

/// Runs the sharded engine: each forkable entry becomes a commit lane
/// over one worker pool, and every other entry — all of them with
/// `workers <= 1` — rips sequentially in place first. Only one-entry
/// fleets reach this with `workers >= 2`.
fn run_sharded(seeds: Vec<LaneSeed<'_>>, plan: &ShardPlan) -> Vec<RipOutcome> {
    let n = seeds.len();
    let mut out: Vec<Option<RipOutcome>> = (0..n).map(|_| None).collect();
    let mut lane_seeds: Vec<(usize, LaneSeed<'_>)> = Vec::new();
    let mut app_shared: Vec<AppShared> = Vec::new();

    for (idx, seed) in seeds.into_iter().enumerate() {
        if plan.workers <= 1 || seed.config.max_clicks.is_some() {
            out[idx] = Some(run_contained(seed, RipStatus::FellBack));
            continue;
        }
        // Shared capture pool first: the forks below inherit it, so every
        // shard of this app (the caller's lane session included) serves
        // snapshot hits from one structure.
        seed.session.set_capture_pool(Some(CapturePool::shared()));
        let mut units = Vec::with_capacity(plan.workers);
        for _ in 0..plan.workers {
            match seed.session.fork_from_pristine() {
                Some(s) => units.push(PooledUnit { session: s, state: UnitState::probing() }),
                None => break,
            }
        }
        if units.len() < plan.workers {
            seed.session.set_capture_pool(None);
            out[idx] = Some(run_contained(seed, RipStatus::FellBack));
            continue;
        }
        app_shared.push(AppShared { config: Arc::new(seed.config.clone()), units: units.into() });
        lane_seeds.push((idx, seed));
    }

    if !lane_seeds.is_empty() {
        let shared = FleetShared::new(app_shared, plan.spec_walk);
        let (tx, rx) = channel();
        let handles: Vec<thread::JoinHandle<()>> = (0..plan.workers)
            .map(|_| {
                let shared = Arc::clone(&shared);
                let tx = tx.clone();
                thread::spawn(move || worker_loop(shared, tx))
            })
            .collect();
        drop(tx); // Workers hold the only senders now.
        let _shutdown_guard = ShutdownOnDrop(Arc::clone(&shared));

        let lanes: Vec<Lane<'_>> = lane_seeds
            .into_iter()
            .enumerate()
            .map(|(app, (idx, seed))| Lane::start(app, idx, seed, &shared))
            .collect();
        let dirty = vec![true; lanes.len()];
        let mut fleet = FleetPlan { lanes, dirty, shared: Arc::clone(&shared), rx, plan: *plan };
        fleet.run();

        shared.shutdown();
        for h in handles {
            h.join().expect("worker thread must shut down cleanly");
        }
        fleet.absorb_stragglers();
        for lane in fleet.lanes {
            let (idx, outcome) = lane.finish(&shared);
            out[idx] = Some(outcome);
        }
    }

    out.into_iter().map(|o| o.expect("every seed produced an outcome")).collect()
}

/// Runs one entry on the sequential engine with the panic contained: a
/// clean rip reports `status`, a panicking one [`RipStatus::Failed`] with
/// the partial graph and counters committed before the panic.
fn run_contained(seed: LaneSeed<'_>, status: RipStatus) -> RipOutcome {
    let (graph, stats, panicked) = rip_contained(seed.session, seed.config);
    let status = match panicked {
        None => status,
        Some(p) => RipStatus::Failed(RipError::WorkerPanic {
            app_id: seed.app_id.clone(),
            payload: panic_payload(p.as_ref()),
        }),
    };
    RipOutcome { app_id: seed.app_id, graph, stats, status }
}

/// The fleet execution state: one commit lane (frontier + scheduler
/// state) per app, multiplexed on the caller's thread.
struct FleetPlan<'a> {
    lanes: Vec<Lane<'a>>,
    /// Lanes with newly delivered results since their last pump: a lane
    /// blocked on an outcome can only move when a message for it arrives,
    /// so only dirty lanes are pumped — O(1) routed messages per reply
    /// instead of O(lanes) pump/lock traffic on the commit thread.
    dirty: Vec<bool>,
    shared: Arc<FleetShared>,
    rx: Receiver<(usize, u64, Reply)>,
    plan: ShardPlan,
}

impl FleetPlan<'_> {
    /// The fleet main loop: pump every lane with fresh results as far as
    /// its delivered outcomes allow, keep the speculative window full,
    /// and block on the result channel only when no lane can move.
    fn run(&mut self) {
        loop {
            let mut progressed = false;
            for i in 0..self.lanes.len() {
                if self.dirty[i] {
                    self.dirty[i] = false;
                    progressed |= self.lanes[i].pump(&self.shared);
                }
            }
            self.top_up();
            if self.lanes.iter().all(|l| l.done) {
                break;
            }
            if !progressed {
                let park = dmi_obs::span(dmi_obs::Cat::Scheduler, "scheduler.park", 0);
                let msg = self.rx.recv().expect("a live worker holds a dispatched task");
                drop(park);
                self.route(msg);
            }
            // Drain everything already delivered without blocking.
            while let Ok(msg) = self.rx.try_recv() {
                self.route(msg);
            }
        }
    }

    /// Routes one worker reply to its lane and marks the lane for
    /// pumping. Faults are contained here, never re-raised: a worker
    /// panic quarantines exactly the frontier it was serving, an
    /// `Unserved` hand-back is queued for urgent re-dispatch, and a
    /// quarantined lane silently swallows its stragglers.
    ///
    /// The restart-divergence oracle runs here, on every reply that
    /// carries probe evidence — before the outcome is even filed. A
    /// drifted fork usually *fails* its exploration (the control it was
    /// dispatched to click got renamed under it), so gating the digest
    /// check on a successful outcome would discard exactly the replies
    /// most likely to prove the fault.
    fn route(&mut self, (app, seq, reply): (usize, u64, Reply)) {
        let lane = &mut self.lanes[app];
        match reply {
            Reply::Done { outcome, base_digest } => {
                lane.in_flight -= 1;
                if lane.failed.is_some() {
                    return; // Quarantined: late results are dropped.
                }
                if lane.digest_diverged(base_digest, &self.shared) {
                    self.dirty[app] = true;
                    return;
                }
                if !lane.discarded.remove(&seq) {
                    lane.pending.insert(seq, outcome);
                }
            }
            Reply::Panicked(payload) => {
                lane.in_flight -= 1;
                let err = RipError::WorkerPanic { app_id: lane.app_id.clone(), payload };
                lane.quarantine(err, &self.shared);
            }
            Reply::Unserved => {
                lane.in_flight -= 1;
                if lane.failed.is_some() {
                    return;
                }
                if !lane.discarded.remove(&seq) {
                    lane.unserved.insert(seq);
                }
            }
            // Speculative publications answer no dispatched task: no
            // in-flight bookkeeping, but the probe-digest oracle applies
            // unchanged — a drifted lane's speculations die with it, and
            // a lane that already finished (or failed) wastes them.
            Reply::Spec { key, outcome, base_digest } => {
                if lane.failed.is_some() || lane.done {
                    lane.note_spec_waste(1);
                    return;
                }
                if lane.digest_diverged(base_digest, &self.shared) {
                    // The publication that exposed the drift is waste too
                    // (quarantine already counted the table it cleared).
                    lane.note_spec_waste(1);
                    self.dirty[app] = true;
                    return;
                }
                if !lane.spec.publish(key, outcome) {
                    // Superseded: an earlier walk already published this
                    // key (identical bytes on a deterministic app).
                    lane.note_spec_waste(1);
                }
            }
            Reply::SpecPanicked(payload) => {
                let err = RipError::WorkerPanic { app_id: lane.app_id.clone(), payload };
                lane.quarantine(err, &self.shared);
            }
        }
        self.dirty[app] = true;
    }

    /// After worker shutdown: speculative publications still sitting in
    /// the channel can never be adopted — count them toward their lanes'
    /// waste so every published speculation is accounted for. Every
    /// other straggler keeps its old fate (silently dropped).
    fn absorb_stragglers(&mut self) {
        while let Ok((app, _seq, reply)) = self.rx.try_recv() {
            if let Reply::Spec { .. } = reply {
                self.lanes[app].note_spec_waste(1);
            }
        }
    }

    /// Fills the global speculative window, one task per lane per round
    /// (deterministic round-robin), so no single deep frontier hogs the
    /// whole budget.
    fn top_up(&mut self) {
        let in_flight: usize = self.lanes.iter().map(|l| l.in_flight).sum();
        let Some(mut budget) = self.plan.max_in_flight.checked_sub(in_flight) else { return };
        while budget > 0 {
            let mut any = false;
            for lane in &mut self.lanes {
                if budget == 0 {
                    break;
                }
                if lane.dispatch_one_speculative(&self.shared) {
                    budget -= 1;
                    any = true;
                }
            }
            if !any {
                return;
            }
        }
    }
}

/// The commit-side half of one app's rip: the frontier, the caller-thread
/// exploration unit (used for pass seeding, exactly like the sequential
/// explorer's), and the speculation bookkeeping.
struct Lane<'a> {
    /// Fleet app index (sub-queue / session-pool index).
    app: usize,
    /// Position in the caller's entry slice.
    entry_idx: usize,
    app_id: String,
    unit: ExploreUnit<'a>,
    frontier: Frontier,
    /// Results that arrived before their candidate was popped.
    pending: HashMap<u64, Option<Outcome>>,
    /// Dispatched entries whose candidate was popped as already-visited:
    /// their results are dropped on arrival.
    discarded: HashSet<u64>,
    /// Dispatched entries handed back unserved (the app's unit pool was
    /// momentarily empty): re-dispatched urgently when popped.
    unserved: HashSet<u64>,
    /// Dispatched tasks whose results have not arrived yet.
    in_flight: usize,
    /// Worker-published speculative subtree results awaiting adoption,
    /// keyed by the full exploration input (see [`super::spec`]).
    spec: SpecTable<Option<Outcome>>,
    /// Context-setup clicks of the pass in progress.
    setup: Arc<[String]>,
    /// Next context pass to run once the current pass drains.
    next_context: usize,
    /// The candidate whose outcome the lane is blocked on.
    waiting: Option<Candidate>,
    /// Whether `waiting` was a brand-new candidate revealed by a commit
    /// (urgently dispatched at pop) rather than one already dispatched
    /// speculatively — the stall-attribution tag.
    waiting_revealed: bool,
    /// Tag and wall-clock start of the stall in progress on this lane
    /// (`None` when not blocked or tracing is off). Observation only:
    /// never read by any scheduling decision.
    stall: Option<(&'static str, u64)>,
    done: bool,
    /// The fault that quarantined this lane, if any ([`Lane::quarantine`]).
    failed: Option<RipError>,
    /// Digest of this lane's own seed base ([`snapshot_digest`]): the
    /// reference every worker-side post-restart digest must match.
    base_digest: u64,
    /// Last fairness weight reported to the shared queue (skip the queue
    /// lock when unchanged).
    last_weight: u64,
    /// Caller-session capture counters at lane start (for pool deltas).
    cs0: CaptureStats,
}

impl<'a> Lane<'a> {
    /// Seeds the base pass and reports the initial fairness weight.
    fn start(app: usize, entry_idx: usize, seed: LaneSeed<'a>, shared: &FleetShared) -> Lane<'a> {
        let cs0 = seed.session.capture_stats();
        let mut lane = Lane {
            app,
            entry_idx,
            app_id: seed.app_id,
            unit: ExploreUnit::new(seed.session, seed.config),
            frontier: Frontier::new(),
            pending: HashMap::new(),
            discarded: HashSet::new(),
            unserved: HashSet::new(),
            in_flight: 0,
            spec: SpecTable::new(),
            setup: Arc::from(Vec::new()),
            next_context: 0,
            waiting: None,
            waiting_revealed: false,
            stall: None,
            done: false,
            failed: None,
            base_digest: 0,
            last_weight: 0,
            cs0,
        };
        lane.unit.restart();
        let snap = lane.unit.snapshot();
        lane.base_digest = snapshot_digest(&snap);
        lane.frontier.seed(&snap, &[], lane.unit.config(), &mut lane.unit.stats);
        lane.report_weight(shared);
        lane
    }

    /// Quarantines the lane after a detected fault: records the error,
    /// stops the commit loop, drops all speculation bookkeeping, and
    /// purges the lane's queued tasks (deducting them from the in-flight
    /// count — purged tasks never reply). Sibling lanes are untouched;
    /// stragglers still in worker hands are swallowed by `route`.
    fn quarantine(&mut self, err: RipError, shared: &FleetShared) {
        self.end_stall();
        dmi_obs::instant(dmi_obs::Cat::Scheduler, "quarantine", self.app as u64);
        self.failed = Some(err);
        self.done = true;
        self.waiting = None;
        self.pending.clear();
        self.discarded.clear();
        self.unserved.clear();
        // The lane's speculations die with it: none of them may merge.
        let dead = self.spec.clear();
        self.note_spec_waste(dead);
        self.in_flight -= shared.purge_app(self.app);
        self.last_weight = 0;
    }

    /// The restart-divergence oracle shared by dispatched and speculative
    /// replies: compares carried probe evidence against the lane's seed
    /// digest and quarantines on mismatch. Returns whether the lane was
    /// quarantined.
    fn digest_diverged(&mut self, base_digest: Option<u64>, shared: &FleetShared) -> bool {
        let Some(d) = base_digest else { return false };
        if d == self.base_digest {
            return false;
        }
        let detail = format!(
            "worker fork restarted into base digest {d:#018x}, lane base is {:#018x} (the app's \
             reset does not restore its attested pristine image)",
            self.base_digest
        );
        let err = RipError::Divergence { app_id: self.app_id.clone(), detail };
        self.quarantine(err, shared);
        true
    }

    /// Counts one adopted speculation: the sequential DFS pop matched a
    /// published key exactly, so the lane committed the worker's walk
    /// result without dispatching (or without waiting out the dispatch).
    fn note_adopted(&mut self) {
        self.unit.stats.spec_adopted += 1;
        dmi_obs::tally("spec.adopt", 1);
        dmi_obs::instant(dmi_obs::Cat::Scheduler, "spec.adopt", self.app as u64);
    }

    /// Counts `n` discarded speculations (superseded, orphaned, or
    /// quarantined) — they are dropped, never merged.
    fn note_spec_waste(&mut self, n: usize) {
        if n == 0 {
            return;
        }
        self.unit.stats.spec_wasted += n as u64;
        dmi_obs::tally("spec.waste", n as u64);
        for _ in 0..n {
            dmi_obs::instant(dmi_obs::Cat::Scheduler, "spec.waste", self.app as u64);
        }
    }

    /// Replays the lane's DFS as far as delivered outcomes allow: commits
    /// every candidate whose result is pending, advances passes when the
    /// stack drains, and stops at the first candidate still in flight
    /// (dispatching it urgently if no worker has it yet). Returns whether
    /// anything moved.
    fn pump(&mut self, shared: &FleetShared) -> bool {
        if self.done {
            return false;
        }
        let mut progressed = false;
        loop {
            if let Some(c) = self.waiting.take() {
                if let Some(o) = self.pending.remove(&c.seq) {
                    self.end_stall();
                    progressed = true;
                    self.commit(&c, o);
                    continue;
                }
                // A walk published this exact key while the lane was
                // blocked: adopt it now and discard the dispatched
                // answer when (if ever) it lands — identical bytes, so
                // which one merges is unobservable.
                if let Some(o) = self.spec.take(&self.setup, &c.path, &c.cid) {
                    self.end_stall();
                    if !self.unserved.remove(&c.seq) {
                        self.note_discarded(c.seq);
                    }
                    self.note_adopted();
                    progressed = true;
                    self.commit(&c, o);
                    continue;
                }
                if self.unserved.remove(&c.seq) {
                    // The task came back unserved (a dying sibling took
                    // the unit it needed); re-dispatch it urgently.
                    shared.push_front(self.task_for(&c));
                    self.in_flight += 1;
                }
                self.waiting = Some(c);
                self.begin_stall();
                break;
            }
            let Some(c) = self.frontier.pop() else {
                if self.advance_pass() {
                    progressed = true;
                    continue;
                }
                self.done = true;
                progressed = true;
                break;
            };
            if !self.frontier.visit(&c) {
                if c.dispatched {
                    self.note_discarded(c.seq);
                }
                continue;
            }
            if !c.dispatched {
                // A matching speculation kills the reveal stall outright:
                // the worker that revealed this candidate already walked
                // into it, so the lane commits with zero dispatch.
                if let Some(o) = self.spec.take(&self.setup, &c.path, &c.cid) {
                    self.note_adopted();
                    progressed = true;
                    self.commit(&c, o);
                    continue;
                }
                // The lane blocks on this candidate: dispatch it at the
                // head of its sub-queue.
                shared.push_front(self.task_for(&c));
                self.in_flight += 1;
                self.waiting_revealed = true;
            } else {
                self.waiting_revealed = false;
            }
            self.waiting = Some(c);
        }
        self.report_weight(shared);
        progressed
    }

    /// Opens a stall interval if the lane just blocked and none is open:
    /// `stall.reveal` when the awaited candidate was revealed by a commit
    /// and urgently dispatched at pop, `stall.await` when it was already
    /// in flight speculatively. No-op with tracing off.
    fn begin_stall(&mut self) {
        if self.stall.is_none() && dmi_obs::enabled() {
            let name = if self.waiting_revealed { "stall.reveal" } else { "stall.await" };
            self.stall = Some((name, dmi_obs::now_us()));
        }
    }

    /// Closes the open stall interval (the awaited result was consumed or
    /// the lane was quarantined), emitting it as a scheduler span.
    fn end_stall(&mut self) {
        if let Some((name, start)) = self.stall.take() {
            dmi_obs::complete_span(
                dmi_obs::Cat::Scheduler,
                name,
                self.app as u64,
                start,
                dmi_obs::now_us(),
            );
        }
    }

    /// Reports the lane's remaining stack depth — the count half of its
    /// cost-aware fairness weight (workers feed the latency half) —
    /// taking the queue lock only when the value actually changed.
    fn report_weight(&mut self, shared: &FleetShared) {
        let depth = self.frontier.stack.len() as u64;
        if depth != self.last_weight {
            shared.set_depth(self.app, depth);
            self.last_weight = depth;
        }
    }

    /// Applies one outcome in commit order (`None` means the worker could
    /// not establish or click — counted there, skipped here, exactly like
    /// the sequential DFS). Restart-divergence was already screened at
    /// route time: an outcome only reaches this point if its reply's probe
    /// digest (when any) matched the lane's seed base.
    fn commit(&mut self, c: &Candidate, o: Option<Outcome>) {
        let Some(o) = o else { return };
        if o.window_opened {
            self.unit.stats.windows_seen += 1;
            dmi_obs::tally("rip.windows_seen", 1);
        }
        self.frontier.commit(
            &c.cid,
            &o.post,
            &o.fresh,
            &c.path,
            self.unit.config(),
            &mut self.unit.stats,
        );
    }

    /// Seeds the next context pass whose setup replays successfully;
    /// false when every pass has run.
    fn advance_pass(&mut self) -> bool {
        while self.next_context < self.unit.config().contexts.len() {
            let ctx = &self.unit.config().contexts[self.next_context];
            self.next_context += 1;
            if !self.unit.replay(&ctx.clicks, &[]) {
                continue;
            }
            let snap = self.unit.snapshot();
            // Attach context-revealed controls under the virtual root,
            // then explore within the context (same as the sequential
            // pass).
            self.frontier.seed(&snap, &[], self.unit.config(), &mut self.unit.stats);
            self.setup = Arc::from(ctx.clicks.clone());
            return true;
        }
        false
    }

    /// Marks a dispatched-but-skipped entry so its result is dropped.
    fn note_discarded(&mut self, seq: u64) {
        if self.pending.remove(&seq).is_none() {
            self.discarded.insert(seq);
        }
    }

    /// Speculatively dispatches the topmost undispatched stack candidate
    /// (the next pops); false when none remains. Candidates whose exact
    /// key already has a published speculation are skipped — their
    /// answer is sitting in the table, so dispatching them would only
    /// compute the same bytes twice.
    fn dispatch_one_speculative(&mut self, shared: &FleetShared) -> bool {
        if self.done {
            return false;
        }
        let Some(i) = self
            .frontier
            .stack
            .iter()
            .enumerate()
            .rev()
            .find(|(_, c)| {
                !c.dispatched
                    && !self.frontier.is_visited(c)
                    && !self.spec.contains(&self.setup, &c.path, &c.cid)
            })
            .map(|(i, _)| i)
        else {
            return false;
        };
        self.frontier.stack[i].dispatched = true;
        let c = self.frontier.stack[i].clone();
        shared.push_back(self.task_for(&c));
        self.in_flight += 1;
        true
    }

    fn task_for(&self, c: &Candidate) -> Task {
        Task {
            app: self.app,
            seq: c.seq,
            setup: Arc::clone(&self.setup),
            cid: c.cid.clone(),
            path: c.path.clone(),
        }
    }

    /// Tears the lane down: absorbs every pooled worker unit's counters
    /// and the caller session's capture-pool delta, detaches the shared
    /// capture pool, and yields the outcome.
    ///
    /// A divergence-quarantined lane degrades here: its partial merge is
    /// discarded and the entry re-rips on the sequential reference
    /// engine, using the caller's session with every capture cache
    /// cleared (the caches were built while trusting a reset the oracle
    /// just disproved). A panic-quarantined lane keeps its partial graph
    /// — each committed byte matches a prefix of the sequential rip —
    /// and reports [`RipStatus::Failed`].
    fn finish(mut self, shared: &FleetShared) -> (usize, RipOutcome) {
        // Speculations never popped (visited dedup, pass end) are waste.
        let orphaned = self.spec.clear();
        self.note_spec_waste(orphaned);
        let Lane { app, entry_idx, app_id, mut unit, frontier, cs0, failed, .. } = self;
        let mut stats = unit.stats;
        drain_pool(&shared.apps[app], &mut stats);
        stats.fold_pool_delta(cs0, unit.session().capture_stats());
        unit.session_mut().set_capture_pool(None);
        let status = match failed {
            None => RipStatus::Parallel,
            Some(err @ RipError::Divergence { .. }) => {
                let config = unit.config();
                let session = unit.into_session();
                session.set_capture_config(session.capture_config());
                let (graph, seq_stats) = rip(session, config);
                stats.absorb(&seq_stats);
                let outcome = RipOutcome { app_id, graph, stats, status: RipStatus::Degraded(err) };
                return (entry_idx, outcome);
            }
            Some(err) => RipStatus::Failed(err),
        };
        (entry_idx, RipOutcome { app_id, graph: frontier.g, stats, status })
    }
}
