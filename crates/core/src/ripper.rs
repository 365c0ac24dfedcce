//! GUI ripping: automated UNG construction by differential capture (§4.1).
//!
//! Exploration proceeds depth-first: capture the accessibility tree,
//! activate a candidate control (click), capture again; newly revealed
//! controls define navigation edges. New top-level or modal windows are
//! detected from the window list. A manual *blocklist* skips controls that
//! jump to external applications or trap the UI, and a *context manager*
//! re-explores under manually established contexts (e.g. "an image is
//! selected") to reach context-conditional controls.
//!
//! State restoration between branches prefers the paper's §4.1 fast
//! recovery: the explorer tracks how the current UI state was reached —
//! the tree's persistent-mutation epoch, the open-popup chain and window
//! stack depth, and whether any tab was switched — and presses Esc to
//! collapse transient windows and popups back to a launch-equivalent base
//! before clicking the next candidate's path forward. Only when Esc
//! provably cannot reach that base (trapped UI, tree-visible state
//! mutations, context passes) does it fall back to a full
//! [`Session::restart`] plus path replay. Pure document-model mutations
//! are invisible to the epoch — and to snapshots: the UNG only observes
//! the tree, and any later rendering of document state into widgets goes
//! through tree writes that do move the epoch. The resulting UNG is
//! byte-identical either way; the full-restart strategy stays available
//! behind [`RipConfig::esc_recovery`] as the equivalence oracle.
//!
//! # Shard-reusable exploration units
//!
//! Exploring one candidate — establish its prefix state, click it,
//! capture the pre/post pair — is a pure function of `(setup, path,
//! candidate)` on a deterministic application: `establish` either reaches
//! the provably launch-equivalent base (Esc recovery) or restarts and
//! replays, so the resulting snapshots never depend on what was explored
//! before. The machinery is therefore factored into an [`ExploreUnit`]
//! (one session plus the recovery-planner state) and a [`Frontier`] (the
//! UNG under construction, the visited set, and the DFS stack), connected
//! by the pure [`diff_fresh`] differential. The sequential ripper composes
//! them in a loop; [`crate::parallel`] runs many `ExploreUnit`s on worker
//! threads against one `Frontier` — producing byte-identical UNGs.

use crate::graph::{Ung, UngNode, UngNodeId};
use dmi_gui::Session;
use dmi_uia::{ControlId, ControlIdSet, ControlKey, ControlType, Snapshot};
use std::collections::HashSet;
use std::sync::Arc;

/// A context the explorer establishes before a dedicated exploration pass
/// (§4.1 "Context-aware exploration"). The clicks encode app-specific
/// prior knowledge (e.g. select slide 2, then its image).
#[derive(Debug, Clone)]
pub struct ContextSetup {
    /// Context label (diagnostic only).
    pub name: String,
    /// Control names clicked, in order, to establish the context.
    pub clicks: Vec<String>,
}

/// Ripper configuration.
#[derive(Debug, Clone)]
pub struct RipConfig {
    /// Control types worth clicking during exploration.
    pub candidate_types: Vec<ControlType>,
    /// Control names / automation ids never clicked (external jumps,
    /// traps). Maintaining this list is most of the manual effort (§4.1).
    pub blocklist: Vec<String>,
    /// Maximum click-path depth.
    pub max_depth: usize,
    /// Optional cap on total candidate clicks (debug aid).
    pub max_clicks: Option<usize>,
    /// Context passes to run after the base pass.
    pub contexts: Vec<ContextSetup>,
    /// Prefer Esc-based fast state restoration between sibling candidates
    /// (§4.1) over full restart-replay. Off, every candidate restores
    /// state by restarting the application — the legacy strategy kept as
    /// the equivalence oracle: both settings produce byte-identical UNGs.
    pub esc_recovery: bool,
}

impl Default for RipConfig {
    fn default() -> Self {
        RipConfig {
            candidate_types: vec![
                ControlType::Button,
                ControlType::SplitButton,
                ControlType::MenuItem,
                ControlType::TabItem,
                ControlType::ComboBox,
                ControlType::ListItem,
                ControlType::Hyperlink,
            ],
            blocklist: vec![
                "Account".into(),
                "Feedback".into(),
                "Text to Columns".into(),
                "From Beginning".into(),
                "From Current Slide".into(),
            ],
            max_depth: 12,
            max_clicks: None,
            contexts: Vec::new(),
            esc_recovery: true,
        }
    }
}

impl RipConfig {
    /// The configuration used for the Office case studies, including the
    /// PowerPoint image context.
    pub fn office(app: &str) -> RipConfig {
        let mut c = RipConfig::default();
        if app == "PowerPoint" {
            c.contexts.push(ContextSetup {
                name: "image-selected".into(),
                clicks: vec!["Slide 2".into(), "image 2".into()],
            });
        }
        c
    }
}

/// Statistics from one rip.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct RipStats {
    /// Candidate controls clicked.
    pub clicks: u64,
    /// Snapshots captured.
    pub snapshots: u64,
    /// Application restarts (state restoration fallback).
    pub restarts: u64,
    /// Candidates whose prefix state was restored by Esc instead of a
    /// restart (§4.1 fast recovery).
    pub esc_recoveries: u64,
    /// Esc presses spent collapsing transient windows and popups.
    pub esc_presses: u64,
    /// Candidates skipped by the blocklist.
    pub blocklisted: u64,
    /// Candidates skipped because replay failed.
    pub replay_failures: u64,
    /// New windows observed opening.
    pub windows_seen: u64,
    /// Captures served from a shared cross-session capture pool (fleet
    /// engines attach one per app; see `dmi_gui::CapturePool`).
    pub pool_hits: u64,
    /// Pool probes that found no pooled capture.
    pub pool_misses: u64,
    /// Poisoned capture-pool locks recovered by discarding the pooled
    /// entries and rebuilding (fail-soft: a shard that dies holding the
    /// pool lock costs cached captures, never correctness).
    pub poison_recoveries: u64,
    /// Speculative subtree steps published by workers: each is one
    /// `explore` of a freshly revealed candidate the worker walked into
    /// without waiting for the scheduler to dispatch it.
    pub spec_published: u64,
    /// Published speculations the scheduler adopted because the
    /// sequential DFS pop matched the speculation key exactly.
    pub spec_adopted: u64,
    /// Published speculations discarded without merging: superseded at
    /// publish, orphaned at teardown, or invalidated when their lane
    /// quarantined.
    pub spec_wasted: u64,
}

impl RipStats {
    /// Element-wise accumulation: the parallel engine aggregates the
    /// scheduler's counters with every worker shard's.
    pub fn absorb(&mut self, other: &RipStats) {
        self.clicks += other.clicks;
        self.snapshots += other.snapshots;
        self.restarts += other.restarts;
        self.esc_recoveries += other.esc_recoveries;
        self.esc_presses += other.esc_presses;
        self.blocklisted += other.blocklisted;
        self.replay_failures += other.replay_failures;
        self.windows_seen += other.windows_seen;
        self.pool_hits += other.pool_hits;
        self.pool_misses += other.pool_misses;
        self.poison_recoveries += other.poison_recoveries;
        self.spec_published += other.spec_published;
        self.spec_adopted += other.spec_adopted;
        self.spec_wasted += other.spec_wasted;
    }

    /// Folds a session's capture-pool counter delta into the rip stats
    /// (engines call this once per session at the end of a rip).
    pub(crate) fn fold_pool_delta(
        &mut self,
        before: dmi_gui::CaptureStats,
        after: dmi_gui::CaptureStats,
    ) {
        self.pool_hits += after.pool_hits - before.pool_hits;
        self.pool_misses += after.pool_misses - before.pool_misses;
        self.poison_recoveries += after.poison_recoveries - before.poison_recoveries;
    }
}

/// One candidate awaiting exploration: the control, its fingerprint, the
/// click path that reveals it, and scheduler bookkeeping (`seq` uniquely
/// identifies the stack entry; `dispatched` marks entries the parallel
/// engine has already handed to a worker — the sequential ripper ignores
/// both).
#[derive(Debug, Clone)]
pub(crate) struct Candidate {
    pub cid: ControlId,
    pub key: ControlKey,
    pub path: Vec<ControlId>,
    pub seq: u64,
    pub dispatched: bool,
}

/// The pre/post capture pair produced by exploring one candidate.
pub(crate) struct Explored {
    pub pre: Arc<Snapshot>,
    pub post: Arc<Snapshot>,
}

/// A shard-reusable exploration unit: one session plus the §4.1 recovery
/// planner. [`ExploreUnit::explore`] is a pure function of `(setup, path,
/// candidate)` — state is always (re-)established from a provably
/// launch-equivalent base first — so units can run in any order, on any
/// thread, and produce the same capture pairs the sequential DFS would.
pub(crate) struct ExploreUnit<'a> {
    session: &'a mut Session,
    config: &'a RipConfig,
    /// Effort counters accumulated by this unit.
    pub stats: RipStats,
    /// The tree's persistent-mutation epoch recorded at the last restart.
    /// While it holds, the only state accumulated since the restart is
    /// transient (windows, popups) or tab selection — exactly what Esc
    /// plus a forward replay can neutralize.
    base_epoch: u64,
    /// Whether any main-window tab was clicked since the last restart.
    /// Tab selection survives Esc; it self-heals only when the next
    /// forward click is itself a tab (selecting a tab deselects its
    /// siblings).
    tab_dirty: bool,
    /// The main-window tabs clicked since the last restart. Sibling-click
    /// self-healing cannot cover re-exploring one of *these*: the tab may
    /// still be selected, so the pre-capture would already show its
    /// children and the differential would come back empty. In-DFS-order
    /// task streams never re-explore a clicked tab (a tab is explored
    /// before it ever appears in a path), but speculative subtree walks
    /// click tabs out of order — exploring one of these afterwards forces
    /// a full restart instead.
    clicked_tabs: HashSet<ControlId>,
    /// Whether a tab *inside a dialog* was clicked since the last
    /// restart. Dialog-internal tab selection survives Esc-closing the
    /// dialog, and replaying a path re-opens the dialog without
    /// re-selecting its default tab — nothing heals it, so only a
    /// restart clears this.
    dialog_tab_dirty: bool,
    /// Whether every restart should capture and digest the fresh base
    /// (worker-pool units only — see [`UnitState::probing`]). The extra
    /// base capture is byte-safe: late-load reveal schedules are relative
    /// to the click-time query sequence, so an additional query between
    /// restart and replay shifts no reveal boundary.
    probe_base: bool,
    /// The digest recorded by the most recent probing restart, taken by
    /// the worker after each exploration ([`ExploreUnit::take_base_digest`]).
    last_base_digest: Option<u64>,
}

/// Rips an application into a UNG (sequential reference implementation).
/// A multi-entry [`crate::parallel::rip_fleet`] runs this very rip on one
/// thread per application (app lanes), so its outcomes match it by
/// construction; [`crate::parallel::rip_parallel`] shards one application
/// across worker forks and matches it byte for byte.
pub fn rip(session: &mut Session, config: &RipConfig) -> (Ung, RipStats) {
    let (graph, stats, panicked) = rip_contained(session, config);
    if let Some(payload) = panicked {
        std::panic::resume_unwind(payload);
    }
    (graph, stats)
}

/// [`rip`] with its exploration passes under `catch_unwind`: a panicking
/// application ends the rip early, and the graph and counters committed
/// before the panic come back beside the panic payload instead of being
/// lost to the unwind.
pub(crate) fn rip_contained(
    session: &mut Session,
    config: &RipConfig,
) -> (Ung, RipStats, Option<Box<dyn std::any::Any + Send>>) {
    let _rip_span = dmi_obs::span(dmi_obs::Cat::Rip, "rip.sequential", 0);
    let cs0 = session.capture_stats();
    let mut ex = Explorer { unit: ExploreUnit::new(session, config), frontier: Frontier::new() };
    let panicked = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
        ex.base_pass();
        for ctx in &config.contexts {
            ex.context_pass(ctx);
        }
    }))
    .err();
    let Explorer { unit, frontier } = ex;
    let mut stats = unit.stats;
    stats.fold_pool_delta(cs0, unit.session().capture_stats());
    (frontier.g, stats, panicked)
}

/// The suspended, thread-portable half of an [`ExploreUnit`]: its effort
/// counters plus the §4.1 recovery-planner state. Fleet engines park this
/// next to a pooled worker session between task checkouts, so the planner
/// amortizes across tasks exactly as it does when one worker owns the
/// session for life.
#[derive(Debug, Clone, Default)]
pub(crate) struct UnitState {
    pub stats: RipStats,
    base_epoch: u64,
    tab_dirty: bool,
    clicked_tabs: HashSet<ControlId>,
    dialog_tab_dirty: bool,
    probe_base: bool,
}

impl UnitState {
    /// The initial state for a worker-pool unit: base-digest probing —
    /// every restart captures the fresh base and digests it so the
    /// scheduler can cross-check worker bases against the lane's (the
    /// fleet divergence oracle). The recovery planner starts *poisoned*
    /// (`dialog_tab_dirty`), forcing the unit's first establish to
    /// restart: a fork's launch state is unattested until its first
    /// probed restart, so every unit records at least one base digest
    /// before any of its bytes can merge. Lane and sequential units
    /// never probe, keeping their capture counts pinned.
    pub fn probing() -> UnitState {
        UnitState { probe_base: true, dialog_tab_dirty: true, ..UnitState::default() }
    }
}

impl<'a> ExploreUnit<'a> {
    pub fn new(session: &'a mut Session, config: &'a RipConfig) -> ExploreUnit<'a> {
        Self::resume(session, config, UnitState::default())
    }

    /// Re-attaches a unit to a session using planner state suspended by
    /// an earlier checkout (see [`UnitState`]).
    pub fn resume(
        session: &'a mut Session,
        config: &'a RipConfig,
        state: UnitState,
    ) -> ExploreUnit<'a> {
        ExploreUnit {
            session,
            config,
            stats: state.stats,
            base_epoch: state.base_epoch,
            tab_dirty: state.tab_dirty,
            clicked_tabs: state.clicked_tabs,
            dialog_tab_dirty: state.dialog_tab_dirty,
            probe_base: state.probe_base,
            last_base_digest: None,
        }
    }

    /// Detaches the planner state for parking next to a pooled session.
    pub fn suspend(&self) -> UnitState {
        UnitState {
            stats: self.stats,
            base_epoch: self.base_epoch,
            tab_dirty: self.tab_dirty,
            clicked_tabs: self.clicked_tabs.clone(),
            dialog_tab_dirty: self.dialog_tab_dirty,
            probe_base: self.probe_base,
        }
    }

    /// The session this unit drives.
    pub fn session(&self) -> &Session {
        self.session
    }

    /// Mutable access to the driven session (fleet teardown detaches the
    /// shared capture pool through this).
    pub fn session_mut(&mut self) -> &mut Session {
        self.session
    }

    /// The rip configuration this unit explores under.
    pub fn config(&self) -> &'a RipConfig {
        self.config
    }

    pub fn snapshot(&mut self) -> Arc<Snapshot> {
        self.stats.snapshots += 1;
        dmi_obs::tally("rip.snapshots", 1);
        self.session.snapshot()
    }

    pub fn restart(&mut self) {
        self.stats.restarts += 1;
        dmi_obs::tally("rip.restarts", 1);
        self.session.restart();
        self.base_epoch = self.session.ui_state_epoch();
        self.tab_dirty = false;
        self.clicked_tabs.clear();
        self.dialog_tab_dirty = false;
        if self.probe_base {
            let snap = self.snapshot();
            self.last_base_digest = Some(snapshot_digest(&snap));
        }
    }

    /// Takes the digest recorded by the most recent probing restart
    /// (`None` when no restart ran since the last take, or the unit does
    /// not probe). Workers attach this to each outcome so the scheduler
    /// can compare it against the lane's own base digest.
    pub fn take_base_digest(&mut self) -> Option<u64> {
        self.last_base_digest.take()
    }

    /// Consumes the unit, releasing its session borrow (the fleet's
    /// quarantine path re-rips the caller session sequentially).
    pub fn into_session(self) -> &'a mut Session {
        self.session
    }

    /// Records a successful click on a tab: main-window tabs are
    /// self-healing (their identity is remembered — see
    /// [`ExploreUnit::clicked_tabs`]), dialog-internal tabs poison
    /// recovery until restart.
    fn note_tab_click(&mut self, cid: &ControlId) {
        if self.session.window_depth() > 1 {
            self.dialog_tab_dirty = true;
        } else {
            self.tab_dirty = true;
            self.clicked_tabs.insert(cid.clone());
        }
    }

    /// Resolves a modeled control id in a snapshot by exact match — O(1)
    /// through the snapshot identity index (arena-order tie-break, exactly
    /// like the linear scan it replaces).
    fn resolve(snap: &Snapshot, cid: &ControlId) -> Option<usize> {
        snap.resolve(cid)
    }

    /// Replays a click path from a fresh start; returns false on failure.
    pub fn replay(&mut self, setup: &[String], path: &[ControlId]) -> bool {
        self.restart();
        self.walk(setup, path, true)
    }

    /// Clicks the setup names and path controls forward from the current
    /// state. `count_failures` controls whether a miss is recorded in the
    /// stats — a speculative fast-recovery walk retries with a clean
    /// restart instead of charging a replay failure.
    fn walk(&mut self, setup: &[String], path: &[ControlId], count_failures: bool) -> bool {
        for name in setup {
            let snap = self.snapshot();
            let Some(idx) = snap.find_by_name(name) else {
                return false;
            };
            let wid = self.session.widget_of(snap.node(idx).runtime_id);
            if self.session.click(wid).is_err() {
                return false;
            }
        }
        for cid in path {
            let snap = self.snapshot();
            let Some(idx) = Self::resolve(&snap, cid) else {
                if count_failures {
                    self.stats.replay_failures += 1;
                    dmi_obs::tally("rip.replay_failures", 1);
                }
                return false;
            };
            let wid = self.session.widget_of(snap.node(idx).runtime_id);
            self.stats.clicks += 1;
            dmi_obs::tally("rip.clicks", 1);
            if self.session.click(wid).is_err() {
                if count_failures {
                    self.stats.replay_failures += 1;
                    dmi_obs::tally("rip.replay_failures", 1);
                }
                return false;
            }
            if cid.control_type == ControlType::TabItem {
                self.note_tab_click(cid);
            }
        }
        true
    }

    /// Whether the candidate's prefix state is reachable by Esc-based fast
    /// recovery from the current state — the §4.1 planner. Requires the
    /// base pass (context setups establish state Esc cannot re-create),
    /// an un-trapped UI, no persistent *tree-visible* mutation since the
    /// last restart (document-model state the tree never renders is
    /// outside the epoch, and outside what snapshots — hence the UNG —
    /// can observe), no surviving dialog-internal tab selection, and
    /// either untouched main-window tabs or a path that re-selects one
    /// first.
    fn can_recover(&self, setup: &[String], cid: &ControlId, path: &[ControlId]) -> bool {
        if !self.config.esc_recovery || !setup.is_empty() || self.session.is_trapped() {
            return false;
        }
        if self.session.ui_state_epoch() != self.base_epoch || self.dialog_tab_dirty {
            return false;
        }
        if self.tab_dirty {
            // Re-exploring a tab this unit already clicked is the one
            // case sibling-click self-healing cannot cover: the tab may
            // still be selected, so the pre-capture would already show
            // its children and the reveal diff would come back empty.
            // Only a speculative subtree walk puts a unit in this spot —
            // sequential-order task streams explore a tab before it ever
            // appears in a path.
            if cid.control_type == ControlType::TabItem && self.clicked_tabs.contains(cid) {
                return false;
            }
            // A path starting with a (main-window) tab deselects whatever
            // tab is stale; the first path click always happens with only
            // the main window open, so it can never be a dialog tab.
            let first = path.first().map_or(cid.control_type, |c| c.control_type);
            return first == ControlType::TabItem;
        }
        true
    }

    /// Establishes the candidate's prefix state: launch state plus the
    /// clicks in `path`. Prefers Esc-based fast restoration; falls back to
    /// a full restart + replay when the planner refuses or the fast walk
    /// diverges from the modeled path.
    fn establish(&mut self, setup: &[String], cid: &ControlId, path: &[ControlId]) -> bool {
        if self.can_recover(setup, cid, path) {
            let (at_base, presses) = self.session.escape_to_base();
            self.stats.esc_presses += presses;
            dmi_obs::tally("rip.esc_presses", presses);
            // A window closed by Esc runs its cancel handler; re-check
            // the epoch before trusting the collapsed state as base.
            if at_base
                && self.session.ui_state_epoch() == self.base_epoch
                && self.walk(setup, path, false)
            {
                self.stats.esc_recoveries += 1;
                dmi_obs::tally("rip.esc_recoveries", 1);
                return true;
            }
        }
        self.replay(setup, path)
    }

    /// Explores one candidate: establishes its prefix state, clicks it
    /// (recovering from stray modal windows with Esc), and captures the
    /// pre/post snapshot pair. `None` when the state could not be
    /// established or the click failed (counted as a replay failure,
    /// exactly like the sequential DFS).
    pub fn explore(
        &mut self,
        setup: &[String],
        cid: &ControlId,
        path: &[ControlId],
    ) -> Option<Explored> {
        if !self.establish(setup, cid, path) {
            return None;
        }
        // A replayed path can leave a stray modal window above the
        // candidate (e.g. a picture-insert dialog whose side effect
        // revealed the candidate). Recover with Esc, like the paper's
        // standard-command state restoration.
        let mut pre = self.snapshot();
        let mut clicked_ok = false;
        for _attempt in 0..3 {
            let Some(idx) = Self::resolve(&pre, cid) else {
                break;
            };
            let node = pre.node(idx);
            if !node.props.enabled {
                break;
            }
            if !pre.is_available(idx) {
                if self.session.press("Esc").is_err() {
                    break;
                }
                self.stats.esc_presses += 1;
                dmi_obs::tally("rip.esc_presses", 1);
                pre = self.snapshot();
                continue;
            }
            let wid = self.session.widget_of(node.runtime_id);
            self.stats.clicks += 1;
            dmi_obs::tally("rip.clicks", 1);
            clicked_ok = self.session.click(wid).is_ok();
            break;
        }
        if !clicked_ok {
            self.stats.replay_failures += 1;
            dmi_obs::tally("rip.replay_failures", 1);
            return None;
        }
        if cid.control_type == ControlType::TabItem {
            self.note_tab_click(cid);
        }
        let post = self.snapshot();
        Some(Explored { pre, post })
    }
}

/// The pure half of differential capture (§4.1): post-snapshot arena
/// indices of controls *available* after the click but not before.
/// Availability (not mere tree presence) is the right diff domain: a
/// modal dialog removes the main window's controls from the available
/// set, so its OK/Cancel buttons gain back-edges to the re-revealed
/// window — the cycles §3.2 decycles away.
///
/// The "present before?" test runs against the pre-snapshot's identity
/// index: each post node's [`ControlKey`] probes the pre key-multimap and
/// collision-confirms component-wise. Depends only on the two snapshots —
/// the parallel engine computes it on worker threads.
pub(crate) fn diff_fresh(pre: &Snapshot, post: &Snapshot) -> Vec<u32> {
    let pre_ix = pre.index();
    let post_ix = post.index();
    // One probe per post node follows: amortize the multimap.
    pre_ix.key_multimap();
    let mut fresh = Vec::new();
    for (idx, node) in post.iter() {
        if !post.is_available(idx) {
            continue;
        }
        let key = post_ix.key(idx);
        // Identical control available before the click? (Identity is
        // compared component-wise: primary id, type, cached path.)
        let existed_before = pre_ix.candidates(key).any(|i| {
            let pn = &pre.node(i).props;
            pre.is_available(i)
                && pn.control_type == node.props.control_type
                && pn.primary_id() == node.props.primary_id()
                && pre_ix.path(i) == post_ix.path(idx)
        });
        if !existed_before {
            fresh.push(idx as u32);
        }
    }
    fresh
}

/// A structural FNV-1a digest of a snapshot: arena order, parentage, the
/// window list, and every capture-visible property. Two launch-equivalent
/// bases built by the same deterministic application digest equal; a fork
/// whose reset drifted (nondeterministic relabel, leaked state) digests
/// differently. The fleet scheduler compares worker-side post-restart
/// digests against its lane's seed digest, catching divergence *before*
/// a wrong byte can merge into the UNG.
pub(crate) fn snapshot_digest(snap: &Snapshot) -> u64 {
    fn eat(h: &mut u64, bytes: &[u8]) {
        for &b in bytes {
            *h = (*h ^ b as u64).wrapping_mul(0x100_0000_01b3);
        }
    }
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for (idx, node) in snap.iter() {
        eat(&mut h, &(idx as u64).to_le_bytes());
        eat(&mut h, &node.parent.map_or(u64::MAX, |p| p as u64).to_le_bytes());
        let p = &node.props;
        let fields = format!(
            "{:?}\x1f{}\x1f{}\x1f{}\x1f{}\x1f{:?}\x1f{}\x1f{:?}",
            p.control_type,
            p.name,
            p.automation_id,
            p.value,
            p.enabled,
            p.toggle,
            p.selected,
            p.expanded,
        );
        eat(&mut h, fields.as_bytes());
    }
    for &w in snap.windows() {
        eat(&mut h, &(w as u64).to_le_bytes());
    }
    h
}

/// The UNG under construction plus the exploration frontier: the visited
/// set and the DFS stack. All graph mutation goes through [`Frontier::seed`]
/// and [`Frontier::commit`]; committing outcomes in the same order always
/// produces the same graph bytes, which is what lets the parallel engine
/// interleave *exploration* freely while keeping *commits* sequential.
pub(crate) struct Frontier {
    pub g: Ung,
    /// Controls already explored (or blocklisted), keyed by
    /// [`ControlKey`] with full-id confirmation — no per-probe string
    /// encoding or hashing.
    visited: ControlIdSet,
    /// DFS stack of candidates (top = next to explore).
    pub stack: Vec<Candidate>,
    /// Sequence counter assigning stack entries unique ids.
    next_seq: u64,
}

impl Frontier {
    pub fn new() -> Frontier {
        Frontier { g: Ung::new(), visited: ControlIdSet::new(), stack: Vec::new(), next_seq: 0 }
    }

    /// Pops the next candidate (LIFO — depth-first).
    pub fn pop(&mut self) -> Option<Candidate> {
        self.stack.pop()
    }

    /// Marks a candidate visited; false when it already was (skip it).
    pub fn visit(&mut self, c: &Candidate) -> bool {
        self.visited.insert(c.key, &c.cid)
    }

    /// Whether a candidate is already visited (without marking).
    pub fn is_visited(&self, c: &Candidate) -> bool {
        self.visited.contains(c.key, &c.cid)
    }

    /// Seeds the UNG from an initial snapshot: hierarchy edges for every
    /// visible control, window roots under the virtual root; newly seen
    /// candidates are pushed onto the stack.
    pub fn seed(
        &mut self,
        snap: &Snapshot,
        path: &[ControlId],
        config: &RipConfig,
        stats: &mut RipStats,
    ) {
        let root = self.g.root();
        let index = snap.index();
        let mut ids: Vec<Option<UngNodeId>> = vec![None; snap.len()];
        for (idx, node) in snap.iter() {
            let cid = index.control_id(snap, idx);
            let key = index.key(idx);
            self.maybe_enqueue(
                &cid,
                key,
                node.props.control_type,
                &node.props.name,
                &node.props.automation_id,
                path,
                config,
                stats,
            );
            // `cid` is consumed by the UNG node — no per-node clone.
            let gid = self.g.add_node_with_key(
                UngNode {
                    control: cid,
                    name: node.props.name.clone(),
                    control_type: node.props.control_type,
                    help_text: node.props.help_text.clone(),
                },
                key,
            );
            ids[idx] = Some(gid);
            match node.parent {
                Some(p) => {
                    if let Some(pg) = ids[p] {
                        self.g.add_edge(pg, gid);
                    }
                }
                None => {
                    self.g.add_edge(root, gid);
                }
            }
        }
    }

    #[allow(clippy::too_many_arguments)]
    fn maybe_enqueue(
        &mut self,
        cid: &ControlId,
        key: ControlKey,
        ct: ControlType,
        name: &str,
        auto: &str,
        path: &[ControlId],
        config: &RipConfig,
        stats: &mut RipStats,
    ) {
        if !config.candidate_types.contains(&ct) {
            return;
        }
        if self.visited.contains(key, cid) {
            return;
        }
        if config.blocklist.iter().any(|b| b == name || (!auto.is_empty() && b == auto)) {
            self.visited.insert(key, cid);
            stats.blocklisted += 1;
            dmi_obs::tally("rip.blocklisted", 1);
            return;
        }
        if path.len() >= config.max_depth {
            return;
        }
        let seq = self.next_seq;
        self.next_seq += 1;
        self.stack.push(Candidate {
            cid: cid.clone(),
            key,
            path: path.to_vec(),
            seq,
            dispatched: false,
        });
    }

    /// Merges one exploration outcome into the UNG: every fresh control
    /// (see [`diff_fresh`]) is dedup-inserted through the [`ControlKey`]
    /// hash+confirm index, gains an edge from its revealer, and — when
    /// genuinely new — is enqueued for its own exploration.
    pub fn commit(
        &mut self,
        clicked: &ControlId,
        post: &Snapshot,
        fresh: &[u32],
        path: &[ControlId],
        config: &RipConfig,
        stats: &mut RipStats,
    ) {
        let post_ix = post.index();
        let clicked_gid = self.g.find(clicked).expect("clicked control must already be a UNG node");
        let mut new_gid: Vec<Option<UngNodeId>> = vec![None; post.len()];
        let child_path: Vec<ControlId> = {
            let mut p = path.to_vec();
            p.push(clicked.clone());
            p
        };
        for &idx in fresh {
            let idx = idx as usize;
            let node = post.node(idx);
            let key = post_ix.key(idx);
            let cid = post_ix.control_id(post, idx);
            let existed = self.g.find_with_key(&cid, key).is_some();
            if !existed {
                self.maybe_enqueue(
                    &cid,
                    key,
                    node.props.control_type,
                    &node.props.name,
                    &node.props.automation_id,
                    &child_path,
                    config,
                    stats,
                );
            }
            let gid = self.g.add_node_with_key(
                UngNode {
                    control: cid,
                    name: node.props.name.clone(),
                    control_type: node.props.control_type,
                    help_text: node.props.help_text.clone(),
                },
                key,
            );
            new_gid[idx] = Some(gid);
            // Edge source: the snapshot parent when it is also new (deep
            // hierarchy), else the clicked control.
            let src = node.parent.and_then(|p| new_gid[p]).unwrap_or(clicked_gid);
            self.g.add_edge(src, gid);
        }
    }
}

/// The sequential explorer: one [`ExploreUnit`] driving one [`Frontier`].
struct Explorer<'a> {
    unit: ExploreUnit<'a>,
    frontier: Frontier,
}

impl Explorer<'_> {
    fn base_pass(&mut self) {
        self.unit.restart();
        let snap = self.unit.snapshot();
        self.frontier.seed(&snap, &[], self.unit.config, &mut self.unit.stats);
        self.drain(&[]);
    }

    fn context_pass(&mut self, ctx: &ContextSetup) {
        if !self.unit.replay(&ctx.clicks, &[]) {
            return;
        }
        let snap = self.unit.snapshot();
        // Attach context-revealed controls under the virtual root (they
        // appeared because of the context, not a modeled click), then
        // explore within the context.
        self.frontier.seed(&snap, &[], self.unit.config, &mut self.unit.stats);
        self.drain(&ctx.clicks);
    }

    fn drain(&mut self, setup: &[String]) {
        while let Some(c) = self.frontier.pop() {
            if !self.frontier.visit(&c) {
                continue;
            }
            if let Some(cap) = self.unit.config.max_clicks {
                if self.unit.stats.clicks >= cap as u64 {
                    return;
                }
            }
            let Some(ex) = self.unit.explore(setup, &c.cid, &c.path) else {
                continue;
            };
            if ex.post.windows().len() > ex.pre.windows().len() {
                self.unit.stats.windows_seen += 1;
                dmi_obs::tally("rip.windows_seen", 1);
            }
            let fresh = diff_fresh(&ex.pre, &ex.post);
            self.frontier.commit(
                &c.cid,
                &ex.post,
                &fresh,
                &c.path,
                self.unit.config,
                &mut self.unit.stats,
            );
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::testutil::small_rip;
    use dmi_apps::AppKind;

    fn rip_small(kind: AppKind) -> (Ung, RipStats) {
        let (g, stats) = small_rip(kind);
        let mut g = g.clone();
        g.rebuild_index();
        (g, *stats)
    }

    #[test]
    fn word_rip_covers_ribbon_and_galleries() {
        let (g, stats) = rip_small(AppKind::Word);
        assert!(g.node_count() > 1500, "got {} nodes", g.node_count());
        assert!(stats.clicks > 500);
        // The Find & Replace dialog was discovered.
        assert!(g.ids().any(|i| g.node(i).name == "Find and Replace"));
        // Color cells discovered under menus.
        assert!(g.ids().any(|i| g.node(i).name == "Blue"));
    }

    #[test]
    fn word_rip_produces_merge_nodes_and_cycles() {
        let (mut g, _) = rip_small(AppKind::Word);
        assert!(!g.merge_nodes().is_empty(), "shared dialogs must appear as merge nodes");
        assert!(!crate::topology::is_acyclic(&g), "close buttons create cycles");
        let stats = crate::topology::decycle(&mut g);
        assert!(stats.back_edges_removed > 0);
    }

    #[test]
    fn blocklist_is_respected() {
        let (g, stats) = rip_small(AppKind::Word);
        assert!(stats.blocklisted >= 1, "Account/Feedback should be blocked");
        // The Account button may be seeded as a node (it is visible), but
        // it must never be clicked; the session would count the jump.
        let _ = g;
    }

    #[test]
    fn no_external_jumps_or_traps_during_rip() {
        let mut s = Session::new(AppKind::Excel.launch_small());
        let cfg = RipConfig::office("Excel");
        let _ = rip(&mut s, &cfg);
        assert_eq!(s.external_jumps(), 0, "blocklist must prevent external jumps");
        assert!(!s.is_trapped());
    }

    #[test]
    fn powerpoint_context_pass_finds_picture_format() {
        let (g, _) = rip_small(AppKind::PowerPoint);
        assert!(
            g.ids().any(|i| g.node(i).name == "Picture Format"),
            "context exploration must reveal the Picture Format tab"
        );
        assert!(g.ids().any(|i| g.node(i).name == "Picture Quick Styles"));
    }

    #[test]
    fn excel_rip_reaches_nested_dialogs() {
        let (g, _) = rip_small(AppKind::Excel);
        // Conditional Formatting -> Highlight Cells Rules -> Greater Than.
        assert!(g.ids().any(|i| g.node(i).name == "Greater Than"));
        assert!(g.ids().any(|i| g.node(i).name == "Freeze Top Row"));
    }

    /// What a [`MiniApp`] is built with, for recovery-planner unit tests.
    #[derive(Clone, Copy, PartialEq)]
    enum MiniShape {
        /// A popup menu with three items: purely transient UI.
        MenuOnly,
        /// The menu plus a toggle button whose click persistently mutates
        /// widget + document state.
        WithToggle,
        /// The menu plus a modal dialog containing its own tab strip
        /// (like Excel's Format Cells): dialog-internal tab selection
        /// survives Esc and nothing heals it.
        WithDialogTabs,
    }

    struct MiniApp {
        tree: dmi_gui::UiTree,
        shape: MiniShape,
        toggled: u32,
    }

    impl MiniApp {
        fn new(shape: MiniShape) -> MiniApp {
            use dmi_gui::{Behavior, CommandBinding, CommitKind, Widget, WidgetBuilder};
            let mut t = dmi_gui::UiTree::new();
            let main = t.add_root(Widget::new("Mini", ControlType::Window));
            let menu = t.add(
                main,
                WidgetBuilder::new("Menu", ControlType::SplitButton)
                    .popup()
                    .on_click(Behavior::OpenMenu)
                    .build(),
            );
            for name in ["A", "B", "C"] {
                t.add(
                    menu,
                    WidgetBuilder::new(name, ControlType::ListItem)
                        .on_click(Behavior::CommandAndDismiss(CommandBinding::new("noop")))
                        .build(),
                );
            }
            if shape == MiniShape::WithToggle {
                t.add(
                    main,
                    WidgetBuilder::new("Mutate", ControlType::Button)
                        .toggle_state(false)
                        .on_click(Behavior::Toggle)
                        .binding(CommandBinding::new("mutate"))
                        .build(),
                );
            }
            if shape == MiniShape::WithDialogTabs {
                let dlg = t.add_root(Widget::new("Box", ControlType::Window));
                for (tab, item, selected) in [("T1", "B1", true), ("T2", "B2", false)] {
                    let mut b =
                        WidgetBuilder::new(tab, ControlType::TabItem).on_click(Behavior::SwitchTab);
                    if selected {
                        b = b.selected();
                    }
                    let tid = t.add(dlg, b.build());
                    t.add(
                        tid,
                        WidgetBuilder::new(item, ControlType::ListItem)
                            .on_click(Behavior::CommandAndDismiss(CommandBinding::new("noop")))
                            .build(),
                    );
                }
                t.add(
                    dlg,
                    WidgetBuilder::new("Shut", ControlType::Button)
                        .on_click(Behavior::CloseWindow(CommitKind::Cancel))
                        .build(),
                );
                t.add(
                    main,
                    WidgetBuilder::new("Open Box", ControlType::Button)
                        .on_click(Behavior::OpenDialog(dlg))
                        .build(),
                );
            }
            MiniApp { tree: t, shape, toggled: 0 }
        }
    }

    impl dmi_gui::GuiApp for MiniApp {
        fn name(&self) -> &str {
            "Mini"
        }
        fn tree(&self) -> &dmi_gui::UiTree {
            &self.tree
        }
        fn tree_mut(&mut self) -> &mut dmi_gui::UiTree {
            &mut self.tree
        }
        fn dispatch(
            &mut self,
            _src: dmi_gui::WidgetId,
            b: &dmi_gui::CommandBinding,
        ) -> Result<(), dmi_gui::AppError> {
            if b.command == "mutate" {
                self.toggled += 1; // A document mutation.
            }
            Ok(())
        }
        fn reset(&mut self) {
            *self = MiniApp::new(self.shape);
        }
        fn as_any(&self) -> &dyn std::any::Any {
            self
        }
        fn as_any_mut(&mut self) -> &mut dyn std::any::Any {
            self
        }
    }

    #[test]
    fn esc_recovery_skips_restarts_for_transient_ui() {
        // Menus and their items only open/close popups: after the single
        // base-pass restart every sibling is reached by Esc recovery.
        let mut s = Session::new(Box::new(MiniApp::new(MiniShape::MenuOnly)));
        let (g, stats) = rip(&mut s, &RipConfig::default());
        assert_eq!(stats.restarts, 1, "only the base-pass restart");
        assert_eq!(stats.esc_recoveries, 4, "Menu + A, B, C recovered via Esc");
        assert!(g.ids().any(|i| g.node(i).name == "C"));
    }

    #[test]
    fn esc_recovery_refuses_after_document_mutating_click() {
        // The toggle click flips widget state (which is what moves the
        // epoch — the accompanying document mutation is tree-invisible
        // and detected only through its widget write): the planner must
        // refuse Esc recovery for the next candidate and fall back to a
        // full restart.
        let mut s = Session::new(Box::new(MiniApp::new(MiniShape::WithToggle)));
        let (_, stats) = rip(&mut s, &RipConfig::default());
        assert_eq!(stats.restarts, 2, "base-pass restart + post-mutation fallback");
        assert_eq!(stats.esc_recoveries, 4, "toggle + menu items still recover elsewhere");
    }

    #[test]
    fn esc_recovery_refuses_after_dialog_tab_click() {
        // Dialog-internal tab selection survives Esc-closing the dialog
        // and is not healed by replaying the path (the dialog reopens on
        // whatever tab was left selected), so any candidate explored
        // after a dialog tab click must fall back to a restart.
        let mut s = Session::new(Box::new(MiniApp::new(MiniShape::WithDialogTabs)));
        let (g_fast, fast) = rip(&mut s, &RipConfig::default());
        let legacy_cfg = RipConfig { esc_recovery: false, ..RipConfig::default() };
        let mut s2 = Session::new(Box::new(MiniApp::new(MiniShape::WithDialogTabs)));
        let (g_slow, slow) = rip(&mut s2, &legacy_cfg);
        assert_eq!(g_fast.node_count(), g_slow.node_count(), "UNG nodes match the oracle");
        assert_eq!(g_fast.edge_count(), g_slow.edge_count(), "UNG edges match the oracle");
        assert_eq!(fast.replay_failures, slow.replay_failures, "no stale-tab resolution misses");
        assert!(
            fast.restarts > 1,
            "candidates after a dialog tab click must restart (got {} restarts)",
            fast.restarts
        );
        assert!(fast.restarts < slow.restarts, "menu/dialog siblings still recover via Esc");
    }

    #[test]
    fn rip_is_deterministic() {
        let (g1, s1) = rip_small(AppKind::PowerPoint);
        let mut s = Session::new(AppKind::PowerPoint.launch_small());
        let (g2, s2) = rip(&mut s, &RipConfig::office("PowerPoint"));
        assert_eq!(g1.node_count(), g2.node_count());
        assert_eq!(g1.edge_count(), g2.edge_count());
        assert_eq!(s1, s2);
    }
}
