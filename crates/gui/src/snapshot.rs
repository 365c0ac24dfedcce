//! The cached capture pipeline: epoch-keyed [`dmi_uia::Snapshot`]s built
//! from a live [`UiTree`] and shared behind [`Arc`]s.
//!
//! The snapshot is the *client view*: only revealed widgets appear (closed
//! menus contribute nothing, mirroring lazy UIA providers), instability
//! perturbations (late loads, name variation) are applied here, and layout
//! rectangles and off-screen flags come from [`crate::layout`].
//!
//! # Why a cache
//!
//! With restart-replay gone (PR 2), snapshot construction dominates rip
//! cost: ~8.9k captures on the small Word app, each re-walking the full
//! arena, recomputing layout, and discarding the previous snapshot's
//! lazily built `SnapIndex`. Most of those captures see a UI that is
//! byte-identical to one captured moments earlier — the ripper's hot loop
//! (escape to base → walk → pre-click capture → click → post-click
//! capture) keeps returning to the same handful of states.
//!
//! # How validity is decided
//!
//! A capture is fully determined by per-window keys plus two global
//! components:
//!
//! - **per window**: the arena root, its modality and stack position, the
//!   root's [`UiTree::window_stamp`] (bumped by every snapshot-visible
//!   mutation under that root), and the open-popup chain under the root
//!   (popup expansion is keyed *structurally* instead of stamped, so a
//!   transient open+close compares equal again — the same reasoning as
//!   PR 2's Esc recovery);
//! - **globally**: [`UiTree::context_epoch`] (contexts gate `visible_when`
//!   widgets in any window) and the query clock's position relative to
//!   each window's *next reveal* — the earliest pending-children schedule
//!   still hidden at build time ([`UiTree::next_reveal_under`]). Late-load
//!   instability is thereby resolved into the key at build time: a cached
//!   window is served only while an eager rebuild would produce the same
//!   bytes, and the reveal query itself always misses and rebuilds.
//!
//! [`CaptureCache`] keeps a short MRU list of past captures. A capture
//! whose every component matches is returned in O(1) as the same
//! [`Arc<Snapshot>`] — including its already-materialized `SnapIndex`
//! (cached ancestor paths, key multimap, runtime-id table), which the
//! eager path rebuilt per query. On a miss, each clean window's node
//! block is copied wholesale from the best donor capture
//! ([`Snapshot::append_window_from`]) and only dirty windows are
//! re-walked. Copied blocks also carry the donor's identity-index columns
//! forward ([`Snapshot::seed_index_window`]): when the new snapshot's
//! `SnapIndex` materializes, clean windows splice the donor's shared path
//! `Arc`s and key columns, so only dirty windows pay index construction.
//!
//! # One walk per dirty window
//!
//! A dirty window is captured in a single O(n) pass: [`layout::walk`]
//! visits each shown widget once, in document order, with its rect,
//! off-screen flag and depth, and the node is pushed straight from that
//! row with its widget-derived runtime id ([`Snapshot::push_node`]). The
//! depth gives the parent (the last node emitted one level up), so no
//! widget→row map and no per-node `is_shown` recursion is needed. A
//! widget whose children are still loading emits no subtree, but the walk
//! still passes through it: its hidden rows advance the row counter
//! exactly as a fully loaded layout would.
//!
//! Between the MRU probe and a rebuild, sessions attached to a
//! [`CapturePool`] additionally probe a **cross-session** pool: sibling
//! sessions forked from the same pristine image (the fleet ripper's
//! worker shards) serve each other's captures, keyed by pristine-relative
//! action traces — see [`CapturePool`] for the soundness argument.
//!
//! The eager [`build`] stays as the uncached oracle;
//! `CaptureConfig::full_rebuild` (see [`crate::session`]) routes every
//! capture through it, and the release-gated equivalence tests assert
//! byte-identical UNGs either way. Because both paths share the walk, the
//! row rules themselves are checked against a test-only reference: the
//! former two-pass builder (a widget→row map first, then a second walk
//! reading the rows back), compared with [`build`] node for node in this
//! module's tests.

use crate::instability::InstabilityModel;
use crate::layout::{self, Row};
use crate::tree::UiTree;
use crate::widget::WidgetId;
use dmi_uia::{ControlProps, RuntimeId, Snapshot};
use std::sync::{Arc, Mutex};

/// Builds a snapshot of every open window (eager, uncached).
///
/// `query_seq` is the monotonically increasing snapshot counter maintained
/// by the session; late-loading subtrees compare against it.
pub fn build(tree: &UiTree, inst: &InstabilityModel, query_seq: u64) -> Snapshot {
    let mut snap = Snapshot::new();
    for (wi, win) in tree.open_windows().iter().enumerate() {
        walk_window(tree, inst, query_seq, win.root, win.modal, wi, &mut snap);
    }
    snap
}

/// Emits one window into `snap` from a single [`layout::walk`] and
/// registers its root in z-order. Returns whether the root was shown (and
/// so emitted).
fn walk_window(
    tree: &UiTree,
    inst: &InstabilityModel,
    query_seq: u64,
    root: WidgetId,
    modal: bool,
    wi: usize,
    snap: &mut Snapshot,
) -> bool {
    let start = snap.len();
    // `parents[d]` is the last node emitted at depth `d`: the parent of
    // the next row at depth `d + 1`.
    let mut parents: Vec<usize> = Vec::new();
    // Depth of a widget whose children are still loading: rows below it
    // are walked (they hold their rows) but not emitted.
    let mut pending_at: Option<usize> = None;
    for row in layout::walk(tree, root, wi) {
        match pending_at {
            Some(d) if row.depth > d => continue,
            _ => pending_at = None,
        }
        let parent = row.depth.checked_sub(1).map(|d| parents[d]);
        let idx = snap.push_node(props_of(tree, inst, &row), parent, wi, runtime_of(row.id));
        parents.truncate(row.depth);
        parents.push(idx);
        if tree.children_pending(row.id, query_seq) {
            pending_at = Some(row.depth);
        }
    }
    let rooted = snap.len() > start;
    if rooted {
        if modal {
            snap.push_modal_window_root(start);
        } else {
            snap.push_window_root(start);
        }
    }
    rooted
}

/// The client-side properties of one laid-out widget.
fn props_of(tree: &UiTree, inst: &InstabilityModel, row: &Row) -> ControlProps {
    let w = tree.widget(row.id);
    let mut props = ControlProps::new(inst.live_name(row.id, &w.name), w.control_type);
    props.automation_id = w.automation_id.clone();
    props.class_name = w.class_name.clone();
    props.help_text = w.help_text.clone();
    props.patterns = w.patterns;
    props.enabled = w.enabled;
    props.value = w.value.clone();
    props.toggle = w.toggle;
    props.selected = w.selected;
    props.expanded = if w.popup { Some(w.expanded) } else { None };
    props.rect = row.rect;
    props.offscreen = row.offscreen;
    props
}

/// The capture key of one open window, read off the live tree.
#[derive(Debug, Clone, PartialEq, Eq)]
pub(crate) struct WindowKey {
    root: WidgetId,
    modal: bool,
    stamp: u64,
    popups: Vec<WidgetId>,
}

impl WindowKey {
    fn of(tree: &UiTree, root: WidgetId, modal: bool) -> WindowKey {
        WindowKey { root, modal, stamp: tree.window_stamp(root), popups: tree.popups_under(root) }
    }
}

/// Per-window record of a cached capture.
#[derive(Debug, Clone)]
struct WindowMeta {
    key: WindowKey,
    /// Node range `[start, end)` this window occupies in the snapshot
    /// arena (`start == end` when the window root was hidden).
    start: usize,
    end: usize,
    /// Whether a window root was registered for this range.
    rooted: bool,
    /// First query sequence at which a pending-children schedule under
    /// this root reveals a subtree hidden at build time (`u64::MAX` when
    /// none): the cached bytes are valid strictly before it.
    next_reveal: u64,
}

impl WindowMeta {
    fn valid_for(&self, key: &WindowKey, query_seq: u64) -> bool {
        self.key == *key && query_seq < self.next_reveal
    }
}

/// One cached capture: the shared snapshot plus the keys it was built
/// under.
#[derive(Debug, Clone)]
struct CachedCapture {
    snap: Arc<Snapshot>,
    context_epoch: u64,
    windows: Vec<WindowMeta>,
}

impl CachedCapture {
    fn matches(&self, keys: &[WindowKey], context_epoch: u64, query_seq: u64) -> bool {
        self.context_epoch == context_epoch
            && self.windows.len() == keys.len()
            && self.windows.iter().zip(keys).all(|(m, k)| m.valid_for(k, query_seq))
    }
}

/// MRU cache of recent captures. Owned by `Session`; cleared on restart
/// (an application `reset` may swap the tree wholesale, which would break
/// stamp lineage).
#[derive(Debug, Default)]
pub struct CaptureCache {
    entries: Vec<CachedCapture>,
}

/// Counters for capture-cache effectiveness (see `Session::capture_stats`).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CaptureStats {
    /// Captures taken (cache hits included).
    pub captures: u64,
    /// Captures served in O(1) as a shared `Arc` to a previous build.
    pub full_hits: u64,
    /// Subset of `full_hits` served from the restart-surviving pristine
    /// stash (post-restart captures of an unchanged launch image).
    pub pristine_hits: u64,
    /// Windows whose node block was copied from a donor capture during a
    /// partial rebuild.
    pub windows_reused: u64,
    /// Windows re-walked from the widget tree.
    pub windows_rebuilt: u64,
    /// Captures served from a shared cross-session [`CapturePool`] (a
    /// sibling session built the identical snapshot first).
    pub pool_hits: u64,
    /// Pool probes that found no matching entry (the capture then built
    /// locally and was offered to the pool).
    pub pool_misses: u64,
    /// Times a poisoned [`CapturePool`] lock was recovered: the pooled
    /// entries are discarded (a sibling session died while holding the
    /// lock) and the capture falls back to a fresh rebuild instead of
    /// propagating the panic into this session's checkout path.
    pub poison_recoveries: u64,
    /// Subset of `pool_hits` served from *warm* entries — captures
    /// imported from a persistent store rather than built by a live
    /// sibling session this process.
    pub pool_warm_hits: u64,
    /// Entries evicted from the shared pool under the frequency × cost
    /// retention policy while this session inserted.
    pub pool_evictions: u64,
    /// Snapshot nodes emitted by re-walked windows (the capture work that
    /// scales with window size).
    pub nodes_walked: u64,
    /// Snapshot nodes copied from donor captures for clean windows.
    pub nodes_copied: u64,
}

impl CaptureCache {
    /// Drops every cached capture.
    pub fn clear(&mut self) {
        self.entries.clear();
    }
}

/// Probes the MRU cache for an O(1) full hit against the current tree
/// state. On a miss, returns the per-window capture keys so the caller
/// can pass them to [`rebuild`] without recomputing them.
pub(crate) fn probe(
    tree: &UiTree,
    query_seq: u64,
    cache: &mut CaptureCache,
) -> Result<Arc<Snapshot>, Vec<WindowKey>> {
    let context_epoch = tree.context_epoch();
    let keys: Vec<WindowKey> =
        tree.open_windows().iter().map(|win| WindowKey::of(tree, win.root, win.modal)).collect();

    // O(1) path: any recent capture whose every key component matches is
    // byte-identical to what an eager rebuild would produce.
    if let Some(pos) = cache.entries.iter().position(|e| e.matches(&keys, context_epoch, query_seq))
    {
        let entry = cache.entries.remove(pos);
        let snap = Arc::clone(&entry.snap);
        cache.entries.insert(0, entry);
        return Ok(snap);
    }
    Err(keys)
}

/// Builds the capture for the current tree state after [`probe`] missed:
/// clean windows are copied from the best donor capture (their identity-
/// index columns seeded for carry-forward when the donor's index is
/// already materialized), dirty windows are re-walked.
pub(crate) fn rebuild(
    tree: &UiTree,
    inst: &InstabilityModel,
    query_seq: u64,
    depth: usize,
    keys: Vec<WindowKey>,
    cache: &mut CaptureCache,
    stats: &mut CaptureStats,
) -> Arc<Snapshot> {
    let context_epoch = tree.context_epoch();
    let mut snap = Snapshot::new();
    let mut metas = Vec::with_capacity(keys.len());
    for (wi, key) in keys.iter().enumerate() {
        let donor = cache.entries.iter().find_map(|e| {
            if e.context_epoch != context_epoch {
                return None;
            }
            let m = e.windows.get(wi)?;
            m.valid_for(key, query_seq).then(|| (Arc::clone(&e.snap), m.clone()))
        });
        let meta = match donor {
            Some((donor_snap, m)) => {
                let start = snap.append_window_from(&donor_snap, m.start, m.end, wi);
                let end = snap.len();
                if m.rooted {
                    if key.modal {
                        snap.push_modal_window_root(start);
                    } else {
                        snap.push_window_root(start);
                    }
                }
                // Subtree carry-forward: the copied block is byte-
                // identical to the donor range, so the donor's per-node
                // index columns (shared path `Arc`s, keys, depths) can be
                // spliced instead of rebuilt — but only when the donor
                // index already exists; splicing must never force one.
                if let Some(donor_ix) = donor_snap.index_if_built() {
                    snap.seed_index_window(start, end, donor_ix, m.start);
                }
                stats.windows_reused += 1;
                stats.nodes_copied += (end - start) as u64;
                dmi_obs::tally("capture.windows_reused", 1);
                dmi_obs::tally("capture.nodes_copied", (end - start) as u64);
                WindowMeta {
                    key: key.clone(),
                    start,
                    end,
                    rooted: m.rooted,
                    next_reveal: m.next_reveal,
                }
            }
            None => {
                let start = snap.len();
                let rooted = walk_window(tree, inst, query_seq, key.root, key.modal, wi, &mut snap);
                let end = snap.len();
                stats.windows_rebuilt += 1;
                stats.nodes_walked += (end - start) as u64;
                dmi_obs::tally("capture.windows_rebuilt", 1);
                dmi_obs::tally("capture.nodes_walked", (end - start) as u64);
                WindowMeta {
                    key: key.clone(),
                    start,
                    end,
                    rooted,
                    next_reveal: tree.next_reveal_under(key.root, query_seq),
                }
            }
        };
        metas.push(meta);
    }

    let snap = Arc::new(snap);
    cache
        .entries
        .insert(0, CachedCapture { snap: Arc::clone(&snap), context_epoch, windows: metas });
    cache.entries.truncate(depth.max(1));
    snap
}

/// A shared, read-mostly pool of captures keyed by pristine-relative
/// action traces, serving snapshot hits **across sessions** forked from
/// one pristine launch image (see `Session::set_capture_pool`).
///
/// # Why sharing across sessions is sound
///
/// Per-session capture keys (window mutation stamps, state epochs) are
/// monotonic counters whose absolute values depend on each session's
/// history, so they are meaningless across sessions. What *is* comparable
/// is the action trace: on a deterministic application, the widget tree —
/// and hence the snapshot bytes — is a pure function of `(pristine image,
/// input actions since the state provably equaled that image)`. Sessions
/// attest the image via `GuiApp::pristine_token` and track the trace as a
/// fingerprint sequence (reset whenever the state provably returns to
/// pristine, poisoned by any input the trace cannot fingerprint), so two
/// sessions with the same `(token, trace)` hold byte-identical trees and
/// may share one snapshot `Arc` — identity index included.
///
/// Entries additionally key on an instability-model fingerprint (name
/// variation is a pure function of `(seed, widget)`, so equal models
/// perturb forks identically), and sessions skip the pool entirely while
/// late-load instability is configured — the one perturbation keyed on
/// session-local clocks rather than tree state.
///
/// # Locking discipline
///
/// One flat `Mutex` around a small MRU vector. Every operation is a short
/// critical section — a key scan plus an `Arc` clone or a bounded insert;
/// no snapshot is ever *built* under the lock, so contention costs a few
/// compares while a hit saves a full O(arena) walk and index build.
#[derive(Debug, Default)]
pub struct CapturePool {
    capacity: usize,
    entries: Mutex<Vec<PoolEntry>>,
}

#[derive(Debug)]
struct PoolEntry {
    /// `GuiApp::pristine_token` of the image the trace is relative to.
    token: u64,
    /// Instability-model fingerprint (seed + name-variation setting).
    model: u64,
    /// Chained hash of the action trace (fast reject).
    hash: u64,
    /// The full fingerprint trace, compared element-wise on a hash match
    /// — this guards against chained-hash collisions for free. The
    /// per-action fingerprints themselves are unconfirmed 64-bit digests
    /// (two *different* actions colliding on every fingerprint would
    /// alias), which is weaker than the ControlKey hash+confirm
    /// discipline but over ~a dozen independent 64-bit draws per trace,
    /// not a practical concern.
    trace: Vec<u64>,
    snap: Arc<Snapshot>,
    /// Times this entry served a lookup (the frequency half of the
    /// retention score).
    hits: u64,
    /// Whether the entry was imported from a persistent store (a *warm*
    /// entry) rather than built by a live session this process.
    warm: bool,
}

impl PoolEntry {
    /// Retention score under the frequency × cost policy: how many
    /// node-walks the entry has saved, weighted by how many it would
    /// cost to rebuild. `hits + 1` counts the build itself, so a large
    /// never-hit capture still outranks a tiny never-hit one.
    fn retention_score(&self) -> u128 {
        (self.hits as u128 + 1) * self.snap.len().max(1) as u128
    }
}

/// One exported pool entry, ready for persistence. The pristine token is
/// deliberately absent: it attests an in-process allocation and does not
/// survive serialization — importers re-key entries to the live session's
/// token after attesting the pristine image structurally (see
/// `dmi_core::pristine_signature`).
#[derive(Debug, Clone)]
pub struct PooledCapture {
    /// Instability-model fingerprint the entry was built under.
    pub model: u64,
    /// Chained action-trace hash (fast reject key).
    pub hash: u64,
    /// The full fingerprint trace (hash-collision confirm key).
    pub trace: Vec<u64>,
    /// The pooled snapshot.
    pub snap: Arc<Snapshot>,
    /// Lookup count carried across processes so the retention policy
    /// keeps historically hot entries.
    pub hits: u64,
}

impl CapturePool {
    /// A pool retaining up to `capacity` captures (frequency × cost
    /// retention, see [`PoolEntry::retention_score`]).
    pub fn new(capacity: usize) -> CapturePool {
        CapturePool { capacity: capacity.max(1), entries: Mutex::new(Vec::new()) }
    }

    /// A pool with the default capacity, ready to share across sessions.
    pub fn shared() -> Arc<CapturePool> {
        Arc::new(CapturePool::new(64))
    }

    /// Number of pooled captures.
    pub fn len(&self) -> usize {
        match self.entries.lock() {
            Ok(g) => g.len(),
            Err(p) => p.into_inner().len(),
        }
    }

    /// Whether the pool holds no captures.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Locks the entry list, recovering from poisoning: a sibling session
    /// that panicked while holding the lock forfeits every pooled entry
    /// (sharing degrades to fresh rebuilds, counted in
    /// `CaptureStats::poison_recoveries`), but never takes the surviving
    /// sessions down with it.
    fn entries_recovered(
        &self,
        stats: &mut CaptureStats,
    ) -> std::sync::MutexGuard<'_, Vec<PoolEntry>> {
        match self.entries.lock() {
            Ok(g) => g,
            Err(poisoned) => {
                let mut g = poisoned.into_inner();
                g.clear();
                self.entries.clear_poison();
                stats.poison_recoveries += 1;
                dmi_obs::tally("capture.poison_recoveries", 1);
                g
            }
        }
    }

    /// Serves the capture for `(token, model, trace)` if a sibling session
    /// already built it (hash fast-path, full-trace confirm).
    pub(crate) fn lookup(
        &self,
        token: u64,
        model: u64,
        hash: u64,
        trace: &[u64],
        stats: &mut CaptureStats,
    ) -> Option<Arc<Snapshot>> {
        let mut entries = self.entries_recovered(stats);
        let pos = entries.iter().position(|e| {
            e.token == token && e.model == model && e.hash == hash && e.trace == trace
        })?;
        let mut entry = entries.remove(pos);
        entry.hits += 1;
        if entry.warm {
            stats.pool_warm_hits += 1;
            dmi_obs::tally("capture.pool_warm_hits", 1);
        }
        let snap = Arc::clone(&entry.snap);
        entries.insert(0, entry);
        Some(snap)
    }

    /// Offers a freshly built capture to the pool. If a racing sibling
    /// already inserted the same key, the existing entry wins (both are
    /// byte-identical; keeping one maximizes sharing).
    pub(crate) fn insert(
        &self,
        token: u64,
        model: u64,
        hash: u64,
        trace: &[u64],
        snap: &Arc<Snapshot>,
        stats: &mut CaptureStats,
    ) {
        let mut entries = self.entries_recovered(stats);
        if let Some(pos) = entries.iter().position(|e| {
            e.token == token && e.model == model && e.hash == hash && e.trace == trace
        }) {
            let entry = entries.remove(pos);
            entries.insert(0, entry);
            return;
        }
        entries.insert(
            0,
            PoolEntry {
                token,
                model,
                hash,
                trace: trace.to_vec(),
                snap: Arc::clone(snap),
                hits: 0,
                warm: false,
            },
        );
        Self::evict_over_capacity(&mut entries, self.capacity, stats);
    }

    /// Frequency × cost eviction: while over capacity, drop the entry
    /// with the lowest [`PoolEntry::retention_score`], breaking ties
    /// toward the least recently used (largest MRU index). Replaces the
    /// original pure-MRU truncate: a rarely-hit pool (Word's ~1% rate)
    /// used to cycle expensive captures out in insertion order, while
    /// hot pools (Excel/PowerPoint ~20%) never got to weigh a cheap
    /// popup snapshot against a full dialog one.
    fn evict_over_capacity(
        entries: &mut Vec<PoolEntry>,
        capacity: usize,
        stats: &mut CaptureStats,
    ) {
        while entries.len() > capacity {
            let victim = entries
                .iter()
                .enumerate()
                .min_by_key(|(i, e)| (e.retention_score(), std::cmp::Reverse(*i)))
                .map(|(i, _)| i)
                .expect("over-capacity pool is non-empty");
            entries.remove(victim);
            stats.pool_evictions += 1;
            dmi_obs::tally("capture.pool_evictions", 1);
        }
    }

    /// Exports every entry keyed to `token` for persistence, MRU order
    /// preserved. Snapshots travel as shared `Arc`s — exporting copies
    /// nothing.
    pub fn export(&self, token: u64) -> Vec<PooledCapture> {
        let mut scratch = CaptureStats::default();
        let entries = self.entries_recovered(&mut scratch);
        entries
            .iter()
            .filter(|e| e.token == token)
            .map(|e| PooledCapture {
                model: e.model,
                hash: e.hash,
                trace: e.trace.clone(),
                snap: Arc::clone(&e.snap),
                hits: e.hits,
            })
            .collect()
    }

    /// Imports persisted captures, re-keyed to the live session's
    /// `token`, marked *warm* (hits on them are reported separately in
    /// [`CaptureStats::pool_warm_hits`]). The caller is responsible for
    /// pristine attestation: entries must come from a store whose
    /// pristine signature matches the live app (see
    /// `dmi_store::warm_session`). Existing live entries win duplicate
    /// keys; the retention policy applies immediately, so importing more
    /// than the capacity keeps the highest-scoring captures. Returns the
    /// number of entries actually added.
    pub fn import(
        &self,
        token: u64,
        captures: Vec<PooledCapture>,
        stats: &mut CaptureStats,
    ) -> usize {
        let mut entries = self.entries_recovered(stats);
        let mut added = 0usize;
        for c in captures {
            let dup = entries.iter().any(|e| {
                e.token == token && e.model == c.model && e.hash == c.hash && e.trace == c.trace
            });
            if dup {
                continue;
            }
            entries.push(PoolEntry {
                token,
                model: c.model,
                hash: c.hash,
                trace: c.trace,
                snap: c.snap,
                hits: c.hits,
                warm: true,
            });
            added += 1;
        }
        Self::evict_over_capacity(&mut entries, self.capacity, stats);
        added
    }
}

/// Re-keys a restart-surviving pristine capture against the *current*
/// tree (whose stamps a reset re-floored) and inserts it at the MRU head,
/// so the next (post-click) partial rebuild can copy clean windows from
/// it as a donor. The caller guarantees the snapshot is byte-identical to
/// what an eager build of the current tree would produce (the pristine
/// mark held when it was served).
///
/// Window blocks are recovered from the snapshot's window-root indices
/// (each open window's DFS emits one contiguous block starting at its
/// root); adoption is skipped when the shapes cannot be aligned (a hidden
/// window root contributed no block).
pub(crate) fn adopt(
    cache: &mut CaptureCache,
    tree: &UiTree,
    snap: &Arc<Snapshot>,
    query_seq: u64,
    depth: usize,
) {
    let open = tree.open_windows();
    if snap.windows().len() != open.len() {
        return;
    }
    // Drop a stale entry for the same snapshot (its keys pre-date the
    // reset and can never validate again) before re-inserting fresh.
    cache.entries.retain(|e| !Arc::ptr_eq(&e.snap, snap));
    let mut metas = Vec::with_capacity(open.len());
    for (wi, win) in open.iter().enumerate() {
        let start = snap.windows()[wi];
        let end = snap.windows().get(wi + 1).copied().unwrap_or(snap.len());
        if start > end {
            return;
        }
        metas.push(WindowMeta {
            key: WindowKey::of(tree, win.root, win.modal),
            start,
            end,
            rooted: true,
            next_reveal: tree.next_reveal_under(win.root, query_seq),
        });
    }
    cache.entries.insert(
        0,
        CachedCapture {
            snap: Arc::clone(snap),
            context_epoch: tree.context_epoch(),
            windows: metas,
        },
    );
    cache.entries.truncate(depth.max(1));
}

/// Maps a snapshot runtime id back to the widget it was built from.
///
/// Runtime ids encode the widget arena index (`index + 1`), which keeps the
/// provider/client correspondence trivial while remaining opaque to DMI
/// (which never relies on it across restarts).
pub fn widget_of(rt: RuntimeId) -> WidgetId {
    WidgetId((rt.0 - 1) as usize)
}

/// The runtime id a widget will carry in snapshots.
pub fn runtime_of(id: WidgetId) -> RuntimeId {
    RuntimeId(id.0 as u64 + 1)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::widget::{Widget, WidgetBuilder};
    use dmi_uia::ControlType as CT;

    /// The two-pass capture builder [`build`] replaced, kept as the
    /// reference for the walk's row rules: per window, a widget→row map
    /// is filled first (recursive `is_shown` per child), then a second
    /// walk re-checks `is_shown` per node and reads its rows back.
    mod reference {
        use super::*;
        use crate::layout::{window_rect, ROW_H};
        use dmi_uia::Rect;
        use std::collections::HashMap;

        type Rows = HashMap<WidgetId, (Rect, bool)>;

        pub fn build(tree: &UiTree, inst: &InstabilityModel, query_seq: u64) -> Snapshot {
            let mut snap = Snapshot::new();
            for (wi, win) in tree.open_windows().iter().enumerate() {
                let wrect = window_rect(wi);
                let mut rows = Rows::new();
                rows.insert(win.root, (wrect, false));
                place_children(tree, win.root, wrect, &mut 1, 1, &mut rows, false);
                let root = add_subtree(tree, inst, query_seq, win.root, None, wi, &rows, &mut snap);
                if let Some(r) = root {
                    if win.modal {
                        snap.push_modal_window_root(r);
                    } else {
                        snap.push_window_root(r);
                    }
                }
            }
            snap
        }

        fn place_children(
            tree: &UiTree,
            parent: WidgetId,
            wrect: Rect,
            row: &mut i32,
            depth: i32,
            rows: &mut Rows,
            forced_off: bool,
        ) {
            let pw = tree.widget(parent);
            let kids: Vec<WidgetId> =
                pw.children.iter().copied().filter(|&c| tree.is_shown(c)).collect();
            let viewport: Option<(usize, usize)> = if pw.scrollable && !kids.is_empty() {
                let n = pw.viewport_rows.min(kids.len());
                let max_start = kids.len() - n;
                let start = ((pw.scroll_pos / 100.0) * max_start as f64).round() as usize;
                Some((start.min(max_start), n))
            } else {
                None
            };
            for (i, &c) in kids.iter().enumerate() {
                let in_viewport = match viewport {
                    Some((start, n)) => i >= start && i < start + n,
                    None => true,
                };
                let off = forced_off || !in_viewport;
                let rect = if tree.widget(c).control_type == CT::ScrollBar {
                    Rect::new(wrect.x + wrect.w - 18, wrect.y, 18, wrect.h)
                } else if off {
                    Rect::new(0, 0, 0, 0)
                } else {
                    let y = wrect.y + (*row % ((wrect.h / ROW_H).max(1))) * ROW_H;
                    let x = wrect.x + depth * 8;
                    *row += 1;
                    Rect::new(x, y, (wrect.w - depth * 16).max(40), ROW_H - 2)
                };
                rows.insert(c, (rect, off));
                place_children(tree, c, wrect, row, depth + 1, rows, off);
            }
        }

        #[allow(clippy::too_many_arguments)]
        fn add_subtree(
            tree: &UiTree,
            inst: &InstabilityModel,
            query_seq: u64,
            id: WidgetId,
            parent: Option<usize>,
            window: usize,
            rows: &Rows,
            snap: &mut Snapshot,
        ) -> Option<usize> {
            if !tree.is_shown(id) {
                return None;
            }
            let w = tree.widget(id);
            let mut props = ControlProps::new(inst.live_name(id, &w.name), w.control_type);
            props.automation_id = w.automation_id.clone();
            props.class_name = w.class_name.clone();
            props.help_text = w.help_text.clone();
            props.patterns = w.patterns;
            props.enabled = w.enabled;
            props.value = w.value.clone();
            props.toggle = w.toggle;
            props.selected = w.selected;
            props.expanded = if w.popup { Some(w.expanded) } else { None };
            props.rect = rows.get(&id).map(|r| r.0).unwrap_or_default();
            props.offscreen = rows.get(&id).is_some_and(|r| r.1);
            let idx = snap.push_node(props, parent, window, runtime_of(id));
            if !tree.children_pending(id, query_seq) {
                for &c in &tree.widget(id).children {
                    add_subtree(tree, inst, query_seq, c, Some(idx), window, rows, snap);
                }
            }
            Some(idx)
        }
    }

    /// Asserts the walk-based builders — eager [`build`] and a cold
    /// [`rebuild`] — equal the reference node for node: props (rects and
    /// off-screen flags included), runtime ids, parents, children, window
    /// roots and modality.
    fn assert_matches_reference(t: &UiTree, inst: &InstabilityModel, query_seq: u64) {
        let want = reference::build(t, inst, query_seq);
        let got = build(t, inst, query_seq);
        for (i, (n, r)) in got.iter().map(|(_, n)| n).zip(want.iter().map(|(_, n)| n)).enumerate() {
            assert_eq!(n, r, "node {i} at query {query_seq}");
        }
        assert_eq!(got, want, "whole snapshot at query {query_seq}");
        let keys = probe(t, query_seq, &mut CaptureCache::default()).expect_err("cold cache");
        let mut stats = CaptureStats::default();
        let rebuilt =
            rebuild(t, inst, query_seq, 4, keys, &mut CaptureCache::default(), &mut stats);
        assert_eq!(*rebuilt, want, "cold rebuild at query {query_seq}");
        assert_eq!(stats.nodes_walked, want.len() as u64, "every emitted node counted");
    }

    /// A main window with a scrolled document (nested runs, so off-screen
    /// rows have off-screen descendants), a tab strip, open and closed
    /// popups, a context-gated button inside the scroll viewport, a
    /// late-loading group, and enough rows to wrap the row counter.
    fn shapes_tree() -> (UiTree, WidgetId, WidgetId) {
        let mut t = UiTree::new();
        let main = t.add_root(Widget::new("Main", CT::Window));
        let doc = t.add(main, WidgetBuilder::new("Doc", CT::Document).scrollable(4).build());
        for i in 0..9 {
            let p = t.add(doc, Widget::new(format!("P{i}"), CT::Text));
            t.add(p, Widget::new(format!("Run{i}"), CT::Text));
            if i == 3 {
                t.add(doc, WidgetBuilder::new("Crop", CT::Button).visible_when("image").build());
            }
        }
        t.add(main, WidgetBuilder::new("Vertical", CT::ScrollBar).scroll_target(doc).build());
        let tabs = t.add(main, Widget::new("Ribbon", CT::Tab));
        let home = t.add(tabs, WidgetBuilder::new("Home", CT::TabItem).selected().build());
        let insert = t.add(tabs, Widget::new("Insert", CT::TabItem));
        t.add(home, Widget::new("Bold", CT::Button));
        t.add(insert, Widget::new("Picture", CT::Button));
        let open = t.add(home, WidgetBuilder::new("Colors", CT::SplitButton).popup().build());
        let closed = t.add(home, WidgetBuilder::new("Styles", CT::SplitButton).popup().build());
        for i in 0..5 {
            t.add(open, Widget::new(format!("Color{i}"), CT::ListItem));
            t.add(closed, Widget::new(format!("Style{i}"), CT::ListItem));
        }
        t.open_popup(open);
        let mut hidden = Widget::new("Hidden", CT::Button);
        hidden.visible = false;
        let hidden = t.add(main, hidden);
        t.add(hidden, Widget::new("UnderHidden", CT::Button));
        let late = t.add(main, Widget::new("Gallery", CT::Group));
        for i in 0..6 {
            let g = t.add(late, Widget::new(format!("Thumb{i}"), CT::ListItem));
            t.add(g, Widget::new(format!("Caption{i}"), CT::Text));
        }
        for i in 0..40 {
            t.add(main, Widget::new(format!("Tail{i}"), CT::Button));
        }
        (t, doc, late)
    }

    #[test]
    fn walk_matches_reference_on_scroll_viewports() {
        let (mut t, doc, _) = shapes_tree();
        for pos in [0.0, 50.0, 100.0] {
            t.widget_mut(doc).scroll_pos = pos;
            assert_matches_reference(&t, &InstabilityModel::off(), 0);
            let s = build(&t, &InstabilityModel::off(), 0);
            let runs = s.iter().filter(|(_, n)| n.props.name.starts_with("Run"));
            let off = runs.filter(|(_, n)| n.props.offscreen).count();
            assert_eq!(off, 5, "off-screen rows carry off-screen descendants at {pos}%");
        }
    }

    #[test]
    fn walk_matches_reference_on_tabs_popups_and_contexts() {
        let (mut t, ..) = shapes_tree();
        assert_matches_reference(&t, &InstabilityModel::off(), 0);
        let s = build(&t, &InstabilityModel::off(), 0);
        for absent in ["Picture", "Style0", "Crop", "Hidden", "UnderHidden"] {
            assert!(s.find_by_name(absent).is_none(), "{absent} is not shown");
        }
        assert!(s.find_by_name("Color4").is_some());
        // The context reveals a widget inside the scroll viewport, shifting
        // which rows are on screen; the tab switch swaps ribbon contents.
        t.set_context("image", true);
        assert_matches_reference(&t, &InstabilityModel::off(), 0);
        assert!(build(&t, &InstabilityModel::off(), 0).find_by_name("Crop").is_some());
        let insert = t.find_by_name("Insert").unwrap();
        t.select_tab(insert);
        assert_matches_reference(&t, &InstabilityModel::off(), 0);
    }

    #[test]
    fn walk_matches_reference_on_pending_children() {
        let (mut t, _, late) = shapes_tree();
        t.set_pending_children(late, 5);
        let inst = InstabilityModel::off();
        for q in [4, 5] {
            assert_matches_reference(&t, &inst, q);
        }
        // The hidden subtree still holds its rows: the widgets after it sit
        // where they sit once it is revealed.
        let (before, after) = (build(&t, &inst, 4), build(&t, &inst, 5));
        assert!(before.find_by_name("Thumb0").is_none());
        assert!(after.find_by_name("Thumb0").is_some());
        let rect = |s: &Snapshot| s.node(s.find_by_name("Tail0").unwrap()).props.rect;
        assert_eq!(rect(&before), rect(&after));
    }

    #[test]
    fn walk_matches_reference_under_name_variation() {
        let (t, ..) = shapes_tree();
        for seed in 0..4 {
            assert_matches_reference(&t, &InstabilityModel::new(seed, 0.0, 1.0), 0);
        }
    }

    #[test]
    fn walk_matches_reference_on_stacked_modal_dialogs() {
        let (mut t, ..) = shapes_tree();
        let mut dialogs = Vec::new();
        for (i, modal) in [(0, false), (1, true), (2, true)] {
            let dlg = t.add_root(Widget::new(format!("Dialog{i}"), CT::Window));
            let list = t.add(dlg, WidgetBuilder::new("List", CT::List).scrollable(2).build());
            for j in 0..5 {
                t.add(list, Widget::new(format!("Item{j}"), CT::ListItem));
            }
            t.add(dlg, Widget::new("OK", CT::Button));
            t.open_window(dlg, modal);
            dialogs.push(dlg);
        }
        assert_matches_reference(&t, &InstabilityModel::off(), 0);
        let s = build(&t, &InstabilityModel::off(), 0);
        assert_eq!(s.windows().len(), 4);
        assert_eq!(s.top_modal_window(), Some(3));
        // A window whose root is hidden contributes no block and no root.
        t.widget_mut(dialogs[1]).visible = false;
        assert_matches_reference(&t, &InstabilityModel::off(), 0);
        assert_eq!(build(&t, &InstabilityModel::off(), 0).windows().len(), 3);
    }

    #[test]
    fn walk_matches_reference_on_generated_trees() {
        // A small LCG keeps the corpus deterministic without a rand dep.
        let mut state = 0x2545_F491_4F6C_DD1Du64;
        let mut next = |n: u64| {
            state = state.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
            (state >> 33) % n
        };
        for _ in 0..200 {
            let mut t = UiTree::new();
            let main = t.add_root(Widget::new("Main", CT::Window));
            let mut ids = vec![main];
            for i in 0..(20 + next(60)) {
                let parent = ids[next(ids.len() as u64) as usize];
                let ct =
                    [CT::Button, CT::Group, CT::TabItem, CT::ScrollBar, CT::Text][next(5) as usize];
                let mut b = WidgetBuilder::new(format!("W{i}"), ct);
                if next(4) == 0 {
                    b = b.popup();
                }
                if next(5) == 0 {
                    b = b.scrollable(1 + next(4) as usize);
                }
                if next(6) == 0 {
                    b = b.visible_when("ctx");
                }
                if next(3) == 0 {
                    b = b.selected();
                }
                let mut w = b.build();
                w.visible = next(8) != 0;
                w.scroll_pos = [0.0, 50.0, 100.0][next(3) as usize];
                w.expanded = w.popup && next(2) == 0;
                let id = t.add(parent, w);
                if next(10) == 0 {
                    t.set_pending_children(id, 3);
                }
                ids.push(id);
            }
            t.set_context("ctx", next(2) == 0);
            for q in [2, 3] {
                assert_matches_reference(&t, &InstabilityModel::off(), q);
            }
        }
    }

    fn tree() -> (UiTree, WidgetId, WidgetId, WidgetId) {
        let mut t = UiTree::new();
        let main = t.add_root(Widget::new("Main", CT::Window));
        let menu = t.add(main, WidgetBuilder::new("Colors", CT::SplitButton).popup().build());
        let item = t.add(menu, Widget::new("Blue", CT::ListItem));
        (t, main, menu, item)
    }

    #[test]
    fn closed_menus_contribute_nothing() {
        let (t, _, _, _) = tree();
        let s = build(&t, &InstabilityModel::off(), 0);
        assert!(s.find_by_name("Colors").is_some());
        assert!(s.find_by_name("Blue").is_none());
    }

    #[test]
    fn open_menus_reveal_children() {
        let (mut t, _, menu, _) = tree();
        t.open_popup(menu);
        let s = build(&t, &InstabilityModel::off(), 0);
        assert!(s.find_by_name("Blue").is_some());
    }

    #[test]
    fn runtime_ids_track_widget_ids() {
        let (mut t, _, menu, item) = tree();
        t.open_popup(menu);
        let s = build(&t, &InstabilityModel::off(), 0);
        let idx = s.find_by_name("Blue").unwrap();
        assert_eq!(widget_of(s.node(idx).runtime_id), item);
    }

    #[test]
    fn late_loading_children_absent_then_present() {
        let (mut t, _, menu, _) = tree();
        t.open_popup(menu);
        t.set_pending_children(menu, 5);
        let s4 = build(&t, &InstabilityModel::off(), 4);
        assert!(s4.find_by_name("Blue").is_none());
        let s5 = build(&t, &InstabilityModel::off(), 5);
        assert!(s5.find_by_name("Blue").is_some());
    }

    #[test]
    fn poisoned_pool_lock_degrades_to_a_rebuild() {
        let pool = std::sync::Arc::new(CapturePool::new(4));
        let (t, ..) = tree();
        let snap = std::sync::Arc::new(build(&t, &InstabilityModel::off(), 0));
        let mut stats = CaptureStats::default();
        pool.insert(7, 1, 99, &[1, 2], &snap, &mut stats);
        assert_eq!(pool.len(), 1);
        assert_eq!(stats.poison_recoveries, 0);

        // A sibling session dies while holding the entry lock.
        let p2 = std::sync::Arc::clone(&pool);
        let _ = std::thread::spawn(move || {
            let _guard = p2.entries.lock().unwrap();
            panic!("injected fault: die holding the pool lock");
        })
        .join();

        // Every path recovers: the poisoned entries are forfeited, the
        // recovery is counted, and the pool keeps working afterwards.
        assert!(pool.lookup(7, 1, 99, &[1, 2], &mut stats).is_none(), "entries forfeited");
        assert_eq!(stats.poison_recoveries, 1);
        pool.insert(7, 1, 99, &[1, 2], &snap, &mut stats);
        assert_eq!(stats.poison_recoveries, 1, "the lock heals after one recovery");
        assert!(pool.lookup(7, 1, 99, &[1, 2], &mut stats).is_some());
        assert_eq!(pool.len(), 1);
    }

    #[test]
    fn name_variation_applies_in_snapshot_only() {
        let (mut t, _, menu, _) = tree();
        t.open_popup(menu);
        let inst = InstabilityModel::new(3, 0.0, 1.0);
        let s = build(&t, &inst, 0);
        // The provider-side name is unchanged.
        assert_eq!(t.widget(menu).name, "Colors");
        // The snapshot name is the varied one.
        let snap_names: Vec<String> = s.iter().map(|(_, n)| n.props.name.clone()).collect();
        assert!(snap_names
            .iter()
            .any(|n| n != "Colors" && n.starts_with("Colors") || n == "Colors*"));
    }

    #[test]
    fn multiple_windows_in_z_order() {
        let (mut t, ..) = tree();
        let dlg = t.add_root(Widget::new("Format Cells", CT::Window));
        t.add(dlg, Widget::new("OK", CT::Button));
        t.open_window(dlg, true);
        let s = build(&t, &InstabilityModel::off(), 0);
        assert_eq!(s.windows().len(), 2);
        let top = s.top_window().unwrap();
        assert_eq!(s.node(top).props.name, "Format Cells");
    }
}
