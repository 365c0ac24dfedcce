//! The snapshot-resident control-identity index (§4.1, §3.4).
//!
//! Both the offline ripper and the online `visit` executor resolve
//! synthesized `primary|type|ancestor_path` identifiers ([`ControlId`])
//! against freshly captured snapshots. Doing that naively is quadratic in
//! practice: every [`ControlId::of`] re-walks and re-joins the ancestor
//! chain, every resolve is an O(n) scan that recomputes those paths per
//! candidate, and the ripper's differential capture materializes encoded
//! string sets for two snapshots per click.
//!
//! [`SnapIndex`] computes control identity **once per snapshot** in a
//! single O(n) arena pass:
//!
//! - the ancestor path of each node (shared via `Arc<str>` — all siblings
//!   point at one allocation),
//! - a 64-bit [`ControlKey`] fingerprint per node,
//! - node depths, and the runtime-id column.
//!
//! Two keyed tables are derived **lazily** from those columns, because a
//! freshly captured snapshot often serves exactly one query before being
//! dropped (each replay step in the ripper captures its own snapshot):
//!
//! - a `ControlKey -> arena indices` multimap, built on first *batch*
//!   probing ([`SnapIndex::key_multimap`]) — the ripper's differential
//!   capture probes it once per post-click node. Cold single probes
//!   ([`SnapIndex::resolve`]) instead scan the key column: a branch-free
//!   `u64` comparison per node, with no per-snapshot allocation.
//! - an O(1) `RuntimeId -> index` table replacing the linear
//!   [`Snapshot::index_of_runtime`] scan, built on the first runtime
//!   lookup.
//!
//! # Hash + confirm
//!
//! Keys are 64-bit digests, so distinct identifiers may collide. Every
//! keyed lookup therefore confirms candidates against the full identifier
//! components before returning them ([`SnapIndex::resolve`] compares
//! primary id, control type, and cached path). A collision costs one extra
//! string comparison; it can never return the wrong control. This is why
//! the tables can use pass-through hashing ([`KeyMap`]) safely.
//!
//! # Why not index-based addressing?
//!
//! The paper deliberately avoids identifying controls by tree position
//! (child index): dynamic menus shift indices unpredictably between
//! snapshots (§4.1). The index accelerates *name-path* identity — it does
//! not change what identity means, so ripped UNGs and resolution results
//! are byte-identical to the string-keyed implementation.
//!
//! The index is built lazily on first use (snapshots are immutable once
//! built; any later mutation through `&mut` accessors invalidates it) and
//! is never serialized.

use crate::ident::{ControlKey, KeyMap};
use crate::{ControlId, RuntimeId, Snapshot};
use std::sync::{Arc, OnceLock};

/// A carry-forward seed for one arena range of a snapshot: the range was
/// copied verbatim (position-shifted, content-identical) from a donor
/// snapshot whose identity index is already materialized, so the donor's
/// per-node columns — shared path `Arc`s included — can be spliced instead
/// of recomputed. See [`Snapshot::seed_index_window`].
#[derive(Debug, Clone)]
pub(crate) struct IndexSeed {
    /// First arena index of the copied range in the *new* snapshot.
    pub start: usize,
    /// One past the last arena index of the copied range.
    pub end: usize,
    /// The donor's materialized index.
    pub donor: Arc<SnapIndex>,
    /// First arena index of the range in the *donor* snapshot.
    pub donor_start: usize,
}

/// A multimap bucket: almost always a single index, so the single case is
/// stored inline (no heap allocation per distinct key).
#[derive(Debug, Clone)]
pub enum Bucket {
    /// A single arena index (the common case), stored inline.
    One(u32),
    /// Two or more arena indices, in arena order.
    Many(Vec<u32>),
}

impl Bucket {
    fn push(&mut self, idx: u32) {
        match self {
            Bucket::One(first) => *self = Bucket::Many(vec![*first, idx]),
            Bucket::Many(v) => v.push(idx),
        }
    }

    /// Indices in arena order.
    pub fn as_slice(&self) -> &[u32] {
        match self {
            Bucket::One(first) => std::slice::from_ref(first),
            Bucket::Many(v) => v,
        }
    }
}

/// Candidate arena indices for one [`ControlKey`], in arena order.
///
/// Candidates, not answers: the fingerprint may collide, so callers must
/// confirm identity (e.g. via [`SnapIndex::matches`]).
pub enum Candidates<'a> {
    /// Backed by the built multimap.
    Indexed(std::slice::Iter<'a, u32>),
    /// Cold path: scanning the key column.
    Scan {
        /// Remaining keys to scan.
        keys: &'a [ControlKey],
        /// Key being searched.
        key: ControlKey,
        /// Next position to examine.
        pos: usize,
    },
}

impl Iterator for Candidates<'_> {
    type Item = usize;

    fn next(&mut self) -> Option<usize> {
        match self {
            Candidates::Indexed(it) => it.next().map(|&i| i as usize),
            Candidates::Scan { keys, key, pos } => {
                while *pos < keys.len() {
                    let i = *pos;
                    *pos += 1;
                    if keys[i] == *key {
                        return Some(i);
                    }
                }
                None
            }
        }
    }
}

/// Per-snapshot identity index. Core columns are built in one O(n) pass by
/// [`SnapIndex::build`]; the keyed tables derive lazily from them.
#[derive(Debug, Default)]
pub struct SnapIndex {
    /// Ancestor path per node; siblings share one `Arc`.
    paths: Vec<Arc<str>>,
    /// Identity fingerprint per node.
    keys: Vec<ControlKey>,
    /// Node depth (root = 0) per node.
    depths: Vec<u32>,
    /// Runtime id per node (copied so the lazy table needs no snapshot).
    runtimes: Vec<u64>,
    /// Fingerprint -> arena indices; built on first batch probe.
    by_key: OnceLock<KeyMap<ControlKey, Bucket>>,
    /// Runtime id -> arena index; built on first runtime lookup.
    by_runtime: OnceLock<KeyMap<u64, u32>>,
}

impl Clone for SnapIndex {
    fn clone(&self) -> SnapIndex {
        // The lazy tables derive from the columns; let the clone rebuild
        // them on demand.
        SnapIndex {
            paths: self.paths.clone(),
            keys: self.keys.clone(),
            depths: self.depths.clone(),
            runtimes: self.runtimes.clone(),
            by_key: OnceLock::new(),
            by_runtime: OnceLock::new(),
        }
    }
}

impl SnapIndex {
    /// Builds the core identity columns in one pass over the arena.
    ///
    /// Relies on the arena invariant that parents precede children
    /// (guaranteed by [`Snapshot::push`]).
    pub fn build(snap: &Snapshot) -> SnapIndex {
        Self::build_with_seeds(snap, &[])
    }

    /// [`SnapIndex::build`] with subtree carry-forward: arena ranges named
    /// by `seeds` were copied verbatim from donor snapshots, so their
    /// columns are spliced from the donors' already-materialized indexes
    /// (path `Arc`s cloned, key/depth/runtime columns memcpy'd) and only
    /// the remaining — dirty — ranges pay per-node construction.
    ///
    /// Soundness: ancestor paths never cross a window boundary (window
    /// roots have no parent), so a window's path/key/depth columns are a
    /// pure function of its node block's contents — identical wherever the
    /// block sits in the arena. Seeds must be non-overlapping, sorted by
    /// `start`, and cover only verbatim-copied ranges; the caller
    /// ([`Snapshot::seed_index_window`]) guarantees all three.
    pub(crate) fn build_with_seeds(snap: &Snapshot, seeds: &[IndexSeed]) -> SnapIndex {
        let n = snap.len();
        let mut paths: Vec<Arc<str>> = Vec::with_capacity(n);
        let mut keys: Vec<ControlKey> = Vec::with_capacity(n);
        let mut depths: Vec<u32> = Vec::with_capacity(n);
        let mut runtimes: Vec<u64> = Vec::with_capacity(n);
        // The path each node's *children* inherit, built at most once per
        // parent and shared by all of its children.
        let mut child_paths: Vec<Option<Arc<str>>> = vec![None; n];
        let empty: Arc<str> = Arc::from("");

        let mut seed_iter = seeds.iter().peekable();
        let mut idx = 0usize;
        while idx < n {
            if let Some(seed) = seed_iter.peek() {
                if seed.start == idx {
                    let len = seed.end - seed.start;
                    let ds = seed.donor_start;
                    let d = &seed.donor;
                    #[cfg(debug_assertions)]
                    for k in 0..len {
                        debug_assert_eq!(
                            d.runtimes[ds + k],
                            snap.node(idx + k).runtime_id.0,
                            "seeded range must be a verbatim copy of the donor range"
                        );
                    }
                    paths.extend_from_slice(&d.paths[ds..ds + len]);
                    keys.extend_from_slice(&d.keys[ds..ds + len]);
                    depths.extend_from_slice(&d.depths[ds..ds + len]);
                    runtimes.extend_from_slice(&d.runtimes[ds..ds + len]);
                    seed_iter.next();
                    idx += len;
                    continue;
                }
            }
            let node = snap.node(idx);
            let (path, depth) = match node.parent {
                None => (empty.clone(), 0),
                Some(p) => {
                    debug_assert!(p < idx, "arena parents precede children");
                    let parent_path = child_paths[p].get_or_insert_with(|| {
                        let pp: &str = &paths[p];
                        let pname = display_name(&snap.node(p).props.name);
                        if pp.is_empty() {
                            Arc::from(pname)
                        } else {
                            let mut s = String::with_capacity(pp.len() + 1 + pname.len());
                            s.push_str(pp);
                            s.push('/');
                            s.push_str(pname);
                            Arc::from(s.as_str())
                        }
                    });
                    (parent_path.clone(), depths[p] + 1)
                }
            };
            keys.push(ControlKey::of_parts(
                node.props.primary_id(),
                node.props.control_type,
                &path,
            ));
            paths.push(path);
            depths.push(depth);
            runtimes.push(node.runtime_id.0);
            idx += 1;
        }

        SnapIndex {
            paths,
            keys,
            depths,
            runtimes,
            by_key: OnceLock::new(),
            by_runtime: OnceLock::new(),
        }
    }

    /// The cached ancestor path of a node (root-first, slash-delimited).
    pub fn path(&self, idx: usize) -> &str {
        &self.paths[idx]
    }

    /// The identity fingerprint of a node.
    pub fn key(&self, idx: usize) -> ControlKey {
        self.keys[idx]
    }

    /// The depth of a node (root = 0).
    pub fn depth(&self, idx: usize) -> usize {
        self.depths[idx] as usize
    }

    /// The `ControlKey -> arena indices` multimap, built on first use.
    ///
    /// Call this before a batch of keyed probes (e.g. the ripper probes
    /// once per post-click node); one O(n) build amortizes across them.
    /// Isolated probes are cheaper through [`SnapIndex::candidates`]'s
    /// scan path.
    pub fn key_multimap(&self) -> &KeyMap<ControlKey, Bucket> {
        self.by_key.get_or_init(|| {
            let mut map: KeyMap<ControlKey, Bucket> = KeyMap::default();
            map.reserve(self.keys.len());
            for (i, &k) in self.keys.iter().enumerate() {
                map.entry(k).and_modify(|b| b.push(i as u32)).or_insert(Bucket::One(i as u32));
            }
            map
        })
    }

    /// Arena indices whose fingerprint equals `key`, in arena order: O(1)
    /// through the multimap when built, otherwise a branch-free scan of
    /// the key column (no allocation — right for one-off probes).
    pub fn candidates(&self, key: ControlKey) -> Candidates<'_> {
        match self.by_key.get() {
            Some(map) => {
                Candidates::Indexed(map.get(&key).map(Bucket::as_slice).unwrap_or(&[]).iter())
            }
            None => Candidates::Scan { keys: &self.keys, key, pos: 0 },
        }
    }

    /// Whether the node at `idx` matches the identifier exactly
    /// (component-wise; uses the cached path, no allocation).
    pub fn matches(&self, snap: &Snapshot, idx: usize, id: &ControlId) -> bool {
        let props = &snap.node(idx).props;
        props.control_type == id.control_type
            && props.primary_id() == id.primary
            && *self.paths[idx] == *id.ancestor_path
    }

    /// Resolves an identifier to the first exactly matching arena index
    /// (arena order, matching the old linear scan's tie-break).
    pub fn resolve(&self, snap: &Snapshot, id: &ControlId) -> Option<usize> {
        let key = ControlKey::of_id(id);
        self.candidates(key).find(|&i| self.matches(snap, i, id))
    }

    /// The arena index carrying a runtime id (O(1); the table builds on
    /// the first lookup).
    pub fn index_of_runtime(&self, rt: RuntimeId) -> Option<usize> {
        let table = self.by_runtime.get_or_init(|| {
            let mut map: KeyMap<u64, u32> = KeyMap::default();
            map.reserve(self.runtimes.len());
            for (i, &r) in self.runtimes.iter().enumerate() {
                map.insert(r, i as u32);
            }
            map
        });
        table.get(&rt.0).map(|&i| i as usize)
    }

    /// Synthesizes the full identifier for a node from cached parts.
    pub fn control_id(&self, snap: &Snapshot, idx: usize) -> ControlId {
        let props = &snap.node(idx).props;
        ControlId {
            primary: props.primary_id().to_string(),
            control_type: props.control_type,
            ancestor_path: self.paths[idx].to_string(),
        }
    }
}

/// The name a node contributes to its descendants' ancestor paths.
fn display_name(name: &str) -> &str {
    if name.is_empty() {
        "[Unnamed]"
    } else {
        name
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{ControlProps, ControlType};

    fn sample() -> Snapshot {
        let mut s = Snapshot::new();
        let w = s.push(ControlProps::new("Main", ControlType::Window), None, 0);
        s.push_window_root(w);
        let tab = s.push(ControlProps::new("Home", ControlType::TabItem), Some(w), 0);
        let grp = s.push(ControlProps::new("", ControlType::Group), Some(tab), 0);
        s.push(ControlProps::new("Bold", ControlType::Button), Some(grp), 0);
        s.push(ControlProps::new("Italic", ControlType::Button), Some(grp), 0);
        s
    }

    #[test]
    fn paths_match_walked_ancestor_paths() {
        let s = sample();
        let ix = SnapIndex::build(&s);
        for (i, _) in s.iter() {
            assert_eq!(ix.path(i), s.ancestor_path(i), "node {i}");
        }
        // Unnamed ancestors appear as [Unnamed], exactly like the walk.
        assert_eq!(ix.path(3), "Main/Home/[Unnamed]");
    }

    #[test]
    fn sibling_paths_share_one_allocation() {
        let s = sample();
        let ix = SnapIndex::build(&s);
        assert!(Arc::ptr_eq(&ix.paths[3], &ix.paths[4]));
    }

    #[test]
    fn resolve_round_trips_every_node() {
        let s = sample();
        let ix = SnapIndex::build(&s);
        for (i, _) in s.iter() {
            let id = ix.control_id(&s, i);
            // Cold (scan) path.
            assert_eq!(ix.resolve(&s, &id), Some(i));
        }
        // Warm (multimap) path agrees.
        ix.key_multimap();
        for (i, _) in s.iter() {
            let id = ix.control_id(&s, i);
            assert_eq!(ix.resolve(&s, &id), Some(i));
        }
    }

    #[test]
    fn runtime_table_matches_linear_scan() {
        let mut s = sample();
        let u = s.push_node(
            ControlProps::new("Underline", ControlType::Button),
            Some(2),
            0,
            RuntimeId(77),
        );
        let ix = SnapIndex::build(&s);
        assert_eq!(ix.index_of_runtime(RuntimeId(77)), Some(u));
        assert_eq!(ix.index_of_runtime(RuntimeId(999)), None);
    }

    #[test]
    fn duplicate_identities_resolve_to_first_in_arena_order() {
        let mut s = Snapshot::new();
        let w = s.push(ControlProps::new("W", ControlType::Window), None, 0);
        s.push_window_root(w);
        let a = s.push(ControlProps::new("OK", ControlType::Button), Some(w), 0);
        let b = s.push(ControlProps::new("OK", ControlType::Button), Some(w), 0);
        let ix = SnapIndex::build(&s);
        let id = ix.control_id(&s, a);
        assert_eq!(ix.resolve(&s, &id), Some(a));
        // Both duplicates surface as candidates, scan and indexed alike.
        assert_eq!(ix.candidates(ix.key(a)).collect::<Vec<_>>(), vec![a, b]);
        ix.key_multimap();
        assert_eq!(ix.candidates(ix.key(a)).collect::<Vec<_>>(), vec![a, b]);
        assert_eq!(ix.resolve(&s, &id), Some(a));
    }

    #[test]
    fn depths_match_walks() {
        let s = sample();
        let ix = SnapIndex::build(&s);
        for (i, _) in s.iter() {
            assert_eq!(ix.depth(i), s.depth(i));
        }
    }

    /// Carry-forward splicing: a snapshot whose first window block was
    /// copied verbatim from a donor builds an index equal to a from-
    /// scratch build, sharing the donor's path allocations for the copied
    /// range and recomputing only the dirty tail.
    #[test]
    fn seeded_build_matches_fresh_build_and_shares_path_arcs() {
        let donor = sample();
        let donor_ix = donor.index_if_built();
        assert!(donor_ix.is_none(), "index is lazy");
        let donor_ix = {
            donor.index();
            donor.index_if_built().expect("materialized on first use")
        };

        // Rebuild: window 0 copied from the donor, then a dirty window.
        let mut next = Snapshot::new();
        let w0 = next.append_window_from(&donor, 0, donor.len(), 0);
        next.push_window_root(w0);
        next.seed_index_window(0, donor.len(), Arc::clone(&donor_ix), 0);
        let dlg = next.push(ControlProps::new("Box", ControlType::Window), None, 1);
        next.push_window_root(dlg);
        next.push(ControlProps::new("OK", ControlType::Button), Some(dlg), 1);

        let spliced = next.index();
        let fresh = SnapIndex::build_with_seeds(&next, &[]);
        for (i, _) in next.iter() {
            assert_eq!(spliced.path(i), fresh.path(i), "node {i}");
            assert_eq!(spliced.key(i), fresh.key(i), "node {i}");
            assert_eq!(spliced.depth(i), fresh.depth(i), "node {i}");
            let id = spliced.control_id(&next, i);
            assert_eq!(spliced.resolve(&next, &id), fresh.resolve(&next, &id), "node {i}");
        }
        // The copied range shares the donor's allocations (no rebuild).
        for i in 0..donor.len() {
            assert!(
                std::ptr::eq(spliced.path(i).as_ptr(), donor_ix.path(i).as_ptr()),
                "node {i}: spliced path must alias the donor's Arc"
            );
        }
        // Runtime lookups still resolve across both ranges.
        for (i, n) in next.iter() {
            assert_eq!(spliced.index_of_runtime(n.runtime_id), Some(i));
        }
    }
}
