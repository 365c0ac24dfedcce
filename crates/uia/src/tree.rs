//! Immutable accessibility-tree snapshots.
//!
//! A [`Snapshot`] is what a UIA client sees when it walks the tree at one
//! instant: an arena of [`Node`]s with parent/child links. Applications
//! produce a fresh snapshot after every input event; the DMI executor and
//! the GUI ripper both operate exclusively on snapshots, which mirrors how
//! real accessibility clients are decoupled from the provider process.

use crate::index::{IndexSeed, SnapIndex};
use crate::{ControlId, ControlKey, ControlProps, ControlType, PatternKind, Rect, RuntimeId};
use serde::{Deserialize, Serialize};
use std::sync::{Arc, Mutex, OnceLock};

/// One control in a snapshot.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Node {
    /// Snapshot-unique runtime id.
    pub runtime_id: RuntimeId,
    /// Property bag.
    pub props: ControlProps,
    /// Index of the parent node in the arena, `None` for roots.
    pub parent: Option<usize>,
    /// Indices of child nodes, in z/document order.
    pub children: Vec<usize>,
    /// Index of the top-level window this node belongs to.
    pub window: usize,
}

/// An immutable snapshot of the accessibility tree for a desktop.
///
/// Node index 0.. are arena indices; `windows` lists the arena index of each
/// top-level window root in z-order (last = topmost), mirroring UIA's
/// desktop children.
#[derive(Debug, Default, Serialize, Deserialize)]
pub struct Snapshot {
    nodes: Vec<Node>,
    windows: Vec<usize>,
    /// Modality flag per entry of `windows`.
    #[serde(default)]
    modal: Vec<bool>,
    /// Lazily built identity index (see [`SnapIndex`]); invalidated by any
    /// mutation, never serialized or compared.
    #[serde(skip)]
    index: OnceLock<Arc<SnapIndex>>,
    /// Carry-forward seeds for ranges copied verbatim from donor
    /// snapshots (see [`Snapshot::seed_index_window`]); drained — and the
    /// donor indexes they pin released — when the identity index
    /// materializes. Never serialized or compared. (A `Mutex` only so the
    /// shared-`&self` index build can take them; never contended.)
    #[serde(skip)]
    index_seeds: Mutex<Vec<IndexSeed>>,
}

impl Clone for Snapshot {
    fn clone(&self) -> Snapshot {
        Snapshot {
            nodes: self.nodes.clone(),
            windows: self.windows.clone(),
            modal: self.modal.clone(),
            index: self.index.clone(),
            index_seeds: Mutex::new(self.index_seeds.lock().unwrap().clone()),
        }
    }
}

// Equality ignores the derived identity cache.
impl PartialEq for Snapshot {
    fn eq(&self, other: &Snapshot) -> bool {
        self.nodes == other.nodes && self.windows == other.windows && self.modal == other.modal
    }
}

impl Snapshot {
    /// Creates an empty snapshot.
    pub fn new() -> Self {
        Snapshot::default()
    }

    /// Adds a node with the sequential runtime id `index + 1` and returns
    /// its arena index.
    ///
    /// `parent` must be an index previously returned by `push`.
    pub fn push(&mut self, props: ControlProps, parent: Option<usize>, window: usize) -> usize {
        let runtime_id = RuntimeId(self.nodes.len() as u64 + 1);
        self.push_node(props, parent, window, runtime_id)
    }

    /// Adds a node carrying the given runtime id (providers that derive
    /// runtime ids from their own widget identity, and decoders restoring
    /// stored ones) and returns its arena index.
    ///
    /// `parent` must be an index previously returned by `push`.
    pub fn push_node(
        &mut self,
        props: ControlProps,
        parent: Option<usize>,
        window: usize,
        runtime_id: RuntimeId,
    ) -> usize {
        self.index.take();
        let idx = self.nodes.len();
        self.nodes.push(Node { runtime_id, props, parent, children: Vec::new(), window });
        if let Some(p) = parent {
            self.nodes[p].children.push(idx);
        }
        idx
    }

    /// Appends a copy of the node range `start..end` from another snapshot,
    /// remapping parent/child indices and retagging the nodes with the
    /// given top-level `window` ordinal. Returns the arena index of the
    /// first copied node (the subtree root when the range is one window's
    /// contiguous DFS block).
    ///
    /// Providers that rebuild snapshots incrementally use this to carry an
    /// unchanged window's subtree — rectangles, runtime ids, and all —
    /// from the previous capture instead of re-walking the widget tree.
    /// The range must be self-contained: every in-range node's parent is
    /// either in range or `None`, as is the case for the contiguous block
    /// a window's DFS emits.
    pub fn append_window_from(
        &mut self,
        src: &Snapshot,
        start: usize,
        end: usize,
        window: usize,
    ) -> usize {
        self.index.take();
        let base = self.nodes.len();
        for i in start..end {
            let n = &src.nodes[i];
            debug_assert!(
                n.parent.is_none_or(|p| (start..end).contains(&p)),
                "copied window range must be self-contained"
            );
            self.nodes.push(Node {
                runtime_id: n.runtime_id,
                props: n.props.clone(),
                parent: n.parent.map(|p| p - start + base),
                children: n.children.iter().map(|&c| c - start + base).collect(),
                window,
            });
        }
        base
    }

    /// Registers a node as a top-level window root (z-order append).
    pub fn push_window_root(&mut self, idx: usize) {
        self.windows.push(idx);
        self.modal.push(false);
    }

    /// Registers a modal window root (blocks input to windows below it).
    pub fn push_modal_window_root(&mut self, idx: usize) {
        self.windows.push(idx);
        self.modal.push(true);
    }

    /// Whether the `i`-th window (ordinal in [`Snapshot::windows`]) is
    /// modal.
    pub fn window_is_modal(&self, i: usize) -> bool {
        self.modal.get(i).copied().unwrap_or(false)
    }

    /// The ordinal of the topmost modal window, if any.
    pub fn top_modal_window(&self) -> Option<usize> {
        (0..self.windows.len()).rev().find(|&i| self.window_is_modal(i))
    }

    /// Whether a node can receive input right now: no modal window sits
    /// above its window in the z-order.
    pub fn is_available(&self, idx: usize) -> bool {
        match self.top_modal_window() {
            Some(m) => self.nodes[idx].window >= m,
            None => true,
        }
    }

    /// Registers a carry-forward seed for the identity index: the arena
    /// range `start..end` of *this* snapshot is a verbatim copy (as made
    /// by [`Snapshot::append_window_from`]) of the donor range starting at
    /// `donor_start` in the snapshot whose materialized index is `donor`.
    /// When this snapshot's index is built, the seeded range's path
    /// `Arc`s and key/depth/runtime columns are spliced from the donor
    /// instead of recomputed, so only unseeded (dirty) ranges pay
    /// construction cost.
    ///
    /// Ranges must be registered in ascending, non-overlapping order —
    /// the natural order of incremental window-by-window assembly. A
    /// range that is not a self-contained verbatim copy would corrupt the
    /// index; `append_window_from` ranges satisfy this by construction.
    pub fn seed_index_window(
        &mut self,
        start: usize,
        end: usize,
        donor: Arc<SnapIndex>,
        donor_start: usize,
    ) {
        debug_assert!(start <= end && end <= self.nodes.len());
        let seeds = self.index_seeds.get_mut().unwrap();
        debug_assert!(seeds.last().is_none_or(|s| s.end <= start), "seeds in order");
        if start < end {
            seeds.push(IndexSeed { start, end, donor, donor_start });
        }
    }

    /// The snapshot's identity index, built on first use (O(n) — or less
    /// when carry-forward seeds splice donor columns for unchanged
    /// windows) and O(1) to query thereafter. See [`SnapIndex`] for the
    /// design.
    pub fn index(&self) -> &SnapIndex {
        self.index.get_or_init(|| {
            // Drain the seeds: once the index exists they are useless,
            // and holding them would pin the donor indexes in memory for
            // this snapshot's lifetime.
            let seeds = std::mem::take(&mut *self.index_seeds.lock().unwrap());
            Arc::new(SnapIndex::build_with_seeds(self, &seeds))
        })
    }

    /// The identity index, only if it has already materialized — donors
    /// hand their index to [`Snapshot::seed_index_window`] through this
    /// (splicing must never *force* a donor build it would otherwise
    /// skip).
    pub fn index_if_built(&self) -> Option<Arc<SnapIndex>> {
        self.index.get().cloned()
    }

    /// Finds the arena index of the node carrying the given runtime id
    /// (O(1) via the identity index).
    pub fn index_of_runtime(&self, rt: RuntimeId) -> Option<usize> {
        self.index().index_of_runtime(rt)
    }

    /// Synthesizes the control identifier of a node from cached parts.
    pub fn control_id(&self, idx: usize) -> ControlId {
        self.index().control_id(self, idx)
    }

    /// The 64-bit identity fingerprint of a node.
    pub fn control_key(&self, idx: usize) -> ControlKey {
        self.index().key(idx)
    }

    /// Resolves a control identifier to the first exactly matching node in
    /// arena order, O(1) via the identity index (with collision confirm).
    pub fn resolve(&self, id: &ControlId) -> Option<usize> {
        self.index().resolve(self, id)
    }

    /// Whether `idx` lies in the subtree rooted at `root` (inclusive).
    pub fn is_in_subtree(&self, idx: usize, root: usize) -> bool {
        let mut cur = Some(idx);
        while let Some(i) = cur {
            if i == root {
                return true;
            }
            cur = self.nodes[i].parent;
        }
        false
    }

    /// Number of nodes in the snapshot.
    pub fn len(&self) -> usize {
        self.nodes.len()
    }

    /// Whether the snapshot has no nodes.
    pub fn is_empty(&self) -> bool {
        self.nodes.is_empty()
    }

    /// Borrow a node by arena index.
    pub fn node(&self, idx: usize) -> &Node {
        &self.nodes[idx]
    }

    /// Arena indices of top-level window roots, bottom to top.
    pub fn windows(&self) -> &[usize] {
        &self.windows
    }

    /// Arena index of the topmost window root, if any.
    pub fn top_window(&self) -> Option<usize> {
        self.windows.last().copied()
    }

    /// Iterates over all nodes with their indices.
    pub fn iter(&self) -> impl Iterator<Item = (usize, &Node)> {
        self.nodes.iter().enumerate()
    }

    /// Depth-first pre-order traversal below `root` (inclusive).
    pub fn descendants(&self, root: usize) -> Vec<usize> {
        let mut out = Vec::new();
        let mut stack = vec![root];
        while let Some(i) = stack.pop() {
            out.push(i);
            // Push children reversed so traversal is document-order.
            for &c in self.nodes[i].children.iter().rev() {
                stack.push(c);
            }
        }
        out
    }

    /// The chain of ancestor indices from `idx` (exclusive) up to the root.
    pub fn ancestors(&self, idx: usize) -> Vec<usize> {
        let mut out = Vec::new();
        let mut cur = self.nodes[idx].parent;
        while let Some(p) = cur {
            out.push(p);
            cur = self.nodes[p].parent;
        }
        out
    }

    /// Slash-delimited ancestor path of names, root-first (§4.1).
    ///
    /// Served from the identity index cache; use
    /// [`SnapIndex::path`] (via [`Snapshot::index`]) to borrow the cached
    /// string without this method's allocation.
    pub fn ancestor_path(&self, idx: usize) -> String {
        self.index().path(idx).to_string()
    }

    /// The depth of a node (root = 0).
    pub fn depth(&self, idx: usize) -> usize {
        self.ancestors(idx).len()
    }

    /// Finds all nodes matching a predicate.
    pub fn find_all(&self, mut pred: impl FnMut(&Node) -> bool) -> Vec<usize> {
        self.iter().filter(|(_, n)| pred(n)).map(|(i, _)| i).collect()
    }

    /// Finds the first node whose name equals `name`.
    pub fn find_by_name(&self, name: &str) -> Option<usize> {
        self.iter().find(|(_, n)| n.props.name == name).map(|(i, _)| i)
    }

    /// Finds the first node with the given name under a specific window root.
    pub fn find_by_name_in_window(&self, window_root: usize, name: &str) -> Option<usize> {
        self.descendants(window_root).into_iter().find(|&i| self.nodes[i].props.name == name)
    }

    /// All nodes of a control type.
    pub fn find_by_type(&self, ct: ControlType) -> Vec<usize> {
        self.find_all(|n| n.props.control_type == ct)
    }

    /// All actionable (enabled, on-screen) nodes supporting a pattern.
    pub fn actionable_with_pattern(&self, p: PatternKind) -> Vec<usize> {
        self.find_all(|n| n.props.is_actionable() && n.props.patterns.supports(p))
    }

    /// The deepest node whose rectangle contains the point, searching the
    /// topmost window first (hit testing for simulated pointer input).
    ///
    /// A single O(n) DFS per window: depth rides on the traversal stack
    /// instead of being recomputed by an ancestor walk per contained node.
    pub fn hit_test(&self, x: i32, y: i32) -> Option<usize> {
        for &w in self.windows.iter().rev() {
            let mut best: Option<(usize, usize)> = None; // (idx, depth)
            let mut stack: Vec<(usize, usize)> = vec![(w, 0)]; // (idx, depth)
            while let Some((i, d)) = stack.pop() {
                let n = &self.nodes[i];
                if !n.props.offscreen
                    && n.props.rect.contains(x, y)
                    && best.is_none_or(|(_, bd)| d >= bd)
                {
                    best = Some((i, d));
                }
                // Push children reversed so traversal is document-order,
                // matching `descendants` (ties prefer later document order
                // at equal depth).
                for &c in n.children.iter().rev() {
                    stack.push((c, d + 1));
                }
            }
            if let Some((i, _)) = best {
                return Some(i);
            }
        }
        None
    }

    /// Convenience view over one node.
    pub fn node_ref(&self, idx: usize) -> NodeRef<'_> {
        NodeRef { snap: self, idx }
    }

    /// The visible bounding rect of the snapshot's topmost window.
    pub fn top_window_rect(&self) -> Option<Rect> {
        self.top_window().map(|w| self.nodes[w].props.rect)
    }
}

/// A borrowed view of one node plus its snapshot, for ergonomic navigation.
#[derive(Debug, Clone, Copy)]
pub struct NodeRef<'a> {
    snap: &'a Snapshot,
    idx: usize,
}

impl<'a> NodeRef<'a> {
    /// The arena index.
    pub fn index(&self) -> usize {
        self.idx
    }

    /// The underlying node.
    pub fn node(&self) -> &'a Node {
        self.snap.node(self.idx)
    }

    /// The property bag.
    pub fn props(&self) -> &'a ControlProps {
        &self.snap.node(self.idx).props
    }

    /// Parent view, if any.
    pub fn parent(&self) -> Option<NodeRef<'a>> {
        self.node().parent.map(|p| NodeRef { snap: self.snap, idx: p })
    }

    /// Child views.
    pub fn children(&self) -> impl Iterator<Item = NodeRef<'a>> + '_ {
        self.node().children.iter().map(move |&c| NodeRef { snap: self.snap, idx: c })
    }

    /// Whether this node has no children in the snapshot.
    pub fn is_leaf(&self) -> bool {
        self.node().children.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ControlProps;

    fn sample() -> Snapshot {
        let mut s = Snapshot::new();
        let w = s.push(ControlProps::new("Main", ControlType::Window), None, 0);
        s.push_window_root(w);
        let tab = s.push(ControlProps::new("Home", ControlType::TabItem), Some(w), 0);
        let grp = s.push(ControlProps::new("Font", ControlType::Group), Some(tab), 0);
        let mut bold = ControlProps::new("Bold", ControlType::Button);
        bold.rect = Rect::new(10, 10, 20, 20);
        s.push(bold, Some(grp), 0);
        s
    }

    #[test]
    fn push_links_parent_and_children() {
        let s = sample();
        assert_eq!(s.len(), 4);
        assert_eq!(s.node(0).children, vec![1]);
        assert_eq!(s.node(3).parent, Some(2));
    }

    #[test]
    fn descendants_pre_order() {
        let s = sample();
        assert_eq!(s.descendants(0), vec![0, 1, 2, 3]);
    }

    #[test]
    fn ancestor_path_is_root_first() {
        let s = sample();
        assert_eq!(s.ancestor_path(3), "Main/Home/Font");
        assert_eq!(s.ancestor_path(0), "");
    }

    #[test]
    fn depth_counts_ancestors() {
        let s = sample();
        assert_eq!(s.depth(0), 0);
        assert_eq!(s.depth(3), 3);
    }

    #[test]
    fn find_by_name_and_type() {
        let s = sample();
        assert_eq!(s.find_by_name("Bold"), Some(3));
        assert_eq!(s.find_by_type(ControlType::Group), vec![2]);
    }

    #[test]
    fn hit_test_finds_deepest() {
        let mut s = sample();
        // Give ancestors enclosing rects.
        for i in 0..3 {
            s.nodes[i].props.rect = Rect::new(0, 0, 100, 100);
        }
        assert_eq!(s.hit_test(15, 15), Some(3));
        assert_eq!(s.hit_test(90, 90), Some(2));
        assert_eq!(s.hit_test(500, 500), None);
    }

    #[test]
    fn node_ref_navigation() {
        let s = sample();
        let r = s.node_ref(3);
        assert!(r.is_leaf());
        assert_eq!(r.parent().unwrap().props().name, "Font");
        assert_eq!(s.node_ref(0).children().count(), 1);
    }

    #[test]
    fn runtime_ids_unique() {
        let s = sample();
        let mut ids: Vec<_> = s.iter().map(|(_, n)| n.runtime_id).collect();
        ids.sort();
        ids.dedup();
        assert_eq!(ids.len(), s.len());
    }
}
