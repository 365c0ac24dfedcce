//! The mutable provider-side control tree.
//!
//! A [`UiTree`] is an arena of widgets plus the runtime UI state the
//! toolkit manages: the open-window stack (main window, dialogs, child
//! windows), the open-popup chain (menus, dropdowns), keyboard focus,
//! active UI contexts (e.g. "image-selected"), and shortcut bindings.
//!
//! Widgets are never removed from the arena — hidden instead — so
//! [`WidgetId`]s are stable for the lifetime of the application instance.

use crate::behavior::{CommandBinding, ShortcutAction};
use crate::widget::{Widget, WidgetId};
use dmi_uia::ControlType;
use serde::{Deserialize, Serialize};
use std::collections::{BTreeMap, BTreeSet};

/// An entry in the open-window stack.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct OpenWindow {
    /// Arena root of the window.
    pub root: WidgetId,
    /// Whether input outside the window is blocked.
    pub modal: bool,
}

/// The provider-side control tree and its runtime UI state.
#[derive(Debug, Default, Serialize, Deserialize)]
pub struct UiTree {
    widgets: Vec<Widget>,
    /// Arena root of the main application window.
    main_root: Option<WidgetId>,
    /// Open windows, bottom to top; index 0 is the main window.
    open_windows: Vec<OpenWindow>,
    /// Open popup containers, in open order (a chain for nested menus).
    open_popups: Vec<WidgetId>,
    /// Keyboard focus.
    focus: Option<WidgetId>,
    /// Active UI contexts gating `visible_when` widgets.
    contexts: BTreeSet<String>,
    /// Tree-level keyboard shortcuts.
    shortcuts: BTreeMap<String, ShortcutAction>,
    /// Widgets whose children are still "loading": hidden from snapshots
    /// until the given query sequence number (instability injection).
    pending_children: BTreeMap<WidgetId, u64>,
    /// Monotonic counter of *persistent* state mutations: widget property
    /// writes, arena growth, selection, focus, and context changes — the
    /// state a freshly launched application would not have. Deliberately
    /// NOT bumped by window/popup open/close (transient UI, undone by Esc)
    /// or tab selection (self-healing: selecting a tab deselects its
    /// siblings). The ripper's recovery planner compares epochs to decide
    /// whether pressing Esc can reach a launch-equivalent state or a full
    /// restart is required (§4.1 state restoration).
    #[serde(skip)]
    state_epoch: u64,
    /// Monotonic clock issuing per-window mutation stamps (see
    /// [`UiTree::window_stamp`]). Shared across roots so stamps are
    /// totally ordered within one tree lineage.
    #[serde(skip)]
    view_clock: u64,
    /// Stamp of the last *snapshot-visible* mutation per arena root:
    /// widget property writes, arena growth, tab/item selection, and
    /// pending-children schedules under that root. Popup expansion and
    /// the window stack are deliberately NOT stamped — they are keyed
    /// structurally (open-popup chain, open-window stack) by the capture
    /// cache, so transient open+close sequences return to a cache hit.
    #[serde(skip)]
    window_stamps: BTreeMap<WidgetId, u64>,
    /// Floor value reported for roots with no stamp on record. Advanced
    /// past every issued stamp on `clone_from` (a wholesale restore), so
    /// capture keys recorded before a reset can never validate after it.
    #[serde(skip)]
    stamp_floor: u64,
    /// Bumped whenever the active-context set changes. Contexts gate
    /// `visible_when` widgets in *any* window, so this is a global key
    /// component rather than a per-root stamp.
    #[serde(skip)]
    context_epoch: u64,
}

impl Clone for UiTree {
    fn clone(&self) -> UiTree {
        UiTree {
            widgets: self.widgets.clone(),
            main_root: self.main_root,
            open_windows: self.open_windows.clone(),
            open_popups: self.open_popups.clone(),
            focus: self.focus,
            contexts: self.contexts.clone(),
            shortcuts: self.shortcuts.clone(),
            pending_children: self.pending_children.clone(),
            state_epoch: self.state_epoch,
            view_clock: self.view_clock,
            window_stamps: self.window_stamps.clone(),
            stamp_floor: self.stamp_floor,
            context_epoch: self.context_epoch,
        }
    }

    /// Allocation-recycling restore: reuses the destination arena's
    /// `String`/`Vec` buffers widget-by-widget (see [`Widget`]'s manual
    /// `clone_from`), so an `office::Pristine` reset is O(live mutations)
    /// in allocations instead of re-allocating every widget name.
    ///
    /// The epochs are NOT copied from the source: a wholesale restore is
    /// one big mutation, so every counter advances monotonically past both
    /// trees. Capture keys recorded against the old state (or against the
    /// pristine image's own counters) can therefore never validate against
    /// the restored tree.
    // The source is destructured exhaustively so adding a field without
    // deciding its restore semantics is a compile error.
    fn clone_from(&mut self, src: &UiTree) {
        let UiTree {
            widgets,
            main_root,
            open_windows,
            open_popups,
            focus,
            contexts,
            shortcuts,
            pending_children,
            state_epoch,
            view_clock,
            window_stamps: _, // Superseded: every stamp re-floors below.
            stamp_floor: _,
            context_epoch,
        } = src;
        self.widgets.clone_from(widgets);
        self.main_root = *main_root;
        self.open_windows.clone_from(open_windows);
        self.open_popups.clone_from(open_popups);
        self.focus = *focus;
        // Equality pre-checks: these maps are almost always identical to
        // the pristine image (shortcuts never change at runtime), and the
        // compare is allocation-free where a blind clone is not.
        if self.contexts != *contexts {
            self.contexts = contexts.clone();
        }
        if self.shortcuts != *shortcuts {
            self.shortcuts = shortcuts.clone();
        }
        if self.pending_children != *pending_children {
            self.pending_children = pending_children.clone();
        }
        self.state_epoch = self.state_epoch.max(*state_epoch) + 1;
        self.view_clock = self.view_clock.max(*view_clock) + 1;
        self.stamp_floor = self.view_clock;
        self.window_stamps.clear();
        self.context_epoch = self.context_epoch.max(*context_epoch) + 1;
    }
}

impl UiTree {
    /// Creates an empty tree.
    pub fn new() -> Self {
        UiTree::default()
    }

    /// Stamps the window (arena root) containing `id` with a fresh view
    /// tick: any snapshot or layout of that window cached against an
    /// earlier stamp is stale.
    fn stamp(&mut self, id: WidgetId) {
        let root = self.root_of(id);
        self.view_clock += 1;
        self.window_stamps.insert(root, self.view_clock);
    }

    /// Adds a root widget (no parent). The first root added becomes the
    /// main window and is opened immediately; later roots are dialog or
    /// child-window roots, closed until opened.
    pub fn add_root(&mut self, w: Widget) -> WidgetId {
        let id = WidgetId(self.widgets.len());
        let mut w = w;
        w.parent = None;
        self.state_epoch += 1;
        self.widgets.push(w);
        self.stamp(id);
        if self.main_root.is_none() {
            self.main_root = Some(id);
            self.open_windows.push(OpenWindow { root: id, modal: false });
        }
        id
    }

    /// Adds a child widget under `parent` and returns its id.
    pub fn add(&mut self, parent: WidgetId, w: Widget) -> WidgetId {
        let id = WidgetId(self.widgets.len());
        let mut w = w;
        w.parent = Some(parent);
        self.state_epoch += 1;
        self.widgets.push(w);
        self.widgets[parent.0].children.push(id);
        self.stamp(parent);
        id
    }

    /// Number of widgets in the arena.
    pub fn len(&self) -> usize {
        self.widgets.len()
    }

    /// Whether the arena is empty.
    pub fn is_empty(&self) -> bool {
        self.widgets.is_empty()
    }

    /// Borrows a widget.
    pub fn widget(&self, id: WidgetId) -> &Widget {
        &self.widgets[id.0]
    }

    /// Mutably borrows a widget. Counts as a persistent state mutation
    /// (see [`UiTree::state_epoch`]): callers hold a write handle, and the
    /// tree must assume a property changed.
    pub fn widget_mut(&mut self, id: WidgetId) -> &mut Widget {
        self.state_epoch += 1;
        self.stamp(id);
        &mut self.widgets[id.0]
    }

    /// Renames a widget WITHOUT bumping the state epoch or the window
    /// stamp — the tree's change-tracking invariant is deliberately
    /// violated. Fault-injection hook for the fuzzer: a provider whose
    /// properties drift while its stamps claim nothing changed models a
    /// real app lying to the capture cache. Never call this from
    /// production code; every capture layer is entitled to trust stamps.
    #[doc(hidden)]
    pub fn relabel_unstamped(&mut self, id: WidgetId, name: impl Into<String>) {
        self.widgets[id.0].name = name.into();
    }

    /// The persistent-mutation epoch. Two equal readings bracket a span in
    /// which no widget property, arena, selection, focus, or context
    /// changed — transient window/popup state and tab selection excluded —
    /// so pressing Esc back to the base window provably restores a
    /// launch-equivalent UI.
    pub fn state_epoch(&self) -> u64 {
        self.state_epoch
    }

    /// The stamp of the last snapshot-visible mutation inside the window
    /// rooted at `root` (widget writes, arena growth, tab/item selection,
    /// pending-children schedules). Popup expansion and the window stack
    /// move no stamp — capture caches key them structurally, so transient
    /// open+close sequences compare equal again. Two equal readings (with
    /// equal popup chains and context epoch) prove the window's snapshot
    /// subtree and layout rows are byte-identical.
    pub fn window_stamp(&self, root: WidgetId) -> u64 {
        self.window_stamps.get(&root).copied().unwrap_or(self.stamp_floor)
    }

    /// The active-context epoch: bumped whenever the context set changes
    /// (contexts gate `visible_when` widgets in any window).
    pub fn context_epoch(&self) -> u64 {
        self.context_epoch
    }

    /// The open popups whose subtrees live under `root`, in chain order.
    /// Part of every per-window capture key: expansion state is kept in
    /// lockstep with the chain by [`UiTree::open_popup`] and
    /// [`UiTree::collapse_popup`].
    pub fn popups_under(&self, root: WidgetId) -> Vec<WidgetId> {
        self.open_popups.iter().copied().filter(|&p| self.root_of(p) == root).collect()
    }

    /// The earliest query sequence at which a pending-children schedule
    /// under `root` will reveal a subtree that is hidden at `query_seq`
    /// (`u64::MAX` when none is outstanding). A snapshot of this window
    /// built at `query_seq` stays observably identical to an eager rebuild
    /// for every query strictly before the returned value.
    pub fn next_reveal_under(&self, root: WidgetId, query_seq: u64) -> u64 {
        self.pending_children
            .iter()
            .filter(|&(&id, &ready)| ready > query_seq && self.root_of(id) == root)
            .map(|(_, &ready)| ready)
            .min()
            .unwrap_or(u64::MAX)
    }

    /// Iterates over all widgets with ids.
    pub fn iter(&self) -> impl Iterator<Item = (WidgetId, &Widget)> {
        self.widgets.iter().enumerate().map(|(i, w)| (WidgetId(i), w))
    }

    /// The main window root.
    pub fn main_root(&self) -> WidgetId {
        self.main_root.expect("tree has no main root")
    }

    /// The open-window stack, bottom to top.
    pub fn open_windows(&self) -> &[OpenWindow] {
        &self.open_windows
    }

    /// The topmost open window.
    pub fn top_window(&self) -> OpenWindow {
        *self.open_windows.last().expect("window stack empty")
    }

    /// The chain of open popups, outermost first.
    pub fn open_popups(&self) -> &[WidgetId] {
        &self.open_popups
    }

    /// The focused widget, if any.
    pub fn focus(&self) -> Option<WidgetId> {
        self.focus
    }

    /// Sets keyboard focus.
    pub fn set_focus(&mut self, id: Option<WidgetId>) {
        if self.focus != id {
            self.state_epoch += 1;
        }
        self.focus = id;
    }

    /// Registers a tree-level keyboard shortcut (e.g. `"Ctrl+B"`).
    pub fn bind_shortcut(&mut self, keys: impl Into<String>, action: ShortcutAction) {
        self.shortcuts.insert(keys.into(), action);
    }

    /// Looks up a shortcut.
    pub fn shortcut(&self, keys: &str) -> Option<&ShortcutAction> {
        self.shortcuts.get(keys)
    }

    /// Activates or deactivates a UI context (e.g. `"image-selected"`).
    pub fn set_context(&mut self, ctx: &str, on: bool) {
        let changed =
            if on { self.contexts.insert(ctx.to_string()) } else { self.contexts.remove(ctx) };
        if changed {
            self.state_epoch += 1;
            self.context_epoch += 1;
        }
    }

    /// Whether a context is active.
    pub fn context_active(&self, ctx: &str) -> bool {
        self.contexts.contains(ctx)
    }

    /// Active contexts in sorted order.
    pub fn active_contexts(&self) -> impl Iterator<Item = &str> {
        self.contexts.iter().map(|s| s.as_str())
    }

    /// Whether the window rooted at `root` is open.
    pub fn is_window_open(&self, root: WidgetId) -> bool {
        self.open_windows.iter().any(|w| w.root == root)
    }

    /// Opens the window rooted at `root` (push on top of the stack).
    pub fn open_window(&mut self, root: WidgetId, modal: bool) {
        if !self.is_window_open(root) {
            self.open_windows.push(OpenWindow { root, modal });
        }
    }

    /// Closes the topmost window (never the main window). Returns its root.
    pub fn close_top_window(&mut self) -> Option<WidgetId> {
        if self.open_windows.len() > 1 {
            // Close any popups that live inside the window being closed.
            let root = self.open_windows.pop().map(|w| w.root);
            if let Some(r) = root {
                let inside: Vec<WidgetId> = self
                    .open_popups
                    .iter()
                    .copied()
                    .filter(|&p| self.window_root_of(p) == Some(r))
                    .collect();
                for p in inside {
                    self.collapse_popup(p);
                }
            }
            root
        } else {
            None
        }
    }

    /// Opens a popup container (marks expanded, appends to the chain).
    pub fn open_popup(&mut self, id: WidgetId) {
        if !self.open_popups.contains(&id) {
            self.widgets[id.0].expanded = true;
            self.open_popups.push(id);
        }
    }

    /// Closes one popup (and any popups opened after it).
    pub fn collapse_popup(&mut self, id: WidgetId) {
        if let Some(pos) = self.open_popups.iter().position(|&p| p == id) {
            for &p in &self.open_popups[pos..] {
                // Collapse later popups too; they are nested under this one.
                let _ = p;
            }
            let closing: Vec<WidgetId> = self.open_popups.drain(pos..).collect();
            for p in closing {
                self.widgets[p.0].expanded = false;
            }
        }
    }

    /// Closes every open popup.
    pub fn close_all_popups(&mut self) {
        let all: Vec<WidgetId> = self.open_popups.drain(..).collect();
        for p in all {
            self.widgets[p.0].expanded = false;
        }
    }

    /// Closes popups that do not contain `id` in their subtree (clicking
    /// elsewhere dismisses unrelated menus).
    pub fn close_popups_not_containing(&mut self, id: WidgetId) {
        let keep: Vec<WidgetId> = self
            .open_popups
            .iter()
            .copied()
            .take_while(|&p| self.is_descendant_or_self(id, p))
            .collect();
        let to_close: Vec<WidgetId> = self.open_popups[keep.len()..].to_vec();
        if let Some(&first) = to_close.first() {
            self.collapse_popup(first);
        }
    }

    /// Whether `id` is `anc` or inside `anc`'s subtree.
    pub fn is_descendant_or_self(&self, id: WidgetId, anc: WidgetId) -> bool {
        let mut cur = Some(id);
        while let Some(c) = cur {
            if c == anc {
                return true;
            }
            cur = self.widgets[c.0].parent;
        }
        false
    }

    /// The arena root above `id`.
    pub fn root_of(&self, id: WidgetId) -> WidgetId {
        let mut cur = id;
        while let Some(p) = self.widgets[cur.0].parent {
            cur = p;
        }
        cur
    }

    /// The open-window root containing `id`, if its root is open.
    pub fn window_root_of(&self, id: WidgetId) -> Option<WidgetId> {
        let root = self.root_of(id);
        self.is_window_open(root).then_some(root)
    }

    /// Whether a widget is currently revealed (its window open, every
    /// popup ancestor expanded, every tab ancestor selected, context
    /// conditions met, and static visibility on).
    pub fn is_shown(&self, id: WidgetId) -> bool {
        self.shows_itself(id)
            && match self.widgets[id.0].parent {
                None => self.is_window_open(id),
                Some(p) => self.reveals_children(p) && self.is_shown(p),
            }
    }

    /// The widget's own half of [`UiTree::is_shown`]: static visibility on
    /// and its `visible_when` context (if any) active. A child of a shown
    /// parent that [`UiTree::reveals_children`] is shown exactly when this
    /// holds, which is what lets a top-down walk check visibility in O(1)
    /// per widget.
    pub(crate) fn shows_itself(&self, id: WidgetId) -> bool {
        let w = &self.widgets[id.0];
        w.visible && w.visible_when.as_ref().is_none_or(|ctx| self.contexts.contains(ctx))
    }

    /// Whether a widget lets its children show: not a collapsed popup and
    /// not an unselected tab item.
    pub(crate) fn reveals_children(&self, id: WidgetId) -> bool {
        let w = &self.widgets[id.0];
        (!w.popup || w.expanded) && (w.control_type != ControlType::TabItem || w.selected)
    }

    /// Selects a tab item, deselecting its sibling tab items.
    pub fn select_tab(&mut self, id: WidgetId) {
        self.stamp(id);
        let parent = self.widgets[id.0].parent;
        if let Some(p) = parent {
            let siblings: Vec<WidgetId> = self.widgets[p.0]
                .children
                .iter()
                .copied()
                .filter(|&c| self.widgets[c.0].control_type == ControlType::TabItem)
                .collect();
            for s in siblings {
                self.widgets[s.0].selected = s == id;
            }
        } else {
            self.widgets[id.0].selected = true;
        }
    }

    /// Selects a selection item; when not `additive`, deselects siblings.
    pub fn select_item(&mut self, id: WidgetId, additive: bool) {
        self.state_epoch += 1;
        self.stamp(id);
        if !additive {
            if let Some(p) = self.widgets[id.0].parent {
                let siblings = self.widgets[p.0].children.clone();
                for s in siblings {
                    self.widgets[s.0].selected = false;
                }
            }
        }
        self.widgets[id.0].selected = true;
    }

    /// Marks a container's children as still loading until `ready_query`.
    pub fn set_pending_children(&mut self, id: WidgetId, ready_query: u64) {
        self.state_epoch += 1;
        self.stamp(id);
        self.pending_children.insert(id, ready_query);
    }

    /// Whether a container's children are hidden at query `query_seq`.
    pub fn children_pending(&self, id: WidgetId, query_seq: u64) -> bool {
        self.pending_children.get(&id).is_some_and(|&r| query_seq < r)
    }

    /// Depth-first pre-order ids below `root` (inclusive), *structural*
    /// (ignores visibility).
    pub fn descendants(&self, root: WidgetId) -> Vec<WidgetId> {
        let mut out = Vec::new();
        let mut stack = vec![root];
        while let Some(i) = stack.pop() {
            out.push(i);
            for &c in self.widgets[i.0].children.iter().rev() {
                stack.push(c);
            }
        }
        out
    }

    /// Finds the first widget with the given name (structural search).
    pub fn find_by_name(&self, name: &str) -> Option<WidgetId> {
        self.iter().find(|(_, w)| w.name == name).map(|(i, _)| i)
    }

    /// Finds the first widget with the given automation id.
    pub fn find_by_automation_id(&self, auto: &str) -> Option<WidgetId> {
        self.iter().find(|(_, w)| w.automation_id == auto).map(|(i, _)| i)
    }

    /// The semantic command binding attached to a widget through its
    /// click behavior, if any.
    pub fn command_of(&self, id: WidgetId) -> Option<&CommandBinding> {
        use crate::behavior::Behavior;
        match &self.widgets[id.0].on_click {
            Behavior::Command(b) | Behavior::CommandAndDismiss(b) => Some(b),
            _ => None,
        }
    }

    /// Restores the runtime UI state to "freshly launched": only the main
    /// window open, no popups, no focus, contexts cleared. Widget state
    /// (values, toggles) is left to the application's own reset.
    pub fn reset_ui_state(&mut self) {
        self.close_all_popups();
        while self.open_windows.len() > 1 {
            self.open_windows.pop();
        }
        self.focus = None;
        if !self.contexts.is_empty() {
            self.contexts.clear();
            self.context_epoch += 1;
        }
        if !self.pending_children.is_empty() {
            // Dropping a schedule re-reveals hidden subtrees: stamp every
            // window that had one outstanding.
            let roots: Vec<WidgetId> =
                self.pending_children.keys().map(|&id| self.root_of(id)).collect();
            self.pending_children.clear();
            for root in roots {
                self.stamp(root);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::widget::WidgetBuilder;
    use dmi_uia::ControlType as CT;

    fn tree() -> (UiTree, WidgetId, WidgetId, WidgetId, WidgetId) {
        let mut t = UiTree::new();
        let main = t.add_root(Widget::new("Main", CT::Window));
        let tabs = t.add(main, Widget::new("Ribbon", CT::Tab));
        let home = t.add(tabs, WidgetBuilder::new("Home", CT::TabItem).selected().build());
        let insert = t.add(tabs, Widget::new("Insert", CT::TabItem));
        (t, main, tabs, home, insert)
    }

    #[test]
    fn first_root_is_open_main_window() {
        let (t, main, ..) = tree();
        assert_eq!(t.main_root(), main);
        assert!(t.is_window_open(main));
        assert_eq!(t.open_windows().len(), 1);
    }

    #[test]
    fn tab_scoping_hides_unselected_panels() {
        let (mut t, _, _, home, insert) = tree();
        let bold = t.add(home, Widget::new("Bold", CT::Button));
        let table = t.add(insert, Widget::new("Table", CT::Button));
        assert!(t.is_shown(bold));
        assert!(!t.is_shown(table));
        t.select_tab(insert);
        assert!(!t.is_shown(bold));
        assert!(t.is_shown(table));
    }

    #[test]
    fn popup_chain_open_and_collapse() {
        let (mut t, main, ..) = tree();
        let menu = t.add(main, WidgetBuilder::new("Colors", CT::SplitButton).popup().build());
        let sub = t.add(menu, WidgetBuilder::new("More", CT::MenuItem).popup().build());
        let cell = t.add(sub, Widget::new("Blue", CT::ListItem));
        assert!(!t.is_shown(cell));
        t.open_popup(menu);
        t.open_popup(sub);
        assert!(t.is_shown(cell));
        assert_eq!(t.open_popups().len(), 2);
        t.collapse_popup(menu);
        assert!(t.open_popups().is_empty());
        assert!(!t.is_shown(cell));
    }

    #[test]
    fn close_popups_not_containing_keeps_own_chain() {
        let (mut t, main, ..) = tree();
        let menu = t.add(main, WidgetBuilder::new("Colors", CT::SplitButton).popup().build());
        let item = t.add(menu, Widget::new("Blue", CT::ListItem));
        let other = t.add(main, Widget::new("Paste", CT::Button));
        t.open_popup(menu);
        t.close_popups_not_containing(item);
        assert_eq!(t.open_popups().len(), 1);
        t.close_popups_not_containing(other);
        assert!(t.open_popups().is_empty());
    }

    #[test]
    fn dialog_windows_stack_and_close() {
        let (mut t, main, ..) = tree();
        let dlg = t.add_root(Widget::new("Format", CT::Window));
        let ok = t.add(dlg, Widget::new("OK", CT::Button));
        assert!(!t.is_shown(ok));
        t.open_window(dlg, true);
        assert!(t.is_shown(ok));
        assert!(t.top_window().modal);
        assert_eq!(t.close_top_window(), Some(dlg));
        assert!(!t.is_shown(ok));
        // The main window never closes.
        assert_eq!(t.close_top_window(), None);
        assert!(t.is_window_open(main));
    }

    #[test]
    fn context_gated_visibility() {
        let (mut t, main, ..) = tree();
        let pic = t.add(
            main,
            WidgetBuilder::new("Picture Format", CT::TabItem)
                .visible_when("image-selected")
                .build(),
        );
        assert!(!t.is_shown(pic));
        t.set_context("image-selected", true);
        assert!(t.is_shown(pic));
        t.set_context("image-selected", false);
        assert!(!t.is_shown(pic));
    }

    #[test]
    fn window_root_of_walks_up() {
        let (mut t, main, _, home, _) = tree();
        let bold = t.add(home, Widget::new("Bold", CT::Button));
        assert_eq!(t.window_root_of(bold), Some(main));
        let dlg = t.add_root(Widget::new("Dialog", CT::Window));
        let btn = t.add(dlg, Widget::new("OK", CT::Button));
        assert_eq!(t.window_root_of(btn), None);
        t.open_window(dlg, true);
        assert_eq!(t.window_root_of(btn), Some(dlg));
    }

    #[test]
    fn pending_children_window() {
        let (mut t, main, ..) = tree();
        t.set_pending_children(main, 5);
        assert!(t.children_pending(main, 4));
        assert!(!t.children_pending(main, 5));
    }

    #[test]
    fn reset_ui_state_restores_launch_shape() {
        let (mut t, ..) = tree();
        let dlg = t.add_root(Widget::new("Dialog", CT::Window));
        t.open_window(dlg, true);
        t.set_context("image-selected", true);
        t.reset_ui_state();
        assert_eq!(t.open_windows().len(), 1);
        assert!(!t.context_active("image-selected"));
    }

    #[test]
    fn state_epoch_tracks_persistent_mutations_only() {
        let (mut t, main, _, home, insert) = tree();
        let dlg = t.add_root(Widget::new("Dialog", CT::Window));
        let menu = t.add(main, WidgetBuilder::new("Colors", CT::SplitButton).popup().build());
        let epoch = t.state_epoch();
        // Transient UI: windows and popups do not move the epoch.
        t.open_window(dlg, true);
        t.close_top_window();
        t.open_popup(menu);
        t.collapse_popup(menu);
        // Tab selection is self-healing (selecting deselects siblings).
        t.select_tab(insert);
        t.select_tab(home);
        assert_eq!(t.state_epoch(), epoch, "transient state must not move the epoch");
        // Persistent mutations do.
        t.widget_mut(home).enabled = false;
        assert!(t.state_epoch() > epoch, "widget writes move the epoch");
        let epoch = t.state_epoch();
        t.set_context("image-selected", true);
        assert!(t.state_epoch() > epoch, "context changes move the epoch");
        let epoch = t.state_epoch();
        t.set_context("image-selected", true); // Already active: no change.
        assert_eq!(t.state_epoch(), epoch);
    }

    #[test]
    fn window_stamps_track_visible_mutations_per_root() {
        let (mut t, main, _, home, insert) = tree();
        let dlg = t.add_root(Widget::new("Dialog", CT::Window));
        let btn = t.add(dlg, Widget::new("OK", CT::Button));
        let menu = t.add(main, WidgetBuilder::new("Colors", CT::SplitButton).popup().build());
        let (m0, d0) = (t.window_stamp(main), t.window_stamp(dlg));
        // Transient structure: popups and the window stack move no stamp
        // (capture caches key them structurally).
        t.open_window(dlg, true);
        t.open_popup(menu);
        t.collapse_popup(menu);
        t.close_top_window();
        assert_eq!((t.window_stamp(main), t.window_stamp(dlg)), (m0, d0));
        // A widget write stamps exactly its owning window.
        t.widget_mut(btn).enabled = false;
        assert_eq!(t.window_stamp(main), m0, "main window untouched");
        assert!(t.window_stamp(dlg) > d0, "dialog window stamped");
        // Tab selection stamps the window but not the persistent epoch.
        let epoch = t.state_epoch();
        t.select_tab(insert);
        t.select_tab(home);
        assert_eq!(t.state_epoch(), epoch, "tab selection stays transient for recovery");
        assert!(t.window_stamp(main) > m0, "tab selection is snapshot-visible");
    }

    #[test]
    fn context_epoch_moves_only_on_actual_changes() {
        let (mut t, ..) = tree();
        let c0 = t.context_epoch();
        t.set_context("image-selected", true);
        assert!(t.context_epoch() > c0);
        let c1 = t.context_epoch();
        t.set_context("image-selected", true); // Already active.
        assert_eq!(t.context_epoch(), c1);
        t.set_context("image-selected", false);
        assert!(t.context_epoch() > c1);
    }

    #[test]
    fn clone_from_recycles_buffers_and_advances_epochs() {
        let (mut t, main, ..) = tree();
        let label = t.add(main, Widget::new("A label with a long name", CT::Text));
        let pristine = t.clone();
        // Mutate, then restore.
        t.widget_mut(label).name.push_str(" (edited)");
        t.widget_mut(label).enabled = false;
        let ptr_before = t.widget(label).name.as_ptr();
        let (e0, s0, c0) = (t.state_epoch(), t.window_stamp(main), t.context_epoch());
        t.clone_from(&pristine);
        assert_eq!(t.widget(label).name, "A label with a long name");
        assert!(t.widget(label).enabled);
        assert_eq!(
            t.widget(label).name.as_ptr(),
            ptr_before,
            "restore must reuse the existing string buffer"
        );
        // Every epoch advanced past both trees: no capture key recorded
        // before the restore can validate after it.
        assert!(t.state_epoch() > e0.max(pristine.state_epoch()));
        assert!(t.window_stamp(main) > s0);
        assert!(t.context_epoch() > c0.max(pristine.context_epoch()));
    }

    #[test]
    fn next_reveal_under_scopes_to_the_owning_root() {
        let (mut t, main, ..) = tree();
        let dlg = t.add_root(Widget::new("Dialog", CT::Window));
        let menu = t.add(main, WidgetBuilder::new("Colors", CT::SplitButton).popup().build());
        t.set_pending_children(menu, 7);
        assert_eq!(t.next_reveal_under(main, 3), 7);
        assert_eq!(t.next_reveal_under(main, 7), u64::MAX, "already revealed");
        assert_eq!(t.next_reveal_under(dlg, 3), u64::MAX, "other windows unaffected");
    }

    #[test]
    fn select_item_exclusive_and_additive() {
        let (mut t, main, ..) = tree();
        let list = t.add(main, Widget::new("List", CT::List));
        let a = t.add(list, Widget::new("A", CT::ListItem));
        let b = t.add(list, Widget::new("B", CT::ListItem));
        t.select_item(a, false);
        t.select_item(b, true);
        assert!(t.widget(a).selected && t.widget(b).selected);
        t.select_item(a, false);
        assert!(t.widget(a).selected);
        assert!(!t.widget(b).selected);
    }
}
