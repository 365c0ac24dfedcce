//! Deterministic layout: assigns bounding rectangles and off-screen flags.
//!
//! The layout is intentionally simple — the paper's claims concern
//! structure, not pixel aesthetics — but it is *consistent*: hit testing,
//! coordinate clicks, scrollbar drags, and off-screen computation all agree
//! with the rectangles produced here.
//!
//! Scheme: each open window gets a fixed rectangle (the main window fills
//! the virtual screen; dialogs cascade). Within a window, shown widgets are
//! stacked as 22-pixel rows in depth-first order, indented by depth.
//! Children of a scrollable container participate only while inside the
//! viewport window determined by `scroll_pos`; the rest are marked
//! off-screen (they stay in the accessibility tree, like real UIA).
//!
//! There is one way to lay a window out: [`walk`], a single depth-first
//! pass that visits every shown widget of the window exactly once, in
//! document order, and yields its [`Row`] — rect, off-screen flag and
//! depth — as it goes. Visibility is decided locally (the walk only
//! descends from shown parents, so `UiTree::shows_itself` plus the
//! parent's `UiTree::reveals_children` equals the recursive
//! [`UiTree::is_shown`]), and no per-widget map is built. The snapshot
//! builder emits nodes straight from the walk, and hit testing keeps the
//! deepest row under the pointer (see `crate::snapshot` and
//! `Session::hit_test`).

use crate::tree::UiTree;
use crate::widget::WidgetId;
use dmi_uia::{ControlType, Rect};

/// Virtual screen size.
pub const SCREEN_W: i32 = 1280;
/// Virtual screen height.
pub const SCREEN_H: i32 = 800;
/// Row height for laid-out widgets.
pub const ROW_H: i32 = 22;
/// Dialog size.
pub const DIALOG_W: i32 = 640;
/// Dialog height.
pub const DIALOG_H: i32 = 480;

/// The window rectangle for the `i`-th open window (0 = main).
pub fn window_rect(i: usize) -> Rect {
    if i == 0 {
        Rect::new(0, 0, SCREEN_W, SCREEN_H)
    } else {
        let off = (i as i32 - 1) * 24;
        Rect::new(
            (SCREEN_W - DIALOG_W) / 2 + off,
            (SCREEN_H - DIALOG_H) / 2 + off,
            DIALOG_W,
            DIALOG_H,
        )
    }
}

/// One laid-out widget, as yielded by [`walk`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Row {
    /// The widget.
    pub id: WidgetId,
    /// Its bounding rectangle (empty when off-screen, except scrollbars).
    pub rect: Rect,
    /// Whether it sits outside a scroll viewport (or under a row that
    /// does).
    pub offscreen: bool,
    /// Depth below the window root (the root is 0).
    pub depth: usize,
}

/// Walks the window rooted at `root` sitting at stack position `wi`,
/// yielding a [`Row`] for every shown widget in document (pre-)order.
/// Yields nothing when the root itself is not shown.
pub fn walk(tree: &UiTree, root: WidgetId, wi: usize) -> Walk<'_> {
    Walk {
        tree,
        wrect: window_rect(wi),
        row: 1, // row 0 is the window chrome
        root: tree.is_shown(root).then_some(root),
        stack: Vec::new(),
    }
}

/// The row of a shown widget, found by walking its open window (`None`
/// when the widget is not shown).
pub(crate) fn row_of(tree: &UiTree, id: WidgetId) -> Option<Row> {
    let root = tree.window_root_of(id)?;
    let wi = tree.open_windows().iter().position(|w| w.root == root)?;
    walk(tree, root, wi).find(|r| r.id == id)
}

/// The iterator behind [`walk`]: an explicit DFS stack of per-parent
/// frames, carrying the row counter through the whole window.
#[derive(Debug)]
pub struct Walk<'a> {
    tree: &'a UiTree,
    wrect: Rect,
    row: i32,
    /// The root, until it is yielded.
    root: Option<WidgetId>,
    stack: Vec<Frame<'a>>,
}

/// The children of one shown parent still to be visited.
#[derive(Debug)]
struct Frame<'a> {
    kids: std::slice::Iter<'a, WidgetId>,
    /// Shown children yielded so far (the viewport index of the next).
    shown: usize,
    /// `(start, rows)` of the viewport of a scrollable parent.
    viewport: Option<(usize, usize)>,
    /// Whether the parent is off-screen (its whole subtree is).
    forced_off: bool,
    /// Depth of the children.
    depth: usize,
}

impl<'a> Walk<'a> {
    /// Pushes the frame for the children of the shown widget `parent`
    /// (none when it reveals no children).
    fn descend(&mut self, parent: WidgetId, depth: usize, forced_off: bool) {
        let pw = self.tree.widget(parent);
        if pw.children.is_empty() || !self.tree.reveals_children(parent) {
            return;
        }
        // Viewport window for scrollable containers.
        let viewport = if pw.scrollable {
            let n = pw.children.iter().filter(|&&c| self.tree.shows_itself(c)).count();
            (n > 0).then(|| {
                let rows = pw.viewport_rows.min(n);
                let max_start = n - rows;
                let start = ((pw.scroll_pos / 100.0) * max_start as f64).round() as usize;
                (start.min(max_start), rows)
            })
        } else {
            None
        };
        self.stack.push(Frame { kids: pw.children.iter(), shown: 0, viewport, forced_off, depth });
    }
}

impl Iterator for Walk<'_> {
    type Item = Row;

    fn next(&mut self) -> Option<Row> {
        if let Some(root) = self.root.take() {
            self.descend(root, 1, false);
            return Some(Row { id: root, rect: self.wrect, offscreen: false, depth: 0 });
        }
        loop {
            let frame = self.stack.last_mut()?;
            let Some(&c) = frame.kids.next() else {
                self.stack.pop();
                continue;
            };
            if !self.tree.shows_itself(c) {
                continue;
            }
            let i = frame.shown;
            frame.shown += 1;
            let in_viewport =
                frame.viewport.is_none_or(|(start, rows)| i >= start && i < start + rows);
            let off = frame.forced_off || !in_viewport;
            let depth = frame.depth;
            let wrect = self.wrect;
            let rect = if self.tree.widget(c).control_type == ControlType::ScrollBar {
                // Scrollbars hug the right edge of their window, full height.
                Rect::new(wrect.x + wrect.w - 18, wrect.y, 18, wrect.h)
            } else if off {
                Rect::new(0, 0, 0, 0)
            } else {
                let d = depth as i32;
                let y = wrect.y + (self.row % ((wrect.h / ROW_H).max(1))) * ROW_H;
                self.row += 1;
                Rect::new(wrect.x + d * 8, y, (wrect.w - d * 16).max(40), ROW_H - 2)
            };
            self.descend(c, depth + 1, off);
            return Some(Row { id: c, rect, offscreen: off, depth });
        }
    }
}

/// Converts a y-coordinate on a scrollbar track to a scroll percentage.
pub fn scrollbar_percent(track: Rect, y: i32) -> f64 {
    if track.h <= 0 {
        return 0.0;
    }
    let rel = (y - track.y).clamp(0, track.h) as f64 / track.h as f64;
    (rel * 100.0).clamp(0.0, 100.0)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::widget::{Widget, WidgetBuilder};
    use dmi_uia::ControlType as CT;
    use std::collections::HashMap;

    /// Every open window's rows, keyed by widget.
    fn rows(t: &UiTree) -> HashMap<WidgetId, Row> {
        t.open_windows()
            .iter()
            .enumerate()
            .flat_map(|(wi, w)| walk(t, w.root, wi))
            .map(|r| (r.id, r))
            .collect()
    }

    #[test]
    fn window_rects_cascade() {
        assert_eq!(window_rect(0), Rect::new(0, 0, SCREEN_W, SCREEN_H));
        let d1 = window_rect(1);
        let d2 = window_rect(2);
        assert_eq!(d2.x - d1.x, 24);
    }

    #[test]
    fn shown_widgets_get_rects() {
        let mut t = UiTree::new();
        let main = t.add_root(Widget::new("Main", CT::Window));
        let a = t.add(main, Widget::new("A", CT::Button));
        let menu = t.add(main, WidgetBuilder::new("M", CT::Menu).popup().build());
        let hidden = t.add(menu, Widget::new("H", CT::MenuItem));
        let l = rows(&t);
        assert!(l.contains_key(&a));
        assert!(!l.contains_key(&hidden));
        assert_eq!(l[&main].rect, window_rect(0));
        assert_eq!(row_of(&t, a), Some(l[&a]));
        assert_eq!(row_of(&t, hidden), None);
    }

    #[test]
    fn walk_is_document_order_with_depths() {
        let mut t = UiTree::new();
        let main = t.add_root(Widget::new("Main", CT::Window));
        let g = t.add(main, Widget::new("G", CT::Group));
        let a = t.add(g, Widget::new("A", CT::Button));
        let b = t.add(main, Widget::new("B", CT::Button));
        let got: Vec<(WidgetId, usize)> = walk(&t, main, 0).map(|r| (r.id, r.depth)).collect();
        assert_eq!(got, vec![(main, 0), (g, 1), (a, 2), (b, 1)]);
        assert_eq!(got.len(), t.descendants(main).iter().filter(|&&i| t.is_shown(i)).count());
    }

    #[test]
    fn scroll_viewport_marks_offscreen() {
        let mut t = UiTree::new();
        let main = t.add_root(Widget::new("Main", CT::Window));
        let doc = t.add(main, WidgetBuilder::new("Doc", CT::Document).scrollable(3).build());
        let items: Vec<WidgetId> =
            (0..10).map(|i| t.add(doc, Widget::new(format!("P{i}"), CT::Text))).collect();
        let l = rows(&t);
        assert!(!l[&items[0]].offscreen);
        assert!(!l[&items[2]].offscreen);
        assert!(l[&items[5]].offscreen);
        assert!(l[&items[9]].offscreen);

        // Scroll to the end: last items become visible, first off-screen.
        t.widget_mut(doc).scroll_pos = 100.0;
        let l = rows(&t);
        assert!(l[&items[0]].offscreen);
        assert!(!l[&items[9]].offscreen);
    }

    #[test]
    fn scrollbar_hugs_right_edge_and_percent_maps() {
        let mut t = UiTree::new();
        let main = t.add_root(Widget::new("Main", CT::Window));
        let doc = t.add(main, WidgetBuilder::new("Doc", CT::Document).scrollable(3).build());
        let sb =
            t.add(main, WidgetBuilder::new("Vertical", CT::ScrollBar).scroll_target(doc).build());
        let r = rows(&t)[&sb].rect;
        assert_eq!(r.x, SCREEN_W - 18);
        assert_eq!(r.h, SCREEN_H);
        assert!((scrollbar_percent(r, r.y) - 0.0).abs() < 1e-9);
        assert!((scrollbar_percent(r, r.y + r.h) - 100.0).abs() < 1e-9);
        assert!((scrollbar_percent(r, r.y + r.h / 2) - 50.0).abs() < 1.0);
    }

    #[test]
    fn descendants_of_offscreen_rows_are_offscreen() {
        let mut t = UiTree::new();
        let main = t.add_root(Widget::new("Main", CT::Window));
        let doc = t.add(main, WidgetBuilder::new("Doc", CT::Document).scrollable(1).build());
        let p0 = t.add(doc, Widget::new("P0", CT::Text));
        let p1 = t.add(doc, Widget::new("P1", CT::Text));
        let run = t.add(p1, Widget::new("Run", CT::Text));
        let l = rows(&t);
        assert!(!l[&p0].offscreen);
        assert!(l[&p1].offscreen);
        assert!(l[&run].offscreen);
    }
}
