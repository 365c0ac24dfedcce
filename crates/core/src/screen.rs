//! On-screen control labeling.
//!
//! Both the GUI baseline and DMI's interaction-related interfaces address
//! *currently visible* controls through short alphabetic labels ("A",
//! "HF"), assigned over the accessibility tree before each LLM call
//! (§5.1). Alphabetic labels are deliberately distinct from the numeric
//! ids of the navigation topology; interaction interfaces accept only
//! labels (§3.5).
//!
//! Observation is zero-copy. A [`LabeledScreen`] holds the `Arc` of the
//! snapshot it labels plus the arena indices of its on-screen nodes; a
//! [`ScreenEntry`] is a borrowed view of one of them, and its label is
//! its ordinal in bijective base 26, rendered on demand into a stack
//! [`Label`]. Resolving a label parses it back into that ordinal. Each
//! prompt format has one renderer writing `&str` pieces into a
//! [`Sink`]: a `String` for the prompt text, a [`Counter`] for its token
//! cost, so the count always equals `tokens::count` of the text.

use crate::tokens::{Counter, Sink};
use dmi_uia::{ControlProps, ControlType, Node, PatternSet, Rect, RuntimeId, Snapshot};
use std::sync::Arc;

/// Longest label: `usize::MAX` in bijective base 26 has 14 letters.
const LABEL_MAX: usize = 14;

/// An alphabetic label rendered into a stack buffer.
#[derive(Clone, Copy)]
pub struct Label {
    buf: [u8; LABEL_MAX],
    start: usize,
}

impl Label {
    /// The label of ordinal `i` (0 -> "A", 25 -> "Z", 26 -> "AA").
    pub(crate) fn new(mut i: usize) -> Label {
        let mut buf = [0u8; LABEL_MAX];
        let mut start = LABEL_MAX;
        loop {
            start -= 1;
            buf[start] = b'A' + (i % 26) as u8;
            i /= 26;
            if i == 0 {
                break;
            }
            i -= 1;
        }
        Label { buf, start }
    }

    /// The label text.
    pub fn as_str(&self) -> &str {
        std::str::from_utf8(&self.buf[self.start..]).expect("labels are ASCII letters")
    }

    /// The ordinal a label names: the inverse of [`Label::new`]. `None`
    /// for anything `Label::new` never produces (empty, non-`A..=Z`
    /// characters, or beyond `usize`).
    fn parse(label: &str) -> Option<usize> {
        if label.is_empty() {
            return None;
        }
        // `ordinal + 1` in bijective base 26; `u128` holds it for every
        // `usize` ordinal, including `usize::MAX`.
        let mut n = 0u128;
        for b in label.bytes() {
            if !b.is_ascii_uppercase() {
                return None;
            }
            n = n.checked_mul(26)?.checked_add(u128::from(b - b'A') + 1)?;
        }
        usize::try_from(n - 1).ok()
    }
}

impl std::ops::Deref for Label {
    type Target = str;

    fn deref(&self) -> &str {
        self.as_str()
    }
}

impl std::fmt::Debug for Label {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        std::fmt::Debug::fmt(self.as_str(), f)
    }
}

/// Converts an index to an alphabetic label (0 -> "A", 25 -> "Z",
/// 26 -> "AA").
pub fn alpha_label(i: usize) -> String {
    Label::new(i).as_str().to_string()
}

/// One labeled on-screen control: a view into the labeled snapshot.
#[derive(Debug, Clone, Copy)]
pub struct ScreenEntry<'a> {
    ordinal: usize,
    node: &'a Node,
}

impl<'a> ScreenEntry<'a> {
    /// Position among the screen's entries (document order).
    pub fn ordinal(&self) -> usize {
        self.ordinal
    }

    /// Alphabetic label ("A", "B", ..., "AA", ...).
    pub fn label(&self) -> Label {
        Label::new(self.ordinal)
    }

    /// Runtime id in the snapshot.
    pub fn runtime(&self) -> RuntimeId {
        self.node.runtime_id
    }

    /// Control name.
    pub fn name(&self) -> &'a str {
        &self.node.props.name
    }

    /// Control type.
    pub fn control_type(&self) -> ControlType {
        self.node.props.control_type
    }

    /// Value (edits, cells).
    pub fn value(&self) -> &'a str {
        &self.node.props.value
    }

    /// Supported patterns.
    pub fn patterns(&self) -> PatternSet {
        self.node.props.patterns
    }

    /// Whether the control is enabled.
    pub fn enabled(&self) -> bool {
        self.node.props.enabled
    }

    /// Bounding rectangle (for coordinate-based imperative input).
    pub fn rect(&self) -> Rect {
        self.node.props.rect
    }
}

/// The labeled view of one snapshot.
#[derive(Debug, Clone)]
pub struct LabeledScreen {
    snap: Arc<Snapshot>,
    /// Arena indices of the on-screen nodes in document order; entry `k`
    /// carries label `Label::new(k)`.
    onscreen: Vec<usize>,
}

/// One prompt line, `label: name(type) = 'value'<suffix>`, shared by
/// the full-tree and the labeled-screen formats.
fn render_line<S: Sink>(out: &mut S, label: Label, p: &ControlProps, suffix: &str) {
    out.put(&label);
    out.put(": ");
    out.put(&p.name);
    out.put("(");
    out.put(p.control_type.as_str());
    out.put(")");
    if !p.value.is_empty() {
        out.put(" = '");
        out.put(&p.value);
        out.put("'");
    }
    out.put(suffix);
    out.put("\n");
}

/// Renders the *full* exposed accessibility tree — the baseline's
/// observation (§5.1 registers a UIA event handler so apps expose
/// complete control trees, so every exposed control, on-screen or not,
/// lands in the prompt). Labels are arena indices.
fn render_full_tree<S: Sink>(snap: &Snapshot, out: &mut S) {
    for (i, node) in snap.iter() {
        let suffix = if node.props.offscreen { " [offscreen]" } else { "" };
        render_line(out, Label::new(i), &node.props, suffix);
    }
}

/// The full-tree observation as prompt text.
pub fn full_tree_prompt_text(snap: &Snapshot) -> String {
    let mut out = String::new();
    render_full_tree(snap, &mut out);
    out
}

/// Token cost of [`full_tree_prompt_text`], counted without rendering
/// the text.
pub fn full_tree_prompt_tokens(snap: &Snapshot) -> usize {
    let mut c = Counter::new();
    render_full_tree(snap, &mut c);
    c.finish()
}

/// Labels every on-screen (not off-screen) control in the snapshot.
pub fn label_screen(snap: &Arc<Snapshot>) -> LabeledScreen {
    let onscreen = snap.iter().filter(|(_, n)| !n.props.offscreen).map(|(i, _)| i).collect();
    LabeledScreen { snap: Arc::clone(snap), onscreen }
}

impl LabeledScreen {
    /// The labeled snapshot.
    pub fn snapshot(&self) -> &Arc<Snapshot> {
        &self.snap
    }

    /// The entry at `ordinal`, if the screen has that many.
    pub fn get(&self, ordinal: usize) -> Option<ScreenEntry<'_>> {
        let &idx = self.onscreen.get(ordinal)?;
        Some(ScreenEntry { ordinal, node: self.snap.node(idx) })
    }

    /// Every entry in label order.
    pub fn entries(&self) -> impl ExactSizeIterator<Item = ScreenEntry<'_>> + '_ {
        self.onscreen
            .iter()
            .enumerate()
            .map(|(ordinal, &idx)| ScreenEntry { ordinal, node: self.snap.node(idx) })
    }

    /// Resolves a label to its entry: the label parsed back into an
    /// ordinal, bounds-checked.
    pub fn resolve(&self, label: &str) -> Option<ScreenEntry<'_>> {
        self.get(Label::parse(label)?)
    }

    /// Finds the first entry with the given name.
    pub fn find_by_name(&self, name: &str) -> Option<ScreenEntry<'_>> {
        self.entries().find(|e| e.name() == name)
    }

    fn render<S: Sink>(&self, out: &mut S) {
        for e in self.entries() {
            let suffix = if e.enabled() { "" } else { " [disabled]" };
            render_line(out, e.label(), &e.node.props, suffix);
        }
    }

    /// Renders the labeled controls as prompt text (one line each).
    pub fn to_prompt_text(&self) -> String {
        let mut out = String::new();
        self.render(&mut out);
        out
    }

    /// Token cost of [`LabeledScreen::to_prompt_text`], counted without
    /// rendering the text.
    pub fn prompt_tokens(&self) -> usize {
        let mut c = Counter::new();
        self.render(&mut c);
        c.finish()
    }

    /// Number of labeled controls.
    pub fn len(&self) -> usize {
        self.onscreen.len()
    }

    /// Whether the screen has no labeled controls.
    pub fn is_empty(&self) -> bool {
        self.onscreen.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::tokens::count;

    fn window_with(controls: Vec<ControlProps>) -> Arc<Snapshot> {
        let mut s = Snapshot::new();
        let w = s.push(ControlProps::new("W", ControlType::Window), None, 0);
        s.push_window_root(w);
        for c in controls {
            s.push(c, Some(w), 0);
        }
        Arc::new(s)
    }

    #[test]
    fn alpha_labels_roll_over() {
        assert_eq!(alpha_label(0), "A");
        assert_eq!(alpha_label(25), "Z");
        assert_eq!(alpha_label(26), "AA");
        assert_eq!(alpha_label(27), "AB");
        assert_eq!(alpha_label(26 * 27 + 25), "AAZ");
        assert_eq!(alpha_label(usize::MAX).len(), LABEL_MAX);
    }

    #[test]
    fn labels_parse_back_to_their_ordinal() {
        for i in (0..100_000).chain([usize::MAX - 1, usize::MAX]) {
            assert_eq!(Label::parse(&Label::new(i)), Some(i), "ordinal {i}");
        }
        for bad in ["", "a", "Ab", "A1", "1", " A", "A ", "É", "ZZZZZZZZZZZZZZ", "AAAAAAAAAAAAAAA"]
        {
            assert_eq!(Label::parse(bad), None, "{bad:?}");
        }
    }

    #[test]
    fn offscreen_controls_are_not_labeled() {
        let mut hidden = ControlProps::new("Hidden", ControlType::Button);
        hidden.offscreen = true;
        let s = window_with(vec![ControlProps::new("Visible", ControlType::Button), hidden]);
        let screen = label_screen(&s);
        assert_eq!(screen.len(), 2); // window + visible button
        assert!(screen.find_by_name("Hidden").is_none());
        assert!(full_tree_prompt_text(&s).contains("Hidden(Button) [offscreen]"));
    }

    #[test]
    fn prompt_text_carries_value_and_disabled() {
        let mut e = ControlProps::new("Name Box", ControlType::Edit);
        e.value = "A1".into();
        let mut d = ControlProps::new("Paste", ControlType::Button);
        d.enabled = false;
        let screen = label_screen(&window_with(vec![e, d]));
        let text = screen.to_prompt_text();
        assert_eq!(text, "A: W(Window)\nB: Name Box(Edit) = 'A1'\nC: Paste(Button) [disabled]\n");
        assert_eq!(screen.prompt_tokens(), count(&text));
    }

    #[test]
    fn resolve_round_trips() {
        let screen = label_screen(&window_with(vec![ControlProps::new("B", ControlType::Button)]));
        let entry = screen.find_by_name("B").unwrap();
        assert_eq!(screen.resolve(&entry.label()).unwrap().name(), "B");
        assert!(screen.resolve("C").is_none());
        assert!(screen.resolve("ZZZ").is_none());
    }
}
