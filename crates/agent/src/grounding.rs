//! Visual grounding: how an LLM locates a named control on screen.
//!
//! Under imperative GUI use, the model must map its intent ("click Font
//! Color") to a labeled screen element. Humans do this with robust vision;
//! LLMs are comparatively weak (§2.1 Mismatch #2), which the simulation
//! models as a per-action grounding-error rate plus name-similarity-based
//! matching (tolerant of live-name variation, unlike exact string match).

use dmi_core::screen::{LabeledScreen, ScreenEntry};
use dmi_llm::TargetQuery;
use dmi_uia::ident::string_similarity_bounded;

/// Minimum name similarity for a visual match.
pub const GROUNDING_SIMILARITY: f64 = 0.8;

/// Finds the on-screen entry for a query, by name similarity.
///
/// Prefers clickable entries, then the highest similarity at or above
/// the threshold; the first entry wins ties. Disabled controls still
/// ground (clicking them fails, realistically).
///
/// Two shortcuts keep this exact. `(clickable, 1.0)` is the maximum
/// score and only identical names score 1.0 (case-only matches score
/// 0.97), so the first clickable entry named exactly like the query is
/// the answer. And the similarity is bounded at the threshold: it is
/// exact for every score the threshold admits, and lower scores are
/// skipped anyway.
pub fn ground<'a>(screen: &'a LabeledScreen, q: &TargetQuery) -> Option<ScreenEntry<'a>> {
    // A user looking for something to click prefers interactive elements
    // over same-named containers (ribbon groups often share their
    // dialog-launcher's name).
    let mut best: Option<(ScreenEntry<'a>, f64, bool)> = None; // (entry, score, clickable)
    for e in screen.entries() {
        let clickable = dmi_core::interface::is_clickable(e.control_type());
        if clickable && e.name() == q.name {
            return Some(e);
        }
        let s = string_similarity_bounded(e.name(), &q.name, GROUNDING_SIMILARITY);
        if s < GROUNDING_SIMILARITY {
            continue;
        }
        if best.is_none_or(|(_, bs, bc)| (clickable, s) > (bc, bs)) {
            best = Some((e, s, clickable));
        }
    }
    best.map(|(e, _, _)| e)
}

/// Whether every query in a batch grounds on the current screen (the
/// UFO2-as constraint: action sequences may only reference currently
/// visible controls).
pub fn all_visible(screen: &LabeledScreen, queries: &[&TargetQuery]) -> bool {
    queries.iter().all(|q| ground(screen, q).is_some())
}

#[cfg(test)]
mod tests {
    use super::*;
    use dmi_core::label_screen;
    use dmi_gui::Session;

    fn screen() -> LabeledScreen {
        let mut s = Session::new(dmi_apps::AppKind::Word.launch_small());
        let snap = s.snapshot();
        label_screen(&snap)
    }

    #[test]
    fn exact_name_grounds() {
        let sc = screen();
        let e = ground(&sc, &TargetQuery::name("Bold")).unwrap();
        assert_eq!(e.name(), "Bold");
    }

    #[test]
    fn similar_name_grounds() {
        let sc = screen();
        // A trailing-space or ellipsis variant still grounds.
        let e = ground(&sc, &TargetQuery::name("Font Color ")).unwrap();
        assert!(e.name().starts_with("Font Color"));
    }

    #[test]
    fn unrelated_name_does_not_ground() {
        let sc = screen();
        assert!(ground(&sc, &TargetQuery::name("Quantum Flux Capacitor")).is_none());
    }

    #[test]
    fn hidden_menu_items_are_not_visible() {
        let sc = screen();
        // Color cells live inside a closed menu: not on screen.
        assert!(ground(&sc, &TargetQuery::under("Blue", "Font Color")).is_none());
        let q1 = TargetQuery::name("Bold");
        let q2 = TargetQuery::under("Blue", "Font Color");
        assert!(!all_visible(&sc, &[&q1, &q2]));
        assert!(all_visible(&sc, &[&q1]));
    }
}
