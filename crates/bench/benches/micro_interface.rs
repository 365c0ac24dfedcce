//! Criterion micro-benchmarks for the online interfaces: command parsing,
//! path resolution, fuzzy matching, screen labeling, visit execution,
//! and one agent observation on the full Excel main window (`prompt/`).
//!
//! The `prompt/string_*` benchmarks preserve the string-building
//! observation path — a `format!`-rendered prompt counted with
//! `tokens::count`, a labeled screen copying three strings per entry,
//! and unbounded grounding — so the zero-copy path is measured against
//! it inside one binary.

use criterion::{criterion_group, criterion_main, Criterion};
use dmi_agent::grounding::{ground, GROUNDING_SIMILARITY};
use dmi_core::interface::{control_path, parse_commands};
use dmi_core::ripper::{rip, RipConfig};
use dmi_core::screen::{alpha_label, full_tree_prompt_tokens};
use dmi_core::topology::{build_forest, decycle, Forest, ForestConfig};
use dmi_core::{label_screen, tokens, DescribeConfig, Dmi};
use dmi_gui::Session;
use dmi_llm::TargetQuery;
use dmi_uia::ident::string_similarity;
use dmi_uia::{ControlType, FuzzyMatcher, Snapshot};
use std::hint::black_box;
use std::sync::{Arc, OnceLock};

fn word_forest() -> &'static Forest {
    static F: OnceLock<Forest> = OnceLock::new();
    F.get_or_init(|| {
        let mut s = Session::new(dmi_apps::AppKind::Word.launch_small());
        let (mut g, _) = rip(&mut s, &RipConfig::office("Word"));
        decycle(&mut g);
        build_forest(&g, &ForestConfig::default()).0
    })
}

fn bench_parse(c: &mut Criterion) {
    let json = r#"[{"id": 7}, {"id": 12, "entry_ref_id": [3]}, {"id": 9, "text": "hello"}, {"shortcut_key": "Enter"}]"#;
    c.bench_function("parse_visit_commands", |b| {
        b.iter(|| std::hint::black_box(parse_commands(json).unwrap().len()))
    });
}

fn bench_control_path(c: &mut Criterion) {
    let f = word_forest();
    let target =
        f.nodes.iter().find(|n| n.name == "Narrow" && f.is_functional_leaf(n.id)).unwrap().id
            as u64;
    c.bench_function("control_path_resolution", |b| {
        b.iter(|| std::hint::black_box(control_path(f, target, &[]).unwrap().len()))
    });
}

fn bench_fuzzy(c: &mut Criterion) {
    let mut s = Session::new(dmi_apps::AppKind::Word.launch_small());
    let snap = s.snapshot();
    let f = word_forest();
    let bold = &f.nodes.iter().find(|n| n.name == "Bold").unwrap().control;
    let m = FuzzyMatcher::default();
    c.bench_function("fuzzy_best_match", |b| {
        b.iter(|| std::hint::black_box(m.best_match(&snap, bold).map(|r| r.index)))
    });
}

fn bench_label_screen(c: &mut Criterion) {
    let mut s = Session::new(dmi_apps::AppKind::Excel.launch_small());
    let snap = s.snapshot();
    c.bench_function("label_screen_excel", |b| {
        b.iter(|| std::hint::black_box(label_screen(&snap).len()))
    });
}

fn bench_visit(c: &mut Criterion) {
    let dmi = Dmi::from_forest(word_forest().clone(), DescribeConfig::default());
    let narrow = dmi
        .forest
        .nodes
        .iter()
        .find(|n| n.name == "Narrow" && dmi.forest.is_functional_leaf(n.id))
        .unwrap()
        .id;
    let json = format!(r#"[{{"id": {narrow}}}]"#);
    let mut group = c.benchmark_group("online");
    group.sample_size(20);
    group.bench_function("visit_margins_narrow", |b| {
        b.iter(|| {
            let mut s = Session::new(dmi_apps::AppKind::Word.launch_small());
            let out = dmi.visit_json(&mut s, &json);
            std::hint::black_box(out.ok())
        })
    });
    group.finish();
}

/// The string-building full-tree prompt: one `format!` and one label
/// `String` per node.
fn string_full_tree_prompt_text(snap: &Snapshot) -> String {
    let mut out = String::new();
    for (i, node) in snap.iter() {
        let p = &node.props;
        out.push_str(&format!(
            "{}: {}({}){}{}\n",
            alpha_label(i),
            p.name,
            p.control_type.as_str(),
            if p.value.is_empty() { String::new() } else { format!(" = '{}'", p.value) },
            if p.offscreen { " [offscreen]" } else { "" },
        ));
    }
    out
}

/// The string-copying labeled screen entry. Label and value are copied
/// as the string path did, but only grounding reads the entries here.
#[allow(dead_code)]
struct StringEntry {
    label: String,
    name: String,
    control_type: ControlType,
    value: String,
}

fn string_label_screen(snap: &Snapshot) -> Vec<StringEntry> {
    let mut entries = Vec::new();
    for (_, node) in snap.iter() {
        if node.props.offscreen {
            continue;
        }
        entries.push(StringEntry {
            label: alpha_label(entries.len()),
            name: node.props.name.clone(),
            control_type: node.props.control_type,
            value: node.props.value.clone(),
        });
    }
    entries
}

/// Unbounded grounding: Levenshtein similarity against every entry.
fn string_ground(entries: &[StringEntry], q: &str) -> Option<usize> {
    let mut best: Option<(usize, f64, bool)> = None;
    for (i, e) in entries.iter().enumerate() {
        let clickable = dmi_core::interface::is_clickable(e.control_type);
        let s = if e.name == q { 1.0 } else { string_similarity(&e.name, q) };
        if s < GROUNDING_SIMILARITY {
            continue;
        }
        if best.is_none_or(|(_, bs, bc)| (clickable, s) > (bc, bs)) {
            best = Some((i, s, clickable));
        }
    }
    best.map(|(i, _, _)| i)
}

fn bench_prompt(c: &mut Criterion) {
    let mut s = Session::new(dmi_apps::AppKind::Excel.launch());
    let snap: Arc<Snapshot> = s.snapshot();
    let screen = label_screen(&snap);
    let entries = string_label_screen(&snap);
    assert_eq!(
        full_tree_prompt_tokens(&snap),
        tokens::count(&string_full_tree_prompt_text(&snap)),
        "streaming count must equal the string path's"
    );
    // Exact (a ribbon button), near (a trailing-space variant) and miss.
    let queries = [("exact", "Bold"), ("near", "Font Color "), ("miss", "Quantum Flux Capacitor")];
    for (_, q) in queries {
        let want = string_ground(&entries, q);
        assert_eq!(ground(&screen, &TargetQuery::name(q)).map(|e| e.ordinal()), want, "{q:?}");
    }
    println!(
        "prompt: full Excel main window, {} nodes, {} on screen, {} full-tree prompt tokens",
        snap.len(),
        screen.len(),
        full_tree_prompt_tokens(&snap)
    );

    let mut group = c.benchmark_group("prompt");
    group.bench_function("string_full_tree_text_count", |b| {
        b.iter(|| black_box(tokens::count(&string_full_tree_prompt_text(black_box(&snap)))))
    });
    group.bench_function("full_tree_tokens", |b| {
        b.iter(|| black_box(full_tree_prompt_tokens(black_box(&snap))))
    });
    group.bench_function("string_label_screen", |b| {
        b.iter(|| black_box(string_label_screen(black_box(&snap)).len()))
    });
    group.bench_function("label_screen", |b| {
        b.iter(|| black_box(label_screen(black_box(&snap)).len()))
    });
    for (kind, q) in queries {
        let tq = TargetQuery::name(q);
        group.bench_function(&format!("string_ground_{kind}"), |b| {
            b.iter(|| black_box(string_ground(black_box(&entries), q)))
        });
        group.bench_function(&format!("ground_{kind}"), |b| {
            b.iter(|| black_box(ground(black_box(&screen), &tq).map(|e| e.ordinal())))
        });
    }
    group.finish();
}

criterion_group!(
    benches,
    bench_parse,
    bench_control_path,
    bench_fuzzy,
    bench_label_screen,
    bench_visit,
    bench_prompt
);
criterion_main!(benches);
