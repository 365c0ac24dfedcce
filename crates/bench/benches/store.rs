//! Persistence benchmarks: the binary store codec against the JSON
//! baseline, disk round trips, and the build diff over stored UNGs.
//!
//! - `store/encode_rip` / `store/decode_rip`: in-memory codec cost for a
//!   full Word rip artifact (UNG + stats + pristine sigs).
//! - `store/json_encode_ung`: the serde-JSON baseline the codec is
//!   measured against (UNG only — the binary artifact carries strictly
//!   more and must still be smaller).
//! - `store/save_load_rip`: the on-disk round trip through [`Store`].
//! - `store/ung_diff_v0_v1`: `Ung::diff` of the stored Word v0 UNG
//!   against a rip of Word v1 (set-exact, release-gated in
//!   tests/store.rs).
//!
//! The one-shot `store Word:` line (printed outside the timed loops)
//! reports artifact size vs JSON, save/load wall ms, the node and edge
//! change counts of the v0 -> v1 delta, and the warm-pool hit rate of a
//! same-build re-rip booted from the stored capture export.

use criterion::{black_box, criterion_group, criterion_main, Criterion};
use dmi_apps::AppKind;
use dmi_bench::report;
use dmi_core::{RipConfig, Ung};
use dmi_gui::Session;
use dmi_store::{StoredCaptures, StoredRip};
use std::sync::OnceLock;
use std::time::Instant;

/// The stored Word v0 artifacts, recorded once: a rip and the donor
/// session's capture-pool export.
fn word_fixture() -> &'static (StoredRip, StoredCaptures) {
    static FX: OnceLock<(StoredRip, StoredCaptures)> = OnceLock::new();
    FX.get_or_init(|| {
        let mut s = Session::new(AppKind::Word.launch_small_version(0));
        s.set_capture_pool(Some(dmi_store::recording_pool()));
        let rip = dmi_store::record_rip("Word", &mut s, &RipConfig::office("Word"));
        let caps = dmi_store::export_captures("Word", &mut s);
        (rip, caps)
    })
}

/// A rip of Word v1, the other side of the build diff.
fn word_v1() -> &'static Ung {
    static G: OnceLock<Ung> = OnceLock::new();
    G.get_or_init(|| {
        let mut s = Session::new(AppKind::Word.launch_small_version(1));
        dmi_core::ripper::rip(&mut s, &RipConfig::office("Word")).0
    })
}

fn temp_store() -> dmi_store::Store {
    let dir = std::env::temp_dir().join(format!("dmi-store-bench-{}", std::process::id()));
    dmi_store::Store::open(dir).expect("temp store")
}

/// One-shot persistence report, printed outside the timed loops — and
/// only when the `store/*` group is selected by the bench name filter.
fn report_store_once() {
    static ONCE: OnceLock<()> = OnceLock::new();
    ONCE.get_or_init(|| {
        let (rip, caps) = word_fixture();
        let binary_bytes = dmi_store::encode_rip(rip).len() as u64;
        let json_bytes = serde_json::to_string(&rip.ung).expect("ung json").len() as u64;

        let store = temp_store();
        let t = Instant::now();
        store.save_rip(rip).expect("save rip");
        store.save_captures(caps).expect("save captures");
        let save_ms = t.elapsed().as_secs_f64() * 1e3;
        let t = Instant::now();
        let loaded = store.load_rip("Word").expect("load rip");
        let load_ms = t.elapsed().as_secs_f64() * 1e3;

        // Cross-version: what the v1 build changed in the stored graph.
        let delta = Ung::diff(&loaded.ung, word_v1());
        let node_changes =
            delta.nodes_added.len() + delta.nodes_removed.len() + delta.nodes_relabelled.len();
        let edge_changes = delta.edges_added.len() + delta.edges_removed.len();

        // Same-build warm boot: re-rip v0 with the pool seeded from the
        // stored capture export.
        let mut warm = Session::new(AppKind::Word.launch_small_version(0));
        warm.set_capture_pool(Some(dmi_store::recording_pool()));
        dmi_store::warm_session(&store, "Word", &mut warm).expect("warm session");
        let warm_hits_before = warm.capture_stats().pool_warm_hits;
        let (_, warm_stats) = dmi_core::ripper::rip(&mut warm, &RipConfig::office("Word"));
        let warm_hits = warm.capture_stats().pool_warm_hits - warm_hits_before;
        let probes = warm_stats.pool_hits + warm_stats.pool_misses;
        let warm_rate = if probes == 0 { 0.0 } else { warm_hits as f64 / probes as f64 };

        eprintln!(
            "{}",
            report::store_line(
                "Word",
                binary_bytes,
                json_bytes,
                save_ms,
                load_ms,
                node_changes,
                edge_changes,
                warm_rate,
            )
        );
        let _ = std::fs::remove_dir_all(store.root());
    });
}

fn bench_store(c: &mut Criterion) {
    let mut group = c.benchmark_group("store");
    group.sample_size(10);

    group.bench_function("encode_rip", |b| {
        report_store_once();
        let (rip, _) = word_fixture();
        b.iter(|| black_box(dmi_store::encode_rip(rip).len()))
    });

    group.bench_function("decode_rip", |b| {
        report_store_once();
        let (rip, _) = word_fixture();
        let bytes = dmi_store::encode_rip(rip);
        b.iter(|| black_box(dmi_store::decode_rip(&bytes).expect("decode").ung.node_count()))
    });

    group.bench_function("json_encode_ung", |b| {
        report_store_once();
        let (rip, _) = word_fixture();
        b.iter(|| black_box(serde_json::to_string(&rip.ung).expect("json").len()))
    });

    group.bench_function("save_load_rip", |b| {
        report_store_once();
        let (rip, _) = word_fixture();
        let store = temp_store();
        b.iter(|| {
            store.save_rip(rip).expect("save");
            black_box(store.load_rip("Word").expect("load").ung.node_count())
        })
    });

    group.bench_function("ung_diff_v0_v1", |b| {
        report_store_once();
        let (rip, _) = word_fixture();
        let v1 = word_v1();
        b.iter(|| black_box(Ung::diff(&rip.ung, v1).nodes_added.len()))
    });

    group.finish();
}

criterion_group!(benches, bench_store);
criterion_main!(benches);
