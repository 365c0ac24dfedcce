//! Persistence integration tests: the binary store round trip at the
//! workspace level, its failure modes, and the two warm paths it powers
//! (gateway warm boot, warm capture pools), and the build diff it
//! answers (`Ung::diff` over stored rips).
//!
//! Tier-1 tests exercise the codec over fuzz-generated adversarial apps
//! (round trips must be lossless *and* re-encode byte-identically),
//! check that every corruption class surfaces a typed [`StoreError`]
//! rather than a panic, and prove a store-booted gateway serves traces
//! byte-identical to a conventionally rip-booted one.
//!
//! The `#[ignore]`d oracles are the release-gated acceptance bar:
//! `load(save(rip))` byte-identity for all three Office apps, the Word
//! version chain where `Ung::diff(load(save(rip(v-1))), rip(v))` must be
//! a non-empty, set-exact account of the build change, and a same-build
//! warm re-rip that must hit the stored capture export
//! (`pool_warm_hits > 0`).

use dmi_apps::AppKind;
use dmi_core::fuzz::{AdversarialApp, AppSpec};
use dmi_core::{RipConfig, Ung, UngDelta};
use dmi_gui::Session;
use dmi_store::{Store, StoreError, StoredCaptures, StoredRip};
use std::collections::HashSet;

/// Canonical UNG bytes — the representation the oracles pin.
fn ung_bytes(g: &dmi_core::Ung) -> String {
    serde_json::to_string(g).expect("UNGs serialize")
}

/// The `Ung::diff` oracle is set algebra: `old − removed ∪ added == new`
/// over node ids and over edges (each removal present, each addition
/// fresh), and every relabelled id is in both graphs.
fn assert_delta_algebra(old: &Ung, new: &Ung, d: &UngDelta, ctx: &str) {
    let nodes = |g: &Ung| g.ids().map(|u| g.node(u).control.clone()).collect::<HashSet<_>>();
    let edges = |g: &Ung| {
        g.ids()
            .flat_map(|u| g.successors(u).iter().map(move |&v| (u, v)))
            .map(|(u, v)| (g.node(u).control.clone(), g.node(v).control.clone()))
            .collect::<HashSet<_>>()
    };
    let mut n = nodes(old);
    for c in &d.nodes_removed {
        assert!(n.remove(c), "{ctx}: removed node {c:?} is not in old");
    }
    for c in &d.nodes_added {
        assert!(n.insert(c.clone()), "{ctx}: added node {c:?} is already present");
    }
    assert!(n == nodes(new), "{ctx}: old − removed ∪ added == new (nodes)");
    let mut e = edges(old);
    for pair in &d.edges_removed {
        assert!(e.remove(pair), "{ctx}: removed edge {pair:?} is not in old");
    }
    for pair in &d.edges_added {
        assert!(e.insert(pair.clone()), "{ctx}: added edge {pair:?} is already present");
    }
    assert!(e == edges(new), "{ctx}: old − removed ∪ added == new (edges)");
    for c in &d.nodes_relabelled {
        assert!(
            old.find(c).is_some() && new.find(c).is_some(),
            "{ctx}: relabelled {c:?} must be in both graphs"
        );
    }
}

/// A fresh store under the system temp dir, unique per test.
fn temp_store(tag: &str) -> Store {
    let dir = std::env::temp_dir().join(format!("dmi-store-it-{}-{tag}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    Store::open(dir).expect("temp store opens")
}

/// Records a fuzz app's rip and capture export under a rip-sized pool.
fn record_fuzz(seed: u64, max_ops: usize) -> (StoredRip, StoredCaptures) {
    let spec = AppSpec::generate(seed, max_ops);
    let mut s = Session::new(AdversarialApp::launch(spec));
    s.set_capture_pool(Some(dmi_store::recording_pool()));
    let app = format!("fuzz-{seed}");
    let rip = dmi_store::record_rip(&app, &mut s, &RipConfig::default());
    let caps = dmi_store::export_captures(&app, &mut s);
    (rip, caps)
}

/// Codec round trips over fuzz-generated apps: decoding must be
/// lossless field-for-field, and re-encoding the decoded artifact must
/// reproduce the original bytes (the encoding is canonical — there is
/// exactly one byte string per artifact).
#[test]
fn fuzz_app_artifacts_round_trip_losslessly_and_canonically() {
    for seed in [7u64, 91, 1234] {
        let (rip, caps) = record_fuzz(seed, 20);

        let bytes = dmi_store::encode_rip(&rip);
        let back = dmi_store::decode_rip(&bytes).expect("rip artifact decodes");
        assert_eq!(back.app, rip.app, "seed {seed}: app key");
        assert_eq!(back.pristine, rip.pristine, "seed {seed}: pristine signature");
        assert_eq!(back.stats, rip.stats, "seed {seed}: rip stats");
        assert_eq!(ung_bytes(&back.ung), ung_bytes(&rip.ung), "seed {seed}: UNG bytes");
        assert_eq!(dmi_store::encode_rip(&back), bytes, "seed {seed}: canonical re-encode");

        let cbytes = dmi_store::encode_captures(&caps);
        let cback = dmi_store::decode_captures(&cbytes).expect("capture artifact decodes");
        assert_eq!(cback.app, caps.app, "seed {seed}: capture app key");
        assert_eq!(cback.pristine, caps.pristine, "seed {seed}: capture pristine");
        assert_eq!(cback.entries.len(), caps.entries.len(), "seed {seed}: entry count");
        for (a, b) in cback.entries.iter().zip(&caps.entries) {
            assert_eq!(a.model, b.model, "seed {seed}: capture model");
            assert_eq!(a.hash, b.hash, "seed {seed}: capture hash");
            assert_eq!(a.trace, b.trace, "seed {seed}: capture trace");
            assert_eq!(a.hits, b.hits, "seed {seed}: capture hits");
        }
        assert_eq!(dmi_store::encode_captures(&cback), cbytes, "seed {seed}: canonical caps");
    }
}

/// Every corruption class surfaces the right typed error — never a
/// panic, never a silently wrong artifact.
#[test]
fn corrupt_truncated_and_wrong_version_artifacts_fail_typed() {
    let (rip, caps) = record_fuzz(5, 12);
    let bytes = dmi_store::encode_rip(&rip);

    // Truncation at structural boundaries: empty, mid-magic, end of
    // magic, mid-header, mid-payload, one byte short.
    for cut in [0usize, 3, 8, 12, bytes.len() / 2, bytes.len() - 1] {
        let err = dmi_store::decode_rip(&bytes[..cut]).expect_err("truncated input must fail");
        assert!(
            matches!(err, StoreError::Truncated { .. } | StoreError::Corrupt { .. }),
            "cut at {cut}: unexpected error {err}"
        );
    }

    // Bad magic.
    let mut bad = bytes.clone();
    bad[0] ^= 0xFF;
    assert!(matches!(dmi_store::decode_rip(&bad), Err(StoreError::BadMagic)));

    // Wrong format version (header bytes 8..12, little-endian), including
    // the previous format.
    for version in [2u32, 999] {
        let mut bad = bytes.clone();
        bad[8..12].copy_from_slice(&version.to_le_bytes());
        assert!(
            matches!(
                dmi_store::decode_rip(&bad),
                Err(StoreError::UnsupportedVersion { found }) if found == version
            ),
            "version {version} must be refused"
        );
    }

    // Kind confusion: a capture artifact is not a rip artifact (and
    // vice versa).
    let cbytes = dmi_store::encode_captures(&caps);
    assert!(matches!(dmi_store::decode_rip(&cbytes), Err(StoreError::WrongKind { .. })));
    assert!(matches!(dmi_store::decode_captures(&bytes), Err(StoreError::WrongKind { .. })));

    // A flipped payload byte fails the section checksum.
    let mut bad = bytes.clone();
    let last = bad.len() - 1;
    bad[last] ^= 0xFF;
    assert!(matches!(dmi_store::decode_rip(&bad), Err(StoreError::Corrupt { .. })));
}

/// A gateway booted from the store ([`ServeApp::from_store`]) must
/// serve traces byte-identical to one booted the conventional way
/// (live rip via [`Dmi::build`]) — the stored UNG yields the same
/// model, and the warm capture pool never changes a trace byte. A
/// donor from a different build must be refused at boot.
#[test]
fn store_booted_gateway_serves_byte_identical_traces() {
    use dmi_agent::{Gateway, GatewayConfig, InterfaceMode, RunConfig, ServeApp, ServeRequest};
    use dmi_core::{Dmi, DmiBuildConfig};
    use std::sync::Arc;

    let store = temp_store("gateway");
    let cfg = DmiBuildConfig::office("Word");

    // Record the persistent artifacts from one session...
    let mut rec = Session::new(AppKind::Word.launch_small());
    rec.set_capture_pool(Some(dmi_store::recording_pool()));
    let rip = dmi_store::record_rip("Word", &mut rec, &cfg.rip);
    let caps = dmi_store::export_captures("Word", &mut rec);
    store.save_rip(&rip).expect("save rip");
    store.save_captures(&caps).expect("save captures");

    // ...and build the conventional baseline from another.
    let mut live = Session::new(AppKind::Word.launch_small());
    let (dmi, _) = Dmi::build(&mut live, &cfg);
    let model = Arc::new(dmi);

    let tasks: Vec<Arc<dmi_agent::AgentTask>> = dmi_tasks::all_tasks()
        .into_iter()
        .filter(|t| t.app.name() == "Word")
        .map(Arc::new)
        .collect();
    assert!(!tasks.is_empty(), "the task suite covers Word");
    let mix = || -> Vec<ServeRequest> {
        (0..9)
            .map(|i| ServeRequest {
                tenant: format!("tenant-{}", i % 3),
                app: "Word".to_string(),
                task: Arc::clone(&tasks[i % tasks.len()]),
                cfg: RunConfig::test(
                    dmi_llm::CapabilityProfile::gpt5_medium(),
                    if i % 3 == 0 { InterfaceMode::GuiOnly } else { InterfaceMode::GuiPlusDmi },
                    i as u64,
                ),
            })
            .collect()
    };
    let gw_cfg = || GatewayConfig { workers: 2, sessions_per_app: 4, max_in_flight: 8 };

    let mut cold = Gateway::new(
        vec![ServeApp::new("Word", Session::new(AppKind::Word.launch_small()), Some(model))],
        gw_cfg(),
    );
    let cold_report = cold.serve(mix());

    let warm_app =
        ServeApp::from_store("Word", &store, Session::new(AppKind::Word.launch_small()), &cfg)
            .expect("same-build donor boots from the store");
    let mut warm = Gateway::new(vec![warm_app], gw_cfg());
    let warm_report = warm.serve(mix());

    assert_eq!(cold_report.stats.completed, 9);
    assert_eq!(warm_report.stats.completed, 9);
    assert_eq!(warm_report.stats.faulted, 0);
    for (i, (c, w)) in cold_report.outcomes.iter().zip(&warm_report.outcomes).enumerate() {
        let cold_bytes = c.trace.as_ref().expect("cold trace").identity_bytes();
        let warm_bytes = w.trace.as_ref().expect("warm trace").identity_bytes();
        assert_eq!(
            cold_bytes, warm_bytes,
            "request {i}: store-booted gateway must serve the exact bytes a rip-booted one does"
        );
    }

    // A donor from a changed build is refused at boot, not served wrong.
    let v1 = Session::new(AppKind::Word.launch_small_version(1));
    match ServeApp::from_store("Word", &store, v1, &cfg) {
        Err(StoreError::PristineMismatch { app }) => assert_eq!(app, "Word"),
        Err(e) => panic!("expected PristineMismatch, got {e}"),
        Ok(_) => panic!("a changed build must not boot from stored artifacts"),
    }

    let _ = std::fs::remove_dir_all(store.root());
}

/// §persistence acceptance: `load(save(rip))` is byte-identical for
/// every Office app, and the capped capture export survives its own
/// round trip.
#[test]
#[ignore = "rip-heavy: CI runs these in release via `-- --ignored`"]
fn stored_rips_round_trip_byte_identically_for_every_office_app() {
    let store = temp_store("office");
    for kind in AppKind::ALL {
        let mut s = Session::new(kind.launch_small());
        s.set_capture_pool(Some(dmi_store::recording_pool()));
        let rip = dmi_store::record_rip(kind.name(), &mut s, &RipConfig::office(kind.name()));
        let caps = dmi_store::export_captures(kind.name(), &mut s);
        store.save_rip(&rip).expect("save rip");
        store.save_captures(&caps).expect("save captures");

        let loaded = store.load_rip(kind.name()).expect("load rip");
        assert_eq!(
            ung_bytes(&loaded.ung),
            ung_bytes(&rip.ung),
            "{}: stored UNG must be byte-identical to the ripped one",
            kind.name()
        );
        assert_eq!(loaded.stats, rip.stats, "{}: rip stats", kind.name());
        assert_eq!(loaded.pristine, rip.pristine, "{}: pristine signature", kind.name());

        let lcaps = store.load_captures(kind.name()).expect("load captures");
        assert!(!lcaps.entries.is_empty(), "{}: capture export persists", kind.name());
        assert!(
            lcaps.entries.len() <= dmi_store::STORE_CAPACITY,
            "{}: stored captures respect the retention cap",
            kind.name()
        );
    }
    let _ = std::fs::remove_dir_all(store.root());
}

/// §persistence acceptance: walking the Word version chain, the diff
/// of the previous version's stored UNG against a cold rip of the next
/// one is a non-empty, set-exact account of the change — and a stored
/// rip diffs empty against the graph it was saved from.
#[test]
#[ignore = "rip-heavy: CI runs these in release via `-- --ignored`"]
fn stored_ung_diff_accounts_exactly_for_word_version_changes() {
    let cfg = RipConfig::office("Word");
    let store = temp_store("chain");
    let mut v0 = Session::new(AppKind::Word.launch_small_version(0));
    let mut prior = dmi_store::record_rip("Word", &mut v0, &cfg);

    for v in [1usize, 2] {
        store.save_rip(&prior).expect("save prior");
        let loaded = store.load_rip("Word").expect("load prior");
        assert!(
            Ung::diff(&loaded.ung, &prior.ung).is_empty(),
            "v{}: a stored rip diffs empty against its source graph",
            v - 1
        );

        let mut s = Session::new(AppKind::Word.launch_small_version(v));
        let next = dmi_store::record_rip("Word", &mut s, &cfg);
        let delta = Ung::diff(&loaded.ung, &next.ung);
        assert!(!delta.is_empty(), "v{v}: a changed build changes the graph");
        assert_delta_algebra(&loaded.ung, &next.ung, &delta, &format!("v{}->v{v}", v - 1));
        prior = next;
    }
    let _ = std::fs::remove_dir_all(store.root());
}

/// §persistence acceptance: a same-build rip of a session warmed from
/// the stored capture export reproduces the stored UNG byte-for-byte and
/// serves pooled captures (`pool_warm_hits > 0`); a changed build is
/// refused the warm path entirely.
#[test]
#[ignore = "rip-heavy: CI runs these in release via `-- --ignored`"]
fn warm_rerip_hits_stored_captures_and_refuses_changed_builds() {
    let cfg = RipConfig::office("Word");
    let store = temp_store("warm");

    let mut v0 = Session::new(AppKind::Word.launch_small_version(0));
    v0.set_capture_pool(Some(dmi_store::recording_pool()));
    let rip0 = dmi_store::record_rip("Word", &mut v0, &cfg);
    let caps0 = dmi_store::export_captures("Word", &mut v0);
    store.save_rip(&rip0).expect("save rip");
    store.save_captures(&caps0).expect("save captures");
    let prior = store.load_rip("Word").expect("load rip");

    let mut warm = Session::new(AppKind::Word.launch_small_version(0));
    warm.set_capture_pool(Some(dmi_store::recording_pool()));
    let imported = dmi_store::warm_session(&store, "Word", &mut warm).expect("same build warms");
    assert!(imported > 0, "the stored export seeds the pool");

    let warm_hits_before = warm.capture_stats().pool_warm_hits;
    let (g, _) = dmi_core::ripper::rip(&mut warm, &cfg);
    assert_eq!(
        ung_bytes(&g),
        ung_bytes(&prior.ung),
        "same-build warm re-rip reproduces the stored UNG byte-for-byte"
    );
    assert!(
        warm.capture_stats().pool_warm_hits > warm_hits_before,
        "warm re-rip must serve stored captures from the pool"
    );

    let mut v1 = Session::new(AppKind::Word.launch_small_version(1));
    v1.set_capture_pool(Some(dmi_store::recording_pool()));
    match dmi_store::warm_session(&store, "Word", &mut v1) {
        Err(StoreError::PristineMismatch { app }) => assert_eq!(app, "Word"),
        Err(e) => panic!("expected PristineMismatch, got {e}"),
        Ok(n) => panic!("a changed build must not import stored captures (imported {n})"),
    }
    let _ = std::fs::remove_dir_all(store.root());
}
