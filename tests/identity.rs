//! The control-identity layer: `ControlKey` stability, indexed resolution
//! equivalence with the old linear scan, and pinned rip capture counts.

use dmi_apps::AppKind;
use dmi_core::parallel::{rip_fleet, rip_parallel, FleetEntry, ParRipConfig};
use dmi_core::ripper::{rip, RipConfig};
use dmi_gui::{CaptureConfig, Session};
use dmi_uia::{ControlId, ControlKey, Snapshot};

/// The ancestor path computed the pre-index way: walk parents, join names.
fn walked_path(snap: &Snapshot, idx: usize) -> String {
    let mut names: Vec<&str> = Vec::new();
    let mut cur = snap.node(idx).parent;
    while let Some(p) = cur {
        let name = &snap.node(p).props.name;
        names.push(if name.is_empty() { "[Unnamed]" } else { name });
        cur = snap.node(p).parent;
    }
    names.reverse();
    names.join("/")
}

/// The resolver this PR replaced: a full arena scan with per-candidate
/// path recomputation. Kept here as the equivalence oracle.
fn linear_resolve(snap: &Snapshot, cid: &ControlId) -> Option<usize> {
    (0..snap.len()).find(|&i| {
        let props = &snap.node(i).props;
        props.primary_id() == cid.primary
            && props.control_type == cid.control_type
            && walked_path(snap, i) == cid.ancestor_path
    })
}

#[test]
fn indexed_resolve_matches_linear_scan_on_all_small_apps() {
    for kind in AppKind::ALL {
        let mut s = Session::new(kind.launch_small());
        let snap = s.snapshot();
        for (i, _) in snap.iter() {
            let cid = snap.control_id(i);
            assert_eq!(
                snap.resolve(&cid),
                linear_resolve(&snap, &cid),
                "{}: node {i} ({})",
                kind.name(),
                cid
            );
        }
        // Identifiers that exist nowhere must miss in both.
        let ghost = ControlId {
            primary: "No Such Control".into(),
            control_type: dmi_uia::ControlType::Button,
            ancestor_path: "Nowhere/At All".into(),
        };
        assert_eq!(snap.resolve(&ghost), None);
        assert_eq!(linear_resolve(&snap, &ghost), None);
    }
}

#[test]
fn cached_paths_match_walked_paths_on_all_small_apps() {
    for kind in AppKind::ALL {
        let mut s = Session::new(kind.launch_small());
        let snap = s.snapshot();
        for (i, _) in snap.iter() {
            assert_eq!(snap.ancestor_path(i), walked_path(&snap, i), "{}: node {i}", kind.name());
        }
    }
}

#[test]
fn control_keys_stable_across_snapshots_of_same_ui() {
    let mut s = Session::new(AppKind::Word.launch_small());
    let a = s.snapshot();
    let b = s.snapshot();
    let key_by_runtime = |snap: &Snapshot| {
        snap.iter()
            .map(|(i, n)| (n.runtime_id, snap.control_key(i)))
            .collect::<std::collections::HashMap<_, _>>()
    };
    let ka = key_by_runtime(&a);
    let kb = key_by_runtime(&b);
    let mut common = 0;
    for (rt, k) in &ka {
        if let Some(k2) = kb.get(rt) {
            assert_eq!(k, k2, "key changed across snapshots for {rt}");
            common += 1;
        }
    }
    assert!(common > 50, "snapshots should overlap substantially (got {common})");

    // Stability across a restart of the same application build: the same
    // identifier synthesizes the same key from a fresh widget arena.
    s.restart();
    let c = s.snapshot();
    let kc = key_by_runtime(&c);
    let mut matched = 0;
    for (rt, k) in &kc {
        if let Some(k0) = ka.get(rt) {
            assert_eq!(k, k0, "key changed across restart for {rt}");
            matched += 1;
        }
    }
    assert!(matched > 50, "restart rebuilds the same UI (got {matched})");
}

#[test]
fn control_key_is_a_pure_function_of_the_identifier() {
    let mut s = Session::new(AppKind::Excel.launch_small());
    let snap = s.snapshot();
    for (i, _) in snap.iter() {
        let cid = snap.control_id(i);
        assert_eq!(snap.control_key(i), ControlKey::of_id(&cid), "node {i}");
    }
}

/// Regression pin for the Word small-app rip under the default Esc-based
/// fast state restoration: capture counts must not drift silently. The
/// UNG node/edge counts are byte-identical to the legacy full-restart
/// strategy (pinned below); the effort counters reflect the recovery
/// planner (most restarts replaced by Esc presses).
#[test]
fn word_small_rip_capture_counts_pinned() {
    let mut s = Session::new(AppKind::Word.launch_small());
    let (g, stats) = rip(&mut s, &RipConfig::office("Word"));
    assert_eq!(g.node_count(), 2411, "UNG node count");
    assert_eq!(g.edge_count(), 2435, "UNG edge count");
    assert_eq!(stats.snapshots, 8870, "snapshots captured");
    assert_eq!(stats.clicks, 6558, "candidate clicks");
    assert_eq!(stats.restarts, 10, "fallback restarts (was 2312 before Esc recovery)");
    assert_eq!(stats.esc_recoveries + stats.restarts, 2312, "restorations + fallback restarts");
    assert_eq!(stats.blocklisted, 2, "blocklisted candidates");
    assert_eq!(stats.replay_failures, 1, "replay failures");
    assert_eq!(stats.windows_seen, 15, "windows observed opening");
}

/// The legacy full-restart strategy is the equivalence oracle: with
/// [`RipConfig::esc_recovery`] off, every count must stay byte-identical
/// to the values produced before fast recovery existed.
#[test]
#[ignore = "rip-heavy: CI runs these in release via `-- --ignored`"]
fn word_small_rip_legacy_full_restart_counts_unchanged() {
    let mut s = Session::new(AppKind::Word.launch_small());
    let mut cfg = RipConfig::office("Word");
    cfg.esc_recovery = false;
    let (g, stats) = rip(&mut s, &cfg);
    assert_eq!(g.node_count(), 2411, "UNG node count");
    assert_eq!(g.edge_count(), 2435, "UNG edge count");
    assert_eq!(stats.snapshots, 8870, "snapshots captured");
    assert_eq!(stats.clicks, 6558, "candidate clicks");
    assert_eq!(stats.restarts, 2312, "state-restoration restarts");
    assert_eq!(stats.esc_recoveries, 0, "no fast recoveries on the legacy path");
    assert_eq!(stats.esc_presses, 0, "no recovery Esc presses on the legacy path");
    assert_eq!(stats.blocklisted, 2, "blocklisted candidates");
    assert_eq!(stats.replay_failures, 1, "replay failures");
    assert_eq!(stats.windows_seen, 15, "windows observed opening");
}

/// Pin for the capture work of a sequential full-app rip: dirty windows
/// emit their shown widgets from one layout walk, clean windows copy their
/// donor block. Both counts are exact, and they equal the counts of the
/// former two-pass builder (layout map, then a second tree walk), so a
/// faster capture path that moves either number is doing different work.
#[test]
#[ignore = "rip-heavy: CI runs these in release via `-- --ignored`"]
fn full_app_capture_walk_counts_pinned() {
    let pins = [
        (AppKind::Word, 650_746, 10_285),
        (AppKind::Excel, 1_894_748, 336_059),
        (AppKind::PowerPoint, 257_558, 14_201),
    ];
    for (kind, walked, copied) in pins {
        let mut s = Session::new(kind.launch());
        rip(&mut s, &RipConfig::office(kind.name()));
        let cs = s.capture_stats();
        assert_eq!(cs.nodes_walked, walked, "{kind}: snapshot nodes walked");
        assert_eq!(cs.nodes_copied, copied, "{kind}: snapshot nodes copied from donors");
    }
}

/// Capture-cache equivalence oracle: ripping with the default epoch-cached
/// capture pipeline must produce a UNG byte-identical (nodes, names,
/// types, edges, in order) to a session whose [`CaptureConfig`] forces an
/// eager full rebuild on every capture — for every app — with identical
/// rip statistics, while serving a substantial share of captures in O(1).
#[test]
#[ignore = "rip-heavy: CI runs these in release via `-- --ignored`"]
fn cached_capture_ung_is_byte_identical_to_full_rebuild_oracle() {
    for kind in AppKind::ALL {
        let cfg = RipConfig::office(kind.name());
        let mut s = Session::new(kind.launch_small());
        assert!(s.capture_config().cached, "epoch-cached capture is the default");
        let (g_cached, st_cached) = rip(&mut s, &cfg);

        let mut s2 = Session::new(kind.launch_small());
        s2.set_capture_config(CaptureConfig::full_rebuild());
        let (g_full, st_full) = rip(&mut s2, &cfg);

        assert_eq!(g_cached.node_count(), g_full.node_count(), "{kind}: node count");
        assert_eq!(g_cached.edge_count(), g_full.edge_count(), "{kind}: edge count");
        for id in g_cached.ids() {
            assert_eq!(g_cached.node(id), g_full.node(id), "{kind}: node {id}");
            assert_eq!(g_cached.successors(id), g_full.successors(id), "{kind}: edges of {id}");
        }
        assert_eq!(st_cached, st_full, "{kind}: every rip statistic matches the oracle");
        let stats = s.capture_stats();
        assert_eq!(stats.captures, st_cached.snapshots, "{kind}: every capture was counted");
        assert!(
            stats.full_hits * 2 > stats.captures,
            "{kind}: most captures should be O(1) hits ({} of {})",
            stats.full_hits,
            stats.captures
        );
        assert_eq!(s2.capture_stats().full_hits, 0, "{kind}: the oracle never serves a hit");
    }
}

/// Parallel-engine equivalence oracle: the sharded rip (worker sessions
/// forked from the shared pristine image, speculative exploration,
/// deterministic in-order merge) must produce a UNG **byte-identical** —
/// as serialized bytes, node ids, names, types, and ordered edge lists —
/// to the sequential ripper for every app, at 4 worker shards. The
/// commit-derived counters must also match; pure effort counters may only
/// grow (speculation explores candidates the sequential DFS skips).
#[test]
#[ignore = "rip-heavy: CI runs these in release via `-- --ignored`"]
fn parallel_rip_ung_is_byte_identical_to_sequential() {
    for kind in AppKind::ALL {
        let cfg = RipConfig::office(kind.name());
        let mut s = Session::new(kind.launch_small());
        let (g_seq, st_seq) = rip(&mut s, &cfg);

        let mut s2 = Session::new(kind.launch_small());
        let par = ParRipConfig { workers: 4, speculation: 2, spec_walk: 4 };
        let (g_par, st_par) = rip_parallel(&mut s2, &cfg, &par);

        assert_eq!(
            serde_json::to_string(&g_par).unwrap(),
            serde_json::to_string(&g_seq).unwrap(),
            "{kind}: merged UNG must serialize byte-identically"
        );
        assert_eq!(g_par.node_count(), g_seq.node_count(), "{kind}: node count");
        assert_eq!(g_par.edge_count(), g_seq.edge_count(), "{kind}: edge count");
        assert_eq!(st_par.windows_seen, st_seq.windows_seen, "{kind}: windows seen");
        assert_eq!(st_par.blocklisted, st_seq.blocklisted, "{kind}: blocklist hits");
        assert!(
            st_par.clicks >= st_seq.clicks,
            "{kind}: speculation only adds effort ({} vs {})",
            st_par.clicks,
            st_seq.clicks
        );
    }
}

/// Fleet-engine equivalence oracle: ripping all three Office apps
/// concurrently on one shared 4-worker pool — with an unforkable entry
/// mixed into the fleet to exercise the sequential-fallback path — must
/// produce, for **every** entry, a UNG byte-identical (as serialized
/// bytes) to that entry's sequential rip, with matching commit-derived
/// counters and nonzero shared-capture-pool hits across each Office
/// app's shards.
#[test]
#[ignore = "rip-heavy: CI runs these in release via `-- --ignored`"]
fn fleet_rip_ungs_are_byte_identical_to_sequential() {
    use dmi_apps::testkit::UnforkableApp;

    // Sequential references, one per entry.
    let mut seq: Vec<(String, String, u64, u64)> = Vec::new();
    for kind in AppKind::ALL {
        let cfg = RipConfig::office(kind.name());
        let mut s = Session::new(kind.launch_small());
        let (g, st) = rip(&mut s, &cfg);
        seq.push((
            kind.name().to_string(),
            serde_json::to_string(&g).unwrap(),
            st.windows_seen,
            st.blocklisted,
        ));
    }
    {
        let mut s = Session::new(Box::new(UnforkableApp::new(3)));
        let (g, st) = rip(&mut s, &RipConfig::default());
        seq.push((
            "Unforkable".to_string(),
            serde_json::to_string(&g).unwrap(),
            st.windows_seen,
            st.blocklisted,
        ));
    }

    let mut entries: Vec<FleetEntry> = AppKind::ALL
        .iter()
        .map(|k| {
            FleetEntry::new(k.name(), Session::new(k.launch_small()), RipConfig::office(k.name()))
        })
        .collect();
    entries.push(FleetEntry::new(
        "Unforkable",
        Session::new(Box::new(UnforkableApp::new(3))),
        RipConfig::default(),
    ));

    let out = rip_fleet(&mut entries, &ParRipConfig { workers: 4, speculation: 2, spec_walk: 4 });
    assert_eq!(out.len(), seq.len(), "one outcome per entry, in entry order");
    for (o, (app, g_seq, windows_seen, blocklisted)) in out.iter().zip(&seq) {
        assert_eq!(&o.app_id, app);
        assert_eq!(
            &serde_json::to_string(&o.graph).unwrap(),
            g_seq,
            "{app}: fleet UNG must serialize byte-identically to the sequential rip"
        );
        assert_eq!(o.stats.windows_seen, *windows_seen, "{app}: windows seen");
        assert_eq!(o.stats.blocklisted, *blocklisted, "{app}: blocklist hits");
        if app == "Unforkable" {
            assert!(o.fell_back(), "{app}: must ride the sequential fallback");
        } else {
            assert!(!o.fell_back(), "{app}: Office apps fork");
            assert!(
                o.stats.pool_hits > 0,
                "{app}: shards must serve shared captures from the pool"
            );
        }
    }
}

/// Subtree-speculation equivalence oracle (the release gate for the
/// scheduler-adoption engine): with deep worker-side walks enabled
/// (`spec_walk: 8`), every merged UNG must stay byte-identical to the
/// sequential rip — adoption substitutes results keyed by the complete
/// exploration input `(setup, path, candidate)`, so a key match can never
/// change a committed byte — while the engine demonstrably *uses* the
/// table (nonzero adoptions per Office app) and the accounting invariant
/// `published == adopted + wasted` holds on every healthy lane.
#[test]
#[ignore = "rip-heavy: CI runs these in release via `-- --ignored`"]
fn speculative_rip_ung_is_byte_identical_to_sequential() {
    for kind in AppKind::ALL {
        let cfg = RipConfig::office(kind.name());
        let mut s = Session::new(kind.launch_small());
        let (g_seq, st_seq) = rip(&mut s, &cfg);
        assert_eq!(st_seq.spec_published, 0, "{kind}: sequential rips never speculate");

        let mut s2 = Session::new(kind.launch_small());
        let par = ParRipConfig { workers: 4, speculation: 2, spec_walk: 8 };
        let (g_par, st_par) = rip_parallel(&mut s2, &cfg, &par);

        assert_eq!(
            serde_json::to_string(&g_par).unwrap(),
            serde_json::to_string(&g_seq).unwrap(),
            "{kind}: speculative UNG must serialize byte-identically to sequential"
        );
        assert!(
            st_par.spec_adopted > 0,
            "{kind}: deep walks must yield scheduler adoptions (published={})",
            st_par.spec_published
        );
        assert_eq!(
            st_par.spec_published,
            st_par.spec_adopted + st_par.spec_wasted,
            "{kind}: every published speculation is adopted or counted as waste"
        );
        assert_eq!(st_par.windows_seen, st_seq.windows_seen, "{kind}: windows seen");
        assert_eq!(st_par.blocklisted, st_seq.blocklisted, "{kind}: blocklist hits");
    }
}

/// Fleet-mode speculation oracle: deep walks across a mixed fleet (three
/// Office apps + an unforkable entry on the sequential fallback) keep
/// every UNG byte-identical to its sequential rip, adopt speculations on
/// every Office lane, balance the waste ledger per entry, and leave the
/// fallback entry's speculation counters at zero.
#[test]
#[ignore = "rip-heavy: CI runs these in release via `-- --ignored`"]
fn speculative_fleet_ungs_are_byte_identical_to_sequential() {
    use dmi_apps::testkit::UnforkableApp;

    let mut seq: Vec<(String, String)> = Vec::new();
    for kind in AppKind::ALL {
        let cfg = RipConfig::office(kind.name());
        let mut s = Session::new(kind.launch_small());
        let (g, _) = rip(&mut s, &cfg);
        seq.push((kind.name().to_string(), serde_json::to_string(&g).unwrap()));
    }
    {
        let mut s = Session::new(Box::new(UnforkableApp::new(3)));
        let (g, _) = rip(&mut s, &RipConfig::default());
        seq.push(("Unforkable".to_string(), serde_json::to_string(&g).unwrap()));
    }

    let mut entries: Vec<FleetEntry> = AppKind::ALL
        .iter()
        .map(|k| {
            FleetEntry::new(k.name(), Session::new(k.launch_small()), RipConfig::office(k.name()))
        })
        .collect();
    entries.push(FleetEntry::new(
        "Unforkable",
        Session::new(Box::new(UnforkableApp::new(3))),
        RipConfig::default(),
    ));

    let out = rip_fleet(&mut entries, &ParRipConfig { workers: 4, speculation: 2, spec_walk: 8 });
    assert_eq!(out.len(), seq.len());
    for (o, (app, g_seq)) in out.iter().zip(&seq) {
        assert_eq!(&o.app_id, app);
        assert_eq!(
            &serde_json::to_string(&o.graph).unwrap(),
            g_seq,
            "{app}: speculative fleet UNG must serialize byte-identically"
        );
        assert_eq!(
            o.stats.spec_published,
            o.stats.spec_adopted + o.stats.spec_wasted,
            "{app}: speculation ledger balances"
        );
        if app == "Unforkable" {
            assert!(o.fell_back(), "{app}: rides the sequential fallback");
            assert_eq!(o.stats.spec_published, 0, "{app}: the fallback never speculates");
        } else {
            assert!(
                o.stats.spec_adopted > 0,
                "{app}: fleet lanes must adopt speculations (published={})",
                o.stats.spec_published
            );
        }
    }
}

/// The serve oracle: every task served through the multi-tenant gateway
/// must yield a [`dmi_agent::RunTrace`] byte-identical to its
/// single-session sequential run, at every concurrency level — the
/// gateway may change scheduling, session provenance (pooled recycle,
/// pristine fork, donor lend), and latency accounting, but never a
/// single trace byte.
#[test]
#[ignore = "rip-heavy: CI runs these in release via `-- --ignored`"]
fn gateway_traces_are_byte_identical_to_sequential_at_all_concurrencies() {
    use dmi_agent::{
        run_task, Gateway, GatewayConfig, InterfaceMode, RunConfig, ServeApp, ServeRequest,
    };
    use dmi_integration_tests::dmi_models;
    use std::sync::Arc;

    let models = dmi_models();
    let tasks: Vec<Arc<dmi_agent::AgentTask>> =
        dmi_tasks::all_tasks().into_iter().map(Arc::new).collect();

    // The request mix cycles all 27 tasks over all three Office apps with
    // varied seeds and modes; `gpt5_medium` keeps failure injection live
    // so failed traces are oracle-checked too.
    let mix = |n: usize| -> Vec<ServeRequest> {
        (0..n)
            .map(|i| {
                let task = &tasks[i % tasks.len()];
                ServeRequest {
                    tenant: format!("tenant-{}", i % 5),
                    app: task.app.name().to_string(),
                    task: Arc::clone(task),
                    cfg: RunConfig::test(
                        dmi_llm::CapabilityProfile::gpt5_medium(),
                        if i % 3 == 0 { InterfaceMode::GuiOnly } else { InterfaceMode::GuiPlusDmi },
                        i as u64,
                    ),
                }
            })
            .collect()
    };

    for concurrency in [64usize, 4096] {
        let requests = mix(concurrency);
        let expected: Vec<String> = requests
            .iter()
            .map(|r| run_task(&r.task, models.get(r.task.app.name()), &r.cfg).identity_bytes())
            .collect();

        let apps: Vec<ServeApp> = dmi_apps::AppKind::ALL
            .iter()
            .map(|&k| {
                ServeApp::new(
                    k.name(),
                    Session::new(k.launch_small()),
                    models.get(k.name()).cloned(),
                )
            })
            .collect();
        let mut gw = Gateway::new(
            apps,
            GatewayConfig { workers: 4, sessions_per_app: 8, max_in_flight: 32 },
        );
        let report = gw.serve(requests);
        assert_eq!(report.stats.completed, concurrency, "every request produces a trace");
        assert_eq!(report.stats.faulted, 0);
        for (i, (o, want)) in report.outcomes.iter().zip(&expected).enumerate() {
            let got = o.trace.as_ref().expect("trace present").identity_bytes();
            assert_eq!(
                &got, want,
                "c={concurrency} request {i} ({} on {}): served trace must be \
                 byte-identical to the sequential run",
                o.tenant, o.app
            );
        }
        assert!(
            report.stats.session_reuses > 0,
            "c={concurrency}: pooled recycling must be exercised"
        );
    }
}

/// §4.1 equivalence: ripping with Esc-based fast state restoration must
/// produce a UNG byte-identical (nodes, names, types, edges, in order) to
/// the legacy full-restart path, for every app — while restarting far
/// less often.
#[test]
#[ignore = "rip-heavy: CI runs these in release via `-- --ignored`"]
fn esc_recovery_ung_is_byte_identical_to_full_restart_oracle() {
    for kind in AppKind::ALL {
        let fast_cfg = RipConfig::office(kind.name());
        assert!(fast_cfg.esc_recovery, "fast recovery is the default");
        let mut s = Session::new(kind.launch_small());
        let (g_fast, s_fast) = rip(&mut s, &fast_cfg);

        let mut legacy_cfg = fast_cfg.clone();
        legacy_cfg.esc_recovery = false;
        let mut s2 = Session::new(kind.launch_small());
        let (g_slow, s_slow) = rip(&mut s2, &legacy_cfg);

        assert_eq!(g_fast.node_count(), g_slow.node_count(), "{kind}: node count");
        assert_eq!(g_fast.edge_count(), g_slow.edge_count(), "{kind}: edge count");
        for id in g_fast.ids() {
            assert_eq!(g_fast.node(id), g_slow.node(id), "{kind}: node {id}");
            assert_eq!(g_fast.successors(id), g_slow.successors(id), "{kind}: edges of {id}");
        }
        assert!(
            s_fast.restarts * 2 < s_slow.restarts,
            "{kind}: recovery should replace most restarts ({} vs {})",
            s_fast.restarts,
            s_slow.restarts
        );
        assert!(s_fast.esc_recoveries > 0, "{kind}: fast recoveries happened");
        assert_eq!(s_fast.blocklisted, s_slow.blocklisted, "{kind}: blocklist hits");
        assert_eq!(s_fast.windows_seen, s_slow.windows_seen, "{kind}: windows seen");
    }
}

/// Tests that toggle the process-global tracing flag serialize here so
/// concurrent ignored runs cannot observe each other's windows.
fn obs_guard() -> std::sync::MutexGuard<'static, ()> {
    static LOCK: std::sync::Mutex<()> = std::sync::Mutex::new(());
    LOCK.lock().unwrap_or_else(std::sync::PoisonError::into_inner)
}

/// The observability non-interference oracle for the rip path: a fleet
/// rip with tracing enabled must produce UNGs byte-identical to the
/// untraced fleet — recording is strictly observational, so timestamps
/// can differ but never a merged byte — while the captured trace itself
/// is substantive: stall spans attributed apart from explore spans, and
/// the stall total on its own summary line.
#[test]
#[ignore = "rip-heavy: CI runs these in release via `-- --ignored`"]
fn traced_fleet_rip_is_byte_identical_to_untraced() {
    let _g = obs_guard();
    let entries = || -> Vec<FleetEntry> {
        AppKind::ALL
            .iter()
            .map(|k| {
                FleetEntry::new(
                    k.name(),
                    Session::new(k.launch_small()),
                    RipConfig::office(k.name()),
                )
            })
            .collect()
    };
    let par = ParRipConfig { workers: 2, speculation: 2, spec_walk: 4 };

    let mut plain = entries();
    let untraced: Vec<String> = rip_fleet(&mut plain, &par)
        .iter()
        .map(|o| serde_json::to_string(&o.graph).unwrap())
        .collect();

    dmi_obs::clear();
    dmi_obs::set_enabled(true);
    let mut observed = entries();
    let out = rip_fleet(&mut observed, &par);
    dmi_obs::set_enabled(false);
    let trace = dmi_obs::drain();
    dmi_obs::clear();

    for (o, want) in out.iter().zip(&untraced) {
        assert_eq!(
            &serde_json::to_string(&o.graph).unwrap(),
            want,
            "{}: tracing must never change a merged byte",
            o.app_id
        );
    }
    assert!(!trace.is_empty(), "the traced run recorded events");
    assert!(trace.count(Some(dmi_obs::Cat::Scheduler), "stall") > 0, "stalls attributed");
    assert!(trace.count(Some(dmi_obs::Cat::Worker), "explore") > 0, "explores recorded");
    assert!(trace.text_summary().contains("scheduler stall total:"));
}

/// The observability non-interference oracle for the serve path: the
/// c=64 gateway mix served with tracing enabled must yield per-request
/// run traces byte-identical to the untraced serve.
#[test]
#[ignore = "rip-heavy: CI runs these in release via `-- --ignored`"]
fn traced_gateway_serve_is_byte_identical_to_untraced() {
    use dmi_agent::{Gateway, GatewayConfig, InterfaceMode, RunConfig, ServeApp, ServeRequest};
    use dmi_integration_tests::dmi_models;
    use std::sync::Arc;

    let _g = obs_guard();
    // Models are ripped outside the observation window: fixture setup is
    // not part of the serve being traced.
    let models = dmi_models();
    let tasks: Vec<Arc<dmi_agent::AgentTask>> =
        dmi_tasks::all_tasks().into_iter().map(Arc::new).collect();
    let mix = || -> Vec<ServeRequest> {
        (0..64)
            .map(|i| {
                let task = &tasks[i % tasks.len()];
                ServeRequest {
                    tenant: format!("tenant-{}", i % 5),
                    app: task.app.name().to_string(),
                    task: Arc::clone(task),
                    cfg: RunConfig::test(
                        dmi_llm::CapabilityProfile::gpt5_medium(),
                        if i % 3 == 0 { InterfaceMode::GuiOnly } else { InterfaceMode::GuiPlusDmi },
                        i as u64,
                    ),
                }
            })
            .collect()
    };
    let gateway = || -> Gateway {
        let apps: Vec<ServeApp> = AppKind::ALL
            .iter()
            .map(|&k| {
                ServeApp::new(
                    k.name(),
                    Session::new(k.launch_small()),
                    models.get(k.name()).cloned(),
                )
            })
            .collect();
        Gateway::new(apps, GatewayConfig { workers: 4, sessions_per_app: 8, max_in_flight: 32 })
    };

    let untraced = gateway().serve(mix());
    assert_eq!(untraced.stats.completed, 64);

    dmi_obs::clear();
    dmi_obs::set_enabled(true);
    let traced = gateway().serve(mix());
    dmi_obs::set_enabled(false);
    let trace = dmi_obs::drain();
    dmi_obs::clear();

    assert_eq!(traced.stats.completed, 64);
    for (i, (a, b)) in traced.outcomes.iter().zip(&untraced.outcomes).enumerate() {
        assert_eq!(
            a.trace.as_ref().map(dmi_agent::RunTrace::identity_bytes),
            b.trace.as_ref().map(dmi_agent::RunTrace::identity_bytes),
            "request {i} ({} on {}): tracing must never change a trace byte",
            a.tenant,
            a.app
        );
    }
    assert!(trace.count(Some(dmi_obs::Cat::Gateway), "round") > 0, "rounds recorded");
}
