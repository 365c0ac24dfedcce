//! Adversarial determinism fuzzing (tier-1 smoke + release-gated long
//! runs).
//!
//! Each fault class in [`FaultPlan`] gets a seeded test proving two
//! things: the designated differential oracle *flags* the fault, and
//! delta-debugging the generating op sequence converges on a minimal
//! reproducer (≤ 12 actions). A fleet-level test injects a panicking
//! and a diverging app next to healthy ones and checks per-entry fault
//! containment. Clean (fault-free) specs must pass every oracle — the
//! determinism contract itself (`docs/determinism.md`) — checked over a
//! seeded corpus: a small smoke here, hundreds of seeds in the
//! release-gated `#[ignore]` runs.

use dmi_core::fuzz::{
    check_cached_capture, check_esc_recovery, check_parallel, check_spec, shrink_ops,
    silence_injected_panics, AdversarialApp, AppSpec, ArenaOp, FaultPlan,
};
use dmi_core::ripper::rip;
use dmi_core::{
    rip_fleet, rip_parallel, FleetEntry, ParRipConfig, RipConfig, RipError, RipOutcome, RipStats,
    RipStatus, Ung,
};
use dmi_gui::Session;
use proptest::prelude::*;

/// Canonical UNG bytes — the representation every oracle pins.
fn bytes(g: &Ung) -> String {
    serde_json::to_string(g).expect("UNGs serialize")
}

/// Sequential reference rip of a spec, with its stats.
fn rip_seq_stats(spec: &AppSpec) -> (Ung, RipStats) {
    let mut s = Session::new(AdversarialApp::launch(spec.clone()));
    rip(&mut s, &RipConfig::default())
}

/// Sequential reference rip of a spec.
fn rip_seq(spec: &AppSpec) -> Ung {
    rip_seq_stats(spec).0
}

/// A fleet entry ripping a fresh instance of `spec`.
fn entry(app_id: &str, spec: &AppSpec) -> FleetEntry {
    FleetEntry::new(
        app_id,
        Session::new(AdversarialApp::launch(spec.clone())),
        RipConfig::default(),
    )
}

/// Rips `spec` as a one-entry fleet — the sharded engine, where worker
/// forks exist for fork-only faults to fire in.
fn rip_solo(app_id: &str, spec: &AppSpec, par: &ParRipConfig) -> RipOutcome {
    rip_fleet(&mut [entry(app_id, spec)], par).pop().expect("one entry, one outcome")
}

/// The app-lane contract of a multi-entry fleet: every entry is
/// `Parallel`, byte-identical to its sequential rip with exactly that
/// rip's stats, and nothing speculated. App lanes make no forks, so no
/// fork-only fault can fire in them.
fn assert_app_lanes(out: &[RipOutcome], specs: &[&AppSpec]) {
    assert_eq!(out.len(), specs.len());
    for (o, spec) in out.iter().zip(specs) {
        let (g, st) = rip_seq_stats(spec);
        assert_eq!(
            o.status,
            RipStatus::Parallel,
            "'{}': every app-lane entry is Parallel",
            o.app_id
        );
        assert_eq!(
            bytes(&o.graph),
            bytes(&g),
            "'{}': byte-identical to its sequential rip",
            o.app_id
        );
        assert_eq!(o.stats, st, "'{}': an app lane is the sequential rip", o.app_id);
        assert_eq!(o.stats.spec_published, 0, "'{}': the speculation ledger is empty", o.app_id);
    }
}

/// Asserts a contained worker panic with its payload.
fn assert_worker_panic(o: &RipOutcome, app: &str) {
    match o.error().expect("the worker panic must be reported") {
        RipError::WorkerPanic { app_id, payload } => {
            assert_eq!(app_id, app);
            assert!(payload.contains("injected fault"), "payload preserved, got: {payload}");
        }
        other => panic!("expected WorkerPanic, got {other:?}"),
    }
    assert!(matches!(o.status, RipStatus::Failed(_)));
}

/// Asserts a divergence-degraded entry: the sequential reference bytes
/// and a balanced speculation ledger.
fn assert_degraded(o: &RipOutcome, app: &str, spec: &AppSpec) {
    match o.error().expect("the fork divergence must be reported") {
        RipError::Divergence { app_id, .. } => assert_eq!(app_id, app),
        other => panic!("expected Divergence, got {other:?}"),
    }
    assert!(matches!(o.status, RipStatus::Degraded(_)));
    assert_eq!(
        bytes(&o.graph),
        bytes(&rip_seq(spec)),
        "quarantine must discard the drifted fork's merge; the re-rip is the reference"
    );
    assert_eq!(
        o.stats.spec_published,
        o.stats.spec_adopted + o.stats.spec_wasted,
        "diverging lane: quarantined publications are counted, never merged"
    );
}

/// How many ops dispatch a command when clicked (buttons and list
/// items). Worker-fork fault classes whose *detection* needs a repeat
/// visit are only deterministic once three of these exist (pigeonhole
/// over two worker forks), so their shrink predicates keep that floor.
fn dispatching_ops(ops: &[ArenaOp]) -> usize {
    ops.iter().filter(|o| matches!(o, ArenaOp::Button(_) | ArenaOp::Item(_))).count()
}

/// Shrinks a flagged spec and asserts the reproducer is minimal enough
/// and still flagged.
fn assert_shrinks(
    base: &AppSpec,
    oracle: impl Fn(&AppSpec) -> bool,
    extra: impl Fn(&[ArenaOp]) -> bool,
) -> Vec<ArenaOp> {
    assert!(oracle(base), "the full spec must be flagged before shrinking");
    let faults = base.faults;
    let min =
        shrink_ops(&base.ops, |ops| extra(ops) && oracle(&AppSpec { ops: ops.to_vec(), faults }));
    assert!(
        min.len() <= 12,
        "reproducer must shrink to <= 12 actions, got {} ({min:?})",
        min.len()
    );
    assert!(
        oracle(&AppSpec { ops: min.clone(), faults }),
        "the shrunk reproducer must still be flagged: {min:?}"
    );
    min
}

/// A base spec guaranteed to exercise restarts, Esc recovery, dialogs,
/// tabs, and repeated command dispatch, prepended with seeded noise so
/// the shrinker has real work to do.
fn noisy(seed: u64, trigger: &[ArenaOp]) -> Vec<ArenaOp> {
    let mut ops = AppSpec::generate(seed, 24).ops;
    ops.extend_from_slice(trigger);
    ops
}

// ---------------------------------------------------------------------
// Per-fault-class: the oracle flags it, the reproducer shrinks.
// ---------------------------------------------------------------------

/// Forked workers relabel a control on every restart; the app honestly
/// stops attesting its pristine token, so every worker base capture is
/// rebuilt and the fleet's base-digest oracle quarantines the lane on
/// the first probed restart (every unit's first task restarts).
#[test]
fn fault_relabel_on_restart_flagged_and_shrunk() {
    let faults = FaultPlan { relabel_on_restart: Some(1), ..FaultPlan::default() };
    let base = AppSpec { ops: noisy(11, &[ArenaOp::Button(7)]), faults };
    let min = assert_shrinks(&base, |s| check_parallel(s).is_some(), |_| true);
    assert_eq!(min.len(), 1, "one explorable control suffices to catch reset drift");
}

/// Every reset leaks state while the app keeps attesting its pristine
/// token: the capture layer's restart stash serves stale bytes, caught
/// against full rebuilds.
#[test]
fn fault_lying_reset_flagged_and_shrunk() {
    let faults = FaultPlan { lying_reset: true, ..FaultPlan::default() };
    // Tabs poison Esc recovery for the following non-tab candidate, so
    // the rip restarts repeatedly — each restart leaks.
    let trigger =
        [ArenaOp::Button(0), ArenaOp::Tab(1), ArenaOp::Pop, ArenaOp::Tab(2), ArenaOp::Pop];
    let base = AppSpec { ops: noisy(22, &trigger), faults };
    assert_shrinks(&base, |s| check_cached_capture(s).is_some(), |_| true);
}

/// A widget is relabeled without bumping the epoch stamps the MRU cache
/// trusts; cached rips keep serving the old bytes.
#[test]
fn fault_unstamped_relabel_flagged_and_shrunk() {
    let faults = FaultPlan { unstamped_relabel_after: Some(2), ..FaultPlan::default() };
    // A flat button arena: the relabel lands during the second button
    // click with the main window visible, so the rebuild rip must see
    // it while cached stamps claim nothing changed. Flat specs are
    // explore-order-insensitive, keeping the trigger deterministic.
    let base = AppSpec { ops: (0..16).map(ArenaOp::Button).collect(), faults };
    assert_shrinks(&base, |s| check_cached_capture(s).is_some(), |_| true);
}

/// Cancel-closing a window mutates the main window unstamped: Esc-based
/// recovery accumulates state a full restart never sees.
#[test]
fn fault_esc_side_effect_flagged_and_shrunk() {
    let faults = FaultPlan { esc_side_effect: true, ..FaultPlan::default() };
    // A leading button keeps the mangled control off every click path,
    // so the mangle survives to the captures. Clicking the dialog's
    // cancel button runs the side effect *during* the click; the mangle
    // counter then differs between Esc recovery (accumulates) and
    // restart-replay (reset each time), and the bytes follow.
    let trigger = [ArenaOp::Button(9), ArenaOp::Dialog(0), ArenaOp::Button(1)];
    let mut ops = trigger.to_vec();
    ops.extend((10..24).map(ArenaOp::Button));
    let base = AppSpec { ops, faults };
    assert_shrinks(&base, |s| check_esc_recovery(s).is_some(), |_| true);
}

/// Forked workers panic mid-dispatch; the fleet engine contains the
/// panic as a per-entry failure, which the parallel oracle reports.
#[test]
fn fault_worker_panic_flagged_and_shrunk() {
    silence_injected_panics();
    let faults = FaultPlan { panic_on_click: Some(1), ..FaultPlan::default() };
    let base = AppSpec { ops: noisy(55, &[ArenaOp::Button(7)]), faults };
    let min = assert_shrinks(&base, |s| check_parallel(s).is_some(), |_| true);
    assert_eq!(min.len(), 1, "one dispatching control suffices to trigger the panic");
}

/// Forked workers drift after their first dispatch (and stay drifted
/// through resets); a repeat visit to the poisoned fork trips the
/// base-digest oracle. Detection needs a fork to serve twice, which is
/// only guaranteed with three dispatching ops (two worker forks), so
/// the shrink predicate keeps that floor.
#[test]
fn fault_fork_divergence_flagged_and_shrunk() {
    let faults = FaultPlan { fork_divergence_after: Some(1), ..FaultPlan::default() };
    let trigger = [ArenaOp::Button(0), ArenaOp::Button(1), ArenaOp::Button(2)];
    let base = AppSpec { ops: noisy(66, &trigger), faults };
    assert_shrinks(&base, |s| check_parallel(s).is_some(), |ops| dispatching_ops(ops) >= 3);
}

// ---------------------------------------------------------------------
// Deep speculation under injected faults: wrong speculations die.
// ---------------------------------------------------------------------

/// The parallel oracle with deep worker-side subtree walks armed
/// (`spec_walk: 8`): every fault now has to survive speculative
/// publication *and* scheduler adoption to go unflagged.
fn check_parallel_speculative(spec: &AppSpec) -> bool {
    let o = rip_solo("spec-fuzz", spec, &ParRipConfig { workers: 2, speculation: 2, spec_walk: 8 });
    o.error().is_some() || bytes(&o.graph) != bytes(&rip_seq(spec))
}

/// Fork divergence armed on deeply speculating workers: the probe-digest
/// oracle still quarantines the lane (a drifted fork's publications die
/// with it, before any byte merges), and the reproducer still shrinks.
#[test]
fn fault_fork_divergence_flagged_and_shrunk_under_deep_speculation() {
    let faults = FaultPlan { fork_divergence_after: Some(1), ..FaultPlan::default() };
    let trigger = [ArenaOp::Button(0), ArenaOp::Button(1), ArenaOp::Button(2)];
    let base = AppSpec { ops: noisy(77, &trigger), faults };
    assert_shrinks(&base, check_parallel_speculative, |ops| dispatching_ops(ops) >= 3);
}

/// Second-dispatch panics armed on deeply speculating workers: the
/// fork's counter survives Esc-based restoration between served tasks
/// (flat arenas never force a counter-resetting restart), so the second
/// click — a follow-up task or a speculative walk step — dies mid-walk
/// and the lane fails in place. Detection needs one of the two forks to
/// serve twice, only guaranteed with three dispatching ops
/// (pigeonhole), so the shrink predicate keeps that floor.
#[test]
fn fault_worker_panic_flagged_and_shrunk_under_deep_speculation() {
    silence_injected_panics();
    let faults = FaultPlan { panic_on_click: Some(2), ..FaultPlan::default() };
    let base = AppSpec { ops: (0..16).map(ArenaOp::Button).collect(), faults };
    assert_shrinks(&base, check_parallel_speculative, |ops| dispatching_ops(ops) >= 3);
}

/// All three fault classes armed next to a healthy entry on a deeply
/// speculating 4-worker budget. As one fleet the four entries run as app
/// lanes: no forks, so every entry rips clean and byte-identical to its
/// sequential rip. As one-entry fleets they shard: the diverging entry
/// quarantines before any speculative byte merges (its graph is the
/// sequential reference and its ledger balances — every discarded
/// publication counted), the panicking entry fails with its payload, and
/// the healthy entry is byte-identical with a balanced ledger. The
/// Esc-side-effect fault stays detectable by its differential oracle.
#[test]
fn fault_armed_speculating_fleet_discards_wrong_speculations() {
    silence_injected_panics();
    let healthy = AppSpec::generate(515, 14);
    let panicky = AppSpec {
        ops: noisy(616, &[ArenaOp::Button(0)]),
        faults: FaultPlan { panic_on_click: Some(1), ..FaultPlan::default() },
    };
    let diverging = AppSpec {
        ops: noisy(717, &(0..6).map(ArenaOp::Button).collect::<Vec<_>>()),
        faults: FaultPlan { fork_divergence_after: Some(1), ..FaultPlan::default() },
    };
    let esc_effect = AppSpec {
        ops: {
            let mut ops = vec![ArenaOp::Button(9), ArenaOp::Dialog(0), ArenaOp::Button(1)];
            ops.extend((10..24).map(ArenaOp::Button));
            ops
        },
        faults: FaultPlan { esc_side_effect: true, ..FaultPlan::default() },
    };
    assert!(
        check_esc_recovery(&esc_effect).is_some(),
        "the Esc-side-effect differential oracle must keep flagging the fault"
    );

    let par = ParRipConfig { workers: 4, speculation: 2, spec_walk: 8 };
    let mut entries = vec![
        entry("healthy", &healthy),
        entry("panicky", &panicky),
        entry("diverging", &diverging),
        entry("esc-effect", &esc_effect),
    ];
    let out = rip_fleet(&mut entries, &par);
    assert_app_lanes(&out, &[&healthy, &panicky, &diverging, &esc_effect]);

    let solo = rip_solo("healthy", &healthy, &par);
    assert_eq!(solo.status, RipStatus::Parallel);
    assert_eq!(
        bytes(&solo.graph),
        bytes(&rip_seq(&healthy)),
        "the healthy sharded entry must stay byte-identical while speculating"
    );
    assert_eq!(
        solo.stats.spec_published,
        solo.stats.spec_adopted + solo.stats.spec_wasted,
        "healthy lane: every published speculation is adopted or counted as waste"
    );
    assert_worker_panic(&rip_solo("panicky", &panicky, &par), "panicky");
    assert_degraded(&rip_solo("diverging", &diverging, &par), "diverging", &diverging);
}

// ---------------------------------------------------------------------
// Fleet fault containment: faulty entries fail alone.
// ---------------------------------------------------------------------

/// One panicking app + one diverging app + two healthy apps on a 4-worker
/// budget: per-entry outcomes, healthy UNGs byte-identical to their
/// sequential rips, no process abort, no wrong bytes anywhere. The four
/// entries run as app lanes, where the fork-only faults cannot fire; as
/// one-entry sharded fleets the faulty entries fail or degrade in place.
#[test]
fn fault_injected_fleet_is_contained_per_entry() {
    silence_injected_panics();
    let healthy_a = AppSpec::generate(101, 14);
    let healthy_b = AppSpec::generate(202, 14);
    let panicky = AppSpec {
        ops: noisy(303, &[ArenaOp::Button(0)]),
        faults: FaultPlan { panic_on_click: Some(1), ..FaultPlan::default() },
    };
    // With 4 workers (4 forks), detection needs a poisoned fork to serve
    // a second task — guaranteed once dispatching candidates outnumber
    // the forks (pigeonhole), hence six buttons.
    let diverging = AppSpec {
        ops: noisy(404, &(0..6).map(ArenaOp::Button).collect::<Vec<_>>()),
        faults: FaultPlan { fork_divergence_after: Some(1), ..FaultPlan::default() },
    };

    let par = ParRipConfig { workers: 4, speculation: 2, spec_walk: 4 };
    let mut entries = vec![
        entry("healthy-a", &healthy_a),
        entry("panicky", &panicky),
        entry("healthy-b", &healthy_b),
        entry("diverging", &diverging),
    ];
    let out = rip_fleet(&mut entries, &par);
    assert_app_lanes(&out, &[&healthy_a, &panicky, &healthy_b, &diverging]);

    assert_worker_panic(&rip_solo("panicky", &panicky, &par), "panicky");
    assert_degraded(&rip_solo("diverging", &diverging, &par), "diverging", &diverging);
}

/// An application whose every instance panics — the unforked original
/// too — dies on whatever thread rips it. In a 3-entry, 2-worker fleet
/// (app lanes) and at `workers: 1` (every entry in place) the fault stays
/// in its entry: `Failed(WorkerPanic)` with the payload and the partial
/// graph committed before the panic, while both siblings stay
/// byte-identical to their sequential rips.
///
/// The same holds for a one-entry fleet whose panic fires on the commit
/// lane's own session rather than on a worker fork: the context pass's
/// setup replay clicks a menu command, and that replay runs on the
/// caller's thread. The entry ends `Failed(WorkerPanic)` with the base
/// pass's graph, and `rip_parallel` returns the error.
#[test]
fn unforked_panic_is_contained_per_entry() {
    use dmi_apps::testkit::PanickyApp;
    use dmi_core::ContextSetup;
    use dmi_uia::ControlType;

    silence_injected_panics();
    let replay_panics = RipConfig {
        candidate_types: vec![ControlType::SplitButton],
        contexts: vec![ContextSetup {
            name: "item selected".into(),
            clicks: vec!["Menu".into(), "Item 0".into()],
        }],
        ..RipConfig::default()
    };
    let crashing_lane = || Session::new(Box::new(PanickyApp::everywhere(3, 1)));
    for workers in [2, 1] {
        let par = ParRipConfig { workers, speculation: 2, spec_walk: 4 };
        let mut solo = [FleetEntry::new("crashing", crashing_lane(), replay_panics.clone())];
        let out = rip_fleet(&mut solo, &par);
        assert_eq!(out.len(), 1, "workers {workers}: one outcome");
        assert_worker_panic(&out[0], "crashing");
        assert!(
            out[0].graph.node_count() > 1,
            "workers {workers}: the base pass committed before the replay panic is kept"
        );
        match rip_parallel(&mut crashing_lane(), &replay_panics, &par) {
            Err(RipError::WorkerPanic { payload, .. }) => {
                assert!(payload.contains("injected fault"), "payload preserved, got: {payload}");
            }
            Err(other) => panic!("workers {workers}: expected WorkerPanic, got {other:?}"),
            Ok(_) => panic!("workers {workers}: a panicking lane must not yield a graph"),
        }
    }

    let healthy_a = AppSpec::generate(808, 14);
    let healthy_b = AppSpec::generate(909, 14);
    for workers in [2, 1] {
        let par = ParRipConfig { workers, speculation: 2, spec_walk: 4 };
        let mut entries = vec![
            entry("healthy-a", &healthy_a),
            FleetEntry::new(
                "crashing",
                Session::new(Box::new(PanickyApp::everywhere(3, 2))),
                RipConfig::default(),
            ),
            entry("healthy-b", &healthy_b),
        ];
        let out = rip_fleet(&mut entries, &par);
        assert_eq!(out.len(), 3, "workers {workers}: one outcome per entry");
        assert_worker_panic(&out[1], "crashing");
        assert!(
            out[1].graph.node_count() > 1,
            "workers {workers}: the partial graph committed before the panic is kept"
        );
        for (o, spec) in [(&out[0], &healthy_a), (&out[2], &healthy_b)] {
            assert_eq!(o.error(), None, "workers {workers}: '{}' is not dragged down", o.app_id);
            assert_eq!(
                bytes(&o.graph),
                bytes(&rip_seq(spec)),
                "workers {workers}: '{}' stays byte-identical to its sequential rip",
                o.app_id
            );
        }
    }
}

/// Gateway fault containment: an executor-visit task against a
/// [`FaultPlan`]-drifting adversarial app runs through the multi-tenant
/// gateway next to healthy Office tenants. The drifting tenant's fault
/// stays contained — its task dies cleanly with the panic payload
/// reported per-outcome — while every sibling tenant's [`RunTrace`]
/// stays byte-identical to its solo sequential run.
#[test]
fn fault_drifting_tenant_is_contained_in_the_gateway() {
    use dmi_agent::{
        Gateway, GatewayConfig, InterfaceMode, RunConfig, ServeApp, ServeRequest, TaskState,
    };
    use dmi_llm::{CapabilityProfile, GuiStep, TargetQuery, TaskPlan};
    use std::sync::Arc;

    silence_injected_panics();

    // Forked tenant sessions of this app panic on their first command
    // dispatch — the executor's visit click detonates it mid-task.
    let spec = AppSpec {
        ops: (0..6).map(ArenaOp::Button).collect(),
        faults: FaultPlan { panic_on_click: Some(1), ..FaultPlan::default() },
    };

    // The adversarial task clicks arena buttons GUI-style. `app` (an
    // AppKind) is a placeholder: the gateway draws sessions from the
    // named `ServeApp` donor, never from the task's own launcher.
    let adversarial_task = Arc::new(dmi_agent::AgentTask {
        id: "fuzz-drift-visit".into(),
        app: dmi_apps::AppKind::Word,
        description: "Click two arena buttons.".into(),
        setup: None,
        verify: |_| false,
        plan: TaskPlan {
            dmi: vec![dmi_llm::PlanStep::Visit(vec![dmi_llm::VisitTarget::click(
                TargetQuery::name("Button 0"),
            )])],
            gui: vec![
                GuiStep::Click(TargetQuery::name("Button 0")),
                GuiStep::Click(TargetQuery::name("Button 1")),
            ],
        },
        mutations: vec![dmi_llm::PlanMutation::DropLast],
    });

    let perfect = {
        let mut p = CapabilityProfile::gpt5_medium();
        p.policy_err = 0.0;
        p.grounding_err = 0.0;
        p.composite_err = 0.0;
        p.instruction_noise = 0.0;
        p
    };
    let office_task =
        Arc::new(dmi_tasks::task_by_id("ppt-background-all").expect("suite task exists"));
    let requests: Vec<ServeRequest> = vec![
        ServeRequest {
            tenant: "healthy-1".into(),
            app: "PowerPoint".into(),
            task: Arc::clone(&office_task),
            cfg: RunConfig::test(perfect.clone(), InterfaceMode::GuiOnly, 3),
        },
        ServeRequest {
            tenant: "drifter".into(),
            app: "adversarial".into(),
            task: Arc::clone(&adversarial_task),
            cfg: RunConfig::test(perfect.clone(), InterfaceMode::GuiOnly, 1),
        },
        ServeRequest {
            tenant: "healthy-2".into(),
            app: "PowerPoint".into(),
            task: Arc::clone(&office_task),
            cfg: RunConfig::test(perfect.clone(), InterfaceMode::GuiOnly, 7),
        },
    ];

    // Solo references for the healthy tenants (sequential, own session).
    let expected: Vec<String> = requests
        .iter()
        .filter(|r| r.app == "PowerPoint")
        .map(|r| dmi_agent::run_task(&r.task, None, &r.cfg).identity_bytes())
        .collect();
    // Solo reference for the drifting tenant, driven through the same
    // resumable machine on a fresh adversarial fork: it panics.
    let solo_drift = {
        let donor = Session::new(AdversarialApp::launch(spec.clone()));
        let fork = donor.fork_from_pristine().expect("adversarial apps fork");
        let cfg = RunConfig::test(perfect.clone(), InterfaceMode::GuiOnly, 1);
        let mut state = TaskState::with_session(&adversarial_task, fork, &cfg);
        std::panic::catch_unwind(std::panic::AssertUnwindSafe(move || {
            while state.step(&adversarial_task, None) == dmi_agent::StepStatus::Running {}
        }))
    };
    assert!(solo_drift.is_err(), "the drifting app must panic on the visit click");

    let mut gw = Gateway::new(
        vec![
            ServeApp::new(
                "PowerPoint",
                Session::new(dmi_apps::AppKind::PowerPoint.launch_small()),
                None,
            ),
            ServeApp::new("adversarial", Session::new(AdversarialApp::launch(spec)), None),
        ],
        GatewayConfig { workers: 2, sessions_per_app: 2, max_in_flight: 4 },
    );
    let report = gw.serve(requests);

    assert_eq!(report.stats.completed, 2, "both healthy tenants complete");
    assert_eq!(report.stats.faulted, 1, "exactly the drifting tenant dies");

    let drift = &report.outcomes[1];
    assert_eq!(drift.tenant, "drifter");
    assert!(drift.trace.is_none(), "a panicked task yields no trace");
    let fault = drift.fault.as_ref().expect("the panic payload is reported");
    assert!(fault.contains("injected fault"), "payload preserved, got: {fault}");

    for (o, want) in [&report.outcomes[0], &report.outcomes[2]].iter().zip(&expected) {
        let got = o.trace.as_ref().expect("healthy trace").identity_bytes();
        assert_eq!(
            &got, want,
            "healthy tenant '{}' must stay byte-identical to its solo run",
            o.tenant
        );
    }
}

// ---------------------------------------------------------------------
// Clean specs: the determinism contract holds on every axis.
// ---------------------------------------------------------------------

/// Byte-identity across sequential, parallel, and fleet engines for a
/// range of seeded random clean apps. Fleet runs batch four specs per
/// pool to exercise cross-app sharing.
fn assert_identity_for_seeds(seeds: std::ops::Range<u64>) {
    let specs: Vec<AppSpec> = seeds.map(|s| AppSpec::generate(s, 20)).collect();
    let reference: Vec<String> = specs.iter().map(|s| bytes(&rip_seq(s))).collect();
    let par = ParRipConfig { workers: 2, speculation: 2, spec_walk: 4 };
    for (spec, expect) in specs.iter().zip(&reference) {
        let mut s = Session::new(AdversarialApp::launch(spec.clone()));
        let (g, _) = rip_parallel(&mut s, &RipConfig::default(), &par).expect("clean specs rip");
        assert_eq!(&bytes(&g), expect, "parallel rip diverged for spec {spec:?}");
    }
    for (chunk, expectations) in specs.chunks(4).zip(reference.chunks(4)) {
        let mut entries: Vec<FleetEntry> = chunk
            .iter()
            .enumerate()
            .map(|(i, spec)| {
                FleetEntry::new(
                    format!("app-{i}"),
                    Session::new(AdversarialApp::launch(spec.clone())),
                    RipConfig::default(),
                )
            })
            .collect();
        let out = rip_fleet(&mut entries, &par);
        for ((o, expect), spec) in out.iter().zip(expectations).zip(chunk) {
            assert_eq!(o.error(), None, "no oracle may fire on a clean spec {spec:?}");
            assert_eq!(&bytes(&o.graph), expect, "fleet rip diverged for spec {spec:?}");
        }
    }
}

/// Tier-1 smoke: a small seeded corpus, debug-friendly.
#[test]
fn clean_specs_rip_identically_smoke() {
    assert_identity_for_seeds(0..24);
}

/// Release-gated long run (`cargo test --release -- --ignored`): the
/// acceptance corpus, ≥200 seeded random apps.
#[test]
#[ignore = "long corpus; run with --release -- --ignored"]
fn clean_specs_rip_identically_200_seeds() {
    assert_identity_for_seeds(1000..1208);
}

/// Release-gated: every oracle (capture caches and Esc recovery
/// included) stays quiet across a seeded clean corpus.
#[test]
#[ignore = "long corpus; run with --release -- --ignored"]
fn clean_specs_pass_every_oracle_100_seeds() {
    for seed in 2000..2100u64 {
        let spec = AppSpec::generate(seed, 20);
        assert_eq!(check_spec(&spec), None, "clean spec from seed {seed} diverged");
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// Structured generation through the shrink-friendly raw encoding:
    /// arbitrary op sequences (degenerate nesting included) must pass
    /// every oracle as long as no fault is armed.
    #[test]
    fn random_clean_specs_pass_every_oracle(raw in proptest::collection::vec((0u8..6, 0u16..5), 1..20)) {
        let spec = AppSpec::from_raw(&raw);
        prop_assert!(check_spec(&spec).is_none(), "clean spec diverged: {:?}", spec.ops);
    }
}
