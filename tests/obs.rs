//! Observability integration tests: OFF-path silence through real rips,
//! Chrome-trace export validity, span nesting, virtual-time determinism,
//! and the stats-vs-tallies drift cross-checks.
//!
//! The recorder's enable flag is process-global, so every test that
//! opens an observation window serializes on one lock — tests can never
//! observe each other's events. The shared fleet fixture is ripped once
//! and inspected by every trace-shape test.

use dmi_apps::AppKind;
use dmi_core::parallel::{rip_fleet, FleetEntry, ParRipConfig};
use dmi_core::ripper::{rip, RipConfig, RipStats};
use dmi_gui::Session;
use dmi_obs::{Cat, Clock, Event, Trace};
use std::collections::BTreeMap;
use std::sync::{Mutex, MutexGuard, OnceLock};

fn guard() -> MutexGuard<'static, ()> {
    static LOCK: Mutex<()> = Mutex::new(());
    LOCK.lock().unwrap_or_else(std::sync::PoisonError::into_inner)
}

fn office_entries() -> Vec<FleetEntry> {
    AppKind::ALL
        .iter()
        .map(|k| {
            FleetEntry::new(k.name(), Session::new(k.launch_small()), RipConfig::office(k.name()))
        })
        .collect()
}

/// One traced 3-app / 2-worker fleet rip, shared by every test that only
/// inspects the resulting trace (the rip is the expensive part).
struct FleetObs {
    trace: Trace,
    tallies: BTreeMap<&'static str, u64>,
    stats: Vec<RipStats>,
}

fn fleet_obs() -> &'static FleetObs {
    static OBS: OnceLock<FleetObs> = OnceLock::new();
    OBS.get_or_init(|| {
        dmi_obs::clear();
        dmi_obs::set_enabled(true);
        let mut entries = office_entries();
        let out =
            rip_fleet(&mut entries, &ParRipConfig { workers: 2, speculation: 2, spec_walk: 4 });
        dmi_obs::set_enabled(false);
        assert_eq!(out.len(), 3);
        assert!(out.iter().all(|o| !o.fell_back()), "Office apps fork");
        let trace = dmi_obs::drain();
        let tallies = dmi_obs::tallies();
        dmi_obs::clear();
        FleetObs { trace, tallies, stats: out.iter().map(|o| o.stats).collect() }
    })
}

#[test]
fn off_path_records_nothing_through_a_real_rip() {
    let _g = guard();
    dmi_obs::set_enabled(false);
    dmi_obs::clear();
    let mut cfg = RipConfig::office("Word");
    cfg.max_clicks = Some(40);
    let mut s = Session::new(AppKind::Word.launch_small());
    let (g, stats) = rip(&mut s, &cfg);
    assert!(g.node_count() > 0 && stats.clicks > 0, "the rip itself ran");
    let t = dmi_obs::drain();
    assert!(t.events.is_empty(), "a disabled recorder buffers nothing through a full rip");
    assert_eq!(t.dropped, 0);
    assert!(dmi_obs::tallies().is_empty(), "a disabled recorder tallies nothing");
}

#[test]
fn traced_fleet_distinguishes_stalls_from_explores_and_exports_valid_chrome_json() {
    let _g = guard();
    let obs = fleet_obs();

    // Stall attribution: scheduler stall spans and worker explore spans
    // are distinct, both present, and the summary totals them apart.
    let stalls = obs.trace.count(Some(Cat::Scheduler), "stall");
    let explores = obs.trace.count(Some(Cat::Worker), "explore");
    assert!(stalls > 0, "commit lanes blocked at least once");
    assert!(explores > 0, "workers explored candidates");
    assert!(obs.trace.total_dur_us(Some(Cat::Worker), "explore") > 0);
    let summary = obs.trace.text_summary();
    assert!(summary.contains("scheduler stall total:"), "{summary}");
    assert!(summary.contains("worker explore total:"), "{summary}");

    // The Chrome export round-trips through the JSON parser as a valid
    // trace-event array.
    let json = obs.trace.to_chrome_json();
    let v = serde_json::parse_value(&json).expect("chrome export is valid JSON");
    let arr = v.as_array().expect("top level is an array");
    let has_virtual = obs.trace.events.iter().any(|e| e.clock == Clock::Virtual);
    let metadata = if has_virtual { 2 } else { 1 };
    assert_eq!(
        arr.len(),
        obs.trace.events.len() + metadata,
        "every event exported, plus one process-name record per timeline"
    );
    for e in arr {
        let o = e.as_object().expect("every element is an object");
        assert!(o.get("name").and_then(|n| n.as_str()).is_some());
        let ph = o.get("ph").and_then(|p| p.as_str()).expect("phase present");
        assert!(matches!(ph, "X" | "i" | "M"), "unexpected phase {ph}");
        assert!(o.get("pid").and_then(|p| p.as_u64()).is_some());
        if ph == "X" {
            assert!(o.get("dur").and_then(|d| d.as_u64()).is_some(), "complete spans carry dur");
        }
    }
}

/// Wall-clock events of one thread come out of one ring, so RAII spans
/// recorded on a thread must nest: every `scheduler.park` interval lies
/// inside the enclosing `rip.fleet` span, and one worker thread's
/// `explore` spans never overlap each other.
#[test]
fn raii_spans_balance_per_thread() {
    let _g = guard();
    let obs = fleet_obs();
    let fleet = obs
        .trace
        .events
        .iter()
        .find(|e| e.name == "rip.fleet")
        .expect("the fleet rip records its top-level span");
    let fleet_end = fleet.ts_us + fleet.dur_us;
    for e in obs.trace.events.iter().filter(|e| e.name == "scheduler.park") {
        assert_eq!(e.tid, fleet.tid, "parks happen on the scheduler thread");
        assert!(e.ts_us >= fleet.ts_us && e.ts_us + e.dur_us <= fleet_end, "park nests in fleet");
    }
    let mut by_tid: BTreeMap<u64, Vec<&Event>> = BTreeMap::new();
    for e in obs.trace.events.iter().filter(|e| e.name == "explore") {
        by_tid.entry(e.tid).or_default().push(e);
    }
    assert!(!by_tid.is_empty());
    for (tid, spans) in by_tid {
        // Drained order is (ts, tid)-sorted already.
        for w in spans.windows(2) {
            assert!(
                w[0].ts_us + w[0].dur_us <= w[1].ts_us,
                "thread {tid}: explore spans are sequential, not overlapping"
            );
        }
    }
}

fn vt_events(trace: &Trace) -> Vec<(&'static str, u64, u64, u64)> {
    trace
        .events
        .iter()
        .filter(|e| e.clock == Clock::Virtual)
        .map(|e| (e.name, e.ts_us, e.dur_us, e.lane))
        .collect()
}

fn serve_traced(n: usize) -> (dmi_agent::ServeReport, Trace, BTreeMap<&'static str, u64>) {
    use dmi_agent::{Gateway, GatewayConfig, InterfaceMode, RunConfig, ServeApp, ServeRequest};
    use std::sync::Arc;

    let tasks: Vec<Arc<dmi_agent::AgentTask>> =
        dmi_tasks::all_tasks().into_iter().map(Arc::new).collect();
    let requests: Vec<ServeRequest> = (0..n)
        .map(|i| {
            let task = &tasks[i % tasks.len()];
            ServeRequest {
                tenant: format!("tenant-{}", i % 3),
                app: task.app.name().to_string(),
                task: Arc::clone(task),
                cfg: RunConfig::test(
                    dmi_integration_tests::perfect_profile(),
                    InterfaceMode::GuiOnly,
                    i as u64,
                ),
            }
        })
        .collect();
    let apps: Vec<ServeApp> = AppKind::ALL
        .iter()
        .map(|&k| ServeApp::new(k.name(), Session::new(k.launch_small()), None))
        .collect();
    let mut gw =
        Gateway::new(apps, GatewayConfig { workers: 2, sessions_per_app: 2, max_in_flight: 8 });

    dmi_obs::clear();
    dmi_obs::set_enabled(true);
    let report = gw.serve(requests);
    dmi_obs::set_enabled(false);
    let trace = dmi_obs::drain();
    let tallies = dmi_obs::tallies();
    dmi_obs::clear();
    (report, trace, tallies)
}

/// Virtual-time spans ride the deterministic virtual clock: identical
/// run to run, with a non-overlapping monotonic round timeline and task
/// lifecycles that match the reported outcomes exactly.
#[test]
fn virtual_time_spans_are_deterministic_and_monotonic() {
    let _g = guard();
    let (report_a, trace_a, _) = serve_traced(12);
    let (report_b, trace_b, _) = serve_traced(12);
    assert_eq!(report_a.stats.completed, 12);
    assert_eq!(report_b.stats.completed, 12);

    let vt_a = vt_events(&trace_a);
    let vt_b = vt_events(&trace_b);
    assert!(!vt_a.is_empty(), "serving records virtual-time spans");
    assert_eq!(vt_a, vt_b, "virtual timeline is identical run to run");

    // Round spans tile the virtual clock: non-overlapping, monotonic.
    let rounds: Vec<&(&str, u64, u64, u64)> =
        vt_a.iter().filter(|(name, ..)| *name == "round.vt").collect();
    assert!(!rounds.is_empty());
    let mut sorted = rounds.clone();
    sorted.sort_by_key(|(_, ts, _, lane)| (*ts, *lane));
    for w in sorted.windows(2) {
        let (_, ts0, dur0, _) = *w[0];
        let (_, ts1, ..) = *w[1];
        assert!(ts0 + dur0 <= ts1, "round spans never overlap");
    }

    // Per-tenant task lifecycles: every `task` span's admit/finish pair
    // matches a reported outcome on the same virtual clock.
    let task_spans: Vec<_> = vt_a.iter().filter(|(name, ..)| *name == "task").collect();
    assert_eq!(task_spans.len(), 12, "one lifecycle span per completed task");
    for (_, ts, dur, _lane) in task_spans {
        let finish = ts + dur;
        assert!(
            report_a.outcomes.iter().any(|o| {
                (o.admit_vt * 1e6).round() as u64 == *ts
                    && (o.finish_vt * 1e6).round() as u64 == finish
            }),
            "task span [{ts}, {finish}] matches a reported outcome"
        );
    }
}

/// The rip-side drift cross-check: every engine stat field and its obs
/// tally are incremented at the same sites, so a traced rip must report
/// identical numbers through both channels — a counter accumulated twice
/// (or a site that forgot one side) breaks the equality.
#[test]
fn rip_stats_match_obs_tallies() {
    let _g = guard();
    dmi_obs::clear();
    dmi_obs::set_enabled(true);
    let mut cfg = RipConfig::office("Word");
    cfg.max_clicks = Some(300);
    let mut s = Session::new(AppKind::Word.launch_small());
    let (_graph, stats) = rip(&mut s, &cfg);
    dmi_obs::set_enabled(false);
    let tallies = dmi_obs::tallies();
    let cs = s.capture_stats();
    dmi_obs::clear();

    let t = |k: &str| tallies.get(k).copied().unwrap_or(0);
    assert_eq!(stats.clicks, t("rip.clicks"), "clicks");
    assert_eq!(stats.snapshots, t("rip.snapshots"), "snapshots");
    assert_eq!(stats.restarts, t("rip.restarts"), "restarts");
    assert_eq!(stats.esc_recoveries, t("rip.esc_recoveries"), "esc recoveries");
    assert_eq!(stats.esc_presses, t("rip.esc_presses"), "esc presses");
    assert_eq!(stats.blocklisted, t("rip.blocklisted"), "blocklisted");
    assert_eq!(stats.replay_failures, t("rip.replay_failures"), "replay failures");
    assert_eq!(stats.windows_seen, t("rip.windows_seen"), "windows seen");
    assert_eq!(cs.captures, t("capture.captures"), "captures");
    assert_eq!(cs.full_hits, t("capture.full_hits"), "full hits");
    assert_eq!(cs.pristine_hits, t("capture.pristine_hits"), "pristine hits");
    assert_eq!(cs.windows_reused, t("capture.windows_reused"), "windows reused");
    assert_eq!(cs.windows_rebuilt, t("capture.windows_rebuilt"), "windows rebuilt");
    assert_eq!(cs.nodes_walked, t("capture.nodes_walked"), "nodes walked");
    assert_eq!(cs.nodes_copied, t("capture.nodes_copied"), "nodes copied");
    assert!(cs.nodes_walked > 0 && cs.nodes_copied > 0, "both capture paths ran");
    assert_eq!(cs.pool_hits, t("capture.pool_hits"), "pool hits");
    assert_eq!(cs.pool_misses, t("capture.pool_misses"), "pool misses");
}

/// The fleet-side drift cross-check: lane commit counters and pooled
/// worker-unit harvests must add up to exactly the per-event tallies —
/// a unit harvested twice (or a shard session skipped) breaks it.
#[test]
fn fleet_stats_match_obs_tallies() {
    let _g = guard();
    let obs = fleet_obs();
    let t = |k: &str| obs.tallies.get(k).copied().unwrap_or(0);
    let sum = |f: fn(&RipStats) -> u64| obs.stats.iter().map(f).sum::<u64>();
    assert_eq!(sum(|s| s.windows_seen), t("rip.windows_seen"), "windows seen (commit-derived)");
    assert_eq!(sum(|s| s.clicks), t("rip.clicks"), "clicks (worker effort)");
    assert_eq!(sum(|s| s.snapshots), t("rip.snapshots"), "snapshots (worker effort)");
    assert_eq!(sum(|s| s.blocklisted), t("rip.blocklisted"), "blocklist hits");
    assert_eq!(sum(|s| s.pool_hits), t("capture.pool_hits"), "capture-pool hits");
    assert_eq!(sum(|s| s.pool_misses), t("capture.pool_misses"), "capture-pool misses");
    assert!(t("capture.pool_hits") > 0, "shards served shared captures");
    // Speculation ledger: worker-side publications tally as `spec.depth`
    // at the same site as the stat, scheduler-side adoptions and waste at
    // theirs — and on an all-healthy fleet every publication is resolved
    // one way or the other.
    assert_eq!(sum(|s| s.spec_published), t("spec.depth"), "speculations published");
    assert_eq!(sum(|s| s.spec_adopted), t("spec.adopt"), "speculations adopted");
    assert_eq!(sum(|s| s.spec_wasted), t("spec.waste"), "speculations wasted");
    assert_eq!(
        t("spec.depth"),
        t("spec.adopt") + t("spec.waste"),
        "every published speculation is adopted or counted as waste"
    );
}

/// The serve-side drift cross-check: gateway counters harvested from
/// pooled sessions must equal the per-event tallies. This is the pin for
/// the checkin double-count fix — re-reading counters already harvested
/// at checkin made `capture_pool_*` drift high by exactly the re-read.
#[test]
fn serve_stats_match_obs_tallies() {
    let _g = guard();
    let (report, _trace, tallies) = serve_traced(12);
    let t = |k: &str| tallies.get(k).copied().unwrap_or(0);
    assert_eq!(report.stats.completed as u64, t("gateway.completed"), "completed");
    assert_eq!(report.stats.faulted as u64, t("gateway.faulted"), "faulted");
    assert_eq!(report.stats.completed as u64, t("gateway.admitted"), "all admissions completed");
    assert_eq!(report.stats.capture_pool_hits, t("capture.pool_hits"), "capture pool hits");
    assert_eq!(report.stats.capture_pool_misses, t("capture.pool_misses"), "capture pool misses");
    // Virtual seconds vs the settled-batch tally: equal up to the µs
    // rounding applied once per settled round.
    let vt_us = (report.stats.virtual_secs * 1e6).round() as i64;
    let tallied = t("llm.overlapped_us") as i64;
    assert!(
        (vt_us - tallied).abs() <= report.stats.rounds as i64,
        "virtual clock {vt_us}us vs tallied {tallied}us (rounds={})",
        report.stats.rounds
    );
    assert!(t("llm.calls") > 0, "batched calls were tallied");
}
