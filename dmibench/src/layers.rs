//! The per-layer metrics of the traced pass: their names and units, and
//! the one place that maps `dmi_obs` registry keys to those names.

use crate::sample::ratio;
use crate::workload::FLEET;
use dmi_obs::Registry;
use std::collections::BTreeMap;

/// Every per-layer metric the traced pass prints, with its unit. A layer
/// a workload does not exercise reads 0.
pub const PER_LAYER: &[(&str, &str)] = &[
    ("gui.captures", "count"),
    ("gui.full_hit_ratio", "ratio"),
    ("gui.windows_rebuilt", "count"),
    ("gui.rebuild_ms", "ms"),
    ("gui.pool_hit_ratio", "ratio"),
    ("gui.pool_evictions", "count"),
    ("ripper.clicks", "count"),
    ("ripper.snapshots", "count"),
    ("ripper.restarts", "count"),
    ("ripper.esc_recoveries", "count"),
    ("ripper.replay_failures", "count"),
    ("ripper.rip_ms.Word", "ms"),
    ("ripper.rip_ms.Excel", "ms"),
    ("ripper.rip_ms.PowerPoint", "ms"),
    ("parallel.fleet_ms", "ms"),
    ("parallel.park_ms", "ms"),
    ("parallel.fold_ms", "ms"),
    ("parallel.explore_ms", "ms"),
    ("parallel.worker_busy_ratio", "ratio"),
    ("parallel.spec_published", "count"),
    ("parallel.spec_adopt_ratio", "ratio"),
    ("parallel.spec_walk_ms", "ms"),
    ("parallel.extra_click_ratio", "ratio"),
    ("parallel.lane_stall_overlapping_ms", "ms"),
    ("topology.from_ung_ms", "ms"),
    ("topology.core_tokens", "tokens"),
    ("store.save_ms", "ms"),
    ("store.load_ms", "ms"),
    ("store.encode_ms", "ms"),
    ("store.decode_ms", "ms"),
    ("store.bytes_written", "bytes"),
    ("store.boot_ms", "ms"),
    ("gateway.rounds", "count"),
    ("gateway.round_wall_ms", "ms"),
    ("gateway.session_reuse_ratio", "ratio"),
    ("gateway.session_forks", "count"),
    ("gateway.admit_wait_p50_vs", "vs"),
    ("llm.calls", "count"),
    ("llm.overlap_factor", "ratio"),
    ("llm.prompt_tokens_per_task", "tokens"),
    ("agent.gui_only.success_rate", "ratio"),
    ("agent.dmi.success_rate", "ratio"),
    ("agent.gui_only.llm_calls_per_task", "count"),
    ("agent.dmi.llm_calls_per_task", "count"),
    ("serve.virtual_tasks_per_s", "1/vs"),
    ("serve.task_latency_p50_vs", "vs"),
    ("serve.task_latency_p98_vs", "vs"),
    ("serve.task_success_rate", "ratio"),
    ("serve.llm_calls_per_task", "count"),
    ("serve.one_shot_rate", "ratio"),
    ("obs.trace_overhead_ratio", "ratio"),
    ("obs.dropped_events", "count"),
];

/// Registry keys summed into each registry-sourced value. Span keys are
/// `<category>.<span name>.total_ms` / `.count` exactly as
/// `Registry::from_trace` builds them, which doubles the prefix of
/// `rip.rip.fleet` and `scheduler.scheduler.park`; tally keys are the
/// tally names. This table is the only place those keys appear.
const FROM_REGISTRY: &[(&str, &[&str])] = &[
    ("gui.captures", &["capture.captures"]),
    ("gui.full_hits", &["capture.full_hits"]),
    ("gui.windows_rebuilt", &["capture.windows_rebuilt"]),
    ("gui.rebuild_ms", &["capture.rebuild.total_ms"]),
    ("gui.pool_hits", &["capture.pool_hits"]),
    ("gui.pool_misses", &["capture.pool_misses"]),
    ("gui.pool_evictions", &["capture.pool_evictions"]),
    ("parallel.fleet_ms", &["rip.rip.fleet.total_ms"]),
    ("parallel.park_ms", &["scheduler.scheduler.park.total_ms"]),
    ("parallel.explore_ms", &["worker.explore.total_ms"]),
    ("parallel.spec_walk_ms", &["worker.spec.explore.total_ms"]),
    // Per-lane stall intervals overlap one another (lanes stall at the
    // same time), so their sum is not busy or idle time of anything.
    (
        "parallel.lane_stall_overlapping_ms",
        &["scheduler.stall.reveal.total_ms", "scheduler.stall.await.total_ms"],
    ),
    ("store.save_ms", &["store.save_rip.total_ms", "store.save_captures.total_ms"]),
    ("store.load_ms", &["store.load_rip.total_ms", "store.load_captures.total_ms"]),
    ("store.encode_ms", &["store.encode_rip.total_ms", "store.encode_captures.total_ms"]),
    ("store.decode_ms", &["store.decode_rip.total_ms", "store.decode_captures.total_ms"]),
    ("gateway.round_total_ms", &["gateway.round.total_ms"]),
    ("gateway.round_count", &["gateway.round.count"]),
];

fn registry_value(reg: &Registry, key: &str) -> f64 {
    reg.counter(key) as f64 + reg.gauge(key)
}

/// Folds one traced iteration: its drained trace and tallies, on top of
/// the values the iteration read from the public stats structs.
pub fn fold(
    trace: &dmi_obs::Trace,
    tallies: &BTreeMap<&'static str, u64>,
    stats: &BTreeMap<&'static str, f64>,
) -> BTreeMap<&'static str, f64> {
    let mut reg = Registry::from_trace(trace);
    for (name, v) in tallies {
        reg.inc(name, *v);
    }
    let mut m = stats.clone();
    for (clean, keys) in FROM_REGISTRY {
        let v: f64 = keys.iter().map(|k| registry_value(&reg, k)).sum();
        m.insert(clean, v);
    }
    let get = |m: &BTreeMap<&'static str, f64>, k: &str| m.get(k).copied().unwrap_or(0.0);

    let derived = [
        ("gui.full_hit_ratio", ratio(get(&m, "gui.full_hits"), get(&m, "gui.captures"))),
        (
            "gui.pool_hit_ratio",
            ratio(get(&m, "gui.pool_hits"), get(&m, "gui.pool_hits") + get(&m, "gui.pool_misses")),
        ),
        ("parallel.fold_ms", get(&m, "parallel.fleet_ms") - get(&m, "parallel.park_ms")),
        (
            "parallel.worker_busy_ratio",
            ratio(
                get(&m, "parallel.explore_ms") + get(&m, "parallel.spec_walk_ms"),
                FLEET.workers as f64 * get(&m, "parallel.fleet_ms"),
            ),
        ),
        (
            "parallel.spec_adopt_ratio",
            ratio(get(&m, "parallel.spec_adopted"), get(&m, "parallel.spec_published")),
        ),
        (
            "gateway.round_wall_ms",
            ratio(get(&m, "gateway.round_total_ms"), get(&m, "gateway.round_count")),
        ),
        ("obs.dropped_events", trace.dropped as f64),
    ];
    m.extend(derived);
    m
}
