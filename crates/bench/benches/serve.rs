//! Online serving benchmarks: the multi-tenant gateway over the three
//! shared ripped Office UNGs.
//!
//! `serve/office3_c{N}` offers N concurrent requests (all arriving at
//! once) drawn round-robin from the 27-task suite across 8 tenants, and
//! serves them through one gateway holding a session pool and one ripped
//! DMI model per app. Reported figures:
//!
//! - the criterion timing is real wall-clock engine cost per serve call;
//! - the one-shot `serve c=N:` lines (printed outside the timed loops)
//!   report the *virtual-time* serving metrics — tasks/sec against the
//!   deterministic simulated-latency makespan, p50/p99 per-task latency,
//!   session-pool and capture-pool hit rates, and the latency-overlap
//!   factor (serialized ÷ overlapped LLM seconds) that cross-tenant
//!   batching buys.
//!
//! Every per-task `RunTrace` is byte-identical to the task's sequential
//! single-session run at every concurrency level (release-gated in
//! tests/identity.rs), so the curve measures pure engine behavior. Like
//! `rip_par/*` and `rip_fleet/*`, wall-clock scaling with workers needs
//! physical cores — on a single-CPU container the curve is structural.
//!
//! The capture-pool rate reads 0% for this workload by design: suite
//! task setups use pattern operations (`select_lines`, `set_value`),
//! which poison the pristine-relative action trace, soundly disabling
//! cross-session capture sharing for the rest of the task. Workloads
//! driven purely by fingerprintable inputs (clicks, key presses) — the
//! sharded rip engine — do share; `rip_spec/*` reports those rates.

use criterion::{criterion_group, criterion_main, Criterion};
use dmi_agent::{
    Gateway, GatewayConfig, InterfaceMode, RunConfig, ServeApp, ServeRequest, TaskState,
};
use dmi_apps::AppKind;
use dmi_bench::report;
use dmi_core::{Dmi, DmiBuildConfig};
use dmi_gui::Session;
use dmi_llm::CapabilityProfile;
use std::sync::{Arc, OnceLock};

/// The per-app ripped models, built once and shared by reference with
/// every gateway and every request (the whole point of serving over
/// shared UNGs).
fn office_models() -> &'static Vec<(AppKind, Arc<Dmi>)> {
    static MODELS: OnceLock<Vec<(AppKind, Arc<Dmi>)>> = OnceLock::new();
    MODELS.get_or_init(|| {
        AppKind::ALL
            .iter()
            .map(|&k| {
                let mut s = Session::new(k.launch_small());
                let (dmi, _) = Dmi::build(&mut s, &DmiBuildConfig::office(k.name()));
                (k, Arc::new(dmi))
            })
            .collect()
    })
}

/// The request mix: `n` requests round-robin over the 27-task suite,
/// spread across 8 tenants with per-request seeds.
fn request_mix(n: usize) -> Vec<ServeRequest> {
    static TASKS: OnceLock<Vec<Arc<dmi_agent::AgentTask>>> = OnceLock::new();
    let tasks = TASKS.get_or_init(|| dmi_tasks::all_tasks().into_iter().map(Arc::new).collect());
    (0..n)
        .map(|i| {
            let task = &tasks[i % tasks.len()];
            ServeRequest {
                tenant: format!("tenant-{}", i % 8),
                app: task.app.name().to_string(),
                task: Arc::clone(task),
                cfg: RunConfig::test(
                    CapabilityProfile::gpt5_medium(),
                    InterfaceMode::GuiPlusDmi,
                    i as u64,
                ),
            }
        })
        .collect()
}

/// A fresh gateway over the three small Office apps and their shared
/// models, sized for the offered concurrency.
fn office_gateway(concurrency: usize) -> Gateway {
    let apps: Vec<ServeApp> = office_models()
        .iter()
        .map(|(k, dmi)| {
            ServeApp::new(k.name(), Session::new(k.launch_small()), Some(Arc::clone(dmi)))
        })
        .collect();
    // Pool/in-flight sizing grows sublinearly with offered load: high
    // concurrency is served by recycling pooled sessions, not by holding
    // thousands live.
    let (sessions_per_app, max_in_flight) = match concurrency {
        0..=1 => (1, 1),
        2..=64 => (8, 24),
        _ => (16, 48),
    };
    Gateway::new(apps, GatewayConfig { workers: 2, sessions_per_app, max_in_flight })
}

fn bench_serve(c: &mut Criterion) {
    // One-shot virtual-time serving report per concurrency level, printed
    // outside the timed loops.
    fn report_serve_once(concurrency: usize) {
        static ONCE: OnceLock<()> = OnceLock::new();
        ONCE.get_or_init(|| {
            for &n in &[1usize, 64, 4096] {
                let mut gw = office_gateway(n);
                let rep = gw.serve(request_mix(n));
                let overlap = if rep.stats.virtual_secs > 0.0 {
                    rep.stats.serialized_secs / rep.stats.virtual_secs
                } else {
                    1.0
                };
                eprintln!(
                    "{}",
                    report::serve_line(
                        n,
                        rep.stats.tasks_per_sec(),
                        rep.latency_percentile(50.0),
                        rep.latency_percentile(99.0),
                        rep.stats.session_reuse_rate(),
                        rep.stats.capture_hit_rate(),
                        overlap,
                    )
                );
                assert_eq!(rep.stats.completed, n, "every request must produce a trace");
            }
        });
        let _ = concurrency;
    }

    let mut group = c.benchmark_group("serve");
    group.sample_size(10);
    for n in [1usize, 64] {
        group.bench_function(&format!("office3_c{n}"), |b| {
            report_serve_once(n);
            b.iter(|| {
                let mut gw = office_gateway(n);
                let rep = gw.serve(request_mix(n));
                criterion::black_box((rep.stats.completed, rep.stats.rounds))
            })
        });
    }
    // The tail point of the curve is expensive in real time (4096 full
    // task executions per iteration); two samples bound the bench run.
    group.sample_size(2).measurement_time(std::time::Duration::from_secs(1));
    group.bench_function("office3_c4096", |b| {
        report_serve_once(4096);
        b.iter(|| {
            let mut gw = office_gateway(4096);
            let rep = gw.serve(request_mix(4096));
            criterion::black_box((rep.stats.completed, rep.stats.rounds))
        })
    });
    group.finish();
}

/// The sequential baseline the gateway's virtual timeline is compared
/// against: the same request mix driven one task at a time on the caller
/// thread through the identical resumable machine.
fn bench_serve_sequential_baseline(c: &mut Criterion) {
    let mut group = c.benchmark_group("serve");
    group.sample_size(10);
    group.bench_function("office3_c64_sequential", |b| {
        let models = office_models();
        b.iter(|| {
            let mut done = 0usize;
            for r in request_mix(64) {
                let dmi = models.iter().find(|(k, _)| k.name() == r.app).map(|(_, d)| d);
                let mut state = TaskState::new(&r.task, &r.cfg);
                while state.step(&r.task, dmi.map(|d| d.as_ref())) == dmi_agent::StepStatus::Running
                {
                }
                let (trace, _) = state.finish(&r.task);
                done += usize::from(trace.llm_calls > 0);
            }
            criterion::black_box(done)
        })
    });
    group.finish();
}

criterion_group!(benches, bench_serve, bench_serve_sequential_baseline);
criterion_main!(benches);
