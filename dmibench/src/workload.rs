//! The four workloads: set-up, one timed iteration, and the output gates
//! each iteration must pass.
//!
//! Every workload drives the program only through its public API and
//! times the calls it makes from outside. The benchmark's own calls are
//! wrapped in `dmi_obs` spans (`bench.*`), which cost one atomic load
//! while tracing is off and give the traced pass a boundary span per
//! layer call.

use crate::sample::{median, ratio, Digest, Rng};
use dmi_agent::{
    aggregate, Aggregate, Gateway, GatewayConfig, InterfaceMode, RunConfig, RunTrace, ServeApp,
    ServeRequest,
};
use dmi_apps::AppKind;
use dmi_core::parallel::{rip_fleet, FleetEntry, ParRipConfig, RipStatus};
use dmi_core::ripper::{rip, RipConfig, RipStats};
use dmi_core::{Dmi, DmiBuildConfig, Ung};
use dmi_gui::Session;
use dmi_llm::CapabilityProfile;
use dmi_obs::Cat;
use dmi_store::{Store, StoredCaptures, StoredRip};
use std::collections::BTreeMap;
use std::path::PathBuf;
use std::sync::Arc;
use std::time::Instant;

/// The workloads, in the order `BENCHMARK.json` lists them.
pub const WORKLOADS: [&str; 4] =
    ["model_office3_seq", "model_office3_w2", "serve_office3_mix512", "store_boot_office3"];

/// Pinned UNG shape of the full Office apps: `(nodes, edges)`.
pub fn ung_pin(app: AppKind) -> (usize, usize) {
    match app {
        AppKind::Word => (2519, 2543),
        AppKind::Excel => (4179, 4197),
        AppKind::PowerPoint => (1906, 1919),
    }
}

/// The fleet shape the `_w2` workload rips with (2 workers = `nproc` of
/// the reference machine).
pub const FLEET: ParRipConfig = ParRipConfig { workers: 2, speculation: 2, spec_walk: 4 };

/// Requests per serve batch.
pub const SERVE_REQUESTS: usize = 512;
/// Tenants the serve requests are spread over.
pub const SERVE_TENANTS: usize = 8;
/// Gateway sizing for the serve batch.
pub const SERVE_GATEWAY: GatewayConfig =
    GatewayConfig { workers: 2, sessions_per_app: 16, max_in_flight: 48 };

/// Warm boots of each app per store iteration (one boot is ~0.1 s, too
/// short to time alone on a noisy machine).
pub const BOOT_ROUNDS: usize = 3;

/// What one timed iteration produced.
#[derive(Debug, Clone, Default)]
pub struct Iter {
    /// Wall seconds of the timed region.
    pub wall_s: f64,
    /// Units of work completed: apps modeled, tasks served or apps booted.
    pub items: usize,
    /// Operations attempted (rips, requests, store operations).
    pub attempted: usize,
    /// Operations that failed: a non-clean `RipStatus`, a faulted
    /// request or a `StoreError`.
    pub failed: usize,
    /// Per-layer values read from the program's public stats structs,
    /// under their clean names (the traced pass adds registry values).
    pub layer: BTreeMap<&'static str, f64>,
}

/// A set-up workload, ready for timed iterations.
pub trait Workload {
    /// Runs one timed iteration and checks its outputs; `Err` names the
    /// gate that failed.
    fn iterate(&mut self) -> Result<Iter, String>;

    /// Per-layer values measured by direct calls outside the iterations;
    /// the traced pass runs it after each traced iteration, untraced.
    fn probe(&self) -> BTreeMap<&'static str, f64> {
        BTreeMap::new()
    }
}

/// Sets up the named workload; `None` for an unknown name. The seed
/// generates the serve batch. The modeling and store workloads take the
/// three Office apps, always in `AppKind::ALL` order, as their fixed input:
/// a seeded app order would change fleet scheduling and memory peaks from
/// seed to seed without changing the work.
pub fn setup(name: &str, seed: u64) -> Option<Result<Box<dyn Workload>, String>> {
    fn boxed<W: Workload + 'static>(w: Result<W, String>) -> Result<Box<dyn Workload>, String> {
        w.map(|w| Box::new(w) as Box<dyn Workload>)
    }
    Some(match name {
        "model_office3_seq" => boxed(Model::new(None)),
        "model_office3_w2" => boxed(Model::new(Some(FLEET))),
        "serve_office3_mix512" => boxed(Ok(Serve::new(seed))),
        "store_boot_office3" => boxed(StoreBoot::new()),
        _ => return None,
    })
}

fn secs(t: Instant) -> f64 {
    t.elapsed().as_secs_f64()
}

/// Checks a ripped UNG against the pinned shape and the reference
/// bytes; returns its bytes.
fn ung_gate(app: AppKind, g: &Ung, reference: Option<&String>) -> Result<String, String> {
    let shape = (g.node_count(), g.edge_count());
    if shape != ung_pin(app) {
        return Err(format!("{app:?}: UNG shape {shape:?}, expected {:?}", ung_pin(app)));
    }
    let bytes = serde_json::to_string(g).map_err(|e| format!("{app:?}: UNG json: {e:?}"))?;
    match reference {
        Some(want) if *want != bytes => {
            Err(format!("{app:?}: UNG bytes differ from the sequential rip"))
        }
        _ => Ok(bytes),
    }
}

/// `Dmi::from_ung` on a checked graph, timed; adds its time and core
/// tokens to the iteration's topology values and returns the seconds.
fn timed_from_ung(it: &mut Iter, app: AppKind, g: Ung) -> f64 {
    let cfg = DmiBuildConfig::office(app.name());
    let t = Instant::now();
    let (dmi, bs) = {
        let _span = dmi_obs::span(Cat::Rip, "bench.from_ung", 0);
        Dmi::from_ung(g, &cfg)
    };
    let s = secs(t);
    drop(dmi);
    *it.layer.entry("topology.from_ung_ms").or_insert(0.0) += s * 1e3;
    *it.layer.entry("topology.core_tokens").or_insert(0.0) += bs.core_tokens as f64;
    s
}

fn sum_stats(layer: &mut BTreeMap<&'static str, f64>, s: &RipStats) {
    for (k, v) in [
        ("ripper.clicks", s.clicks),
        ("ripper.snapshots", s.snapshots),
        ("ripper.restarts", s.restarts),
        ("ripper.esc_recoveries", s.esc_recoveries),
        ("ripper.replay_failures", s.replay_failures),
        ("parallel.spec_published", s.spec_published),
        ("parallel.spec_adopted", s.spec_adopted),
    ] {
        *layer.entry(k).or_insert(0.0) += v as f64;
    }
}

// ------------------------------------------------------------- modeling

/// `model_office3_seq` / `model_office3_w2`: launch, rip and build the
/// DMI model of Word, Excel and PowerPoint — one after another, or as one
/// 2-worker fleet.
pub struct Model {
    fleet: Option<ParRipConfig>,
    /// Per-app UNG bytes every iteration must reproduce.
    reference: BTreeMap<AppKind, String>,
    /// Per-app sequential stats every sequential iteration must repeat;
    /// their clicks are the base of the fleet's extra click ratio.
    seq_stats: BTreeMap<AppKind, RipStats>,
}

impl Model {
    /// Set-up is the reference pass both modeling gates compare against:
    /// one sequential rip of each freshly launched app.
    fn new(fleet: Option<ParRipConfig>) -> Result<Model, String> {
        let mut m = Model { fleet, reference: BTreeMap::new(), seq_stats: BTreeMap::new() };
        for app in AppKind::ALL {
            let (g, st) = rip(&mut Session::new(app.launch()), &RipConfig::office(app.name()));
            m.reference.insert(app, ung_gate(app, &g, None)?);
            m.seq_stats.insert(app, st);
        }
        Ok(m)
    }

    /// Wall time sums the timed calls; the gates run between them,
    /// untimed, on each graph before `from_ung` consumes it.
    fn iterate_seq(&mut self) -> Result<Iter, String> {
        let mut it = Iter::default();
        for app in AppKind::ALL {
            let (span, metric) = match app {
                AppKind::Word => ("bench.rip.Word", "ripper.rip_ms.Word"),
                AppKind::Excel => ("bench.rip.Excel", "ripper.rip_ms.Excel"),
                AppKind::PowerPoint => ("bench.rip.PowerPoint", "ripper.rip_ms.PowerPoint"),
            };
            let t = Instant::now();
            let mut session = Session::new(app.launch());
            let (g, st) = {
                let _span = dmi_obs::span(Cat::Rip, span, 0);
                rip(&mut session, &RipConfig::office(app.name()))
            };
            let rip_s = secs(t);
            drop(session);
            it.layer.insert(metric, rip_s * 1e3);

            ung_gate(app, &g, self.reference.get(&app))?;
            if self.seq_stats.get(&app) != Some(&st) {
                return Err(format!("{app:?}: sequential counters changed: {st:?}"));
            }
            sum_stats(&mut it.layer, &st);
            it.wall_s += rip_s + timed_from_ung(&mut it, app, g);
        }
        it.items = AppKind::ALL.len();
        it.attempted = AppKind::ALL.len();
        Ok(it)
    }

    fn iterate_fleet(&mut self, par: ParRipConfig) -> Result<Iter, String> {
        let mut it = Iter::default();
        let t = Instant::now();
        let mut entries: Vec<FleetEntry> = AppKind::ALL
            .iter()
            .map(|a| {
                FleetEntry::new(a.name(), Session::new(a.launch()), RipConfig::office(a.name()))
            })
            .collect();
        let outcomes = {
            let _span = dmi_obs::span(Cat::Rip, "bench.rip_fleet", 0);
            rip_fleet(&mut entries, &par)
        };
        it.wall_s = secs(t);

        for (app, o) in AppKind::ALL.into_iter().zip(outcomes) {
            if !matches!(o.status, RipStatus::Parallel | RipStatus::FellBack) {
                it.failed += 1;
            }
            ung_gate(app, &o.graph, self.reference.get(&app))?;
            if o.stats.spec_published != o.stats.spec_adopted + o.stats.spec_wasted {
                return Err(format!("{app:?}: speculation ledger does not balance"));
            }
            sum_stats(&mut it.layer, &o.stats);
            it.wall_s += timed_from_ung(&mut it, app, o.graph);
        }
        it.items = AppKind::ALL.len();
        it.attempted = AppKind::ALL.len();
        let seq_clicks: u64 = self.seq_stats.values().map(|s| s.clicks).sum();
        let clicks = it.layer["ripper.clicks"];
        it.layer.insert("parallel.extra_click_ratio", ratio(clicks, seq_clicks as f64));
        Ok(it)
    }
}

impl Workload for Model {
    fn iterate(&mut self) -> Result<Iter, String> {
        match self.fleet.clone() {
            None => self.iterate_seq(),
            Some(par) => self.iterate_fleet(par),
        }
    }
}

// -------------------------------------------------------------- serving

/// The seeded serve batch: 512 requests round-robin over the 27-task
/// suite, a seeded tenant and run seed per request, and each suite pass
/// in one interface mode, alternating from a seeded first mode.
pub fn serve_requests(seed: u64) -> Vec<ServeRequest> {
    let mut rng = Rng::new(seed);
    let tasks: Vec<Arc<dmi_agent::AgentTask>> =
        dmi_tasks::all_tasks().into_iter().map(Arc::new).collect();
    let first_mode = rng.below(2);
    (0..SERVE_REQUESTS)
        .map(|i| {
            let task = &tasks[i % tasks.len()];
            let mode = if (i / tasks.len() + first_mode).is_multiple_of(2) {
                InterfaceMode::GuiOnly
            } else {
                InterfaceMode::GuiPlusDmi
            };
            ServeRequest {
                tenant: format!("tenant-{}", rng.below(SERVE_TENANTS)),
                app: task.app.name().to_string(),
                task: Arc::clone(task),
                cfg: RunConfig::evaluation(
                    CapabilityProfile::gpt5_medium(),
                    mode,
                    rng.next_u64() % 1_000_000,
                ),
            }
        })
        .collect()
}

/// Builds the DMI model of every full Office app (the serve set-up).
fn office_models() -> Vec<(AppKind, Arc<Dmi>)> {
    AppKind::ALL
        .iter()
        .map(|&k| {
            let mut s = Session::new(k.launch());
            let (dmi, _) = Dmi::build(&mut s, &DmiBuildConfig::office(k.name()));
            (k, Arc::new(dmi))
        })
        .collect()
}

/// `serve_office3_mix512`: one gateway over the three full Office apps
/// serves a 512-request batch that arrives at virtual time 0.
pub struct Serve {
    models: Vec<(AppKind, Arc<Dmi>)>,
    requests: Vec<ServeRequest>,
    /// Digest of every request's `RunTrace::identity_bytes`, which each
    /// iteration must repeat.
    identity: Option<u64>,
}

impl Serve {
    fn new(seed: u64) -> Serve {
        Serve { models: office_models(), requests: serve_requests(seed), identity: None }
    }
}

impl Workload for Serve {
    fn iterate(&mut self) -> Result<Iter, String> {
        let requests = self.requests.clone();
        let t0 = Instant::now();
        let apps: Vec<ServeApp> = self
            .models
            .iter()
            .map(|(k, dmi)| {
                ServeApp::new(k.name(), Session::new(k.launch()), Some(Arc::clone(dmi)))
            })
            .collect();
        let mut gw = Gateway::new(apps, SERVE_GATEWAY);
        let rep = {
            let _span = dmi_obs::span(Cat::Gateway, "bench.serve", 0);
            gw.serve(requests)
        };
        let wall_s = secs(t0);

        if rep.outcomes.len() != self.requests.len() {
            return Err(format!(
                "{} outcomes for {} requests",
                rep.outcomes.len(),
                self.requests.len()
            ));
        }
        let mut digest = Digest::default();
        let mut failed = 0;
        for (i, o) in rep.outcomes.iter().enumerate() {
            match (&o.trace, &o.fault) {
                (Some(t), None) => {
                    digest.update(&(i as u64).to_le_bytes());
                    digest.update(t.identity_bytes().as_bytes());
                }
                (None, Some(_)) => failed += 1,
                _ => return Err(format!("request {i}: needs exactly one of trace or fault")),
            }
        }
        match self.identity {
            Some(want) if want != digest.value() => {
                return Err("served RunTrace identity digest changed between iterations".into())
            }
            Some(_) => {}
            None => {
                eprintln!("serve identity digest: {:016x}", digest.value());
                self.identity = Some(digest.value());
            }
        }

        let traces: Vec<RunTrace> = rep.outcomes.iter().filter_map(|o| o.trace.clone()).collect();
        let by_mode = |m: InterfaceMode| -> Aggregate {
            aggregate(&traces.iter().filter(|t| t.mode == m).cloned().collect::<Vec<_>>())
        };
        let (gui, dmi) = (by_mode(InterfaceMode::GuiOnly), by_mode(InterfaceMode::GuiPlusDmi));
        let all = aggregate(&traces);
        let done = traces.len() as f64;
        let s = &rep.stats;
        let admit: Vec<f64> = rep.outcomes.iter().map(|o| o.admit_vt).collect();

        let mut it = Iter {
            wall_s,
            items: traces.len(),
            attempted: rep.outcomes.len(),
            failed,
            ..Iter::default()
        };
        for (k, v) in [
            ("serve.virtual_tasks_per_s", s.tasks_per_sec()),
            ("serve.task_latency_p50_vs", rep.latency_percentile(50.0)),
            ("serve.task_latency_p98_vs", rep.latency_percentile(98.0)),
            ("serve.task_success_rate", all.sr),
            ("serve.llm_calls_per_task", all.avg_steps),
            ("serve.one_shot_rate", all.one_shot_frac),
            ("gateway.rounds", s.rounds as f64),
            ("gateway.session_reuse_ratio", s.session_reuse_rate()),
            ("gateway.session_forks", s.session_forks as f64),
            ("gateway.admit_wait_p50_vs", median(&admit)),
            ("llm.calls", traces.iter().map(|t| t.llm_calls as f64).sum()),
            ("llm.overlap_factor", ratio(s.serialized_secs, s.virtual_secs)),
            (
                "llm.prompt_tokens_per_task",
                ratio(traces.iter().map(|t| t.prompt_tokens as f64).sum(), done),
            ),
            ("agent.gui_only.success_rate", gui.sr),
            ("agent.dmi.success_rate", dmi.sr),
            ("agent.gui_only.llm_calls_per_task", gui.avg_steps),
            ("agent.dmi.llm_calls_per_task", dmi.avg_steps),
        ] {
            it.layer.insert(k, v);
        }
        let core: usize = self.models.iter().map(|(_, d)| d.core_tokens()).sum();
        it.layer.insert("topology.core_tokens", core as f64);
        Ok(it)
    }
}

// ---------------------------------------------------------------- store

/// One recorded app: its stored artifacts and the core description of
/// the model its rip built.
struct Recorded {
    app: AppKind,
    rip: StoredRip,
    caps: StoredCaptures,
    core_text: String,
}

/// `store_boot_office3`: the gateway restart path — save the three
/// stored rips and capture exports, then warm-boot each app from the
/// store `BOOT_ROUNDS` times.
pub struct StoreBoot {
    recorded: Vec<Recorded>,
    store: Store,
}

/// The store directory: inside the working directory, unique per
/// process, removed when the workload is dropped.
fn store_dir() -> PathBuf {
    PathBuf::from(".dmibench").join(format!("store-{}", std::process::id()))
}

impl StoreBoot {
    fn new() -> Result<StoreBoot, String> {
        let store = Store::open(store_dir()).map_err(|e| format!("open store: {e:?}"))?;
        let recorded = AppKind::ALL
            .into_iter()
            .map(|app| {
                let name = app.name();
                let mut s = Session::new(app.launch());
                s.set_capture_pool(Some(dmi_store::recording_pool()));
                let rip = dmi_store::record_rip(name, &mut s, &RipConfig::office(name));
                // The export holds every capture of the rip; keep what the
                // store retains of it (a save applies the retention cap),
                // so later saves write the same bytes from far less memory.
                store
                    .save_captures(&dmi_store::export_captures(name, &mut s))
                    .map_err(|e| format!("{name}: save captures: {e:?}"))?;
                let caps = store
                    .load_captures(name)
                    .map_err(|e| format!("{name}: load captures: {e:?}"))?;
                let (dmi, _) = Dmi::from_ung(rip.ung.clone(), &DmiBuildConfig::office(name));
                Ok(Recorded { app, rip, caps, core_text: dmi.core_text().to_string() })
            })
            .collect::<Result<Vec<_>, String>>()?;
        Ok(StoreBoot { recorded, store })
    }
}

impl Drop for StoreBoot {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(self.store.root());
        let _ = std::fs::remove_dir(".dmibench");
    }
}

impl Workload for StoreBoot {
    fn iterate(&mut self) -> Result<Iter, String> {
        let mut it = Iter::default();
        let mut bytes = 0u64;
        let t = Instant::now();
        {
            let _span = dmi_obs::span(Cat::Store, "bench.save", 0);
            for r in &self.recorded {
                for saved in [self.store.save_rip(&r.rip), self.store.save_captures(&r.caps)] {
                    it.attempted += 1;
                    match saved {
                        Ok(n) => bytes += n,
                        Err(_) => it.failed += 1,
                    }
                }
            }
        }
        let save_s = secs(t);
        it.wall_s = save_s;
        for _ in 0..BOOT_ROUNDS {
            for r in &self.recorded {
                let name = r.app.name();
                it.attempted += 1;
                let t = Instant::now();
                let booted = {
                    let _span = dmi_obs::span(Cat::Store, "bench.boot", 0);
                    ServeApp::from_store(
                        name,
                        &self.store,
                        Session::new(r.app.launch()),
                        &DmiBuildConfig::office(name),
                    )
                };
                it.wall_s += secs(t);
                match booted {
                    Ok(app) if app.dmi.as_deref().map(Dmi::core_text) != Some(&r.core_text) => {
                        return Err(format!(
                            "{name}: store-booted core_text differs from the rip-built one"
                        ));
                    }
                    Ok(_) => it.items += 1,
                    Err(_) => it.failed += 1,
                }
            }
        }
        it.layer.insert("store.bytes_written", bytes as f64);
        it.layer.insert("store.boot_ms", ratio((it.wall_s - save_s) * 1e3, it.items as f64));
        Ok(it)
    }

    /// Times `Dmi::from_ung` once per stored graph: the topology layer
    /// each boot runs inside `ServeApp::from_store`, which the boot's own
    /// timing cannot separate.
    fn probe(&self) -> BTreeMap<&'static str, f64> {
        let mut it = Iter::default();
        for r in &self.recorded {
            timed_from_ung(&mut it, r.app, r.rip.ung.clone());
        }
        it.layer
    }
}
