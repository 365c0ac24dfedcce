//! The benchmark's own checks. Full-app rips are slow without
//! optimisation, so run these with
//! `cargo test --release --manifest-path dmibench/Cargo.toml`.

use dmi_apps::AppKind;
use dmi_core::parallel::{rip_fleet, FleetEntry};
use dmi_core::ripper::{rip, RipConfig};
use dmi_gui::Session;
use dmi_llm::InterfaceMode;
use dmibench::layers::PER_LAYER;
use dmibench::run::END_TO_END;
use dmibench::workload::{self, serve_requests, ung_pin, FLEET, WORKLOADS};
use std::collections::BTreeSet;

/// Pinned sequential effort of the full apps: clicks, snapshots,
/// restarts.
fn seq_pin(app: AppKind) -> (u64, u64, u64) {
    match app {
        AppKind::Word => (6558, 8870, 10),
        AppKind::Excel => (2797, 3892, 38),
        AppKind::PowerPoint => (4974, 6991, 145),
    }
}

fn seq_rip(app: AppKind) -> (String, dmi_core::RipStats) {
    let mut s = Session::new(app.launch());
    let (g, st) = rip(&mut s, &RipConfig::office(app.name()));
    assert_eq!((g.node_count(), g.edge_count()), ung_pin(app), "{app:?} UNG shape");
    (serde_json::to_string(&g).unwrap(), st)
}

/// The sequential counters are exact: they match the pins and repeat.
#[test]
fn sequential_counters_are_exact() {
    for app in AppKind::ALL {
        let (bytes, st) = seq_rip(app);
        assert_eq!((st.clicks, st.snapshots, st.restarts), seq_pin(app), "{app:?} counters");
        let (again, st2) = seq_rip(app);
        assert_eq!(st, st2, "{app:?}: sequential counters repeat exactly");
        assert_eq!(bytes, again, "{app:?}: sequential UNG bytes repeat");
    }
}

/// Fleet counters depend on timing, so they are a distribution; the
/// bytes, the ledger and the lower bound on effort are not.
#[test]
fn fleet_counters_are_a_distribution() {
    let seq: Vec<(String, dmi_core::RipStats)> = AppKind::ALL.iter().map(|&a| seq_rip(a)).collect();
    let seq_clicks: u64 = seq.iter().map(|(_, st)| st.clicks).sum();
    let mut clicks = Vec::new();
    for _ in 0..3 {
        let mut entries: Vec<FleetEntry> = AppKind::ALL
            .iter()
            .map(|a| {
                FleetEntry::new(a.name(), Session::new(a.launch()), RipConfig::office(a.name()))
            })
            .collect();
        let out = rip_fleet(&mut entries, &FLEET);
        for (o, (want, st)) in out.iter().zip(&seq) {
            assert_eq!(
                &serde_json::to_string(&o.graph).unwrap(),
                want,
                "{}: fleet bytes",
                o.app_id
            );
            assert_eq!(o.stats.spec_published, o.stats.spec_adopted + o.stats.spec_wasted);
            assert!(o.stats.clicks >= st.clicks, "{}: speculation only adds clicks", o.app_id);
        }
        clicks.push(out.iter().map(|o| o.stats.clicks).sum::<u64>());
    }
    let (lo, hi) = (clicks.iter().min().unwrap(), clicks.iter().max().unwrap());
    eprintln!("fleet clicks over {} runs: {lo}..={hi} (sequential {seq_clicks})", clicks.len());
    assert!(*lo >= seq_clicks);
}

/// The seed drives tenants, request seeds and the mode interleave; the
/// task round-robin and the mode balance keep their shape.
#[test]
fn seeds_generate_same_shape_requests() {
    let (a, b) = (serve_requests(1), serve_requests(2));
    assert_eq!(a.len(), b.len());
    let ids = |r: &[dmi_agent::ServeRequest]| -> Vec<String> {
        r.iter().map(|q| q.task.id.clone()).collect()
    };
    assert_eq!(ids(&a), ids(&b), "same task round-robin");
    let dmi = |r: &[dmi_agent::ServeRequest]| {
        r.iter().filter(|q| q.cfg.mode == InterfaceMode::GuiPlusDmi).count()
    };
    assert!(dmi(&a).abs_diff(a.len() / 2) <= 27 && dmi(&b).abs_diff(b.len() / 2) <= 27);
    let seeds =
        |r: &[dmi_agent::ServeRequest]| -> Vec<u64> { r.iter().map(|q| q.cfg.seed).collect() };
    assert_ne!(seeds(&a), seeds(&b), "the seed reaches the run seeds");
    let tenants = |r: &[dmi_agent::ServeRequest]| -> BTreeSet<String> {
        r.iter().map(|q| q.tenant.clone()).collect()
    };
    assert_eq!(tenants(&a).len(), 8);
    assert_eq!(ids(&serve_requests(1)), ids(&a));
    assert_eq!(seeds(&serve_requests(1)), seeds(&a), "same seed, same inputs");
}

/// Two seeds give results of the same shape; one seed repeats exactly.
#[test]
fn serve_results_repeat_and_keep_their_shape() {
    let mut layers = Vec::new();
    for seed in [1, 1, 2] {
        let mut w = workload::setup("serve_office3_mix512", seed).unwrap().unwrap();
        let it = w.iterate().expect("gates pass");
        assert_eq!(it.attempted, workload::SERVE_REQUESTS);
        assert_eq!(it.failed, 0);
        layers.push(it.layer);
    }
    assert_eq!(layers[0], layers[1], "same seed: identical deterministic serve metrics");
    let keys =
        |m: &std::collections::BTreeMap<&'static str, f64>| m.keys().copied().collect::<Vec<_>>();
    assert_eq!(keys(&layers[0]), keys(&layers[2]), "another seed: the same metrics");
    for m in &layers {
        let sr = m["serve.task_success_rate"];
        assert!(sr > 0.0 && sr < 1.0, "success rate {sr}");
        assert!(m["agent.dmi.success_rate"] > m["agent.gui_only.success_rate"]);
        assert!(m["serve.one_shot_rate"] > 0.0);
    }
}

/// `BENCHMARK.json` names exactly the workloads and metrics the binary
/// prints, with the same units.
#[test]
fn benchmark_json_matches_the_binary() {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let v = serde_json::parse_value(&std::fs::read_to_string(path).unwrap()).unwrap();
    let names = |key: &str| -> Vec<(String, Option<String>)> {
        v.get(key)
            .and_then(|a| a.as_array())
            .unwrap()
            .iter()
            .map(|m| {
                let s = |f: &str| m.get(f).and_then(|x| x.as_str()).map(str::to_string);
                (s("name").unwrap(), s("unit"))
            })
            .collect()
    };
    let own = |list: &[(&str, &str)]| -> Vec<(String, Option<String>)> {
        list.iter().map(|(n, u)| (n.to_string(), Some(u.to_string()))).collect()
    };
    let workloads: Vec<String> = names("workloads").into_iter().map(|(n, _)| n).collect();
    assert_eq!(workloads, WORKLOADS);
    assert_eq!(names("end_to_end"), own(END_TO_END));
    assert_eq!(names("per_layer"), own(PER_LAYER));
}
