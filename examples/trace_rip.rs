//! Traced sharded rip walkthrough: rip small Excel as a one-entry fleet
//! on a 2-worker pool (the sharded engine: scheduler lane, workers,
//! speculation, shared capture pool) with the `dmi-obs` recorder enabled,
//! export the span timeline as Chrome trace-event JSON (load it in
//! Perfetto or `chrome://tracing`), and print the text summary plus the
//! metrics registry — after proving tracing never changed a merged byte.
//! (A multi-entry fleet runs app lanes instead: one sequential rip per
//! application, with no stalls or worker explores to trace.)
//!
//! ```text
//! cargo run --example trace_rip --release [out.json] [spec_walk]
//! ```
//!
//! The optional second argument caps the speculative subtree walk
//! (default 4); pass 0 to trace the dispatch-only scheduler and compare
//! the `stall.reveal` totals against a speculating run.

use dmi_apps::AppKind;
use dmi_core::parallel::{rip_fleet, FleetEntry, ParRipConfig};
use dmi_core::ripper::RipConfig;
use dmi_gui::Session;

fn entries() -> Vec<FleetEntry> {
    let excel = AppKind::Excel;
    vec![FleetEntry::new(
        excel.name(),
        Session::new(excel.launch_small()),
        RipConfig::office(excel.name()),
    )]
}

fn main() {
    let out_path = std::env::args().nth(1).unwrap_or_else(|| "target/trace_rip.json".into());
    let spec_walk = std::env::args().nth(2).map_or(4, |s| s.parse().expect("spec_walk: usize"));
    let par = ParRipConfig { workers: 2, speculation: 2, spec_walk };

    // The untraced reference: tracing is observational, so the traced
    // rip below must merge a byte-identical UNG.
    let mut plain = entries();
    let reference: Vec<String> = rip_fleet(&mut plain, &par)
        .iter()
        .map(|o| serde_json::to_string(&o.graph).unwrap())
        .collect();

    dmi_obs::clear();
    dmi_obs::set_enabled(true);
    let mut observed = entries();
    let out = rip_fleet(&mut observed, &par);
    dmi_obs::set_enabled(false);
    let trace = dmi_obs::drain();
    let tallies = dmi_obs::tallies();
    dmi_obs::clear();

    for (o, want) in out.iter().zip(&reference) {
        assert_eq!(
            &serde_json::to_string(&o.graph).unwrap(),
            want,
            "{}: traced UNG must be byte-identical to the untraced rip",
            o.app_id
        );
        println!(
            "{:<12} nodes={:<5} edges={:<5} byte-identical to untraced rip",
            o.app_id,
            o.graph.node_count(),
            o.graph.edge_count()
        );
    }

    let stalls = trace.count(Some(dmi_obs::Cat::Scheduler), "stall");
    let explores = trace.count(Some(dmi_obs::Cat::Worker), "explore");
    assert!(stalls > 0 && explores > 0, "stall and explore spans both recorded");
    println!(
        "\n{} events ({} stall spans, {} explore spans)",
        trace.events.len(),
        stalls,
        explores
    );

    let json = trace.to_chrome_json();
    std::fs::write(&out_path, &json).expect("write chrome trace");
    println!("chrome trace written to {out_path} ({} bytes)\n", json.len());

    let mut reg = dmi_obs::Registry::from_trace(&trace);
    for (name, v) in &tallies {
        reg.inc(name, *v);
    }
    print!("{}", reg.summary_table());
    println!("{}", trace.text_summary());
}
