//! The two kinds of run: the timed run (tracing off, end-to-end metrics)
//! and the traced pass (per-layer metrics), and the result line both
//! print.

use crate::layers::{self, PER_LAYER};
use crate::sample::{median, peak_rss_mb, ratio, reset_peak_rss, tail_mean};
use crate::workload::{self, Iter, Workload};
use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::time::{Duration, Instant};

/// Every end-to-end metric the timed run prints, with its unit.
pub const END_TO_END: &[(&str, &str)] = &[
    ("setup_s", "s"),
    ("wall_s", "s"),
    ("wall_tail_s", "s"),
    ("peak_rss_mb", "MB"),
    ("ok_share", "ratio"),
    ("items_per_s", "1/s"),
];

/// The share of slowest iterations whose mean wall is `wall_tail_s`: the
/// tail beyond p80. A run makes 10–25 iterations, too few to report a
/// single higher percentile steadily.
pub const TAIL_SHARE: f64 = 0.2;

/// How often a timed run sets its workload up (`setup_s` is the median).
pub const SETUP_REPS: usize = 3;

/// One run's result: the benchmark's last line of standard output.
#[derive(Debug)]
pub struct Report {
    pub correct: bool,
    pub attempted: usize,
    pub failed: usize,
    /// `(name, value, unit)` in print order.
    pub metrics: Vec<(&'static str, f64, &'static str)>,
}

impl Report {
    /// The result as one JSON object on one line.
    pub fn to_json(&self) -> String {
        let mut out = format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{",
            self.correct, self.attempted, self.failed
        );
        for (i, (name, value, unit)) in self.metrics.iter().enumerate() {
            let sep = if i == 0 { "" } else { ", " };
            let v = if value.is_finite() { *value } else { 0.0 };
            let _ = write!(out, "{sep}\"{name}\": {{\"value\": {v}, \"unit\": \"{unit}\"}}");
        }
        out.push_str("}}");
        out
    }

    /// A failed gate: no metrics, `correct: false`.
    pub fn gate_failure(attempted: usize, failed: usize) -> Report {
        Report { correct: false, attempted, failed, metrics: Vec::new() }
    }
}

/// A gate failure, with the operations counted before it.
#[derive(Debug)]
pub struct GateError {
    pub message: String,
    pub attempted: usize,
    pub failed: usize,
}

fn set_up(name: &str, seed: u64) -> Result<Box<dyn Workload>, GateError> {
    let fail = |message: String| GateError { message, attempted: 0, failed: 0 };
    workload::setup(name, seed)
        .ok_or_else(|| fail(format!("unknown workload `{name}`")))?
        .map_err(fail)
}

/// Iterations of a run, with the totals the result line reports.
#[derive(Default)]
struct Tally {
    iters: Vec<Iter>,
    attempted: usize,
    failed: usize,
}

impl Tally {
    fn run(&mut self, w: &mut dyn Workload) -> Result<(), GateError> {
        match w.iterate() {
            Ok(it) => {
                self.attempted += it.attempted;
                self.failed += it.failed;
                self.iters.push(it);
                Ok(())
            }
            Err(message) => {
                Err(GateError { message, attempted: self.attempted, failed: self.failed })
            }
        }
    }

    fn walls(&self) -> Vec<f64> {
        self.iters.iter().map(|i| i.wall_s).collect()
    }
}

/// One per-layer value across iterations (0 where an iteration lacks it).
fn column<'a>(maps: impl Iterator<Item = &'a BTreeMap<&'static str, f64>>, key: &str) -> Vec<f64> {
    maps.map(|m| m.get(key).copied().unwrap_or(0.0)).collect()
}

/// The timed run: set up `SETUP_REPS` times, then iterate with tracing
/// off for `seconds`.
pub fn timed_run(name: &str, seed: u64, seconds: u64) -> Result<Report, GateError> {
    let mut setup_s = Vec::new();
    let mut w = None;
    for _ in 0..SETUP_REPS {
        drop(w.take());
        let t = Instant::now();
        w = Some(set_up(name, seed)?);
        setup_s.push(t.elapsed().as_secs_f64());
    }
    let mut w = w.expect("at least one set-up");

    let budget = Duration::from_secs(seconds);
    let start = Instant::now();
    let mut tally = Tally::default();
    // `peak_rss_mb` is the median of the iterations' own peaks: set-up
    // (store recording alone peaks far above the boot path it prepares)
    // and the luck of one iteration stay out of it.
    let mut peaks = Vec::new();
    while tally.iters.is_empty() || start.elapsed() < budget {
        let windowed = reset_peak_rss();
        tally.run(w.as_mut())?;
        if windowed {
            peaks.push(peak_rss_mb());
        }
    }
    if peaks.is_empty() {
        peaks.push(peak_rss_mb());
    }
    let walls = tally.walls();
    let rates: Vec<f64> = tally.iters.iter().map(|i| ratio(i.items as f64, i.wall_s)).collect();
    let values = [
        median(&setup_s),
        median(&walls),
        tail_mean(&walls, TAIL_SHARE),
        median(&peaks),
        1.0 - ratio(tally.failed as f64, tally.attempted as f64),
        median(&rates),
    ];
    eprintln!(
        "{name}: seed {seed}, {} iterations in {:.1} s",
        walls.len(),
        start.elapsed().as_secs_f64()
    );
    eprintln!("  iteration walls (s): {:.3?}", walls);
    // The deterministic serve figures, for reading beside the metrics.
    for (k, _) in PER_LAYER.iter().filter(|(k, _)| k.starts_with("serve.")) {
        let v = median(&column(tally.iters.iter().map(|i| &i.layer), k));
        if v != 0.0 {
            eprintln!("  {k:<28} {v:.4}");
        }
    }
    Ok(Report {
        correct: true,
        attempted: tally.attempted,
        failed: tally.failed,
        metrics: END_TO_END.iter().zip(values).map(|(&(n, u), v)| (n, v, u)).collect(),
    })
}

/// The traced pass: alternate untraced and traced iterations for
/// `seconds`; per-layer values are medians over the traced iterations,
/// and the trace overhead compares the two kinds' median walls.
pub fn traced_pass(name: &str, seed: u64, seconds: u64) -> Result<Report, GateError> {
    let mut w = set_up(name, seed)?;

    let budget = Duration::from_secs(seconds);
    let start = Instant::now();
    let mut plain = Tally::default();
    let mut traced = Tally::default();
    let mut folded: Vec<BTreeMap<&'static str, f64>> = Vec::new();
    while traced.iters.is_empty() || start.elapsed() < budget {
        plain.run(w.as_mut())?;
        dmi_obs::clear();
        dmi_obs::set_enabled(true);
        let res = traced.run(w.as_mut());
        dmi_obs::set_enabled(false);
        let trace = dmi_obs::drain();
        let tallies = dmi_obs::tallies();
        dmi_obs::clear();
        res?;
        let mut values =
            layers::fold(&trace, &tallies, &traced.iters.last().expect("traced").layer);
        values.extend(w.probe());
        folded.push(values);
    }
    let overhead = ratio(median(&traced.walls()), median(&plain.walls()));

    let value = |key: &str| -> f64 {
        if key == "obs.trace_overhead_ratio" {
            return overhead;
        }
        median(&column(folded.iter(), key))
    };
    eprintln!(
        "{name}: seed {seed}, traced pass: {} traced + {} untraced iterations",
        traced.iters.len(),
        plain.iters.len()
    );
    // Fleet effort counters vary with timing: show their spread.
    for key in ["ripper.clicks", "ripper.snapshots", "ripper.restarts", "parallel.spec_published"] {
        let v = column(folded.iter(), key);
        let lo = v.iter().copied().fold(f64::INFINITY, f64::min);
        let hi = v.iter().copied().fold(f64::NEG_INFINITY, f64::max);
        eprintln!("  {key:<28} min {lo} median {} max {hi}", median(&v));
    }
    Ok(Report {
        correct: true,
        attempted: plain.attempted + traced.attempted,
        failed: plain.failed + traced.failed,
        metrics: PER_LAYER.iter().map(|&(n, u)| (n, value(n), u)).collect(),
    })
}
