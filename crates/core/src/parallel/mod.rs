//! Fleet ripping: many applications at once, one deterministic UNG per
//! application.
//!
//! The paper's offline UNG construction (§4.1) is embarrassingly parallel
//! in principle: exploring one candidate — establish its prefix state,
//! click it, diff the pre/post captures — is a pure function of `(setup,
//! path, candidate)` on a deterministic application, because state is
//! always re-established from a provably launch-equivalent base (Esc
//! recovery or restart + replay; see [`crate::ripper`]). [`rip_fleet`]
//! rips N applications (or N versions of one application) concurrently
//! under one worker budget — the production shape for modeling many
//! applications at once — and [`rip_parallel`] is its one-entry form.
//!
//! # Two shapes
//!
//! - **App lanes** (two or more entries, `workers >= 2`):
//!   `min(workers, entries)` threads each take whole entries, longest
//!   first, and run the sequential [`crate::ripper::rip`] on the entry's
//!   own session. No fork, worker pool, scheduler or shared capture pool
//!   is involved; each session keeps its own capture cache, as under a
//!   plain rip. This is the fleet's production shape: sharding one
//!   application across threads doubles the capture cost per node, while
//!   whole-application lanes do exactly the sequential work.
//! - **Sharded** (one entry): the only path that parallelizes *inside*
//!   one application. The entry's commit lane runs on the caller's
//!   thread over a pool of forked worker sessions:
//!   - **[`ShardPlan`]** resolves a [`ParRipConfig`] into the execution
//!     shape: how many workers run, how deep the speculative dispatch
//!     window is, and how far workers may speculatively walk into freshly
//!     revealed subtrees.
//!   - **Workers** check an exploration unit (a `Session::fork_from_pristine`
//!     fork plus suspended §4.1 planner state) out of the session pool
//!     for each task's duration. Esc-recovery state travels with the
//!     pooled unit, so recovery amortizes across tasks exactly as it does
//!     sequentially.
//!   - **The dispatch queue** is one FIFO: tasks the lane is blocked on
//!     go to its front, speculative ones to its back. It shapes only
//!     latency: commit order is fixed regardless of where or when
//!     outcomes are computed, which the byte-identity oracles gate.
//!   - **Shard-local subtree speculation**: a worker finishing
//!     `explore(setup, path, candidate)` holds its session in exactly the
//!     post-click state, so — for up to `spec_walk` steps — it keeps
//!     walking into the candidates its own fresh capture revealed,
//!     publishing each result keyed by the full exploration input. The
//!     lane adopts a publication when its sequential DFS pop matches the
//!     key exactly and discards everything else: superseded duplicates,
//!     orphans, and the whole table once the probe-digest oracle
//!     quarantines the lane.
//!     `RipStats::{spec_published, spec_adopted, spec_wasted}` (and the
//!     `spec.depth`/`spec.adopt`/`spec.waste` tallies) account for every
//!     publication.
//!   - **Shared capture pool**: all shards of the app (the lane session
//!     included) share a `dmi_gui::CapturePool` keyed by the pristine
//!     token and each session's pristine-relative action trace, so
//!     redundant arena walks across shards collapse into `Arc` clones
//!     behind one short-critical-section lock (locking discipline and the
//!     cross-session soundness argument live on `CapturePool`).
//!
//! With `workers <= 1` every entry rips sequentially in place, and so
//! does a one-entry fleet that cannot shard (the app cannot fork, or
//! `RipConfig::max_clicks` is set — a global click gate with no
//! order-independent parallel equivalent). [`RipOutcome::status`]
//! reports which path ran.
//!
//! # Byte identity
//!
//! **App lanes, by construction.** Each lane outcome *is* the entry's
//! sequential rip on the entry's own session: the same function on the
//! same input, so its graph and every [`RipStats`] field equal that rip's
//! exactly. Lane order — which thread takes which entry, and when —
//! changes wall time only, never bytes or stats.
//!
//! **Sharded, by fold order.** The sequential ripper's UNG is a fold over
//! an ordered list of commit records: `seed(snapshot)` for each pass,
//! then `commit(candidate, post, fresh)` per explored candidate, where
//! the DFS stack and visited set — and hence *which* candidate is
//! committed next — are themselves functions of the previous commits
//! only. The sharded engine mutates the graph exclusively through the
//! same `Frontier::seed`/`Frontier::commit`. Each outcome `(post, fresh)`
//! is a pure function of `(setup, path, candidate)`, so it does not
//! matter *where* or *when* it was computed. The same purity is why
//! adopting a *speculative* result is sound: the speculation table is
//! keyed by the complete exploration input, so a key match means the
//! worker's walk computed the very value the dispatched task would have
//! (the adoption-soundness argument in `docs/determinism.md`).
//! Out-of-order worker results are buffered and merged strictly in stack
//! (pop) order — *canonical node ordering* is sequential-DFS discovery
//! order, not arrival order — and every fresh control is dedup-inserted
//! via the [`dmi_uia::ControlKey`] fingerprint with full-identifier
//! confirmation, so hash collisions cost a comparison, never a wrong
//! merge (collision safety is unit-tested in `crate::graph`). Node ids,
//! edge lists and dedup decisions therefore come out byte-for-byte the
//! same.
//!
//! The release-gated oracles in `tests/identity.rs` assert both
//! end-to-end via serialized-graph equality: single-app sharded rips at 4
//! workers, and a 3-app fleet plus an unforkable entry (app lanes, and
//! each entry again as a one-entry sharded fleet).
//!
//! # What is *not* identical
//!
//! A sharded entry's [`RipStats`] effort counters (clicks, snapshots,
//! restarts) include speculative work the sequential rip never performs,
//! and each worker restarts at least once; only its UNG — and the
//! commit-derived counters `blocklisted` and `windows_seen` — match the
//! sequential rip exactly. App-lane and in-place entries match in every
//! field.
//!
//! # Fault containment
//!
//! A fault in one entry never aborts the fleet or perturbs another
//! entry's bytes, on every path:
//!
//! - **App lanes and in-place rips** run the sequential rip under
//!   `catch_unwind` around its exploration passes: a panicking
//!   application ends that entry as [`RipStatus::Failed`], keeping the
//!   partial graph committed before the panic and the payload, while
//!   sibling entries finish byte-identical to their sequential rips.
//! - **Sharded entries** run worker exploration under `catch_unwind`, so
//!   an application that panics mid-click kills only the checked-out
//!   fork — the scheduler quarantines the lane ([`RipStatus::Failed`],
//!   partial graph and payload preserved). The lane's own caller-thread
//!   steps (restart and seeding, context replay, the degraded re-rip)
//!   are contained the same way, so a panic there also ends the entry
//!   [`RipStatus::Failed`] instead of unwinding out of [`rip_fleet`].
//!   Worker forks additionally digest their base after every restart; a
//!   digest that stops matching the lane's seed base proves the app's
//!   reset drifted from its attested pristine image, and the lane
//!   degrades to a cache-cleared sequential re-rip
//!   ([`RipStatus::Degraded`]) instead of merging untrustworthy bytes.
//!   Capture-pool lock poisoning is likewise fail-soft: pooled entries
//!   are forfeited and rebuilt (`RipStats::poison_recoveries` counts
//!   it), never served from a suspect state.
//!
//! The fuzz harness ([`crate::fuzz`]) drives all of this adversarially.
//!
//! [`fairness`] is not part of the rip engine: its [`FairQueue`] is the
//! serving gateway's admission policy.
//!
//! [`RipStats`]: crate::ripper::RipStats

pub mod fairness;
mod plan;
mod scheduler;
mod spec;
mod worker;

pub use fairness::{Ewma, FairQueue};
pub use plan::{ParRipConfig, ShardPlan};
pub use scheduler::{rip_fleet, rip_parallel, FleetEntry, RipOutcome, RipStatus};

#[cfg(test)]
mod tests {
    use super::*;
    use crate::error::RipError;
    use crate::ripper::{rip, RipConfig};
    use dmi_apps::testkit::{PanickyApp, UnforkableApp};
    use dmi_apps::AppKind;
    use dmi_gui::Session;

    const W2: ParRipConfig = ParRipConfig { workers: 2, speculation: 2, spec_walk: 4 };

    fn bytes(g: &crate::graph::Ung) -> String {
        serde_json::to_string(g).unwrap()
    }

    /// The parallel engine must produce the same UNG bytes as the
    /// sequential reference (PowerPoint exercises the context pass too),
    /// with speculation on, with walks off (dispatch-only), and with no
    /// speculative dispatch window beyond one task per worker.
    #[test]
    fn parallel_rip_matches_sequential_for_powerpoint() {
        let cfg = RipConfig::office("PowerPoint");
        let mut seq = Session::new(AppKind::PowerPoint.launch_small());
        let (g_seq, st_seq) = rip(&mut seq, &cfg);
        assert_eq!(st_seq.spec_published, 0, "the sequential engine never speculates");

        for par_cfg in
            [W2, ParRipConfig { spec_walk: 0, ..W2 }, ParRipConfig { speculation: 1, ..W2 }]
        {
            let mut par = Session::new(AppKind::PowerPoint.launch_small());
            let (g_par, st_par) =
                rip_parallel(&mut par, &cfg, &par_cfg).expect("a healthy app rips");

            let at = format!("{par_cfg:?}");
            assert_eq!(bytes(&g_par), bytes(&g_seq), "{at}: merged UNG must be byte-identical");
            assert_eq!(g_par.node_count(), g_seq.node_count(), "{at}");
            assert_eq!(g_par.edge_count(), g_seq.edge_count(), "{at}");
            assert_eq!(st_par.windows_seen, st_seq.windows_seen, "{at}: commit-derived counter");
            assert_eq!(st_par.blocklisted, st_seq.blocklisted, "{at}: commit-derived counter");
            assert!(st_par.clicks >= st_seq.clicks, "{at}: speculation only adds effort");
            assert_eq!(
                st_par.spec_published,
                st_par.spec_adopted + st_par.spec_wasted,
                "{at}: every published speculation is either adopted or counted as waste"
            );
            if par_cfg.spec_walk == 0 {
                assert_eq!(st_par.spec_published, 0, "{at}: walks off publish nothing");
            }
        }
    }

    /// Applications without a pristine fork fall back to the sequential
    /// engine transparently.
    #[test]
    fn unforkable_apps_fall_back_to_sequential() {
        let cfg = RipConfig::default();
        let mut seq = Session::new(Box::new(UnforkableApp::new(2)));
        let (g_seq, st_seq) = rip(&mut seq, &cfg);
        let mut par = Session::new(Box::new(UnforkableApp::new(2)));
        let (g_par, st_par) = rip_parallel(
            &mut par,
            &cfg,
            &ParRipConfig { workers: 4, speculation: 2, spec_walk: 4 },
        )
        .expect("a healthy app rips");
        assert_eq!(g_par.node_count(), g_seq.node_count());
        assert_eq!(g_par.edge_count(), g_seq.edge_count());
        assert_eq!(st_par, st_seq, "fallback is the sequential engine itself");
    }

    /// A mixed fleet — one forkable Office app, one unforkable app — runs
    /// as app lanes: each entry's UNG and every `RipStats` field equal its
    /// sequential rip's, in entry order, with no speculation. One-entry
    /// fleets of the same apps still take the sharded engine: the Office
    /// app's shards share captures through the pool, and the unforkable
    /// app falls back.
    #[test]
    fn fleet_rip_matches_sequential_per_app() {
        let cfg = RipConfig::office("PowerPoint");
        let mut seq = Session::new(AppKind::PowerPoint.launch_small());
        let (g_seq, st_seq) = rip(&mut seq, &cfg);
        let mut tiny_seq = Session::new(Box::new(UnforkableApp::new(2)));
        let (g_tiny, st_tiny) = rip(&mut tiny_seq, &RipConfig::default());

        let powerpoint = || {
            FleetEntry::new(
                "PowerPoint",
                Session::new(AppKind::PowerPoint.launch_small()),
                cfg.clone(),
            )
        };
        let unforkable = || {
            FleetEntry::new(
                "Unforkable",
                Session::new(Box::new(UnforkableApp::new(2))),
                RipConfig::default(),
            )
        };
        let mut entries = vec![powerpoint(), unforkable()];
        let out = rip_fleet(&mut entries, &W2);
        assert_eq!(out.len(), 2);
        for workers in [1, 2] {
            let par = ParRipConfig { workers, ..W2 };
            assert!(
                rip_fleet(&mut [], &par).is_empty(),
                "workers {workers}: no entries, no outcomes"
            );
        }
        for (o, (app, g, st)) in
            out.iter().zip([("PowerPoint", &g_seq, st_seq), ("Unforkable", &g_tiny, st_tiny)])
        {
            assert_eq!(o.app_id, app);
            assert_eq!(o.status, RipStatus::Parallel, "{app}: every app-lane entry is Parallel");
            assert_eq!(bytes(&o.graph), bytes(g), "{app}: byte-identical to the sequential rip");
            assert_eq!(o.stats, st, "{app}: an app lane is the sequential rip");
            assert_eq!(o.stats.spec_published, 0, "{app}: app lanes never speculate");
        }

        let sharded = rip_fleet(&mut [powerpoint()], &W2);
        assert_eq!(sharded[0].status, RipStatus::Parallel, "Office apps fork");
        assert_eq!(bytes(&sharded[0].graph), bytes(&g_seq));
        assert!(
            sharded[0].stats.pool_hits > 0,
            "shards of one app must share captures through the pool"
        );
        let fallback = rip_fleet(&mut [unforkable()], &W2);
        assert_eq!(
            fallback[0].status,
            RipStatus::FellBack,
            "an unforkable one-entry fleet rides the sequential engine"
        );
        assert_eq!(bytes(&fallback[0].graph), bytes(&g_tiny));
    }

    /// Three versions of one application rip concurrently into three
    /// independent, byte-identical-to-sequential UNGs.
    #[test]
    fn fleet_rips_multiple_versions_of_one_app() {
        let cfg = RipConfig::default();
        let mut entries: Vec<FleetEntry> = (0..3)
            .map(|v| {
                FleetEntry::new(
                    format!("PowerPoint-v{v}"),
                    Session::new(AppKind::PowerPoint.launch_small_version(v)),
                    cfg.clone(),
                )
            })
            .collect();
        let out = rip_fleet(&mut entries, &W2);
        for (v, o) in out.iter().enumerate() {
            let mut s = Session::new(AppKind::PowerPoint.launch_small_version(v));
            let (g_seq, st_seq) = rip(&mut s, &cfg);
            assert_eq!(bytes(&o.graph), bytes(&g_seq), "version {v}");
            assert_eq!(o.stats, st_seq, "version {v}: an app lane is the sequential rip");
        }
        // Different versions have genuinely different UIs.
        assert_ne!(out[0].graph.node_count(), out[1].graph.node_count());
        assert_ne!(out[1].graph.node_count(), out[2].graph.node_count());
    }

    /// A fork-only panic is contained per entry. In a multi-entry fleet
    /// no entry forks, so the fork-only panicky app rips clean as an app
    /// lane next to a healthy sibling. As a one-entry fleet it shards,
    /// a worker fork dies mid-click, and the entry comes back
    /// [`RipStatus::Failed`] with the payload and app id preserved.
    #[test]
    fn worker_panic_is_contained_per_entry() {
        crate::fuzz::silence_injected_panics();
        let cfg = RipConfig::default();
        let mut seq = Session::new(AppKind::PowerPoint.launch_small());
        let (g_seq, _) = rip(&mut seq, &cfg);
        let mut panicky_seq = Session::new(Box::new(PanickyApp::new(3, 2)));
        let (g_panicky, st_panicky) = rip(&mut panicky_seq, &cfg);
        let panicky = || {
            FleetEntry::new(
                "Panicky",
                Session::new(Box::new(PanickyApp::new(3, 2))),
                RipConfig::default(),
            )
        };

        let mut entries = vec![
            FleetEntry::new(
                "Healthy",
                Session::new(AppKind::PowerPoint.launch_small()),
                cfg.clone(),
            ),
            panicky(),
        ];
        let out = rip_fleet(&mut entries, &W2);
        assert_eq!(out[0].app_id, "Healthy");
        assert_eq!(out[0].status, RipStatus::Parallel, "healthy lane must not be dragged down");
        assert_eq!(
            bytes(&out[0].graph),
            bytes(&g_seq),
            "healthy entry stays byte-identical to its sequential rip"
        );
        assert_eq!(out[1].status, RipStatus::Parallel, "app lanes make no forks");
        assert_eq!(bytes(&out[1].graph), bytes(&g_panicky));
        assert_eq!(out[1].stats, st_panicky);

        let sharded = rip_fleet(&mut [panicky()], &W2);
        assert_eq!(sharded[0].app_id, "Panicky");
        match sharded[0].error().expect("the contained fault must be reported") {
            RipError::WorkerPanic { app_id, payload } => {
                assert_eq!(app_id, "Panicky");
                assert!(
                    payload.contains("injected fault"),
                    "panic payload must be preserved, got: {payload}"
                );
            }
            other => panic!("expected WorkerPanic, got {other:?}"),
        }
        assert!(matches!(sharded[0].status, RipStatus::Failed(_)));
    }

    /// The single-entry caller asked for one graph; a contained worker
    /// panic comes back as a typed error with the payload preserved
    /// instead of a partial UNG.
    #[test]
    fn single_entry_caller_sees_the_contained_panic() {
        crate::fuzz::silence_injected_panics();
        let mut s = Session::new(Box::new(PanickyApp::new(3, 2)));
        match rip_parallel(&mut s, &RipConfig::default(), &W2) {
            Err(RipError::WorkerPanic { payload, .. }) => {
                assert!(payload.contains("injected fault"), "payload preserved, got: {payload}");
            }
            Err(other) => panic!("expected WorkerPanic, got {other:?}"),
            Ok(_) => panic!("a panicking shard must not yield a graph"),
        }
    }

    #[test]
    fn shard_plan_resolves_defaults() {
        let plan = ShardPlan::resolve(&ParRipConfig::default());
        assert!(plan.workers >= 1);
        assert!(plan.max_in_flight >= plan.workers);
        assert_eq!(plan.spec_walk, 4, "subtree speculation is on by default");
        let fixed = ShardPlan::resolve(&ParRipConfig { workers: 3, speculation: 4, spec_walk: 6 });
        assert_eq!(fixed, ShardPlan { workers: 3, max_in_flight: 12, spec_walk: 6 });
        // Speculation never drops below one task per worker.
        let min = ShardPlan::resolve(&ParRipConfig { workers: 2, speculation: 0, spec_walk: 4 });
        assert_eq!(min.max_in_flight, 2);
    }
}
