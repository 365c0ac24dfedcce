//! Shard planning: resolving a configuration into an execution shape.
//!
//! One plan governs a whole fleet. A multi-entry fleet reads only
//! `workers` from it (its app-lane count, capped at the entry count); a
//! sharded one-entry fleet runs `workers` worker threads, and
//! `max_in_flight` caps its speculative dispatch window.

/// Configuration for a fleet rip: app lanes or one sharded application.
#[derive(Debug, Clone)]
pub struct ParRipConfig {
    /// Threads a fleet rips on. A multi-entry fleet runs
    /// `min(workers, entries)` app lanes, each ripping whole applications
    /// with the sequential engine; a one-entry fleet ([`rip_parallel`])
    /// shards its application across `workers` forked worker sessions.
    /// `1` rips every entry sequentially in place; `0` resolves to the
    /// machine's available parallelism.
    ///
    /// [`rip_parallel`]: crate::parallel::rip_parallel
    pub workers: usize,
    /// Speculative dispatch depth of a sharded (one-entry) fleet: how
    /// many tasks are kept in flight per worker. `1` means workers only
    /// ever run the task the scheduler lane is about to commit (no
    /// speculation, maximum stalls); higher values trade a little wasted
    /// exploration for pipeline overlap.
    pub speculation: usize,
    /// Speculative subtree walk depth of a sharded (one-entry) fleet: how
    /// many candidates a worker may keep exploring out of the subtree its
    /// own fresh capture revealed before returning to the queue,
    /// publishing each result for scheduler adoption. `0` disables
    /// worker-side speculation (dispatch-only).
    pub spec_walk: usize,
}

impl Default for ParRipConfig {
    fn default() -> Self {
        ParRipConfig { workers: 0, speculation: 2, spec_walk: 4 }
    }
}

/// The resolved execution shape of one parallel or fleet rip.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ShardPlan {
    /// Threads that will be spawned: app lanes (at most one per entry)
    /// or sharded workers.
    pub workers: usize,
    /// Maximum outstanding (dispatched, uncommitted) tasks across all
    /// workers of a sharded rip.
    pub max_in_flight: usize,
    /// Per-walk cap on worker-side subtree speculation steps (`0`
    /// disables the walks).
    pub spec_walk: usize,
}

impl ShardPlan {
    /// Resolves a configuration against the current machine.
    pub fn resolve(cfg: &ParRipConfig) -> ShardPlan {
        let workers = if cfg.workers == 0 {
            std::thread::available_parallelism().map(|n| n.get()).unwrap_or(1)
        } else {
            cfg.workers
        };
        ShardPlan {
            workers,
            max_in_flight: workers.saturating_mul(cfg.speculation.max(1)),
            spec_walk: cfg.spec_walk,
        }
    }
}
