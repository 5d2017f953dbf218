//! The tuned-plan layer: frozen per-shard tuning state, shareable across
//! requests.
//!
//! AWB-GCN's auto-tuning converges in a few rounds and the frozen row map
//! is then "used for the remaining iterations" (paper §4.4). A
//! [`TunedPlan`] is that converged artifact for one device: the frozen
//! row→PE map, the steady-state replay cache, and the configuration —
//! everything that is a function of *the graph*, none of what is a
//! function of *one request*. Plans are frozen once per sparse operand
//! after a warm-up run on the fast engine
//! ([`FastEngine::freeze_plan`](crate::FastEngine::freeze_plan)); a
//! [`ShardedPlan`](crate::ShardedPlan) holds one per column shard (a
//! single device being the one-shard case), and every request runs
//! through a [`ShardedSession`](crate::ShardedSession), which times each
//! shard against its plan and replays whenever the operand is on chip.
//!
//! # Concurrency contract
//!
//! A plan is `Sync`: any number of sessions may time against one
//! `&TunedPlan` concurrently (the serving front-end fans request batches
//! out on [`exec`](crate::exec)). The frozen map is immutable; the replay
//! cache is interior-mutable and *monotone* — all sessions read and warm
//! the same cache, and because a pattern's timing is a pure function of
//! (operand structure, frozen map, pattern), concurrent insertion of the
//! same key writes the same value. Statistics are therefore bit-identical
//! regardless of scheduling; only the aggregate hit/miss counters can vary
//! when two sessions race on the same uncached pattern (both count a
//! miss).

use crate::config::AccelConfig;
use crate::engine::steady::{
    execute_steady, structure_fingerprint, ColumnRun, MemoryParams, ReplayCache, SimParams,
    SteadySpan,
};
use crate::error::AccelError;
use crate::exec;
use crate::mapping::RowMap;
use crate::stats::SpmmStats;
use awb_sparse::CscPattern;

/// Frozen per-shard tuning state (see module docs): the reusable product
/// of a warm-up phase, timed against by a
/// [`ShardedSession`](crate::ShardedSession).
///
/// # Example
///
/// ```
/// use awb_accel::{AccelConfig, Design, ShardedEngine, SpmmEngine};
/// use awb_sparse::{Coo, DenseMatrix};
///
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// let mut a = Coo::new(4, 4);
/// a.push(0, 1, 2.0)?;
/// a.push(3, 0, 1.0)?;
/// let a = a.to_csc();
/// let warmup = DenseMatrix::from_rows(&[&[1.0], &[3.0], &[1.0], &[2.0]])?;
/// let config = Design::LocalPlusRemote { hop: 1 }.apply(AccelConfig::builder().n_pes(2).build()?);
///
/// // Pay tuning once (a single device is the one-shard case)…
/// let mut engine = ShardedEngine::new(config);
/// engine.run(&a, &warmup, "warmup")?;
/// let plan = engine.freeze_plan(&a)?;
/// assert_eq!(plan.shard_count(), 1);
/// let device = plan.shards()[0].plan(); // the shard's frozen TunedPlan
/// assert_eq!(device.row_map().n_rows(), 4);
/// // …then serve N requests against the shared plan.
/// let b = DenseMatrix::from_rows(&[&[2.0], &[5.0], &[0.5], &[1.0]])?;
/// let out = plan.session().run(&a, &b, "request")?;
/// assert_eq!(out.c.get(0, 0), 10.0);
/// assert_eq!(out.stats.tuning_rounds(), 0); // sessions never re-tune
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone)]
pub struct TunedPlan {
    config: AccelConfig,
    row_map: RowMap,
    memory: MemoryParams,
    tuning_rounds: usize,
    total_switches: u64,
    cache: ReplayCache,
}

impl TunedPlan {
    /// Assembles a plan from an engine's frozen state (crate-internal; use
    /// [`FastEngine::freeze_plan`](crate::FastEngine::freeze_plan)).
    pub(crate) fn from_frozen(
        config: AccelConfig,
        row_map: RowMap,
        a: &CscPattern,
        tuning_rounds: usize,
        total_switches: u64,
        cache: ReplayCache,
    ) -> Self {
        // The snapshot may hold timings for a *different* operand the
        // engine saw last; re-guard so the plan's cache only ever
        // describes its own operand.
        cache.guard(structure_fingerprint(a));
        TunedPlan {
            memory: MemoryParams::for_operand(&config, a.nnz()),
            config,
            row_map,
            tuning_rounds,
            total_switches,
            cache,
        }
    }

    /// The configuration the plan was tuned under.
    pub fn config(&self) -> &AccelConfig {
        &self.config
    }

    /// The frozen row→PE map.
    pub fn row_map(&self) -> &RowMap {
        &self.row_map
    }

    /// Auto-tuning rounds the warm-up spent before freezing.
    pub fn tuning_rounds(&self) -> usize {
        self.tuning_rounds
    }

    /// Rows exchanged by remote switching during the warm-up.
    pub fn total_switches(&self) -> u64 {
        self.total_switches
    }

    /// Estimated heap bytes this plan holds: the frozen row→PE map (`u32`
    /// per row) plus the replay cache's memoized timings — everything the
    /// plan keeps between requests. The serving front-end's plan-cache
    /// budget is derived from these estimates (`DESIGN.md` §9); they track
    /// the dominant arrays, not allocator-exact overheads.
    pub fn memory_bytes(&self) -> u64 {
        (std::mem::size_of_val(self.row_map.pe_of_row()) + self.cache.approx_bytes()) as u64
    }

    /// Steady-state rounds served from the shared replay cache (summed
    /// over all sessions on this plan).
    pub fn replay_hits(&self) -> u64 {
        self.cache.hits()
    }

    /// Steady-state rounds that had to be simulated (and were memoized).
    pub fn replay_misses(&self) -> u64 {
        self.cache.misses()
    }

    /// Times one request on this device from `a`'s structure and the dense
    /// operand's column runs over `a`'s columns (shapes and the operand's
    /// structure are checked by the [`ShardedSession`](crate::ShardedSession)
    /// that owns the shard). Every round runs under the frozen map — no
    /// tuning, ever — so repeated patterns replay from the plan's cache
    /// starting with the very first request. Statistics (and the cache's
    /// behaviour) are exactly what the frozen engine reports.
    ///
    /// # Errors
    ///
    /// [`AccelError::InvalidConfig`] when `a` has a different row count
    /// than the plan was tuned for.
    pub(crate) fn time_runs(
        &self,
        a: &CscPattern,
        runs: &[ColumnRun],
        label: &str,
    ) -> Result<SpmmStats, AccelError> {
        if a.rows() != self.row_map.n_rows() {
            return Err(AccelError::InvalidConfig(format!(
                "plan tuned for {} rows used with {} rows",
                self.row_map.n_rows(),
                a.rows()
            )));
        }
        let n_pes = self.config.n_pes;
        let mut rounds = Vec::with_capacity(runs.last().map_or(0, |run| run.cols.end));
        let mut queue_high_water = vec![0u32; n_pes];
        // The cache is shared only when the operand is resident on chip
        // (the same validity condition as the engine's replay path).
        let cache = self.memory.on_chip.then_some(&self.cache);
        let threads = self.config.threads.unwrap_or_else(exec::num_threads);
        execute_steady(
            SteadySpan {
                a,
                runs,
                pe_of_row: self.row_map.pe_of_row(),
                params: SimParams::new(&self.config, self.memory),
                memory: self.memory,
                threads,
                cache,
            },
            &mut rounds,
            &mut queue_high_water,
        );
        Ok(SpmmStats {
            label: label.to_owned(),
            n_pes,
            rounds,
            queue_high_water,
        })
    }
}
