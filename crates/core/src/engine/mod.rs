//! SPMM engine implementations and the plan/execute split.
//!
//! Two engines simulate the same architecture at different fidelity/cost
//! points:
//!
//! * [`FastEngine`] — O(1)-per-task queue-dynamics model; used for
//!   dataset-scale sweeps (millions to billions of MAC tasks),
//! * [`DetailedEngine`] — cycle-stepped simulation wiring the real
//!   `awb-hw` components (task queues, Omega network, MAC pipeline with
//!   RaW scoreboard); used for component-level studies and to validate the
//!   fast engine.
//!
//! The two differ only in how they time a round: both keep one tuning
//! state (row map + auto-tuner), assemble `RoundStats` the same way, and
//! compute `C` through the same pinned kernel, so their outputs are
//! bit-identical. Both implement [`SpmmEngine`]: an engine instance
//! embodies one piece of hardware *tuned to one sparse matrix* — running
//! it again (e.g. `A` in layer 2 after layer 1) reuses the auto-tuned row
//! map, exactly the reuse the paper's auto-tuning paradigm is about.
//!
//! That reuse is made first-class by the plan/execute split, run as one
//! shard pipeline: [`ShardedEngine`] → [`ShardedPlan`] →
//! [`ShardedSession`], one timing-only `FastEngine` per column shard,
//! tuning during warm-up and then frozen ([`FastEngine::freeze_plan`]) and
//! shared as the plan's shard (row map + replay cache + config), merged
//! through the pinned global-order numerics. A frozen
//! `ShardedPlan` is the only plan a request runs against: cheap
//! per-request sessions execute against `&ShardedPlan`, so N requests on
//! one graph pay tuning once and hit the replay cache from request 1
//! (`DESIGN.md` §6). Each shard reads its part of `A` from one of two
//! sources:
//!
//! * **resident** — a column-slice pattern, or the whole operand (a single
//!   device is the one-shard resident case, with no copy of `A` or `B`);
//!   shards fan out in parallel (`DESIGN.md` §7);
//! * **stored** — a chunk-aligned range of an on-disk
//!   [`SparseStore`](awb_sparse::store::SparseStore), read one shard at
//!   a time and dropped before the next, so peak resident sparse bytes
//!   stay under a host-memory budget while outputs remain bit-identical
//!   (`DESIGN.md` §13).
//!
//! Each layer's `X × W` under `AccelConfig.combination_shards` uses the
//! same resident cut and stats merge, timing only (`DESIGN.md` §8).

mod detailed;
mod fast;
mod sharded;
pub(crate) mod steady;
pub(crate) mod streaming;
mod tuning;

pub use detailed::{DetailedEngine, TdqMode};
pub use fast::FastEngine;
pub(crate) use sharded::shard_timing;
pub use sharded::{PlanShard, ShardedEngine, ShardedOutcome, ShardedPlan, ShardedSession};
pub use streaming::StreamStats;

use crate::config::AccelConfig;
use crate::error::AccelError;
use crate::exec;
use crate::stats::SpmmStats;
use awb_sparse::{Csc, DenseMatrix};

/// Result of simulating one SPMM: the functional product and the cycle
/// statistics.
#[derive(Debug, Clone)]
pub struct SpmmOutcome {
    /// The computed `C = A × B`.
    pub c: DenseMatrix,
    /// Cycle/utilization statistics.
    pub stats: SpmmStats,
}

/// A simulated SPMM engine (one per sparse operand).
pub trait SpmmEngine {
    /// Simulates `C = A × B`, streaming `B` column by column.
    ///
    /// # Errors
    ///
    /// Returns [`AccelError::Shape`] on operand shape mismatch and
    /// [`AccelError::InvalidConfig`] when the engine is reused with a
    /// sparse operand of a different row count than it was tuned for.
    fn run(&mut self, a: &Csc, b: &DenseMatrix, label: &str) -> Result<SpmmOutcome, AccelError>;

    /// The engine's configuration.
    fn config(&self) -> &AccelConfig;
}

/// The numerics half of every engine's [`SpmmEngine::run`]: `C = A × B`
/// through the pinned accumulate kernel ([`steady::compute_columns`]),
/// paired with the statistics of the engine's timing half.
fn pinned_outcome(config: &AccelConfig, a: &Csc, b: &DenseMatrix, stats: SpmmStats) -> SpmmOutcome {
    let threads = config.threads.unwrap_or_else(exec::num_threads);
    SpmmOutcome {
        c: steady::compute_columns(a, b, threads),
        stats,
    }
}

/// Checks that an `a` of shape `(rows, cols)` can multiply `b`: the one
/// shape check every SPMM (and the GCN row kernel) runs before any work.
pub(crate) fn check_shapes(a: (usize, usize), b: &DenseMatrix) -> Result<(), AccelError> {
    if a.1 != b.rows() {
        return Err(AccelError::Shape(
            awb_sparse::SparseError::DimensionMismatch {
                left: a,
                right: b.shape(),
                op: "spmm_engine",
            },
        ));
    }
    Ok(())
}
