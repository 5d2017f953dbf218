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
//! Both implement [`SpmmEngine`]: an engine instance embodies one piece of
//! hardware *tuned to one sparse matrix* — running it again (e.g. `A` in
//! layer 2 after layer 1) reuses the auto-tuned row map, exactly the reuse
//! the paper's auto-tuning paradigm is about.
//!
//! That reuse is made first-class by the plan/execute split: a warm-up
//! run followed by [`FastEngine::freeze_plan`] produces a frozen,
//! shareable [`TunedPlan`] (row map + replay cache + structure
//! fingerprint + config), and cheap
//! per-request [`SpmmSession`]s execute against `&TunedPlan` — so N
//! requests on one graph pay tuning once and hit the replay cache from
//! request 1. See `DESIGN.md` §6.
//!
//! The `A` side of a GCN runs one shard pipeline on top of that split:
//! [`ShardedEngine`] → [`ShardedPlan`] → [`ShardedSession`], one
//! timing-only `FastEngine`/`TunedPlan` per column shard, merged through
//! the pinned global-order numerics. Each shard reads its part of `A`
//! from one of two sources:
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
mod plan;
mod sharded;
pub(crate) mod steady;
pub(crate) mod streaming;

pub use detailed::{DetailedEngine, TdqMode};
pub use fast::FastEngine;
pub use plan::{SpmmSession, TunedPlan};
pub(crate) use sharded::shard_timing;
pub use sharded::{PlanShard, ShardedEngine, ShardedOutcome, ShardedPlan, ShardedSession};
pub use streaming::StreamStats;

use crate::config::AccelConfig;
use crate::error::AccelError;
use crate::stats::SpmmStats;
use awb_sparse::{Csc, CscPattern, DenseMatrix};

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

pub(crate) fn check_shapes(a: &CscPattern, b: &DenseMatrix) -> Result<(), AccelError> {
    if a.cols() != b.rows() {
        return Err(AccelError::Shape(
            awb_sparse::SparseError::DimensionMismatch {
                left: a.shape(),
                right: b.shape(),
                op: "spmm_engine",
            },
        ));
    }
    Ok(())
}
