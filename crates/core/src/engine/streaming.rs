//! Out-of-core streaming execution over a chunked on-disk sparse store.
//!
//! The sharded layer (`engine::sharded`) assumes every column shard's
//! `Csc` slice is resident simultaneously; this module removes that
//! assumption. A [`StreamingEngine`] plans nnz-balanced, chunk-aligned
//! column shards from a [`SparseStore`] manifest alone (no values
//! loaded), then executes them **sequentially** with a bounded working
//! set: while shard `i` simulates and accumulates, shard `i+1`'s chunks
//! are prefetched on the existing [`exec`] substrate, and shard `i`'s
//! slice is dropped after its rounds. Peak resident sparse bytes are
//! therefore bounded by roughly two shards — the `--host-mem-budget`
//! knob — however large the stored graph is.
//!
//! # Bit-identity
//!
//! The numerics reuse the pinned blocked-accumulate kernels exactly as
//! the sharded merge does. For every output block, shards are visited in
//! ascending column order and columns within a shard in ascending order,
//! so the per-block reduction replays `csc_accumulate_block`'s global
//! ascending-`j` column stream — the same skip-if-all-zero rule, the
//! same `csc_axpy_block` calls, the same final `drain_block_into` — and
//! outputs are bit-identical to the fully-resident engines (asserted by
//! the tests below and `tests/out_of_core.rs`).
//!
//! The only difference from `compute_columns` is *when* blocks see each
//! column: block accumulators persist across shards (one per output
//! block, drained once after the last shard) instead of each block
//! re-scanning a resident operand. Within one block the operation
//! sequence is unchanged.
//!
//! # Timing and overlap accounting
//!
//! Each shard gets its own timing-only `FastEngine` (exactly the
//! sharded-device model), merged through the same critical-path rules
//! ([`merge_stats`](super::sharded)). [`StreamStats`] additionally
//! reports I/O traffic, the peak resident slice bytes actually observed,
//! and how much prefetch wall-time overlapped compute. Prefetch runs as
//! a second `par_map` task; when the caller is itself inside an `exec`
//! worker (nested parallelism runs inline) the pass degrades to
//! synchronous fetches — still correct, just with `overlap_s = 0`, and
//! accounted honestly as such.

use crate::config::AccelConfig;
use crate::engine::sharded::merge_stats;
use crate::engine::steady::block_spans;
use crate::engine::{check_shapes, PlanOutcome, SpmmEngine, SpmmOutcome, TunedPlan};
use crate::error::AccelError;
use crate::exec;
use crate::stats::SpmmStats;
use crate::FastEngine;
use awb_sparse::partition::ColumnPartitioner;
use awb_sparse::spmm::{csc_axpy_block, drain_block_into};
use awb_sparse::store::{SparseStore, StoreError};
use awb_sparse::{Csc, DenseMatrix};
use std::ops::Range;
use std::sync::{Arc, Mutex, MutexGuard, PoisonError};
use std::time::Instant;

/// Maps a store failure into the accelerator's typed ingest error (the
/// PR 7 `validate_ingest` convention: bad input is a typed rejection,
/// never a panic mid-stream).
pub(crate) fn store_err(e: StoreError) -> AccelError {
    AccelError::InvalidInput(format!("sparse store: {e}"))
}

/// I/O, residency, and overlap statistics of one streaming pass.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct StreamStats {
    /// Column shards the pass streamed through.
    pub shards: usize,
    /// Peak bytes of sparse slices resident at once (current shard plus
    /// the prefetched next shard, at their largest).
    pub resident_peak_bytes: usize,
    /// Compressed bytes read from the store across the pass.
    pub io_bytes: u64,
    /// Wall seconds spent in per-shard simulate + accumulate.
    pub compute_s: f64,
    /// Wall seconds spent reading shard slices from the store.
    pub prefetch_s: f64,
    /// Wall seconds during which a prefetch ran concurrently with
    /// compute (per shard step: `min(compute wall, prefetch wall)`; 0
    /// when the pass ran inside an `exec` worker and fetched inline).
    pub overlap_s: f64,
}

impl StreamStats {
    /// Fraction of compute wall-time that had a prefetch running
    /// alongside it (0 when there was no compute).
    pub fn overlap_fraction(&self) -> f64 {
        if self.compute_s > 0.0 {
            (self.overlap_s / self.compute_s).min(1.0)
        } else {
            0.0
        }
    }
}

/// One planned stream shard: its column range and nnz (from the
/// manifest) plus the per-shard timing engine.
#[derive(Debug)]
struct StreamShard {
    cols: Range<usize>,
    nnz: usize,
    /// Timing-only device model for this shard, persistent across runs so
    /// its tuned row map and replay cache survive (the operand slice does
    /// not — it is re-read each pass).
    engine: Mutex<FastEngine>,
}

impl StreamShard {
    /// Poison-recovering lock (same soundness argument as the sharded
    /// layer: a panicking simulation never leaves partial tuning state
    /// that later runs could observe as *wrong* timing, only as a
    /// differently-warmed cache).
    fn lock_engine(&self) -> MutexGuard<'_, FastEngine> {
        self.engine.lock().unwrap_or_else(PoisonError::into_inner)
    }
}

/// Plans chunk-aligned shards for `store` so that two consecutive shard
/// slices fit the host budget together (double buffering: compute on one
/// while prefetching the other).
fn plan_stream_shards(store: &SparseStore, host_budget: usize) -> Vec<(Range<usize>, usize)> {
    let per_shard = (host_budget / 2).max(1);
    let mut shards: Vec<(Range<usize>, usize)> = ColumnPartitioner::by_resident_bytes(per_shard)
        .partition_chunks(store.rows(), store.column_chunks())
        .into_iter()
        .map(|s| (s.cols.clone(), s.nnz))
        .collect();
    if shards.is_empty() {
        // Degenerate 0-column store: keep one empty shard so a pass still
        // produces a (rows × k) output and well-formed stats.
        shards.push((0..store.cols(), 0));
    }
    shards
}

/// Compressed bytes the store reads to materialize this column range
/// (shards are chunk-aligned, so overlapping chunks are read exactly
/// once and this sum is exact).
fn range_disk_bytes(store: &SparseStore, range: &Range<usize>) -> u64 {
    store
        .column_chunks()
        .iter()
        .filter(|c| c.lines.start < range.end && c.lines.end > range.start)
        .map(|c| c.disk_bytes)
        .sum()
}

/// Rejects an operand that is not the stored matrix. Checks dimensions,
/// nnz, and full `Col Ptr` equality (O(cols) against the store's resident
/// pointer — cheap enough for every run; a forged operand with identical
/// structure but different values would go undetected here, which is the
/// same trust model as `TunedPlan`'s values-free fingerprint).
fn verify_operand(store: &SparseStore, a: &Csc) -> Result<(), AccelError> {
    if a.rows() != store.rows()
        || a.cols() != store.cols()
        || a.nnz() != store.nnz()
        || a.col_ptr() != store.col_ptr()
    {
        return Err(AccelError::InvalidConfig(format!(
            "operand ({}x{}, {} nnz) is not the matrix stored at {} ({}x{}, {} nnz) — \
             streaming plans are valid for exactly the stored operand",
            a.rows(),
            a.cols(),
            a.nnz(),
            store.dir().display(),
            store.rows(),
            store.cols(),
            store.nnz()
        )));
    }
    Ok(())
}

/// One step's task in the two-lane overlap pipeline.
#[derive(Debug, Clone, Copy)]
enum Lane {
    Compute,
    Prefetch,
}

/// A lane's result: the shard's timing stats or the next shard's slice,
/// each with its wall time.
enum LaneOut {
    Computed(Result<SpmmStats, AccelError>, f64),
    Fetched(Result<Csc, StoreError>, f64),
}

/// Everything a streaming pass needs besides the per-shard timing runner.
struct StreamPass<'a> {
    store: &'a SparseStore,
    shards: &'a [(Range<usize>, usize)],
    b: &'a DenseMatrix,
    label: &'a str,
    /// Host worker threads configured for this pass (`AccelConfig.threads`
    /// or a session override); `None` defers to [`exec::num_threads`].
    threads: Option<usize>,
}

/// Executes one streaming pass: sequential shards, prefetch overlapped
/// with compute, pinned-order numerics into persistent block
/// accumulators drained after the last shard. `run_shard` simulates one
/// shard's timing (values-free) and returns its stats.
fn stream_pass(
    pass: StreamPass<'_>,
    run_shard: &(dyn Fn(usize, &Csc, &DenseMatrix) -> Result<SpmmStats, AccelError> + Sync),
) -> Result<(SpmmOutcome, StreamStats), AccelError> {
    let StreamPass {
        store,
        shards,
        b,
        label,
        threads,
    } = pass;
    let rows = store.rows();
    let mut c = DenseMatrix::zeros(rows, b.cols());
    let spans = block_spans(b.cols());
    // Persistent per-block accumulators: unlike `compute_columns`, which
    // re-scans a resident operand per block, each block accumulates every
    // shard's contribution and is drained exactly once at the end. The
    // mutex is uncontended (only the compute lane touches it); it exists
    // because the lane closure must be `Fn + Sync`.
    let accs = Mutex::new(
        spans
            .iter()
            .map(|&(_, width)| vec![0f32; rows * width])
            .collect::<Vec<_>>(),
    );

    // Two lanes whenever more than one worker is in play — configured
    // explicitly or ambient — because the prefetch lane blocks on file
    // I/O, which overlaps with compute even on one core. Nested `par_map`
    // runs inline inside an exec worker, so overlap is only claimed when
    // this pass genuinely runs its lanes on separate threads.
    let workers = threads.unwrap_or_else(exec::num_threads);
    let lanes = if workers > 1 && !exec::in_worker() {
        2
    } else {
        1
    };
    let mut stats = StreamStats {
        shards: shards.len(),
        ..StreamStats::default()
    };
    let mut per_shard: Vec<SpmmStats> = Vec::with_capacity(shards.len());

    // The first fetch has nothing to overlap with.
    let t0 = Instant::now();
    let mut cur = store
        .read_col_range(shards[0].0.clone())
        .map_err(store_err)?;
    stats.prefetch_s += t0.elapsed().as_secs_f64();
    stats.io_bytes += range_disk_bytes(store, &shards[0].0);
    stats.resident_peak_bytes = cur.heap_bytes();

    for s in 0..shards.len() {
        let range = &shards[s].0;
        let next = shards.get(s + 1).map(|(r, _)| r.clone());
        let tasks: Vec<Lane> = if next.is_some() {
            vec![Lane::Compute, Lane::Prefetch]
        } else {
            vec![Lane::Compute]
        };
        let cur_ref = &cur;
        let accs_ref = &accs;
        let next_ref = &next;
        let outs = exec::par_map_threads(lanes, &tasks, |lane| match lane {
            Lane::Compute => {
                let t0 = Instant::now();
                let b_slice = b.row_range(range.clone());
                let timed = run_shard(s, cur_ref, &b_slice).map(|shard_stats| {
                    // Numerics: ascending global column order within each
                    // block (shards ascending, `j` ascending inside the
                    // shard), the pinned reduction stream.
                    let mut accs = accs_ref.lock().unwrap_or_else(PoisonError::into_inner);
                    for (bi, &(k0, width)) in spans.iter().enumerate() {
                        let acc = &mut accs[bi];
                        for j in 0..cur_ref.cols() {
                            let scales = &b.row(range.start + j)[k0..k0 + width];
                            if scales.iter().all(|&s| s == 0.0) {
                                continue;
                            }
                            csc_axpy_block(cur_ref, j, scales, acc);
                        }
                    }
                    shard_stats
                });
                LaneOut::Computed(timed, t0.elapsed().as_secs_f64())
            }
            Lane::Prefetch => {
                let t0 = Instant::now();
                let fetched =
                    store.read_col_range(next_ref.clone().expect("prefetch lane only with next"));
                LaneOut::Fetched(fetched, t0.elapsed().as_secs_f64())
            }
        });

        let mut fetched_next: Option<Csc> = None;
        let mut compute_wall = 0.0f64;
        let mut prefetch_wall: Option<f64> = None;
        for out in outs {
            match out {
                LaneOut::Computed(r, wall) => {
                    per_shard.push(r?);
                    compute_wall = wall;
                }
                LaneOut::Fetched(r, wall) => {
                    fetched_next = Some(r.map_err(store_err)?);
                    prefetch_wall = Some(wall);
                }
            }
        }
        stats.compute_s += compute_wall;
        if let Some(wall) = prefetch_wall {
            stats.prefetch_s += wall;
            if lanes > 1 {
                stats.overlap_s += compute_wall.min(wall);
            }
        }
        match fetched_next {
            Some(next_slice) => {
                stats.io_bytes += range_disk_bytes(store, next.as_ref().expect("fetched"));
                // Both buffers were resident while the prefetch completed.
                stats.resident_peak_bytes = stats
                    .resident_peak_bytes
                    .max(cur.heap_bytes() + next_slice.heap_bytes());
                cur = next_slice; // previous shard's slice drops here
            }
            None => {
                stats.resident_peak_bytes = stats.resident_peak_bytes.max(cur.heap_bytes());
            }
        }
    }

    let mut accs = accs.into_inner().unwrap_or_else(PoisonError::into_inner);
    for (&(k0, width), acc) in spans.iter().zip(accs.iter_mut()) {
        drain_block_into(&mut c, k0, width, acc);
    }

    let merged = merge_stats(label, &per_shard);
    Ok((SpmmOutcome { c, stats: merged }, stats))
}

/// Out-of-core SPMM engine over a [`SparseStore`] (see module docs).
///
/// Mirrors [`ShardedEngine`](super::ShardedEngine)'s device model — one
/// timing-only [`FastEngine`] per column shard, critical-path-merged
/// stats, pinned global-order numerics — but holds at most two shard
/// slices resident at a time instead of all of them.
#[derive(Debug)]
pub struct StreamingEngine {
    config: AccelConfig,
    store: Arc<SparseStore>,
    host_budget: usize,
    shards: Vec<StreamShard>,
    /// The last run's streaming statistics.
    last_stream: StreamStats,
}

impl StreamingEngine {
    /// Builds a streaming engine over an already-opened store. Shard cuts
    /// are planned from the manifest's per-chunk nnz profiles alone —
    /// `O(chunks)`, no values loaded — such that two consecutive shard
    /// slices together stay within `host_budget` bytes (chunk granularity
    /// permitting: a single chunk larger than half the budget still
    /// becomes its own shard).
    ///
    /// # Errors
    ///
    /// Returns [`AccelError::InvalidConfig`] if `host_budget == 0`.
    pub fn new(
        config: AccelConfig,
        store: Arc<SparseStore>,
        host_budget: usize,
    ) -> Result<Self, AccelError> {
        if host_budget == 0 {
            return Err(AccelError::InvalidConfig(
                "host memory budget must be >= 1 byte".into(),
            ));
        }
        let shards = plan_stream_shards(&store, host_budget)
            .into_iter()
            .map(|(cols, nnz)| StreamShard {
                cols,
                nnz,
                engine: Mutex::new(FastEngine::new(config.clone())),
            })
            .collect();
        Ok(StreamingEngine {
            config,
            store,
            host_budget,
            shards,
            last_stream: StreamStats::default(),
        })
    }

    /// Opens the store at `dir` (full ingest validation) and builds a
    /// streaming engine over it.
    ///
    /// # Errors
    ///
    /// [`AccelError::InvalidInput`] when the store is missing or corrupt;
    /// [`AccelError::InvalidConfig`] if `host_budget == 0`.
    pub fn open(
        config: AccelConfig,
        dir: impl AsRef<std::path::Path>,
        host_budget: usize,
    ) -> Result<Self, AccelError> {
        let store = SparseStore::open(dir).map_err(store_err)?;
        StreamingEngine::new(config, Arc::new(store), host_budget)
    }

    /// The backing store.
    pub fn store(&self) -> &SparseStore {
        &self.store
    }

    /// The host-memory budget in bytes the shard plan was sized for.
    pub fn host_budget(&self) -> usize {
        self.host_budget
    }

    /// Number of planned stream shards.
    pub fn shard_count(&self) -> usize {
        self.shards.len()
    }

    /// The last run's streaming statistics (zeros before the first run).
    pub fn stream_stats(&self) -> StreamStats {
        self.last_stream
    }

    /// Rows exchanged by remote switching, summed over shard engines.
    pub fn total_switches(&self) -> u64 {
        self.shards
            .iter()
            .map(|s| s.lock_engine().total_switches())
            .sum()
    }

    /// Replay-cache hits summed over shard engines.
    pub fn replay_hits(&self) -> u64 {
        self.shards
            .iter()
            .map(|s| s.lock_engine().replay_hits())
            .sum()
    }

    /// Replay-cache misses summed over shard engines.
    pub fn replay_misses(&self) -> u64 {
        self.shards
            .iter()
            .map(|s| s.lock_engine().replay_misses())
            .sum()
    }

    /// Freezes every shard engine's tuned state into a [`StreamedPlan`]
    /// (the streaming analogue of
    /// [`ShardedEngine::freeze_plan`](super::ShardedEngine::freeze_plan)).
    /// Shard slices are re-read sequentially — one resident at a time —
    /// so freezing obeys the same memory bound as running.
    ///
    /// # Errors
    ///
    /// [`AccelError::InvalidInput`] if the store fails mid-read;
    /// [`AccelError::InvalidConfig`] from a shard engine tuned for a
    /// different row count (cannot happen through this engine's own API).
    pub fn freeze_plan(&mut self) -> Result<StreamedPlan, AccelError> {
        let mut shards = Vec::with_capacity(self.shards.len());
        for shard in &self.shards {
            let slice = self
                .store
                .read_col_range(shard.cols.clone())
                .map_err(store_err)?;
            let plan = shard.lock_engine().freeze_plan(&slice)?;
            shards.push(StreamPlanShard {
                cols: shard.cols.clone(),
                nnz: shard.nnz,
                plan,
            });
        }
        Ok(StreamedPlan {
            config: self.config.clone(),
            store: Arc::clone(&self.store),
            host_budget: self.host_budget,
            shards,
            stream_stats: Mutex::new(self.last_stream),
        })
    }
}

impl SpmmEngine for StreamingEngine {
    fn run(&mut self, a: &Csc, b: &DenseMatrix, label: &str) -> Result<SpmmOutcome, AccelError> {
        check_shapes(a.pattern(), b)?;
        verify_operand(&self.store, a)?;
        let shard_ranges: Vec<(Range<usize>, usize)> = self
            .shards
            .iter()
            .map(|s| (s.cols.clone(), s.nnz))
            .collect();
        let shards = &self.shards;
        let (outcome, stream) = stream_pass(
            StreamPass {
                store: &self.store,
                shards: &shard_ranges,
                b,
                label,
                threads: self.config.threads,
            },
            &|s, cur, b_slice| {
                shards[s]
                    .lock_engine()
                    .run_timing(cur.pattern(), b_slice, label)
            },
        )?;
        self.last_stream = stream;
        Ok(outcome)
    }

    fn plan(
        &mut self,
        _a: &Csc,
        _warmup: &DenseMatrix,
        _label: &str,
    ) -> Result<PlanOutcome, AccelError> {
        // A streamed warm-up freezes one TunedPlan per shard, which the
        // single-plan PlanOutcome cannot carry (same contract as the
        // sharded engine): warm up via `run`, freeze via `freeze_plan`.
        Err(AccelError::InvalidConfig(
            "StreamingEngine cannot produce a single-operand TunedPlan; \
             run a warm-up and call StreamingEngine::freeze_plan instead"
                .into(),
        ))
    }

    fn config(&self) -> &AccelConfig {
        &self.config
    }
}

/// One frozen stream shard: its column range, manifest nnz, and tuned
/// per-shard plan.
#[derive(Debug, Clone)]
pub struct StreamPlanShard {
    /// Column range of the original matrix this shard covers.
    pub cols: Range<usize>,
    /// Non-zeros in the range (from the store manifest).
    pub nnz: usize,
    plan: TunedPlan,
}

/// A frozen, `Sync` out-of-core plan: per-shard [`TunedPlan`]s plus the
/// store handle and budget, executed by [`StreamedSession`]s with the
/// same bounded-residency pipeline as the engine.
#[derive(Debug)]
pub struct StreamedPlan {
    config: AccelConfig,
    store: Arc<SparseStore>,
    host_budget: usize,
    shards: Vec<StreamPlanShard>,
    /// The most recent session's streaming stats (sessions run with
    /// `&self`, hence the mutex; uncontended in practice).
    stream_stats: Mutex<StreamStats>,
}

impl Clone for StreamedPlan {
    fn clone(&self) -> Self {
        StreamedPlan {
            config: self.config.clone(),
            store: Arc::clone(&self.store),
            host_budget: self.host_budget,
            shards: self.shards.clone(),
            stream_stats: Mutex::new(self.stream_stats()),
        }
    }
}

impl StreamedPlan {
    /// The configuration the plan was tuned under.
    pub fn config(&self) -> &AccelConfig {
        &self.config
    }

    /// The backing store.
    pub fn store(&self) -> &SparseStore {
        &self.store
    }

    /// The host-memory budget in bytes the shard plan was sized for.
    pub fn host_budget(&self) -> usize {
        self.host_budget
    }

    /// The frozen per-shard plans.
    pub fn shards(&self) -> &[StreamPlanShard] {
        &self.shards
    }

    /// Number of stream shards.
    pub fn shard_count(&self) -> usize {
        self.shards.len()
    }

    /// True when `a` is the stored operand this plan streams (dimension,
    /// nnz, and `Col Ptr` equality against the store).
    pub fn matches(&self, a: &Csc) -> bool {
        verify_operand(&self.store, a).is_ok()
    }

    /// Auto-tuning rounds paid across all shard warm-ups.
    pub fn tuning_rounds(&self) -> usize {
        self.shards.iter().map(|s| s.plan.tuning_rounds()).sum()
    }

    /// Rows exchanged by remote switching across all shard warm-ups.
    pub fn total_switches(&self) -> u64 {
        self.shards.iter().map(|s| s.plan.total_switches()).sum()
    }

    /// Replay-cache hits summed over shard plans (and their sessions).
    pub fn replay_hits(&self) -> u64 {
        self.shards.iter().map(|s| s.plan.replay_hits()).sum()
    }

    /// Replay-cache misses summed over shard plans (and their sessions).
    pub fn replay_misses(&self) -> u64 {
        self.shards.iter().map(|s| s.plan.replay_misses()).sum()
    }

    /// Resident bytes of the plan's frozen state (row maps + replay
    /// caches across shards) — the plan-cache budgeting input. The
    /// streamed operand itself is *not* resident, which is the point.
    pub fn memory_bytes(&self) -> u64 {
        self.shards.iter().map(|s| s.plan.memory_bytes()).sum()
    }

    /// The most recent session's streaming statistics.
    pub fn stream_stats(&self) -> StreamStats {
        *self
            .stream_stats
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
    }

    /// Opens a per-request streaming session against this plan.
    pub fn session(&self) -> StreamedSession<'_> {
        StreamedSession {
            plan: self,
            threads: self.config.threads,
        }
    }
}

/// A cheap per-request executor over a shared [`StreamedPlan`] — the
/// streaming analogue of [`ShardedSession`](super::ShardedSession), with
/// the same bounded-residency prefetch pipeline as the engine.
#[derive(Debug, Clone)]
pub struct StreamedSession<'p> {
    plan: &'p StreamedPlan,
    threads: Option<usize>,
}

impl StreamedSession<'_> {
    /// The plan this session executes against.
    pub fn plan(&self) -> &StreamedPlan {
        self.plan
    }

    /// Overrides the worker-thread count for this session's per-shard
    /// timing (results are bit-identical at any setting).
    pub fn set_threads(&mut self, threads: Option<usize>) {
        self.threads = threads;
    }
}

impl SpmmEngine for StreamedSession<'_> {
    fn run(&mut self, a: &Csc, b: &DenseMatrix, label: &str) -> Result<SpmmOutcome, AccelError> {
        check_shapes(a.pattern(), b)?;
        let plan = self.plan;
        verify_operand(&plan.store, a)?;
        let shard_ranges: Vec<(Range<usize>, usize)> = plan
            .shards
            .iter()
            .map(|s| (s.cols.clone(), s.nnz))
            .collect();
        let threads = self.threads;
        let (outcome, stream) = stream_pass(
            StreamPass {
                store: &plan.store,
                shards: &shard_ranges,
                b,
                label,
                threads: threads.or(plan.config.threads),
            },
            &|s, cur, b_slice| {
                let shard = &plan.shards[s];
                // Trusted: the slice was just re-read from the very store
                // the shard plan was frozen from (bit-identical, so the
                // O(nnz) re-hash would only re-prove what `verify_operand`
                // plus the store's checksums already established).
                let mut session = shard.plan.session_trusted();
                session.set_threads(threads);
                session.run_timing(cur.pattern(), b_slice, label)
            },
        )?;
        *plan
            .stream_stats
            .lock()
            .unwrap_or_else(PoisonError::into_inner) = stream;
        Ok(outcome)
    }

    fn plan(
        &mut self,
        _a: &Csc,
        _warmup: &DenseMatrix,
        _label: &str,
    ) -> Result<PlanOutcome, AccelError> {
        Err(AccelError::InvalidConfig(
            "a StreamedSession executes an existing StreamedPlan; it cannot produce a TunedPlan"
                .into(),
        ))
    }

    fn config(&self) -> &AccelConfig {
        &self.plan.config
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::Design;
    use awb_sparse::Coo;
    use std::path::PathBuf;

    fn temp_dir(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!(
            "awb-stream-test-{tag}-{}-{:?}",
            std::process::id(),
            std::thread::current().id()
        ));
        let _ = std::fs::remove_dir_all(&dir);
        dir
    }

    /// A power-law-ish matrix: a few heavy columns, light tail.
    fn skewed(n: usize) -> Csc {
        let mut coo = Coo::new(n, n);
        for c in 0..6.min(n) {
            for r in 0..n / 2 {
                coo.push((r * 3 + c) % n, c, ((r % 7) as f32) - 2.5)
                    .unwrap();
            }
        }
        for c in 6..n {
            coo.push(c % n, c, 0.5 * (c % 5) as f32 - 1.0).unwrap();
            coo.push((c * 7 + 1) % n, c, 1.25).unwrap();
        }
        coo.to_csc()
    }

    fn dense(rows: usize, cols: usize) -> DenseMatrix {
        let data: Vec<f32> = (0..rows * cols).map(|i| ((i % 7) as f32) - 3.0).collect();
        DenseMatrix::from_vec(rows, cols, data).unwrap()
    }

    fn config(n_pes: usize) -> AccelConfig {
        Design::LocalPlusRemote { hop: 1 }
            .apply(AccelConfig::builder().n_pes(n_pes).build().unwrap())
    }

    fn bits(c: &DenseMatrix) -> Vec<u32> {
        c.as_slice().iter().map(|v| v.to_bits()).collect()
    }

    /// Writes `a` to a fresh store and returns a streaming engine whose
    /// budget forces several shards.
    fn streamed(tag: &str, a: &Csc, budget: usize) -> (PathBuf, Arc<SparseStore>, StreamingEngine) {
        let dir = temp_dir(tag);
        let store = Arc::new(SparseStore::write_with_chunk_nnz(&dir, a, 16).expect("store write"));
        let engine =
            StreamingEngine::new(config(8), Arc::clone(&store), budget).expect("streaming engine");
        (dir, store, engine)
    }

    #[test]
    fn streamed_run_is_bit_identical_to_resident_run() {
        let a = skewed(96);
        let b = dense(96, 10);
        let budget = a.heap_bytes() / 3;
        let (dir, _store, mut streaming) = streamed("bitident", &a, budget);
        assert!(streaming.shard_count() > 1, "budget must force sharding");
        let streamed_out = streaming.run(&a, &b, "t").unwrap();
        let resident_out = FastEngine::new(config(8)).run(&a, &b, "t").unwrap();
        assert_eq!(bits(&streamed_out.c), bits(&resident_out.c));
        // Work is conserved across the shard merge.
        assert_eq!(
            streamed_out.stats.total_tasks(),
            resident_out.stats.total_tasks()
        );
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn resident_peak_stays_under_budget_and_io_is_counted() {
        let a = skewed(128);
        let budget = a.heap_bytes() / 2;
        let (dir, store, mut streaming) = streamed("budget", &a, budget);
        let b = dense(128, 8);
        streaming.run(&a, &b, "t").unwrap();
        let stream = streaming.stream_stats();
        assert!(stream.shards > 1);
        assert!(
            stream.resident_peak_bytes < a.heap_bytes(),
            "peak {} vs whole matrix {}",
            stream.resident_peak_bytes,
            a.heap_bytes()
        );
        assert!(
            stream.resident_peak_bytes <= budget,
            "peak {} exceeds budget {budget}",
            stream.resident_peak_bytes
        );
        assert_eq!(stream.io_bytes, store.column_disk_bytes());
        assert!(stream.compute_s > 0.0);
        assert!(stream.prefetch_s > 0.0);
        assert!(stream.overlap_fraction() >= 0.0 && stream.overlap_fraction() <= 1.0);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn streamed_plan_sessions_match_the_frozen_engine() {
        let a = skewed(96);
        let warmup = dense(96, 8);
        let budget = a.heap_bytes() / 3;
        let (dir, _store, mut streaming) = streamed("plan", &a, budget);
        streaming.run(&a, &warmup, "warmup").unwrap();
        let plan = streaming.freeze_plan().unwrap();
        assert!(plan.matches(&a));
        assert_eq!(plan.shard_count(), streaming.shard_count());
        assert!(plan.memory_bytes() > 0);
        // The frozen engine's next run and a session must agree exactly.
        let b = dense(96, 5);
        let from_engine = streaming.run(&a, &b, "req").unwrap();
        let from_session = plan.session().run(&a, &b, "req").unwrap();
        assert_eq!(bits(&from_engine.c), bits(&from_session.c));
        assert_eq!(from_engine.stats, from_session.stats);
        // And both match the resident reference.
        let resident = FastEngine::new(config(8)).run(&a, &b, "req").unwrap();
        assert_eq!(bits(&from_session.c), bits(&resident.c));
        // Session stream stats land on the plan.
        assert!(plan.stream_stats().shards > 1);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn operand_mismatch_is_rejected() {
        let a = skewed(64);
        let (dir, _store, mut streaming) = streamed("mismatch", &a, a.heap_bytes() / 2);
        // Same shape, different structure.
        let mut coo = Coo::new(64, 64);
        for c in 0..64 {
            coo.push((c * 5 + 2) % 64, c, 1.0).unwrap();
        }
        let other = coo.to_csc();
        let b = dense(64, 3);
        assert!(matches!(
            streaming.run(&other, &b, "t"),
            Err(AccelError::InvalidConfig(_))
        ));
        streaming.run(&a, &b, "t").unwrap();
        let plan = streaming.freeze_plan().unwrap();
        assert!(!plan.matches(&other));
        assert!(matches!(
            plan.session().run(&other, &b, "t"),
            Err(AccelError::InvalidConfig(_))
        ));
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn zero_budget_and_plan_requests_are_typed_errors() {
        let a = skewed(32);
        let dir = temp_dir("zero");
        let store = Arc::new(SparseStore::write_with_chunk_nnz(&dir, &a, 8).unwrap());
        assert!(matches!(
            StreamingEngine::new(config(4), Arc::clone(&store), 0),
            Err(AccelError::InvalidConfig(_))
        ));
        let mut engine = StreamingEngine::new(config(4), store, 1 << 20).unwrap();
        let b = dense(32, 2);
        assert!(matches!(
            engine.plan(&a, &b, "t"),
            Err(AccelError::InvalidConfig(_))
        ));
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn missing_store_is_invalid_input() {
        let dir = temp_dir("absent");
        assert!(matches!(
            StreamingEngine::open(config(4), &dir, 1 << 20),
            Err(AccelError::InvalidInput(_))
        ));
    }

    #[test]
    fn repeated_runs_replay_and_stay_identical() {
        let a = skewed(96);
        let b = dense(96, 6);
        let (dir, _store, mut streaming) = streamed("replay", &a, a.heap_bytes() / 3);
        let first = streaming.run(&a, &b, "t").unwrap();
        let second = streaming.run(&a, &b, "t").unwrap();
        assert_eq!(bits(&first.c), bits(&second.c));
        assert_eq!(first.stats.rounds.len(), second.stats.rounds.len());
        // Re-read slices are bit-identical, so the per-shard replay caches
        // stay valid across passes and keep serving hits (misses may still
        // trickle where a shard's pattern set exceeds the on-chip cache).
        let hits_after_second = streaming.replay_hits();
        let third = streaming.run(&a, &b, "t").unwrap();
        assert_eq!(bits(&second.c), bits(&third.c));
        assert!(streaming.replay_hits() > hits_after_second);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn degenerate_empty_store_still_runs() {
        let a = Csc::empty(8, 0);
        let dir = temp_dir("empty");
        let store = Arc::new(SparseStore::write(&dir, &a).unwrap());
        let mut engine = StreamingEngine::new(config(4), store, 1024).unwrap();
        let b = DenseMatrix::zeros(0, 3);
        let out = engine.run(&a, &b, "t").unwrap();
        assert_eq!(out.c.shape(), (8, 3));
        assert!(out.c.as_slice().iter().all(|&v| v == 0.0));
        std::fs::remove_dir_all(&dir).unwrap();
    }
}
