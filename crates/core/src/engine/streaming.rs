//! The stored shard source: out-of-core passes over a chunked on-disk
//! sparse store.
//!
//! A [`ShardedEngine`](super::ShardedEngine) built with
//! [`stored`](super::ShardedEngine::stored) plans nnz-balanced,
//! chunk-aligned column shards from a [`SparseStore`] manifest alone (no
//! values loaded) and holds no slice of `A`. Each pass then reads the
//! shards **sequentially** with a bounded working set: while shard `i`
//! simulates and accumulates, shard `i+1`'s chunks are prefetched on the
//! existing [`exec`] substrate, and shard `i`'s slice is dropped after its
//! rounds. Peak resident sparse bytes are therefore bounded by roughly two
//! shards — the `--host-mem-budget` knob — however large the stored graph
//! is.
//!
//! # Bit-identity
//!
//! The numerics reuse the pinned blocked-accumulate kernels exactly as
//! the resident merge does. For every output block, shards are visited in
//! ascending column order and columns within a shard in ascending order,
//! so the per-block reduction replays `csc_accumulate_block`'s global
//! ascending-`j` column stream — the same skip-if-all-zero rule, the
//! same `csc_axpy_block` calls, the same final `drain_block_into` — and
//! outputs are bit-identical to resident runs (asserted by the sharded
//! unit tests and `tests/out_of_core.rs`).
//!
//! The only difference from `compute_columns` is *when* blocks see each
//! column: block accumulators persist across shards (one per output
//! block, drained once after the last shard) instead of each block
//! re-scanning a resident operand. Within one block the operation
//! sequence is unchanged.
//!
//! # Overlap accounting
//!
//! [`StreamStats`] reports I/O traffic, the peak resident slice bytes
//! actually observed, and how much prefetch wall-time overlapped compute.
//! Prefetch runs as a second `par_map` task; when the caller is itself
//! inside an `exec` worker (nested parallelism runs inline) the pass
//! degrades to synchronous fetches — still correct, just with
//! `overlap_s = 0`, and accounted honestly as such.

use crate::engine::sharded::Shard;
use crate::engine::steady::block_spans;
use crate::error::AccelError;
use crate::exec;
use crate::stats::SpmmStats;
use awb_sparse::partition::ColumnPartitioner;
use awb_sparse::spmm::{csc_axpy_block, drain_block_into};
use awb_sparse::store::{SparseStore, StoreError};
use awb_sparse::{Csc, CscPattern, DenseMatrix};
use std::ops::Range;
use std::sync::{Mutex, PoisonError};
use std::time::Instant;

/// Maps a store failure into the accelerator's typed ingest error (the
/// `validate_ingest` convention: bad input is a typed rejection, never a
/// panic mid-stream).
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

/// Plans chunk-aligned shards (column range, nnz) for `store` so that two
/// consecutive shard slices fit the host budget together (double
/// buffering: compute on one while prefetching the other).
pub(crate) fn plan_stream_shards(
    store: &SparseStore,
    host_budget: usize,
) -> Vec<(Range<usize>, usize)> {
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
/// pointer; a forged operand with identical structure but different
/// values would go undetected here, which is the same trust model as
/// `TunedPlan`'s values-free fingerprint).
pub(crate) fn verify_operand(store: &SparseStore, a: &Csc) -> Result<(), AccelError> {
    if a.rows() != store.rows()
        || a.cols() != store.cols()
        || a.nnz() != store.nnz()
        || a.col_ptr() != store.col_ptr()
    {
        return Err(AccelError::InvalidConfig(format!(
            "operand ({}x{}, {} nnz) is not the matrix stored at {} ({}x{}, {} nnz) — \
             stored plans are valid for exactly the stored operand",
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

/// Executes one streaming pass over stored `shards`: sequential shards,
/// prefetch overlapped with compute, pinned-order numerics into
/// persistent block accumulators drained after the last shard. `time`
/// simulates one shard's timing on its device (values-free). Returns the
/// output, the per-shard stats in shard order, and the pass's I/O stats.
pub(crate) fn stream_pass<D: Sync>(
    store: &SparseStore,
    shards: &[Shard<D>],
    b: &DenseMatrix,
    threads: Option<usize>,
    time: &(dyn Fn(&D, &CscPattern, &DenseMatrix) -> Result<SpmmStats, AccelError> + Sync),
) -> Result<(DenseMatrix, Vec<SpmmStats>, StreamStats), AccelError> {
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
        .read_col_range(shards[0].cols.clone())
        .map_err(store_err)?;
    stats.prefetch_s += t0.elapsed().as_secs_f64();
    stats.io_bytes += range_disk_bytes(store, &shards[0].cols);
    stats.resident_peak_bytes = cur.heap_bytes();

    for (s, shard) in shards.iter().enumerate() {
        let range = &shard.cols;
        let next = shards.get(s + 1).map(|n| n.cols.clone());
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
                let timed = time(&shard.device, cur_ref.pattern(), &b_slice).map(|shard_stats| {
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
    Ok((c, per_shard, stats))
}
