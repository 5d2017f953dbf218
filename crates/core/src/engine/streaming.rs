//! The stored shard source: out-of-core passes over a chunked on-disk
//! sparse store.
//!
//! A [`ShardedEngine`](super::ShardedEngine) built with
//! [`stored`](super::ShardedEngine::stored) plans nnz-balanced,
//! chunk-aligned column shards from a [`SparseStore`] manifest alone (no
//! values loaded) and holds no slice of `A`. Each pass then walks the
//! shards **sequentially** in ascending column order: read the shard's
//! slice, time it on its device, accumulate it, drop it. Peak resident
//! sparse bytes are therefore one shard slice, bounded by the
//! `--host-mem-budget` knob however large the stored graph is.
//!
//! # Bit-identity
//!
//! The numerics reuse the pinned blocked-accumulate kernels exactly as
//! the resident merge does. For every output block, shards are visited in
//! ascending column order and each shard runs `csc_accumulate_block` over
//! its slice, so the per-block reduction replays the global
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
//! # Accounting
//!
//! [`StreamStats`] reports I/O traffic, the peak resident slice bytes
//! actually observed, and the wall time split between store reads and
//! compute. Reads and compute never overlap, so `overlap_s` is always 0;
//! the field stays for readers of the stats shape.

use crate::engine::sharded::Shard;
use crate::engine::steady::block_spans;
use crate::error::AccelError;
use crate::stats::SpmmStats;
use awb_sparse::partition::ColumnPartitioner;
use awb_sparse::spmm::{csc_accumulate_block, drain_block_into};
use awb_sparse::store::{SparseStore, StoreError};
use awb_sparse::{Csc, CscPattern, DenseMatrix};
use std::ops::Range;
use std::time::Instant;

/// Maps a store failure into the accelerator's typed ingest error (the
/// `validate_ingest` convention: bad input is a typed rejection, never a
/// panic mid-stream).
pub(crate) fn store_err(e: StoreError) -> AccelError {
    AccelError::InvalidInput(format!("sparse store: {e}"))
}

/// I/O, residency, and wall-time statistics of one streaming pass.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct StreamStats {
    /// Column shards the pass streamed through.
    pub shards: usize,
    /// Peak bytes of sparse slices resident at once: the largest single
    /// shard slice, since each is dropped before the next is read.
    pub resident_peak_bytes: usize,
    /// Compressed bytes read from the store across the pass.
    pub io_bytes: u64,
    /// Wall seconds spent in per-shard simulate + accumulate.
    pub compute_s: f64,
    /// Wall seconds spent reading shard slices from the store (every
    /// shard's read, the first included).
    pub prefetch_s: f64,
    /// Wall seconds of store reads overlapped with compute. Always 0:
    /// the pass reads and computes sequentially.
    pub overlap_s: f64,
}

impl StreamStats {
    /// Fraction of compute wall-time that had a store read running
    /// alongside it (0 when there was no compute; 0 for every sequential
    /// pass).
    pub fn overlap_fraction(&self) -> f64 {
        if self.compute_s > 0.0 {
            (self.overlap_s / self.compute_s).min(1.0)
        } else {
            0.0
        }
    }
}

/// Plans chunk-aligned shards (column range, nnz) for `store`, each sized
/// to half the host budget. A pass holds only one slice at a time; the
/// half-budget sizing is kept because it fixes the shard count, and with
/// it every stored plan's simulated statistics.
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

/// Executes one streaming pass over stored `shards`: one shard at a time
/// in ascending column order, each read, timed, accumulated in pinned
/// order into persistent block accumulators and dropped before the next
/// is read; the accumulators drain once after the last shard. `time`
/// simulates one shard's timing on its device (values-free). Returns the
/// output, the per-shard stats in shard order, and the pass's I/O stats.
pub(crate) fn stream_pass<D>(
    store: &SparseStore,
    shards: &[Shard<D>],
    b: &DenseMatrix,
    time: &dyn Fn(&D, &CscPattern, &DenseMatrix) -> Result<SpmmStats, AccelError>,
) -> Result<(DenseMatrix, Vec<SpmmStats>, StreamStats), AccelError> {
    let rows = store.rows();
    let spans = block_spans(b.cols());
    // Persistent per-block accumulators: unlike `compute_columns`, which
    // re-scans a resident operand per block, each block accumulates every
    // shard's contribution and is drained exactly once at the end.
    let mut accs: Vec<Vec<f32>> = spans
        .iter()
        .map(|&(_, width)| vec![0f32; rows * width])
        .collect();
    let mut stats = StreamStats {
        shards: shards.len(),
        ..StreamStats::default()
    };
    let mut per_shard = Vec::with_capacity(shards.len());

    for shard in shards {
        let range = &shard.cols;
        let t0 = Instant::now();
        let slice = store.read_col_range(range.clone()).map_err(store_err)?;
        stats.prefetch_s += t0.elapsed().as_secs_f64();
        stats.io_bytes += range_disk_bytes(store, range);
        stats.resident_peak_bytes = stats.resident_peak_bytes.max(slice.heap_bytes());

        let t0 = Instant::now();
        let b_slice = b.row_range(range.clone());
        per_shard.push(time(&shard.device, slice.pattern(), &b_slice)?);
        // Numerics: ascending global column order within each block
        // (shards ascending, `j` ascending inside the shard), the pinned
        // reduction stream.
        for (&(k0, width), acc) in spans.iter().zip(accs.iter_mut()) {
            csc_accumulate_block(&slice, &b_slice, k0, width, acc);
        }
        stats.compute_s += t0.elapsed().as_secs_f64();
    }

    let mut c = DenseMatrix::zeros(rows, b.cols());
    for (&(k0, width), acc) in spans.iter().zip(accs.iter_mut()) {
        drain_block_into(&mut c, k0, width, acc);
    }
    Ok((c, per_shard, stats))
}
