//! Column-sharding of sparse matrices for graphs bigger than one device.
//!
//! AWB-GCN assumes the whole adjacency fits one accelerator's SPMMeM;
//! tiling approaches (LW-GCN's memory-constrained FPGA tiles, GNNIE's
//! load-balanced partitions — see PAPERS.md) split the matrix across
//! devices instead. Because `A × B = Σ_s A[:, lo_s..hi_s] × B[lo_s..hi_s, :]`,
//! a *column* range of the sparse operand paired with the matching *row*
//! range of the dense operand is an independent sub-multiply whose partial
//! products merge by addition — the natural shard shape for the
//! accelerator's CSC streaming order.
//!
//! Equal-column splits are pathological on the paper's graphs: power-law
//! degree tails and Nell's entity-ordered clustering concentrate non-zeros
//! in a few column bands, so one shard would carry most of the work.
//! [`ColumnPartitioner`] therefore balances by **nnz**, not by column
//! count: a greedy prefix-sum split over `Col Ptr` (already the exclusive
//! prefix sum of per-column nnz, so partitioning is O(cols) on top of the
//! stored arrays).
//!
//! # Example
//!
//! ```
//! use awb_sparse::partition::ColumnPartitioner;
//! use awb_sparse::Coo;
//!
//! # fn main() -> Result<(), awb_sparse::SparseError> {
//! let mut a = Coo::new(4, 4);
//! for c in 0..4 {
//!     a.push(0, c, 1.0)?; // uniform: one nnz per column
//! }
//! let a = a.to_csc();
//! let shards = ColumnPartitioner::by_shards(2).partition(&a);
//! assert_eq!(shards.len(), 2);
//! assert_eq!(shards[0].cols, 0..2);
//! assert_eq!(shards[1].cols, 2..4);
//! assert_eq!(shards[0].nnz, 2);
//! # Ok(())
//! # }
//! ```

use crate::store::ChunkProfile;
use crate::{Csc, CscPattern};
use std::ops::Range;

/// One column shard: a contiguous column range of the partitioned matrix
/// plus its nnz/density profile (what a device placer balances on).
#[derive(Debug, Clone, PartialEq)]
pub struct ColumnShard {
    /// Half-open column range `lo..hi` of the original matrix.
    pub cols: Range<usize>,
    /// Non-zeros inside the range.
    pub nnz: usize,
    /// Heaviest single column inside the range (the shard's indivisible
    /// work quantum — no split can do better than this).
    pub max_col_nnz: usize,
    /// Fraction of the shard's `rows × |cols|` entries that are non-zero.
    pub density: f64,
}

impl ColumnShard {
    /// Number of columns in the shard.
    pub fn n_cols(&self) -> usize {
        self.cols.len()
    }

    /// Materializes the shard's matrix block via [`Csc::col_range`].
    pub fn slice(&self, a: &Csc) -> Csc {
        a.col_range(self.cols.clone())
    }
}

/// How the partitioner sizes shards.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Target {
    /// Exactly this many shards (clamped to the column count), nnz-balanced.
    Shards(usize),
    /// As few shards as possible with at most this many nnz each (a single
    /// column heavier than the budget still gets its own shard — columns
    /// are the indivisible unit).
    MaxNnz(usize),
    /// As few shards as possible with each shard's *resident heap bytes*
    /// (per [`Csc::heap_bytes`]: 8 bytes per nnz plus one pointer-sized
    /// `Col Ptr` entry per column) at most this budget — the host-memory
    /// policy for out-of-core streaming, where the bound that matters is
    /// bytes in RAM, not non-zeros on chip.
    MaxBytes(usize),
}

/// Resident heap bytes of a CSC slice with this shape, matching
/// [`Csc::heap_bytes`] exactly (u32 index + f32 value per nnz, usize
/// `Col Ptr` entry per column plus one).
fn slice_bytes(n_cols: usize, nnz: usize) -> usize {
    nnz * (std::mem::size_of::<u32>() + std::mem::size_of::<f32>())
        + (n_cols + 1) * std::mem::size_of::<usize>()
}

/// Splits a CSC matrix into contiguous, nnz-balanced column shards.
///
/// Both policies guarantee that the returned shards tile `0..cols`
/// contiguously, in order, covering every column exactly once, with no
/// empty shard (except that a 0-column matrix yields no shards at all).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ColumnPartitioner {
    target: Target,
}

impl ColumnPartitioner {
    /// Partition into exactly `n` shards (clamped to the column count),
    /// with shard boundaries chosen so each shard's nnz is as close as the
    /// greedy prefix-sum split can get to `total_nnz / n`.
    ///
    /// # Panics
    ///
    /// Panics if `n == 0`.
    pub fn by_shards(n: usize) -> Self {
        assert!(n > 0, "shard count must be >= 1");
        ColumnPartitioner {
            target: Target::Shards(n),
        }
    }

    /// Partition into as few shards as possible holding at most `budget`
    /// non-zeros each — the memory-derived policy (budget = on-chip
    /// capacity in non-zeros). A single column heavier than the budget
    /// still becomes its own (over-budget) shard: columns are indivisible.
    ///
    /// # Panics
    ///
    /// Panics if `budget == 0`.
    pub fn by_max_nnz(budget: usize) -> Self {
        assert!(budget > 0, "nnz budget must be >= 1");
        ColumnPartitioner {
            target: Target::MaxNnz(budget),
        }
    }

    /// Partition into as few shards as possible whose resident heap bytes
    /// (per [`Csc::heap_bytes`]) each stay at most `budget` — the
    /// host-memory policy backing out-of-core streaming. As with
    /// [`by_max_nnz`](ColumnPartitioner::by_max_nnz), a single column (or
    /// store chunk) heavier than the budget still becomes its own
    /// over-budget shard: the planning unit is indivisible.
    ///
    /// # Panics
    ///
    /// Panics if `budget == 0`.
    pub fn by_resident_bytes(budget: usize) -> Self {
        assert!(budget > 0, "byte budget must be >= 1");
        ColumnPartitioner {
            target: Target::MaxBytes(budget),
        }
    }

    /// True when partitioning `a` would yield at most one shard — the
    /// degenerate case callers dispatch to an unsharded path without
    /// paying the O(cols) partition/profile scan (the combination phase
    /// re-derives its cut per layer per request, so this runs on the
    /// serving hot path).
    pub fn is_single<M: AsRef<CscPattern> + ?Sized>(&self, a: &M) -> bool {
        let a = a.as_ref();
        match self.target {
            Target::Shards(n) => n.min(a.cols()) <= 1,
            // One greedy budget fill covers all columns iff the whole
            // matrix fits the budget (a single column is taken even when
            // it alone exceeds it).
            Target::MaxNnz(budget) => a.cols() <= 1 || a.nnz() <= budget,
            Target::MaxBytes(budget) => a.cols() <= 1 || slice_bytes(a.cols(), a.nnz()) <= budget,
        }
    }

    /// The shard boundaries and profiles for `a` — a [`Csc`] or just its
    /// [`CscPattern`] (see the struct docs for the covering guarantees).
    pub fn partition<M: AsRef<CscPattern> + ?Sized>(&self, a: &M) -> Vec<ColumnShard> {
        let a = a.as_ref();
        let bounds = match self.target {
            Target::Shards(n) => split_by_shards(a, n),
            Target::MaxNnz(budget) => split_by_max_nnz(a, budget),
            Target::MaxBytes(budget) => split_by_max_bytes(a, budget),
        };
        bounds
            .windows(2)
            .map(|w| profile_shard(a, w[0]..w[1]))
            .collect()
    }

    /// Store-backed planning: derives shard boundaries from a store
    /// manifest's per-chunk profiles alone — no `data/` read, O(chunks)
    /// work — so out-of-core runs can plan cuts for a matrix that never
    /// fits in memory. Chunks are the indivisible unit here (they are
    /// line-aligned on disk, so a shard covering whole chunks materializes
    /// without partial-chunk seeks); within that granularity the same
    /// policies apply: [`by_shards`](ColumnPartitioner::by_shards) greedily
    /// balances nnz, [`by_max_nnz`](ColumnPartitioner::by_max_nnz) /
    /// [`by_resident_bytes`](ColumnPartitioner::by_resident_bytes) fill to
    /// a budget. The returned shards tile `0..cols` contiguously with no
    /// empty shard (no chunks → no shards), exactly like
    /// [`partition`](ColumnPartitioner::partition).
    pub fn partition_chunks(&self, rows: usize, chunks: &[ChunkProfile]) -> Vec<ColumnShard> {
        if chunks.is_empty() {
            return Vec::new();
        }
        let groups = match self.target {
            Target::Shards(n) => group_chunks_by_shards(chunks, n),
            Target::MaxNnz(budget) => group_chunks_greedy(chunks, |_, nnz, more| {
                // Take the next chunk while the merged nnz stays in budget.
                nnz + more.nnz <= budget
            }),
            Target::MaxBytes(budget) => group_chunks_greedy(chunks, |span, nnz, more| {
                slice_bytes(more.lines.end - span.start, nnz + more.nnz) <= budget
            }),
        };
        groups
            .into_iter()
            .map(|g| profile_chunk_group(rows, &chunks[g]))
            .collect()
    }
}

/// Profiles a contiguous group of store chunks as one [`ColumnShard`].
fn profile_chunk_group(rows: usize, group: &[ChunkProfile]) -> ColumnShard {
    let cols = group[0].lines.start..group[group.len() - 1].lines.end;
    let nnz = group.iter().map(|c| c.nnz).sum();
    // The manifest records each chunk's heaviest line, so the group's
    // max is exact (the maximum is over a partition of the columns).
    let max_col_nnz = group.iter().map(|c| c.max_line_nnz).max().unwrap_or(0);
    let cells = rows * cols.len();
    ColumnShard {
        density: if cells == 0 {
            0.0
        } else {
            nnz as f64 / cells as f64
        },
        cols,
        nnz,
        max_col_nnz,
    }
}

/// Greedy budget fill over chunks: extend the group while `fits` accepts
/// the next chunk, always taking at least one.
fn group_chunks_greedy(
    chunks: &[ChunkProfile],
    fits: impl Fn(&Range<usize>, usize, &ChunkProfile) -> bool,
) -> Vec<Range<usize>> {
    let mut out = Vec::new();
    let mut lo = 0usize;
    while lo < chunks.len() {
        let mut span = chunks[lo].lines.clone();
        let mut nnz = chunks[lo].nnz;
        let mut hi = lo + 1;
        while hi < chunks.len() && fits(&span, nnz, &chunks[hi]) {
            span.end = chunks[hi].lines.end;
            nnz += chunks[hi].nnz;
            hi += 1;
        }
        out.push(lo..hi);
        lo = hi;
    }
    out
}

/// Greedy prefix-target split of chunks into `k` nnz-balanced groups
/// (clamped to the chunk count), mirroring [`split_by_shards`] at chunk
/// granularity with the same leave-one-per-remaining-shard cap.
fn group_chunks_by_shards(chunks: &[ChunkProfile], k: usize) -> Vec<Range<usize>> {
    let n = chunks.len();
    let k = k.max(1).min(n);
    let total: u128 = chunks.iter().map(|c| c.nnz as u128).sum();
    let mut prefix = Vec::with_capacity(n + 1);
    prefix.push(0usize);
    for c in chunks {
        prefix.push(prefix.last().expect("non-empty") + c.nnz);
    }
    let mut out = Vec::with_capacity(k);
    let mut lo = 0usize;
    for i in 0..k - 1 {
        let target = (total * (i as u128 + 1) / k as u128) as usize;
        let max_hi = n - (k - 1 - i);
        let mut hi = lo + 1 + prefix[lo + 1..max_hi].partition_point(|&p| p < target);
        if hi > lo + 1 && prefix[hi].abs_diff(target) > prefix[hi - 1].abs_diff(target) {
            hi -= 1;
        }
        out.push(lo..hi);
        lo = hi;
    }
    out.push(lo..n);
    out
}

fn profile_shard(a: &CscPattern, cols: Range<usize>) -> ColumnShard {
    let ptr = a.col_ptr();
    let nnz = ptr[cols.end] - ptr[cols.start];
    let max_col_nnz = cols.clone().map(|c| ptr[c + 1] - ptr[c]).max().unwrap_or(0);
    let cells = a.rows() * cols.len();
    ColumnShard {
        density: if cells == 0 {
            0.0
        } else {
            nnz as f64 / cells as f64
        },
        cols,
        nnz,
        max_col_nnz,
    }
}

/// Greedy prefix-sum split into `k` shards: boundary `i` lands on the
/// column whose nnz prefix is closest to `total * (i+1) / k`, constrained
/// to leave at least one column for every remaining shard.
fn split_by_shards(a: &CscPattern, k: usize) -> Vec<usize> {
    let cols = a.cols();
    if cols == 0 {
        return Vec::new();
    }
    let k = k.min(cols);
    let ptr = a.col_ptr();
    let total = a.nnz() as u128;
    let mut bounds = Vec::with_capacity(k + 1);
    bounds.push(0usize);
    let mut lo = 0usize;
    for i in 0..k - 1 {
        let target = (total * (i as u128 + 1) / k as u128) as usize;
        // Smallest boundary whose prefix reaches the target, capped so the
        // remaining shards each keep at least one column. `Col Ptr` is
        // non-decreasing, so the boundary binary-searches in O(log cols)
        // instead of scanning — the partition is re-derived per layer and
        // per request on the combination side, where `X` can be wide.
        let max_hi = cols - (k - 1 - i);
        let mut hi = lo + 1 + ptr[lo + 1..max_hi].partition_point(|&p| p < target);
        // Greedy refinement: stepping back one column may land closer.
        // (abs_diff: when the max_hi cap stopped the scan early, ptr[hi]
        // is still below the target and plain subtraction would underflow.)
        if hi > lo + 1 && ptr[hi].abs_diff(target) > ptr[hi - 1].abs_diff(target) {
            hi -= 1;
        }
        bounds.push(hi);
        lo = hi;
    }
    bounds.push(cols);
    bounds
}

/// Greedy budget fill: extend each shard while the next column still fits,
/// always taking at least one column.
fn split_by_max_nnz(a: &CscPattern, budget: usize) -> Vec<usize> {
    let cols = a.cols();
    if cols == 0 {
        return Vec::new();
    }
    let ptr = a.col_ptr();
    let mut bounds = vec![0usize];
    let mut lo = 0usize;
    while lo < cols {
        let mut hi = lo + 1;
        while hi < cols && ptr[hi + 1] - ptr[lo] <= budget {
            hi += 1;
        }
        bounds.push(hi);
        lo = hi;
    }
    bounds
}

/// Greedy resident-byte fill, same structure as [`split_by_max_nnz`] but
/// bounding [`Csc::heap_bytes`] of each shard's slice.
fn split_by_max_bytes(a: &CscPattern, budget: usize) -> Vec<usize> {
    let cols = a.cols();
    if cols == 0 {
        return Vec::new();
    }
    let ptr = a.col_ptr();
    let mut bounds = vec![0usize];
    let mut lo = 0usize;
    while lo < cols {
        let mut hi = lo + 1;
        while hi < cols && slice_bytes(hi + 1 - lo, ptr[hi + 1] - ptr[lo]) <= budget {
            hi += 1;
        }
        bounds.push(hi);
        lo = hi;
    }
    bounds
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Coo;

    /// A clustered matrix: columns 0..4 carry 10 nnz each, the rest 1.
    fn clustered(n: usize) -> Csc {
        let mut coo = Coo::new(n, n);
        for c in 0..4 {
            for r in 0..10 {
                coo.push(r % n, c, 1.0).unwrap();
            }
        }
        for c in 4..n {
            coo.push(c % n, c, 1.0).unwrap();
        }
        coo.to_csc()
    }

    fn assert_tiles(shards: &[ColumnShard], cols: usize, total_nnz: usize) {
        assert_eq!(shards.first().map(|s| s.cols.start), Some(0));
        assert_eq!(shards.last().map(|s| s.cols.end), Some(cols));
        for w in shards.windows(2) {
            assert_eq!(w[0].cols.end, w[1].cols.start, "gap or overlap");
        }
        for s in shards {
            assert!(!s.cols.is_empty(), "empty shard {s:?}");
        }
        assert_eq!(shards.iter().map(|s| s.nnz).sum::<usize>(), total_nnz);
    }

    #[test]
    fn by_shards_balances_nnz_not_columns() {
        let a = clustered(20); // 40 nnz in cols 0..4, 16 in cols 4..20
        let shards = ColumnPartitioner::by_shards(2).partition(&a);
        assert_tiles(&shards, 20, a.nnz());
        assert_eq!(shards.len(), 2);
        // An equal-column split (10|10) would put 46 vs 10 nnz; the
        // nnz-balanced boundary cuts inside the heavy cluster instead.
        assert!(shards[0].n_cols() < 5, "boundary {:?}", shards[0].cols);
        let spread = shards[0].nnz.abs_diff(shards[1].nnz);
        assert!(spread <= 10, "nnz {} vs {}", shards[0].nnz, shards[1].nnz);
    }

    #[test]
    fn by_shards_clamps_to_column_count() {
        let a = clustered(6);
        let shards = ColumnPartitioner::by_shards(64).partition(&a);
        assert_eq!(shards.len(), 6); // one column each
        assert_tiles(&shards, 6, a.nnz());
        assert_eq!(ColumnPartitioner::by_shards(1).partition(&a).len(), 1);
    }

    #[test]
    fn by_max_nnz_respects_budget() {
        let a = clustered(20);
        let budget = 12;
        let shards = ColumnPartitioner::by_max_nnz(budget).partition(&a);
        assert_tiles(&shards, 20, a.nnz());
        // Heaviest column is 10 <= budget, so every shard obeys it.
        for s in &shards {
            assert!(s.nnz <= budget, "shard {s:?} over budget");
            assert!(s.max_col_nnz <= s.nnz);
        }
    }

    #[test]
    fn by_max_nnz_isolates_over_budget_columns() {
        let a = clustered(8); // heavy columns hold 10 nnz
        let shards = ColumnPartitioner::by_max_nnz(3).partition(&a);
        assert_tiles(&shards, 8, a.nnz());
        for s in &shards {
            // Over budget only when a single column alone exceeds it.
            assert!(s.nnz <= 3 || s.n_cols() == 1, "shard {s:?}");
        }
    }

    #[test]
    fn by_shards_handles_trailing_concentration() {
        // All nnz in the last column: every boundary scan is stopped by
        // the leave-a-column-per-shard cap before reaching its nnz target
        // (regression: the closest-boundary refinement used to underflow
        // here).
        let mut coo = Coo::new(4, 4);
        for r in 0..4 {
            coo.push(r, 3, 1.0).unwrap();
            coo.push((r + 1) % 4, 3, 1.0).unwrap();
        }
        let a = coo.to_csc();
        let shards = ColumnPartitioner::by_shards(3).partition(&a);
        assert_tiles(&shards, 4, a.nnz());
        assert_eq!(shards.len(), 3);
        assert_eq!(shards.last().unwrap().nnz, a.nnz());
    }

    #[test]
    fn profiles_report_density() {
        let a = clustered(10);
        let shards = ColumnPartitioner::by_shards(3).partition(&a);
        for s in &shards {
            let cells = (a.rows() * s.n_cols()) as f64;
            assert!((s.density - s.nnz as f64 / cells).abs() < 1e-12);
            assert_eq!(s.slice(&a).nnz(), s.nnz);
            assert_eq!(s.slice(&a).shape(), (a.rows(), s.n_cols()));
        }
    }

    #[test]
    fn empty_and_degenerate_matrices() {
        let empty = Csc::empty(4, 0);
        assert!(ColumnPartitioner::by_shards(4).partition(&empty).is_empty());
        assert!(ColumnPartitioner::by_max_nnz(8)
            .partition(&empty)
            .is_empty());
        // All-zero columns still tile completely.
        let zeros = Csc::empty(4, 7);
        let shards = ColumnPartitioner::by_shards(3).partition(&zeros);
        assert_tiles(&shards, 7, 0);
        assert_eq!(shards.len(), 3);
    }

    #[test]
    fn is_single_agrees_with_partition() {
        let matrices = [
            clustered(20),
            clustered(6),
            Csc::empty(4, 0),
            Csc::empty(4, 7),
            Csc::empty(4, 1),
        ];
        let partitioners = [
            ColumnPartitioner::by_shards(1),
            ColumnPartitioner::by_shards(2),
            ColumnPartitioner::by_shards(64),
            ColumnPartitioner::by_max_nnz(1),
            ColumnPartitioner::by_max_nnz(12),
            ColumnPartitioner::by_max_nnz(10_000),
        ];
        for a in &matrices {
            for p in &partitioners {
                assert_eq!(
                    p.is_single(a),
                    p.partition(a).len() <= 1,
                    "{p:?} on {}x{} ({} nnz)",
                    a.rows(),
                    a.cols(),
                    a.nnz()
                );
            }
        }
    }

    #[test]
    fn by_resident_bytes_respects_budget() {
        let a = clustered(20);
        // Whole matrix: 56 nnz * 8 + 21 * 8 = 616 bytes resident.
        assert_eq!(a.heap_bytes(), 616);
        let shards = ColumnPartitioner::by_resident_bytes(200).partition(&a);
        assert_tiles(&shards, 20, a.nnz());
        assert!(shards.len() > 1);
        for s in &shards {
            let bytes = s.slice(&a).heap_bytes();
            // Heaviest column is 10 nnz = 96 bytes < 200, so every shard
            // obeys the budget.
            assert!(bytes <= 200, "shard {s:?} resident {bytes} bytes");
        }
        // A budget below a single heavy column still yields 1-column
        // (over-budget) shards rather than stalling.
        let tight = ColumnPartitioner::by_resident_bytes(16).partition(&a);
        assert_tiles(&tight, 20, a.nnz());
        for s in &tight {
            assert_eq!(s.n_cols(), 1);
        }
        // is_single agrees on both sides of the whole-matrix size.
        assert!(ColumnPartitioner::by_resident_bytes(616).is_single(&a));
        assert!(!ColumnPartitioner::by_resident_bytes(615).is_single(&a));
    }

    /// Store-chunk profiles of `a` at the given nnz-per-chunk target,
    /// built directly from `Col Ptr` (no disk involved).
    fn chunk_profiles(a: &Csc, target: usize) -> Vec<ChunkProfile> {
        let ptr = a.col_ptr();
        let mut out = Vec::new();
        let mut lo = 0usize;
        while lo < a.cols() {
            let mut hi = lo + 1;
            while hi < a.cols() && ptr[hi] - ptr[lo] < target {
                hi += 1;
            }
            out.push(ChunkProfile {
                lines: lo..hi,
                nnz: ptr[hi] - ptr[lo],
                max_line_nnz: (lo..hi).map(|c| ptr[c + 1] - ptr[c]).max().unwrap(),
                disk_bytes: 1,
            });
            lo = hi;
        }
        out
    }

    #[test]
    fn partition_chunks_tiles_and_matches_column_granularity_limits() {
        let a = clustered(24);
        let chunks = chunk_profiles(&a, 4);
        for p in [
            ColumnPartitioner::by_shards(3),
            ColumnPartitioner::by_shards(64),
            ColumnPartitioner::by_max_nnz(12),
            ColumnPartitioner::by_resident_bytes(200),
        ] {
            let shards = p.partition_chunks(a.rows(), &chunks);
            assert_tiles(&shards, 24, a.nnz());
            // Shard profiles must agree with re-profiling the same column
            // ranges against the resident matrix.
            for s in &shards {
                let direct = profile_shard(a.pattern(), s.cols.clone());
                assert_eq!(s, &direct, "{p:?}");
            }
        }
        // Budget policies respect their budget whenever a single chunk
        // does (chunks here hold <= 13 nnz; heaviest single chunk rules).
        let max_chunk_nnz = chunks.iter().map(|c| c.nnz).max().unwrap();
        let budget = max_chunk_nnz.max(12);
        for s in ColumnPartitioner::by_max_nnz(budget).partition_chunks(a.rows(), &chunks) {
            assert!(s.nnz <= budget, "{s:?}");
        }
        // No chunks → no shards.
        assert!(ColumnPartitioner::by_shards(4)
            .partition_chunks(a.rows(), &[])
            .is_empty());
    }

    #[test]
    fn partition_chunks_by_shards_balances_nnz() {
        let a = clustered(40);
        let chunks = chunk_profiles(&a, 2);
        let shards = ColumnPartitioner::by_shards(4).partition_chunks(a.rows(), &chunks);
        assert_eq!(shards.len(), 4);
        assert_tiles(&shards, 40, a.nnz());
        let target = a.nnz() / 4;
        let max_chunk = chunks.iter().map(|c| c.nnz).max().unwrap();
        for s in &shards {
            // Greedy chunk-granular balance: within one chunk of ideal.
            assert!(
                s.nnz.abs_diff(target) <= max_chunk,
                "shard {s:?} vs target {target} (chunk quantum {max_chunk})"
            );
        }
    }

    #[test]
    #[should_panic(expected = "byte budget")]
    fn zero_byte_budget_rejected() {
        ColumnPartitioner::by_resident_bytes(0);
    }

    #[test]
    #[should_panic(expected = "shard count")]
    fn zero_shards_rejected() {
        ColumnPartitioner::by_shards(0);
    }

    #[test]
    #[should_panic(expected = "nnz budget")]
    fn zero_budget_rejected() {
        ColumnPartitioner::by_max_nnz(0);
    }
}
