//! Multiply kernels.
//!
//! [`csc_times_dense`] is the software ground truth that the accelerator
//! simulator's functional output is cross-checked against. It mirrors the
//! accelerator's own column-streaming schedule (paper Eq. 4 / Fig. 5):
//! for each output column `k`, each non-zero `b(j,k)` of the dense operand
//! is broadcast to the whole column `j` of the sparse operand. It is the
//! one naive oracle: the production kernels ([`csc_accumulate_into`] and
//! the row-major [`row_major_times_dense_into`]) pin the same per-element
//! addition order, so their results equal it bit for bit on finite
//! operands.

use crate::{Csc, Csr, DenseMatrix, Result, SparseError};
use std::ops::Range;

/// Accumulates `scale × A[:, j]` into the column accumulator `acc`
/// (`acc[i] += a(i, j) * scale` for every non-zero of column `j`, in CSC
/// index order): [`csc_times_dense`]'s inner step, one call per non-zero
/// `b(j, k)` of the dense operand.
///
/// # Panics
///
/// Panics if `j >= a.cols()` or `acc.len() < a.rows()`.
#[inline]
fn csc_axpy_column(a: &Csc, j: usize, scale: f32, acc: &mut [f32]) {
    let lo = a.col_ptr()[j];
    let hi = a.col_ptr()[j + 1];
    for (&i, &v) in a.row_idx()[lo..hi].iter().zip(&a.values()[lo..hi]) {
        acc[i as usize] += v * scale;
    }
}

/// Writes the non-zero entries of the column accumulator `acc` into column
/// `k` of `c`, then resets `acc` to all-`+0.0` for the next round-column.
///
/// The *write* is conditional (`*v != 0.0`): untouched output slots keep
/// the `+0.0` they were initialised with. The *reset* is unconditional:
/// `-0.0 != 0.0` is `false` in IEEE-754, so a conditional reset would skip
/// `-0.0` slots and leak the sign bit into every later column that touches
/// the same row.
///
/// # Panics
///
/// Panics if `acc.len() != c.rows()` or `k >= c.cols()`.
#[inline]
fn drain_column_into(c: &mut DenseMatrix, k: usize, acc: &mut [f32]) {
    assert_eq!(acc.len(), c.rows(), "accumulator length must match rows");
    for (i, v) in acc.iter_mut().enumerate() {
        if *v != 0.0 {
            c.set(i, k, *v);
        }
        *v = 0.0;
    }
}

/// Skip granularity of the accumulate kernels: for every row `j` of the
/// dense operand, each [`ACC_BLOCK_LANES`]-wide block of lanes that is
/// all `±0.0` is skipped as a whole (a narrower final block for widths
/// not divisible by the lane count).
pub const ACC_BLOCK_LANES: usize = 8;

/// Which [`ACC_BLOCK_LANES`]-wide lane blocks of each row of a dense
/// operand are all `±0.0` — the `(j, block)` pairs the accumulate kernels
/// skip. Built once per SPMM and shared by every shard and lane group.
#[derive(Debug, Clone)]
pub struct ZeroBlocks {
    n_blocks: usize,
    zero: Vec<bool>,
    any: bool,
}

impl ZeroBlocks {
    /// The zero-block table of `b`.
    pub fn of(b: &DenseMatrix) -> Self {
        let n_blocks = b.cols().div_ceil(ACC_BLOCK_LANES);
        let zero: Vec<bool> = (0..b.rows())
            .flat_map(|j| {
                b.row(j)
                    .chunks(ACC_BLOCK_LANES)
                    .map(|block| block.iter().all(|&s| s == 0.0))
            })
            .collect();
        let any = zero.contains(&true);
        ZeroBlocks {
            n_blocks,
            zero,
            any,
        }
    }

    /// The skip flags of row `j`'s blocks `blocks`.
    #[inline]
    fn row(&self, j: usize, blocks: Range<usize>) -> &[bool] {
        &self.zero[j * self.n_blocks + blocks.start..j * self.n_blocks + blocks.end]
    }

    /// `out += x × s` over the lane blocks `blocks` of row `j` that are
    /// not all zero (`s` and `out` cover exactly those blocks).
    #[inline(always)]
    fn axpy(&self, j: usize, blocks: Range<usize>, x: f32, s: &[f32], out: &mut [f32]) {
        if self.any {
            axpy_blocks(x, s, self.row(j, blocks), out);
        } else {
            axpy_full(x, s, out);
        }
    }

    /// Whether this is a table of a matrix of `b`'s shape.
    fn fits(&self, b: &DenseMatrix) -> bool {
        self.n_blocks == b.cols().div_ceil(ACC_BLOCK_LANES)
            && self.zero.len() == b.rows() * self.n_blocks
    }
}

/// `out += x × s` over the lane blocks whose flag in `skip` is false
/// (`out`, `s` and `skip` cover the same blocks).
#[inline(always)]
fn axpy_blocks(x: f32, s: &[f32], skip: &[bool], out: &mut [f32]) {
    let blocks = out
        .chunks_mut(ACC_BLOCK_LANES)
        .zip(s.chunks(ACC_BLOCK_LANES));
    for ((o, s), &skip) in blocks.zip(skip) {
        if !skip {
            for (o, &s) in o.iter_mut().zip(s) {
                *o += x * s;
            }
        }
    }
}

/// `out += x × s`, every lane.
#[inline(always)]
fn axpy_full(x: f32, s: &[f32], out: &mut [f32]) {
    for (o, &s) in out.iter_mut().zip(s) {
        *o += x * s;
    }
}

/// Accumulates `A × B[b_row0.., lanes]` straight into `out` in one pass
/// over `A`: for each column `j` ascending and each non-zero `(i, v)` of
/// `A[:, j]` in CSC order, adds `v · b[b_row0 + j, lanes]` into row `i` of
/// `out` (row-major, `a.rows() × lanes.len()`), skipping the lane blocks
/// `zero` marks all `±0.0` for that row of `B`. `lanes` must start on a
/// block boundary; `b_row0` lets a column shard of `A` read `B`'s global
/// rows without copying them.
///
/// # Pinned reduction order (bit-identity with the scalar kernel)
///
/// Output element `(i, k)` receives `a(i, j) · b(j, k)` for ascending `j`,
/// in CSC index order within a column — the order [`csc_times_dense`]
/// adds in. Lanes of a non-skipped block whose own `b(j, k)` is `±0.0`
/// ride along: `acc += v · (±0.0)` is a bit-exact no-op for finite `v`
/// because the accumulator is never `−0.0` (it starts `+0.0`,
/// `(+0.0) + (−0.0) = +0.0` in round-to-nearest, and an exact
/// cancellation yields `+0.0`). So on finite operands the result equals
/// [`csc_times_dense`] bit for bit — and since no element is ever `−0.0`,
/// accumulating into a zeroed output equals accumulating into a scratch
/// column and copying its non-zero entries out. With non-finite values in
/// `B` a riding lane can turn NaN (`inf × 0.0`); the kernel then matches
/// the per-`(j, block)` skip rule exactly (pinned by proptest).
///
/// # Panics
///
/// Panics if `lanes` is out of `b`'s columns or unaligned, a row
/// `b_row0 + j` is out of bounds, or `out.len() != a.rows() * lanes.len()`.
pub fn csc_accumulate_into(
    a: &Csc,
    b: &DenseMatrix,
    b_row0: usize,
    zero: &ZeroBlocks,
    lanes: Range<usize>,
    out: &mut [f32],
) {
    assert!(lanes.end <= b.cols(), "lanes {lanes:?} out of bounds");
    assert_eq!(
        lanes.start % ACC_BLOCK_LANES,
        0,
        "lanes must be block-aligned"
    );
    let width = lanes.len();
    assert_eq!(out.len(), a.rows() * width, "output slice size");
    if width == 0 {
        return;
    }
    let blocks = lanes.start / ACC_BLOCK_LANES..lanes.end.div_ceil(ACC_BLOCK_LANES);
    let (col_ptr, row_idx, values) = (a.col_ptr(), a.row_idx(), a.values());
    for j in 0..a.cols() {
        let s = &b.row(b_row0 + j)[lanes.clone()];
        let entries = row_idx[col_ptr[j]..col_ptr[j + 1]]
            .iter()
            .zip(&values[col_ptr[j]..col_ptr[j + 1]]);
        let skip = if zero.any {
            zero.row(b_row0 + j, blocks.clone())
        } else {
            &[]
        };
        if !skip.contains(&true) {
            for (&i, &v) in entries {
                let i = i as usize;
                axpy_full(v, s, &mut out[i * width..(i + 1) * width]);
            }
        } else if skip.contains(&false) {
            for (&i, &v) in entries {
                let i = i as usize;
                axpy_blocks(v, s, skip, &mut out[i * width..(i + 1) * width]);
            }
        }
    }
}

/// `C = A × B` through [`csc_accumulate_into`]: one pass over `A`, every
/// output lane at once. Bit-identical to [`csc_times_dense`] on finite
/// operands (see the pinned reduction order there); the raw-speed
/// variant, walking `A`'s non-zeros once instead of once per column.
///
/// # Errors
///
/// Returns [`SparseError::DimensionMismatch`] if `a.cols() != b.rows()`.
pub fn csc_times_dense_blocked(a: &Csc, b: &DenseMatrix) -> Result<DenseMatrix> {
    if a.cols() != b.rows() {
        return Err(SparseError::DimensionMismatch {
            left: a.shape(),
            right: b.shape(),
            op: "csc_times_dense_blocked",
        });
    }
    let mut out = vec![0f32; a.rows() * b.cols()];
    csc_accumulate_into(a, b, 0, &ZeroBlocks::of(b), 0..b.cols(), &mut out);
    DenseMatrix::from_vec(a.rows(), b.cols(), out)
}

/// A row-major left operand of the pinned row kernels
/// ([`row_major_times_dense`]): a CSR matrix, or a dense matrix whose
/// stored entries are its `!= 0.0` ones — exactly the entries
/// [`DenseMatrix::to_csc`] keeps.
#[derive(Debug, Clone, Copy)]
pub enum RowOperand<'a> {
    /// A sparse operand (layer 1's `X1`).
    Sparse(&'a Csr),
    /// A dense operand (a hidden layer's ReLU output).
    Dense(&'a DenseMatrix),
}

impl RowOperand<'_> {
    /// Number of rows.
    pub fn rows(&self) -> usize {
        match self {
            RowOperand::Sparse(x) => x.rows(),
            RowOperand::Dense(x) => x.rows(),
        }
    }

    /// Number of columns.
    pub fn cols(&self) -> usize {
        match self {
            RowOperand::Sparse(x) => x.cols(),
            RowOperand::Dense(x) => x.cols(),
        }
    }
}

/// Output lanes of one register tile of [`row_major_times_dense_into`]:
/// two [`ACC_BLOCK_LANES`]-wide skip blocks.
const TILE_LANES: usize = 2 * ACC_BLOCK_LANES;

/// Writes rows `rows` of `C = X × W` into `out` (row-major,
/// `rows.len() × w.cols()`, all `+0.0` on entry), reading `X` row by row.
/// `zero` is `W`'s [`ZeroBlocks`] table, built once per SPMM by the
/// caller and shared by every row chunk.
///
/// # Pinned reduction order
///
/// Output element `(i, k)` receives `x(i, j) · w(j, k)` for the stored
/// `j` of row `i` in ascending order (a row stored out of order is
/// visited sorted, stably, so duplicates keep their stored order),
/// skipping the `(j, block)` pairs whose `W` block is all zero. That is
/// the exact addition sequence [`csc_accumulate_into`] performs for the
/// same element on `X`'s CSC transpose, so the result is bit-identical to
/// [`csc_times_dense_blocked`] — for non-finite values too, NaN payloads
/// aside — while no transpose of `X`'s values is ever built.
///
/// Each full 16-lane tile of an output row accumulates in a fixed-size
/// register array that starts at `+0.0`, takes the row's entries in that
/// order (skipping each 8-lane half on its own zero-block flag), and is
/// stored once; storing it equals adding it to the `+0.0` output, since
/// an accumulator that starts at `+0.0` is never `−0.0`. The lanes past
/// the last full tile (all of them for a layer narrower than 16)
/// accumulate in place in the same order.
///
/// # Panics
///
/// Panics if `x.cols() != w.rows()`, `zero` is not a table of `w`'s
/// shape, `rows.end > x.rows()`, or `out.len() != rows.len() * w.cols()`.
pub fn row_major_times_dense_into(
    x: RowOperand<'_>,
    w: &DenseMatrix,
    zero: &ZeroBlocks,
    rows: Range<usize>,
    out: &mut [f32],
) {
    assert_eq!(x.cols(), w.rows(), "operand dimensions must agree");
    assert!(zero.fits(w), "zero-block table of another shape");
    assert!(rows.end <= x.rows(), "row range {rows:?} out of bounds");
    assert_eq!(out.len(), rows.len() * w.cols(), "output slice size");
    if w.cols() == 0 {
        return;
    }
    match x {
        RowOperand::Sparse(x) => {
            let mut sorted: Vec<(u32, f32)> = Vec::new();
            for (i, out_row) in rows.zip(out.chunks_exact_mut(w.cols())) {
                let span = x.row_ptr()[i]..x.row_ptr()[i + 1];
                let cols = &x.col_idx()[span.clone()];
                let values = &x.values()[span];
                if cols.windows(2).all(|p| p[0] <= p[1]) {
                    let entries = cols.iter().zip(values).map(|(&j, &v)| (j as usize, v));
                    accumulate_row(entries, w, zero, out_row);
                } else {
                    sorted.clear();
                    sorted.extend(cols.iter().copied().zip(values.iter().copied()));
                    sorted.sort_by_key(|&(j, _)| j);
                    let entries = sorted.iter().map(|&(j, v)| (j as usize, v));
                    accumulate_row(entries, w, zero, out_row);
                }
            }
        }
        RowOperand::Dense(x) => {
            let mut nonzero = vec![0u32; x.cols()];
            for (i, out_row) in rows.zip(out.chunks_exact_mut(w.cols())) {
                // The row's non-zero positions, gathered without a branch
                // per entry, then the axpys in ascending `j`.
                let row = x.row(i);
                let mut n = 0;
                for (j, &v) in row.iter().enumerate() {
                    nonzero[n] = j as u32;
                    n += usize::from(v != 0.0);
                }
                let entries = nonzero[..n].iter().map(|&j| (j as usize, row[j as usize]));
                accumulate_row(entries, w, zero, out_row);
            }
        }
    }
}

/// One output row of [`row_major_times_dense_into`]: `out += Σ x · W[j, :]`
/// over the row's `(j, x)` `entries` (in the pinned order, walked once per
/// register tile and once for the tail).
#[inline(always)]
fn accumulate_row<I>(entries: I, w: &DenseMatrix, zero: &ZeroBlocks, out: &mut [f32])
where
    I: Iterator<Item = (usize, f32)> + Clone,
{
    let tiles = out.len() / TILE_LANES;
    let (tiled, tail) = out.split_at_mut(tiles * TILE_LANES);
    for (t, out_tile) in tiled.chunks_exact_mut(TILE_LANES).enumerate() {
        let lanes = t * TILE_LANES..(t + 1) * TILE_LANES;
        let mut acc = [0f32; TILE_LANES];
        for (j, v) in entries.clone() {
            let s: &[f32; TILE_LANES] = w.row(j)[lanes.clone()]
                .try_into()
                .expect("a tile is TILE_LANES wide");
            zero.axpy(j, 2 * t..2 * t + 2, v, s, &mut acc);
        }
        out_tile.copy_from_slice(&acc);
    }
    if !tail.is_empty() {
        let (lanes, blocks) = (tiles * TILE_LANES..w.cols(), 2 * tiles..zero.n_blocks);
        for (j, v) in entries {
            zero.axpy(j, blocks.clone(), v, &w.row(j)[lanes.clone()], tail);
        }
    }
}

/// `C = X × W` read row-major, bit-identical to [`csc_times_dense_blocked`]
/// on `X`'s CSC form (see [`row_major_times_dense_into`]).
///
/// # Errors
///
/// Returns [`SparseError::DimensionMismatch`] if `x.cols() != w.rows()`.
pub fn row_major_times_dense(x: RowOperand<'_>, w: &DenseMatrix) -> Result<DenseMatrix> {
    if x.cols() != w.rows() {
        return Err(SparseError::DimensionMismatch {
            left: (x.rows(), x.cols()),
            right: w.shape(),
            op: "row_major_times_dense",
        });
    }
    let mut out = vec![0f32; x.rows() * w.cols()];
    row_major_times_dense_into(x, w, &ZeroBlocks::of(w), 0..x.rows(), &mut out);
    DenseMatrix::from_vec(x.rows(), w.cols(), out)
}

/// `C = A * B` with `A` sparse (CSC) and `B` dense — the accelerator's
/// native schedule.
///
/// For each column `k` of `B` ("round" in the paper's terminology) and each
/// non-zero `b(j, k)`, the entire sparse column `A[:, j]` is scaled and
/// accumulated into `C[:, k]` through a column accumulator.
///
/// # Errors
///
/// Returns [`SparseError::DimensionMismatch`] if `a.cols() != b.rows()`.
///
/// # Example
///
/// ```
/// use awb_sparse::{Coo, DenseMatrix, spmm};
///
/// # fn main() -> Result<(), awb_sparse::SparseError> {
/// let mut a = Coo::new(2, 2);
/// a.push(0, 0, 2.0)?;
/// let b = DenseMatrix::from_rows(&[&[1.0], &[1.0]])?;
/// let c = spmm::csc_times_dense(&a.to_csc(), &b)?;
/// assert_eq!(c.get(0, 0), 2.0);
/// # Ok(())
/// # }
/// ```
pub fn csc_times_dense(a: &Csc, b: &DenseMatrix) -> Result<DenseMatrix> {
    if a.cols() != b.rows() {
        return Err(SparseError::DimensionMismatch {
            left: a.shape(),
            right: b.shape(),
            op: "csc_times_dense",
        });
    }
    let mut c = DenseMatrix::zeros(a.rows(), b.cols());
    let mut acc = vec![0f32; a.rows()];
    for k in 0..b.cols() {
        for j in 0..a.cols() {
            let bjk = b.get(j, k);
            if bjk == 0.0 {
                continue;
            }
            csc_axpy_column(a, j, bjk, &mut acc);
        }
        drain_column_into(&mut c, k, &mut acc);
    }
    Ok(c)
}

/// `C = A * B` with `A` sparse (CSR) and `B` dense — the conventional
/// row-major schedule, used as an independent second reference.
///
/// # Errors
///
/// Returns [`SparseError::DimensionMismatch`] if `a.cols() != b.rows()`.
pub fn csr_times_dense(a: &Csr, b: &DenseMatrix) -> Result<DenseMatrix> {
    if a.cols() != b.rows() {
        return Err(SparseError::DimensionMismatch {
            left: a.shape(),
            right: b.shape(),
            op: "csr_times_dense",
        });
    }
    let mut c = DenseMatrix::zeros(a.rows(), b.cols());
    for i in 0..a.rows() {
        for (j, aij) in a.row_entries(i) {
            let b_row = b.row(j);
            let c_row = c.row_mut(i);
            for (cv, bv) in c_row.iter_mut().zip(b_row) {
                *cv += aij * bv;
            }
        }
    }
    Ok(c)
}

/// `C = A * B` with both operands sparse (SpGEMM), returning a dense result.
///
/// GCN layers never need a sparse output (the result of `A × (XW)` is
/// near-dense — paper §3.3), so the dense result format is deliberate. The
/// inner accumulation runs over the borrowed output-row slice.
///
/// # Errors
///
/// Returns [`SparseError::DimensionMismatch`] if `a.cols() != b.rows()`.
pub fn csr_times_csr(a: &Csr, b: &Csr) -> Result<DenseMatrix> {
    if a.cols() != b.rows() {
        return Err(SparseError::DimensionMismatch {
            left: a.shape(),
            right: b.shape(),
            op: "csr_times_csr",
        });
    }
    let mut c = DenseMatrix::zeros(a.rows(), b.cols());
    for i in 0..a.rows() {
        let c_row = c.row_mut(i);
        for (j, aij) in a.row_entries(i) {
            for (k, bjk) in b.row_entries(j) {
                c_row[k] += aij * bjk;
            }
        }
    }
    Ok(c)
}

/// Number of scalar multiply-accumulate operations performed by
/// [`csc_times_dense`] for the given operands: one MAC per
/// (non-zero of `A[:, j]`, non-zero `b(j, k)`) pair.
///
/// This equals the number of *tasks* the accelerator dispatches to its PE
/// array for the same SPMM.
///
/// # Errors
///
/// Returns [`SparseError::DimensionMismatch`] if `a.cols() != b.rows()` —
/// the same validation as the kernels, so the count can never silently
/// disagree with [`csc_times_dense`] on mismatched shapes.
pub fn csc_times_dense_macs(a: &Csc, b: &DenseMatrix) -> Result<usize> {
    if a.cols() != b.rows() {
        return Err(SparseError::DimensionMismatch {
            left: a.shape(),
            right: b.shape(),
            op: "csc_times_dense_macs",
        });
    }
    let mut macs = 0usize;
    for k in 0..b.cols() {
        for j in 0..a.cols() {
            if b.get(j, k) != 0.0 {
                macs += a.col_nnz(j);
            }
        }
    }
    Ok(macs)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Coo;

    fn sparse_3x3() -> Coo {
        let mut a = Coo::new(3, 3);
        for (r, c, v) in [(0, 1, 2.0), (1, 1, -1.0), (2, 0, 3.0), (2, 2, 4.0)] {
            a.push(r, c, v).unwrap();
        }
        a
    }

    fn dense_3x2() -> DenseMatrix {
        DenseMatrix::from_rows(&[&[1.0, 2.0], &[3.0, 4.0], &[5.0, 6.0]]).unwrap()
    }

    #[test]
    fn csc_schedule_matches_dense_matmul() {
        let a = sparse_3x3();
        let b = dense_3x2();
        let expect = a.to_dense().matmul(&b).unwrap();
        let got = csc_times_dense(&a.to_csc(), &b).unwrap();
        assert!(got.approx_eq(&expect, 1e-6));
    }

    #[test]
    fn csr_schedule_matches_dense_matmul() {
        let a = sparse_3x3();
        let b = dense_3x2();
        let expect = a.to_dense().matmul(&b).unwrap();
        let got = csr_times_dense(&a.to_csr(), &b).unwrap();
        assert!(got.approx_eq(&expect, 1e-6));
    }

    #[test]
    fn spgemm_matches_dense() {
        let a = sparse_3x3();
        let b = sparse_3x3();
        let expect = a.to_dense().matmul(&b.to_dense()).unwrap();
        let got = csr_times_csr(&a.to_csr(), &b.to_csr()).unwrap();
        assert!(got.approx_eq(&expect, 1e-6));
    }

    #[test]
    fn axpy_column_accumulates_in_index_order() {
        let a = sparse_3x3().to_csc();
        let mut acc = vec![1.0f32; 3];
        csc_axpy_column(&a, 1, 2.0, &mut acc);
        // Column 1 holds (0, 2.0) and (1, -1.0).
        assert_eq!(acc, vec![5.0, -1.0, 1.0]);
    }

    #[test]
    fn dimension_mismatch_detected() {
        let a = sparse_3x3();
        let bad = DenseMatrix::zeros(2, 2);
        assert!(csc_times_dense(&a.to_csc(), &bad).is_err());
        assert!(csr_times_dense(&a.to_csr(), &bad).is_err());
        let bad_sparse = Coo::new(2, 2).to_csr();
        assert!(csr_times_csr(&a.to_csr(), &bad_sparse).is_err());
    }

    #[test]
    fn mac_count_matches_manual() {
        let a = sparse_3x3().to_csc();
        let b = dense_3x2(); // fully dense: every b(j,k) hits col j of A
                             // per column of B: nnz(A) = 4 MACs; 2 columns -> 8.
        assert_eq!(csc_times_dense_macs(&a, &b).unwrap(), 8);
        // Zero out one b entry -> subtract nnz of that column of A.
        let mut b2 = b.clone();
        b2.set(1, 0, 0.0); // column 1 of A has 2 nnz
        assert_eq!(csc_times_dense_macs(&a, &b2).unwrap(), 6);
    }

    #[test]
    fn mac_count_rejects_mismatched_shapes() {
        // The old implementation silently truncated to
        // a.cols().min(b.rows()) and returned a wrong-but-plausible count.
        let a = sparse_3x3().to_csc();
        let bad = DenseMatrix::from_rows(&[&[1.0], &[1.0]]).unwrap(); // 2 rows != 3 cols
        assert!(matches!(
            csc_times_dense_macs(&a, &bad),
            Err(SparseError::DimensionMismatch {
                op: "csc_times_dense_macs",
                ..
            })
        ));
    }

    #[test]
    fn drain_resets_negative_zero_residue() {
        // The old reset was folded into the `*v != 0.0` write guard, which
        // is false for -0.0: a negative-zero residue survived into the next
        // round-column. The reset must be unconditional.
        let mut c = DenseMatrix::zeros(3, 1);
        let mut acc = vec![1.5f32, -0.0, 0.0];
        drain_column_into(&mut c, 0, &mut acc);
        for (i, v) in acc.iter().enumerate() {
            assert_eq!(
                v.to_bits(),
                0.0f32.to_bits(),
                "acc[{i}] must be reset to +0.0"
            );
        }
        assert_eq!(c.get(0, 0), 1.5);
        // The -0.0 slot never held a non-zero value, so the output stays
        // the +0.0 it was initialised with.
        assert_eq!(c.get(1, 0).to_bits(), 0);
    }

    #[test]
    fn cancellation_columns_bit_identical_to_naive() {
        // Rows 0 and 1 cancel exactly in every output column (their B rows
        // are identical and their A entries are negations), exercising the
        // accumulator-reset path on exact-zero slots across all columns.
        let mut a = Coo::new(6, 6);
        a.push(0, 0, 0.75).unwrap();
        a.push(0, 1, -0.75).unwrap();
        a.push(1, 0, -0.5).unwrap();
        a.push(1, 1, 0.5).unwrap();
        for j in 0..6usize {
            a.push(2 + (j % 4), j, (j + 1) as f32 * 0.5).unwrap();
        }
        let mut b = DenseMatrix::zeros(6, 5);
        for (k, v) in [1.0f32, -1.0, 0.5, 0.0, -2.25].iter().enumerate() {
            b.set(0, k, *v);
            b.set(1, k, *v);
        }
        let csc = a.to_csc();
        let fast = csc_times_dense(&csc, &b).unwrap();
        for k in 0..5 {
            assert_eq!(fast.get(0, k).to_bits(), 0, "row 0 must cancel to +0.0");
            assert_eq!(fast.get(1, k).to_bits(), 0, "row 1 must cancel to +0.0");
        }
    }

    #[test]
    fn empty_operands() {
        let a = Coo::new(0, 0).to_csc();
        let b = DenseMatrix::zeros(0, 0);
        let c = csc_times_dense(&a, &b).unwrap();
        assert_eq!(c.shape(), (0, 0));
        assert_eq!(csc_times_dense_macs(&a, &b).unwrap(), 0);
        assert_eq!(csc_times_dense_blocked(&a, &b).unwrap().shape(), (0, 0));
    }

    /// A mid-sized pseudo-random operand pair for the blocked-kernel pins.
    fn blocked_fixture(cols: usize) -> (Csc, DenseMatrix) {
        let mut a = Coo::new(37, 31);
        for s in 0..140u32 {
            let r = (s.wrapping_mul(13).wrapping_add(5) % 37) as usize;
            let c = (s.wrapping_mul(23) % 31) as usize;
            a.push(r, c, ((s % 9) as f32) * 0.375 - 1.5).unwrap();
        }
        let b_data: Vec<f32> = (0..31 * cols)
            .map(|i| match i % 6 {
                0 => 0.0, // zero lanes ride along in every block
                5 => -((i % 11) as f32) * 0.25,
                _ => ((i % 7) as f32) - 3.0,
            })
            .collect();
        (a.to_csc(), DenseMatrix::from_vec(31, cols, b_data).unwrap())
    }

    #[test]
    fn blocked_bit_identical_to_scalar_across_widths() {
        // Widths straddling the lane count, including non-multiples of 8
        // (tail blocks of every width 1..=7) and the degenerate width 1.
        for cols in [1usize, 3, 4, 7, 8, 9, 12, 16, 19] {
            let (a, b) = blocked_fixture(cols);
            let scalar = csc_times_dense(&a, &b).unwrap();
            let blocked = csc_times_dense_blocked(&a, &b).unwrap();
            assert_eq!(scalar, blocked, "width {cols} must be bit-identical");
        }
    }

    #[test]
    fn blocked_handles_negative_zero_and_cancellation() {
        // Rows 0/1 of A are exact negations and share B rows -> every
        // output lane they touch cancels to +0.0; B also carries explicit
        // -0.0 entries, which the scalar path skips (`!= 0.0` is false)
        // and the blocked path rides through as a no-op lane.
        let mut a = Coo::new(6, 6);
        a.push(0, 0, 0.75).unwrap();
        a.push(0, 1, -0.75).unwrap();
        a.push(1, 0, -0.5).unwrap();
        a.push(1, 1, 0.5).unwrap();
        for j in 0..6usize {
            a.push(2 + (j % 4), j, (j + 1) as f32 * 0.5).unwrap();
        }
        let mut b = DenseMatrix::zeros(6, 10);
        for (k, v) in [1.0f32, -1.0, 0.5, 0.0, -2.25, -0.0, 3.5, -0.0, 0.125, -1.5]
            .iter()
            .enumerate()
        {
            b.set(0, k, *v);
            b.set(1, k, *v);
            b.set(2, k, if k % 3 == 0 { -0.0 } else { 0.25 });
        }
        let csc = a.to_csc();
        let scalar = csc_times_dense(&csc, &b).unwrap();
        let blocked = csc_times_dense_blocked(&csc, &b).unwrap();
        assert_eq!(scalar, blocked);
        for k in 0..10 {
            assert_eq!(
                blocked.get(0, k).to_bits(),
                0,
                "row 0 col {k} must cancel to +0.0"
            );
            assert_eq!(
                blocked.get(1, k).to_bits(),
                0,
                "row 1 col {k} must cancel to +0.0"
            );
        }
    }

    #[test]
    fn accumulate_into_sums_shards_and_lane_groups_in_place() {
        // Column shards of `A` reading `B`'s global rows, accumulated one
        // after another into the same output, and lane groups computed
        // separately: both equal the one-pass product bit for bit.
        let (a, b) = blocked_fixture(19);
        let whole = csc_times_dense_blocked(&a, &b).unwrap();
        let zero = ZeroBlocks::of(&b);
        let mut out = vec![0f32; a.rows() * 19];
        for cols in [0..9, 9..10, 10..31] {
            let start = cols.start;
            csc_accumulate_into(&a.col_range(cols), &b, start, &zero, 0..19, &mut out);
        }
        assert_eq!(DenseMatrix::from_vec(a.rows(), 19, out).unwrap(), whole);
        for lanes in [0..8, 8..16, 16..19, 8..19] {
            let mut group = vec![0f32; a.rows() * lanes.len()];
            csc_accumulate_into(&a, &b, 0, &zero, lanes.clone(), &mut group);
            for i in 0..a.rows() {
                let got = &group[i * lanes.len()..(i + 1) * lanes.len()];
                assert_eq!(got, &whole.row(i)[lanes.clone()], "row {i} lanes {lanes:?}");
            }
        }
    }

    #[test]
    fn blocked_dimension_mismatch_detected() {
        let a = sparse_3x3();
        let bad = DenseMatrix::zeros(2, 2);
        assert!(matches!(
            csc_times_dense_blocked(&a.to_csc(), &bad),
            Err(SparseError::DimensionMismatch {
                op: "csc_times_dense_blocked",
                ..
            })
        ));
    }
}
