//! Reference multiply kernels.
//!
//! These are the software ground truth that the accelerator simulator's
//! functional output is cross-checked against. `csc_times_dense` mirrors the
//! accelerator's own column-streaming schedule (paper Eq. 4 / Fig. 5):
//! for each output column `k`, each non-zero `b(j,k)` of the dense operand
//! is broadcast to the whole column `j` of the sparse operand.
//!
//! The production kernels accumulate through flat slices
//! ([`csc_axpy_column`], `DenseMatrix::row_mut`) instead of per-element
//! `get`/`set`; the original per-element implementations are retained as
//! `*_naive` for the `kernels` criterion group and for exact-equivalence
//! tests (both orderings perform the identical sequence of f32 additions
//! per output element, so results are bit-identical).

use crate::{Csc, Csr, DenseMatrix, Result, SparseError};

/// Accumulates `scale × A[:, j]` into the column accumulator `acc`
/// (`acc[i] += a(i, j) * scale` for every non-zero of column `j`).
///
/// This is the tight inner kernel of the accelerator's column-streaming
/// schedule: one call per non-zero `b(j, k)` of the dense operand, walking
/// the CSC column slice in index order. The simulator's replay path uses it
/// for the numerics of rounds whose queue dynamics are served from cache.
///
/// # Panics
///
/// Panics if `j >= a.cols()` or `acc.len() < a.rows()`.
#[inline]
pub fn csc_axpy_column(a: &Csc, j: usize, scale: f32, acc: &mut [f32]) {
    let lo = a.col_ptr()[j];
    let hi = a.col_ptr()[j + 1];
    for (&i, &v) in a.row_idx()[lo..hi].iter().zip(&a.values()[lo..hi]) {
        acc[i as usize] += v * scale;
    }
}

/// Writes the non-zero entries of the column accumulator `acc` into column
/// `k` of `c`, then resets `acc` to all-`+0.0` for the next round-column.
///
/// The *write* stays conditional (`*v != 0.0`) so the fast kernel performs
/// the identical sequence of `DenseMatrix::set` calls as the naive
/// reference and stays bit-identical to it. The *reset* is unconditional:
/// `-0.0 != 0.0` is `false` in IEEE-754, so a conditional reset would skip
/// `-0.0` slots and leak the sign bit into every later column that touches
/// the same row.
///
/// # Panics
///
/// Panics if `acc.len() != c.rows()` or `k >= c.cols()`.
#[inline]
pub fn drain_column_into(c: &mut DenseMatrix, k: usize, acc: &mut [f32]) {
    assert_eq!(acc.len(), c.rows(), "accumulator length must match rows");
    for (i, v) in acc.iter_mut().enumerate() {
        if *v != 0.0 {
            c.set(i, k, *v);
        }
        *v = 0.0;
    }
}

/// Lane count of the blocked accumulate kernels: B-columns are processed
/// in blocks of up to this many `f32` lanes per accumulator row, sized so
/// one row's lane group fills a single 256-bit vector register.
pub const ACC_BLOCK_LANES: usize = 8;

/// The innermost blocked loop, monomorphized per lane count so the
/// compiler sees a fixed-width `[f32; L]` FMA group it can vectorize.
#[inline(always)]
fn axpy_lanes<const L: usize>(a: &Csc, j: usize, scales: &[f32; L], acc: &mut [f32]) {
    let lo = a.col_ptr()[j];
    let hi = a.col_ptr()[j + 1];
    for (&i, &v) in a.row_idx()[lo..hi].iter().zip(&a.values()[lo..hi]) {
        let base = i as usize * L;
        let dst: &mut [f32; L] = (&mut acc[base..base + L]).try_into().unwrap();
        for l in 0..L {
            dst[l] += v * scales[l];
        }
    }
}

/// Blocked form of [`csc_axpy_column`]: accumulates `scales[l] × A[:, j]`
/// into lane `l` of the block accumulator for every lane at once.
///
/// `acc` is row-major over lanes — `acc[i * W + l]` holds output element
/// `(i, k0 + l)` for block width `W = scales.len()` — so each non-zero of
/// the sparse column touches one contiguous `W`-lane group, which the
/// compiler vectorizes for the fixed widths ([`ACC_BLOCK_LANES`] and its
/// half). Width 1 degenerates to the scalar kernel's addition sequence.
///
/// # Panics
///
/// Panics if `j >= a.cols()` or `acc.len() < a.rows() * scales.len()`.
#[inline]
pub fn csc_axpy_block(a: &Csc, j: usize, scales: &[f32], acc: &mut [f32]) {
    match scales.len() {
        8 => axpy_lanes::<8>(a, j, scales.try_into().unwrap(), acc),
        4 => axpy_lanes::<4>(a, j, scales.try_into().unwrap(), acc),
        w => {
            let lo = a.col_ptr()[j];
            let hi = a.col_ptr()[j + 1];
            for (&i, &v) in a.row_idx()[lo..hi].iter().zip(&a.values()[lo..hi]) {
                let base = i as usize * w;
                for (dst, &s) in acc[base..base + w].iter_mut().zip(scales) {
                    *dst += v * s;
                }
            }
        }
    }
}

/// Accumulates the numerics of output columns `k0 .. k0 + width` into the
/// block accumulator `acc` (layout as in [`csc_axpy_block`]).
///
/// # Pinned reduction order (bit-identity with the scalar kernels)
///
/// The scalar schedule visits, per output column `k`, the non-zero
/// `b(j, k)` in ascending `j` and adds `a(i, j) * b(j, k)` in CSC index
/// order. This kernel iterates `j` ascending over the *union* of the
/// block's column patterns and lets zero lanes ride along: for a lane
/// where `b(j, k0 + l)` is `±0.0`, the addition `acc += v * (±0.0)` is a
/// bit-exact no-op, because the accumulator is never `-0.0` (it starts
/// `+0.0`, `(+0.0) + (-0.0) = +0.0` in round-to-nearest, and an exact
/// cancellation yields `+0.0`). Every value-changing addition therefore
/// happens in exactly the scalar order, and the result is bit-identical
/// to [`csc_times_dense`] — asserted by tests and proptests.
///
/// The no-op argument needs *finite* operands (`inf × 0.0` is NaN); the
/// engines guarantee this via ingest validation, and the graph/feature
/// loaders reject non-finite tokens at parse.
///
/// # Panics
///
/// Panics if `a.cols() != b.rows()`, `k0 + width > b.cols()`, or
/// `acc.len() < a.rows() * width`.
pub fn csc_accumulate_block(a: &Csc, b: &DenseMatrix, k0: usize, width: usize, acc: &mut [f32]) {
    assert_eq!(a.cols(), b.rows(), "operand dimensions must agree");
    for j in 0..a.cols() {
        let scales = &b.row(j)[k0..k0 + width];
        if scales.iter().all(|&s| s == 0.0) {
            continue;
        }
        csc_axpy_block(a, j, scales, acc);
    }
}

/// Blocked form of [`drain_column_into`]: writes the non-zero entries of
/// the block accumulator into columns `k0 .. k0 + width` of `c` (one
/// contiguous row-slice store per accumulator row), then resets `acc` to
/// all-`+0.0`. The write stays conditional (`!= 0.0`, matching the scalar
/// drain's `DenseMatrix::set` sequence) and the reset unconditional (a
/// `-0.0` residue must not leak into the next block).
///
/// # Panics
///
/// Panics if `acc.len() != c.rows() * width` or `k0 + width > c.cols()`.
pub fn drain_block_into(c: &mut DenseMatrix, k0: usize, width: usize, acc: &mut [f32]) {
    assert_eq!(
        acc.len(),
        c.rows() * width,
        "block accumulator length must match rows × width"
    );
    for (i, src) in acc.chunks_exact_mut(width).enumerate() {
        let dst = &mut c.row_mut(i)[k0..k0 + width];
        for (d, s) in dst.iter_mut().zip(src.iter_mut()) {
            if *s != 0.0 {
                *d = *s;
            }
            *s = 0.0;
        }
    }
}

/// Blocked form of [`csc_times_dense`]: processes B-columns in
/// [`ACC_BLOCK_LANES`]-wide blocks (narrower final block for widths not
/// divisible by the lane count) through [`csc_accumulate_block`]. The
/// result is bit-identical to [`csc_times_dense`] — the pinned reduction
/// order is the whole point (see [`csc_accumulate_block`]); this is the
/// raw-speed variant, walking `A`'s non-zeros once per *block* instead of
/// once per column.
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
    let mut c = DenseMatrix::zeros(a.rows(), b.cols());
    let mut acc = vec![0f32; a.rows() * ACC_BLOCK_LANES.min(b.cols())];
    let mut k0 = 0;
    while k0 < b.cols() {
        let width = ACC_BLOCK_LANES.min(b.cols() - k0);
        let block = &mut acc[..a.rows() * width];
        csc_accumulate_block(a, b, k0, width, block);
        drain_block_into(&mut c, k0, width, block);
        k0 += width;
    }
    Ok(c)
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

/// Which [`ACC_BLOCK_LANES`]-wide column blocks of each row of `W` are
/// all `±0.0` — the `(j, block)` pairs [`csc_accumulate_block`] skips.
struct ZeroBlocks {
    n_blocks: usize,
    zero: Vec<bool>,
    any: bool,
}

impl ZeroBlocks {
    fn of(w: &DenseMatrix) -> Self {
        let n_blocks = w.cols().div_ceil(ACC_BLOCK_LANES);
        let zero: Vec<bool> = (0..w.rows())
            .flat_map(|j| {
                w.row(j)
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

    /// `out += x × W[j, :]` over the blocks the column kernel would visit.
    #[inline]
    fn axpy(&self, j: usize, x: f32, w: &DenseMatrix, out: &mut [f32]) {
        let w_row = w.row(j);
        if !self.any {
            for (o, &s) in out.iter_mut().zip(w_row) {
                *o += x * s;
            }
            return;
        }
        let zero = &self.zero[j * self.n_blocks..(j + 1) * self.n_blocks];
        let blocks = out
            .chunks_mut(ACC_BLOCK_LANES)
            .zip(w_row.chunks(ACC_BLOCK_LANES));
        for ((o, s), &skip) in blocks.zip(zero) {
            if !skip {
                for (o, &s) in o.iter_mut().zip(s) {
                    *o += x * s;
                }
            }
        }
    }
}

/// Accumulates rows `rows` of `C = X × W` into `out` (row-major,
/// `rows.len() × w.cols()`, expected all `+0.0`), reading `X` row by row.
///
/// # Pinned reduction order
///
/// Output element `(i, k)` receives `x(i, j) · w(j, k)` for the stored
/// `j` of row `i` in ascending order (a row stored out of order is
/// visited sorted, stably, so duplicates keep their stored order),
/// skipping the `(j, block)` pairs whose `W` block is all zero. That is
/// the exact addition sequence [`csc_accumulate_block`] performs for the
/// same element on `X`'s CSC transpose, so the result is bit-identical to
/// [`csc_times_dense_blocked`] — for non-finite values too — while no
/// transpose of `X`'s values is ever built.
///
/// # Panics
///
/// Panics if `x.cols() != w.rows()`, `rows.end > x.rows()`, or
/// `out.len() != rows.len() * w.cols()`.
pub fn row_major_times_dense_into(
    x: RowOperand<'_>,
    w: &DenseMatrix,
    rows: std::ops::Range<usize>,
    out: &mut [f32],
) {
    assert_eq!(x.cols(), w.rows(), "operand dimensions must agree");
    assert!(rows.end <= x.rows(), "row range {rows:?} out of bounds");
    assert_eq!(out.len(), rows.len() * w.cols(), "output slice size");
    if w.cols() == 0 {
        return;
    }
    let blocks = ZeroBlocks::of(w);
    for (i, out_row) in rows.zip(out.chunks_exact_mut(w.cols())) {
        match x {
            RowOperand::Sparse(x) => {
                let span = x.row_ptr()[i]..x.row_ptr()[i + 1];
                let cols = &x.col_idx()[span.clone()];
                let values = &x.values()[span];
                if cols.windows(2).all(|p| p[0] <= p[1]) {
                    for (&j, &v) in cols.iter().zip(values) {
                        blocks.axpy(j as usize, v, w, out_row);
                    }
                } else {
                    let mut entries: Vec<(u32, f32)> =
                        cols.iter().copied().zip(values.iter().copied()).collect();
                    entries.sort_by_key(|&(j, _)| j);
                    for (j, v) in entries {
                        blocks.axpy(j as usize, v, w, out_row);
                    }
                }
            }
            RowOperand::Dense(x) => {
                for (j, &v) in x.row(i).iter().enumerate() {
                    if v != 0.0 {
                        blocks.axpy(j, v, w, out_row);
                    }
                }
            }
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
    row_major_times_dense_into(x, w, 0..x.rows(), &mut out);
    DenseMatrix::from_vec(x.rows(), w.cols(), out)
}

/// `C = A * B` with `A` sparse (CSC) and `B` dense — the accelerator's
/// native schedule.
///
/// For each column `k` of `B` ("round" in the paper's terminology) and each
/// non-zero `b(j, k)`, the entire sparse column `A[:, j]` is scaled and
/// accumulated into `C[:, k]` via [`csc_axpy_column`].
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

/// Per-element reference implementation of [`csc_times_dense`], retained
/// for the `kernels` criterion group and bit-exactness tests.
///
/// # Errors
///
/// Returns [`SparseError::DimensionMismatch`] if `a.cols() != b.rows()`.
pub fn csc_times_dense_naive(a: &Csc, b: &DenseMatrix) -> Result<DenseMatrix> {
    if a.cols() != b.rows() {
        return Err(SparseError::DimensionMismatch {
            left: a.shape(),
            right: b.shape(),
            op: "csc_times_dense_naive",
        });
    }
    let mut c = DenseMatrix::zeros(a.rows(), b.cols());
    for k in 0..b.cols() {
        for j in 0..a.cols() {
            let bjk = b.get(j, k);
            if bjk == 0.0 {
                continue;
            }
            for (i, aij) in a.col_entries(j) {
                let cur = c.get(i, k);
                c.set(i, k, cur + aij * bjk);
            }
        }
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

/// Per-element reference implementation of [`csr_times_csr`], retained for
/// the `kernels` criterion group and bit-exactness tests.
///
/// # Errors
///
/// Returns [`SparseError::DimensionMismatch`] if `a.cols() != b.rows()`.
pub fn csr_times_csr_naive(a: &Csr, b: &Csr) -> Result<DenseMatrix> {
    if a.cols() != b.rows() {
        return Err(SparseError::DimensionMismatch {
            left: a.shape(),
            right: b.shape(),
            op: "csr_times_csr_naive",
        });
    }
    let mut c = DenseMatrix::zeros(a.rows(), b.cols());
    for i in 0..a.rows() {
        for (j, aij) in a.row_entries(i) {
            for (k, bjk) in b.row_entries(j) {
                let cur = c.get(i, k);
                c.set(i, k, cur + aij * bjk);
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
    fn slice_kernels_bit_identical_to_naive() {
        // Same per-element f32 addition order -> exact equality, not approx.
        let mut a = Coo::new(24, 24);
        for s in 0..96u32 {
            let r = (s.wrapping_mul(17) % 24) as usize;
            let c = (s.wrapping_mul(29) % 24) as usize;
            a.push(r, c, (s % 11) as f32 * 0.25 - 1.0).unwrap();
        }
        let b_data: Vec<f32> = (0..24 * 5).map(|i| ((i % 7) as f32) - 3.0).collect();
        let b = DenseMatrix::from_vec(24, 5, b_data).unwrap();
        assert_eq!(
            csc_times_dense(&a.to_csc(), &b).unwrap(),
            csc_times_dense_naive(&a.to_csc(), &b).unwrap()
        );
        assert_eq!(
            csr_times_csr(&a.to_csr(), &a.to_csr()).unwrap(),
            csr_times_csr_naive(&a.to_csr(), &a.to_csr()).unwrap()
        );
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
        assert!(csc_times_dense_naive(&a.to_csc(), &bad).is_err());
        assert!(csr_times_dense(&a.to_csr(), &bad).is_err());
        let bad_sparse = Coo::new(2, 2).to_csr();
        assert!(csr_times_csr(&a.to_csr(), &bad_sparse).is_err());
        assert!(csr_times_csr_naive(&a.to_csr(), &bad_sparse).is_err());
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
        let naive = csc_times_dense_naive(&csc, &b).unwrap();
        assert_eq!(fast, naive);
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
            assert_eq!(csc_times_dense_naive(&a, &b).unwrap(), blocked);
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
    fn blocked_drain_resets_block_to_positive_zero() {
        let mut c = DenseMatrix::zeros(2, 5);
        // Block covering columns 1..4 (width 3, off-origin).
        let mut acc = vec![1.5f32, -0.0, 0.0, 0.0, 2.5, -0.75];
        drain_block_into(&mut c, 1, 3, &mut acc);
        for (i, v) in acc.iter().enumerate() {
            assert_eq!(v.to_bits(), 0, "acc[{i}] must reset to +0.0");
        }
        assert_eq!(c.get(0, 1), 1.5);
        assert_eq!(c.get(0, 2).to_bits(), 0, "-0.0 residue must not be written");
        assert_eq!(c.get(1, 2), 2.5);
        assert_eq!(c.get(1, 3), -0.75);
        assert_eq!(c.get(0, 0).to_bits(), 0);
        assert_eq!(c.get(0, 4).to_bits(), 0);
    }

    #[test]
    fn blocked_axpy_matches_scalar_axpy_per_lane() {
        let (a, b) = blocked_fixture(8);
        let rows = a.rows();
        let mut block_acc = vec![0f32; rows * 8];
        for j in 0..a.cols() {
            csc_axpy_block(&a, j, &b.row(j)[0..8], &mut block_acc);
        }
        for l in 0..8 {
            let mut acc = vec![0f32; rows];
            for j in 0..a.cols() {
                // Mirror the blocked kernel: zero scales ride along (they
                // are bit-exact no-ops), so no skip here either.
                csc_axpy_column(&a, j, b.get(j, l), &mut acc);
            }
            for i in 0..rows {
                assert_eq!(
                    acc[i].to_bits(),
                    block_acc[i * 8 + l].to_bits(),
                    "lane {l} row {i}"
                );
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
