use crate::{Coo, Result, SparseError};

/// A row-major dense `f32` matrix.
///
/// Used for the dense operands of the accelerator (the weight matrices `W`
/// and the intermediate `XW` products) and as the ground-truth result format
/// for functional verification.
///
/// # Example
///
/// ```
/// use awb_sparse::DenseMatrix;
///
/// # fn main() -> Result<(), awb_sparse::SparseError> {
/// let m = DenseMatrix::from_rows(&[&[1.0, 2.0], &[3.0, 4.0]])?;
/// assert_eq!(m.get(1, 0), 3.0);
/// assert_eq!(m.transpose().get(0, 1), 3.0);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone, PartialEq, Default)]
pub struct DenseMatrix {
    rows: usize,
    cols: usize,
    data: Vec<f32>,
}

impl DenseMatrix {
    /// Creates a `rows x cols` matrix of zeros.
    ///
    /// ```
    /// use awb_sparse::DenseMatrix;
    /// let z = DenseMatrix::zeros(2, 3);
    /// assert_eq!(z.shape(), (2, 3));
    /// assert_eq!(z.nnz(), 0);
    /// ```
    pub fn zeros(rows: usize, cols: usize) -> Self {
        DenseMatrix {
            rows,
            cols,
            data: vec![0.0; rows * cols],
        }
    }

    /// Builds a matrix from row slices.
    ///
    /// # Errors
    ///
    /// Returns [`SparseError::RaggedRows`] if the rows have differing
    /// lengths.
    pub fn from_rows<R: AsRef<[f32]>>(rows: &[R]) -> Result<Self> {
        let n_cols = rows.first().map_or(0, |r| r.as_ref().len());
        let mut data = Vec::with_capacity(rows.len() * n_cols);
        for (i, r) in rows.iter().enumerate() {
            let r = r.as_ref();
            if r.len() != n_cols {
                return Err(SparseError::RaggedRows {
                    expected: n_cols,
                    row: i,
                    found: r.len(),
                });
            }
            data.extend_from_slice(r);
        }
        Ok(DenseMatrix {
            rows: rows.len(),
            cols: n_cols,
            data,
        })
    }

    /// Builds a matrix from a flat row-major vector.
    ///
    /// # Errors
    ///
    /// Returns [`SparseError::MalformedFormat`] if `data.len() != rows * cols`.
    pub fn from_vec(rows: usize, cols: usize, data: Vec<f32>) -> Result<Self> {
        if data.len() != rows * cols {
            return Err(SparseError::MalformedFormat(format!(
                "dense data length {} != {rows} * {cols}",
                data.len()
            )));
        }
        Ok(DenseMatrix { rows, cols, data })
    }

    /// Number of rows.
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Number of columns.
    pub fn cols(&self) -> usize {
        self.cols
    }

    /// `(rows, cols)` pair.
    pub fn shape(&self) -> (usize, usize) {
        (self.rows, self.cols)
    }

    /// Value at `(row, col)`.
    ///
    /// # Panics
    ///
    /// Panics if the index is out of bounds.
    #[inline]
    pub fn get(&self, row: usize, col: usize) -> f32 {
        assert!(
            row < self.rows && col < self.cols,
            "index ({row}, {col}) out of bounds for {}x{}",
            self.rows,
            self.cols
        );
        self.data[row * self.cols + col]
    }

    /// Sets the value at `(row, col)`.
    ///
    /// # Panics
    ///
    /// Panics if the index is out of bounds.
    #[inline]
    pub fn set(&mut self, row: usize, col: usize, value: f32) {
        assert!(
            row < self.rows && col < self.cols,
            "index ({row}, {col}) out of bounds for {}x{}",
            self.rows,
            self.cols
        );
        self.data[row * self.cols + col] = value;
    }

    /// Borrows row `row` as a slice.
    ///
    /// # Panics
    ///
    /// Panics if `row >= self.rows()`.
    #[inline]
    pub fn row(&self, row: usize) -> &[f32] {
        assert!(row < self.rows, "row {row} out of bounds");
        &self.data[row * self.cols..(row + 1) * self.cols]
    }

    /// Mutably borrows row `row`.
    ///
    /// # Panics
    ///
    /// Panics if `row >= self.rows()`.
    #[inline]
    pub fn row_mut(&mut self, row: usize) -> &mut [f32] {
        assert!(row < self.rows, "row {row} out of bounds");
        &mut self.data[row * self.cols..(row + 1) * self.cols]
    }

    /// Copies column `col` into a new vector.
    ///
    /// The accelerator streams the dense operand column by column; this is
    /// the software analogue of one "round" worth of input.
    ///
    /// # Panics
    ///
    /// Panics if `col >= self.cols()`.
    pub fn column(&self, col: usize) -> Vec<f32> {
        assert!(col < self.cols, "column {col} out of bounds");
        (0..self.rows).map(|r| self.get(r, col)).collect()
    }

    /// The underlying row-major data.
    pub fn as_slice(&self) -> &[f32] {
        &self.data
    }

    /// Heap bytes held by the row-major backing vector — the size-estimate
    /// input for plan-cache memory budgeting.
    pub fn heap_bytes(&self) -> usize {
        self.data.len() * std::mem::size_of::<f32>()
    }

    /// Consumes the matrix and returns the row-major data.
    pub fn into_vec(self) -> Vec<f32> {
        self.data
    }

    /// Number of non-zero entries.
    pub fn nnz(&self) -> usize {
        self.data.iter().filter(|v| **v != 0.0).count()
    }

    /// Fraction of entries that are non-zero (`nnz / (rows*cols)`).
    ///
    /// Returns 0.0 for an empty matrix.
    pub fn density(&self) -> f64 {
        if self.data.is_empty() {
            0.0
        } else {
            self.nnz() as f64 / self.data.len() as f64
        }
    }

    /// Copies the row block `range` into a standalone matrix. Row-major
    /// storage makes this one contiguous slice copy — the dense mirror of
    /// [`Csr::row_range`](crate::Csr::row_range): the dense operand
    /// `B[lo..hi, :]` that a column shard `A[:, lo..hi]` multiplies, for
    /// callers that want it standalone (the engines read `B`'s rows in
    /// place).
    ///
    /// # Panics
    ///
    /// Panics if `range.end > self.rows()` or `range.start > range.end`.
    pub fn row_range(&self, range: std::ops::Range<usize>) -> DenseMatrix {
        assert!(
            range.start <= range.end && range.end <= self.rows,
            "row range {range:?} out of bounds for {} rows",
            self.rows
        );
        DenseMatrix {
            rows: range.len(),
            cols: self.cols,
            data: self.data[range.start * self.cols..range.end * self.cols].to_vec(),
        }
    }

    /// Returns the transposed matrix.
    pub fn transpose(&self) -> DenseMatrix {
        let mut t = DenseMatrix::zeros(self.cols, self.rows);
        for r in 0..self.rows {
            for c in 0..self.cols {
                t.set(c, r, self.get(r, c));
            }
        }
        t
    }

    /// Applies ReLU (`max(0, x)`) element-wise, in place.
    ///
    /// This is the activation `σ(.)` of the paper's Eq. 1.
    /// A select, not a conditional store, so the loop vectorizes: NaN and
    /// `−0.0` pass through unchanged (`v < 0.0` is false for both).
    pub fn relu_in_place(&mut self) {
        for v in &mut self.data {
            *v = if *v < 0.0 { 0.0 } else { *v };
        }
    }

    /// Returns a ReLU-ed copy.
    pub fn relu(&self) -> DenseMatrix {
        let mut out = self.clone();
        out.relu_in_place();
        out
    }

    /// Dense-dense matrix product `self * rhs`.
    ///
    /// # Errors
    ///
    /// Returns [`SparseError::DimensionMismatch`] if
    /// `self.cols() != rhs.rows()`.
    pub fn matmul(&self, rhs: &DenseMatrix) -> Result<DenseMatrix> {
        if self.cols != rhs.rows {
            return Err(SparseError::DimensionMismatch {
                left: self.shape(),
                right: rhs.shape(),
                op: "matmul",
            });
        }
        let mut out = DenseMatrix::zeros(self.rows, rhs.cols);
        for i in 0..self.rows {
            for k in 0..self.cols {
                let a = self.get(i, k);
                if a == 0.0 {
                    continue;
                }
                let rhs_row = rhs.row(k);
                let out_row = out.row_mut(i);
                for (o, b) in out_row.iter_mut().zip(rhs_row) {
                    *o += a * b;
                }
            }
        }
        Ok(out)
    }

    /// Converts directly to CSC, keeping every entry with `v != 0.0` —
    /// NaN included: a non-finite hidden feature must reach the next layer
    /// as the software reference sees it, not be silently zeroed.
    ///
    /// On finite data this equals `self.to_coo(0.0).to_csc()` — same
    /// entries, same within-column row order — without materializing the
    /// intermediate triplet list.
    pub fn to_csc(&self) -> crate::Csc {
        let (col_ptr, row_idx, values) = self.compress_columns::<true>();
        crate::Csc::from_parts(self.rows, self.cols, col_ptr, row_idx, values)
            .expect("column scan produces a well-formed CSC")
    }

    /// The column structure [`to_csc`](DenseMatrix::to_csc) would build
    /// (same entries, same order), without copying values. This is the
    /// inter-layer hot path of the GCN runner: the ReLU-dense hidden
    /// features re-enter the accelerator as the next layer's sparse
    /// operand, whose timing needs only the structure while the numerics
    /// read this matrix row by row.
    pub fn to_csc_pattern(&self) -> crate::CscPattern {
        let (col_ptr, row_idx, _) = self.compress_columns::<false>();
        crate::CscPattern::from_parts_trusted(self.rows, self.cols, col_ptr, row_idx)
    }

    /// The CSC arrays of the entries `v != 0.0` (values only with
    /// `VALUES`). No branch depends on an entry: one pass packs each row's
    /// predicate into 64-column bitmask words while counting per column,
    /// and the scatter then visits only the set bits of each word. Rows
    /// are scattered in ascending order, so each column bucket is filled
    /// in ascending row order — exactly the sorted order `Coo::to_csc`'s
    /// compression produces.
    fn compress_columns<const VALUES: bool>(&self) -> (Vec<usize>, Vec<u32>, Vec<f32>) {
        const WORD: usize = u64::BITS as usize;
        let mut col_ptr = vec![0usize; self.cols + 1];
        if self.cols == 0 {
            return (col_ptr, Vec::new(), Vec::new());
        }
        let words = self.cols.div_ceil(WORD);
        let mut masks = vec![0u64; self.rows * words];
        for (row, row_masks) in self
            .data
            .chunks_exact(self.cols)
            .zip(masks.chunks_exact_mut(words))
        {
            let spans = row.chunks(WORD).zip(col_ptr[1..].chunks_mut(WORD));
            for ((span, counts), mask) in spans.zip(row_masks) {
                let mut bits = 0u64;
                for (bit, (&v, count)) in span.iter().zip(counts).enumerate() {
                    let nonzero = v != 0.0;
                    bits |= u64::from(nonzero) << bit;
                    *count += usize::from(nonzero);
                }
                *mask = bits;
            }
        }
        for c in 0..self.cols {
            col_ptr[c + 1] += col_ptr[c];
        }
        let nnz = col_ptr[self.cols];
        let mut row_idx = vec![0u32; nnz];
        let mut values = vec![0.0f32; if VALUES { nnz } else { 0 }];
        let mut cursor = col_ptr[..self.cols].to_vec();
        for (r, row_masks) in masks.chunks_exact(words).enumerate() {
            let row = &self.data[r * self.cols..(r + 1) * self.cols];
            for (w, &mask) in row_masks.iter().enumerate() {
                let mut bits = mask;
                while bits != 0 {
                    let c = w * WORD + bits.trailing_zeros() as usize;
                    let p = cursor[c];
                    row_idx[p] = r as u32;
                    if VALUES {
                        values[p] = row[c];
                    }
                    cursor[c] += 1;
                    bits &= bits - 1;
                }
            }
        }
        (col_ptr, row_idx, values)
    }

    /// Converts to COO, keeping entries with `|v| > threshold`.
    pub fn to_coo(&self, threshold: f32) -> Coo {
        let mut coo = Coo::new(self.rows, self.cols);
        for r in 0..self.rows {
            for c in 0..self.cols {
                let v = self.get(r, c);
                if v.abs() > threshold {
                    coo.push(r, c, v).expect("index in bounds by construction");
                }
            }
        }
        coo
    }

    /// True when every entry differs from `other` by at most `tol`.
    ///
    /// Returns `false` when shapes differ. Used for functional equivalence
    /// checks between the accelerator and the software reference.
    pub fn approx_eq(&self, other: &DenseMatrix, tol: f32) -> bool {
        self.shape() == other.shape()
            && self
                .data
                .iter()
                .zip(&other.data)
                .all(|(a, b)| (a - b).abs() <= tol)
    }

    /// Largest absolute element-wise difference to `other`.
    ///
    /// # Errors
    ///
    /// Returns [`SparseError::DimensionMismatch`] when shapes differ.
    pub fn max_abs_diff(&self, other: &DenseMatrix) -> Result<f32> {
        if self.shape() != other.shape() {
            return Err(SparseError::DimensionMismatch {
                left: self.shape(),
                right: other.shape(),
                op: "max_abs_diff",
            });
        }
        Ok(self
            .data
            .iter()
            .zip(&other.data)
            .map(|(a, b)| (a - b).abs())
            .fold(0.0, f32::max))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn zeros_and_shape() {
        let m = DenseMatrix::zeros(3, 4);
        assert_eq!(m.shape(), (3, 4));
        assert_eq!(m.rows(), 3);
        assert_eq!(m.cols(), 4);
        assert_eq!(m.nnz(), 0);
        assert_eq!(m.density(), 0.0);
    }

    #[test]
    fn from_rows_rejects_ragged() {
        let err = DenseMatrix::from_rows(&[&[1.0, 2.0][..], &[3.0][..]]).unwrap_err();
        assert_eq!(
            err,
            SparseError::RaggedRows {
                expected: 2,
                row: 1,
                found: 1
            }
        );
    }

    #[test]
    fn from_vec_checks_length() {
        assert!(DenseMatrix::from_vec(2, 2, vec![0.0; 3]).is_err());
        assert!(DenseMatrix::from_vec(2, 2, vec![0.0; 4]).is_ok());
    }

    #[test]
    fn get_set_roundtrip() {
        let mut m = DenseMatrix::zeros(2, 2);
        m.set(1, 0, 5.0);
        assert_eq!(m.get(1, 0), 5.0);
        assert_eq!(m.nnz(), 1);
        assert!((m.density() - 0.25).abs() < 1e-12);
    }

    #[test]
    #[should_panic(expected = "out of bounds")]
    fn get_out_of_bounds_panics() {
        DenseMatrix::zeros(2, 2).get(2, 0);
    }

    #[test]
    fn row_and_column_views() {
        let m = DenseMatrix::from_rows(&[&[1.0, 2.0], &[3.0, 4.0]]).unwrap();
        assert_eq!(m.row(0), &[1.0, 2.0]);
        assert_eq!(m.column(1), vec![2.0, 4.0]);
    }

    #[test]
    fn transpose_involution() {
        let m = DenseMatrix::from_rows(&[&[1.0, 2.0, 3.0], &[4.0, 5.0, 6.0]]).unwrap();
        assert_eq!(m.transpose().transpose(), m);
        assert_eq!(m.transpose().shape(), (3, 2));
        assert_eq!(m.transpose().get(2, 1), 6.0);
    }

    #[test]
    fn relu_clamps_negatives() {
        let mut m = DenseMatrix::from_rows(&[&[-1.0, 2.0], &[0.0, -3.5]]).unwrap();
        m.relu_in_place();
        assert_eq!(m.as_slice(), &[0.0, 2.0, 0.0, 0.0]);
    }

    #[test]
    fn matmul_small() {
        let a = DenseMatrix::from_rows(&[&[1.0, 2.0], &[3.0, 4.0]]).unwrap();
        let b = DenseMatrix::from_rows(&[&[5.0, 6.0], &[7.0, 8.0]]).unwrap();
        let c = a.matmul(&b).unwrap();
        assert_eq!(c.as_slice(), &[19.0, 22.0, 43.0, 50.0]);
    }

    #[test]
    fn matmul_dimension_mismatch() {
        let a = DenseMatrix::zeros(2, 3);
        let b = DenseMatrix::zeros(2, 3);
        assert!(matches!(
            a.matmul(&b),
            Err(SparseError::DimensionMismatch { op: "matmul", .. })
        ));
    }

    #[test]
    fn approx_eq_tolerance() {
        let a = DenseMatrix::from_rows(&[&[1.0, 2.0]]).unwrap();
        let b = DenseMatrix::from_rows(&[&[1.0005, 2.0]]).unwrap();
        assert!(a.approx_eq(&b, 1e-3));
        assert!(!a.approx_eq(&b, 1e-5));
        let c = DenseMatrix::zeros(1, 3);
        assert!(!a.approx_eq(&c, 1.0));
    }

    #[test]
    fn max_abs_diff_reports_largest() {
        let a = DenseMatrix::from_rows(&[&[1.0, 2.0]]).unwrap();
        let b = DenseMatrix::from_rows(&[&[0.5, 2.25]]).unwrap();
        assert_eq!(a.max_abs_diff(&b).unwrap(), 0.5);
        assert!(a.max_abs_diff(&DenseMatrix::zeros(2, 2)).is_err());
    }

    #[test]
    fn to_csc_matches_coo_roundtrip() {
        // Pin the direct conversion against the two-step reference on a
        // matrix with zeros, negatives, duplicate values, and empty
        // rows/columns.
        let m = DenseMatrix::from_rows(&[
            &[0.0, 0.5, -1.0, 0.0],
            &[0.0, 0.0, 0.0, 0.0],
            &[1.5, 0.5, 0.0, -2.25],
            &[-0.0, 3.0, 4.0, 0.0],
        ])
        .unwrap();
        let direct = m.to_csc();
        let via_coo = m.to_coo(0.0).to_csc();
        assert_eq!(direct, via_coo);
        assert_eq!(direct.nnz(), 7);
        assert_eq!(direct.to_dense().nnz(), m.nnz());
        // Degenerate shapes.
        let empty = DenseMatrix::zeros(3, 0);
        assert_eq!(empty.to_csc(), empty.to_coo(0.0).to_csc());
        let zeros = DenseMatrix::zeros(2, 5);
        assert_eq!(zeros.to_csc(), zeros.to_coo(0.0).to_csc());
        assert_eq!(zeros.to_csc().nnz(), 0);
    }

    #[test]
    fn to_csc_keeps_non_finite_entries() {
        // Regression: the hop kept `|v| > 0.0`, which is false for NaN, so
        // an overflowed hidden feature was silently zeroed before the next
        // layer. `±0.0` still drops; NaN and ±inf stay.
        let m = DenseMatrix::from_rows(&[
            &[f32::NAN, 0.0, -0.0],
            &[f32::INFINITY, f32::NEG_INFINITY, 1.0],
        ])
        .unwrap();
        let csc = m.to_csc();
        assert_eq!(csc.nnz(), 4);
        assert!(csc.col_entries(0).next().unwrap().1.is_nan());
        assert_eq!(csc.col_row_indices(0), &[0, 1]);
        assert_eq!(csc.col_nnz(2), 1);
        assert_eq!(&m.to_csc_pattern(), csc.pattern());
    }

    #[test]
    fn to_coo_respects_threshold() {
        let m = DenseMatrix::from_rows(&[&[0.0, 0.5], &[1.5, 0.0]]).unwrap();
        let coo = m.to_coo(1.0);
        assert_eq!(coo.nnz(), 1);
        let coo = m.to_coo(0.0);
        assert_eq!(coo.nnz(), 2);
    }

    #[test]
    fn row_range_copies_block() {
        let m = DenseMatrix::from_rows(&[&[1.0, 2.0], &[3.0, 4.0], &[5.0, 6.0]]).unwrap();
        let mid = m.row_range(1..3);
        assert_eq!(mid.shape(), (2, 2));
        assert_eq!(mid.get(0, 0), 3.0);
        assert_eq!(mid.get(1, 1), 6.0);
        assert_eq!(m.row_range(0..3), m);
        assert_eq!(m.row_range(2..2).shape(), (0, 2));
    }

    #[test]
    #[should_panic(expected = "out of bounds")]
    fn row_range_rejects_out_of_bounds() {
        DenseMatrix::zeros(2, 2).row_range(1..3);
    }
}
