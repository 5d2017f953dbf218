use crate::csr::{transpose_compressed, validate_compressed};
use crate::{Coo, Csr, DenseMatrix, Result};

/// The column structure of a CSC matrix: `Col Ptr` and `Row ID`, without
/// `Val`.
///
/// The accelerator's queue dynamics are a function of where the non-zeros
/// sit, never of their values, so the simulator reads only this. A
/// per-request operand whose numerics run row-major (the GCN layers'
/// feature matrices) needs nothing more than its pattern transposed —
/// [`Csr::to_csc_pattern`], [`DenseMatrix::to_csc_pattern`] — and every
/// [`Csc`] carries one ([`Csc::pattern`]).
///
/// # Example
///
/// ```
/// use awb_sparse::Coo;
///
/// # fn main() -> Result<(), awb_sparse::SparseError> {
/// let mut coo = Coo::new(3, 2);
/// coo.push(2, 0, 1.5)?;
/// coo.push(0, 1, 2.0)?;
/// let csr = coo.to_csr();
/// let pattern = csr.to_csc_pattern();
/// assert_eq!(&pattern, csr.to_csc().pattern());
/// assert_eq!(pattern.col_row_indices(0), &[2]);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct CscPattern {
    rows: usize,
    cols: usize,
    col_ptr: Vec<usize>,
    row_idx: Vec<u32>,
}

impl CscPattern {
    /// Assembles a pattern the caller built consistently (a transpose of a
    /// valid matrix), skipping the O(nnz) validation scan.
    pub(crate) fn from_parts_trusted(
        rows: usize,
        cols: usize,
        col_ptr: Vec<usize>,
        row_idx: Vec<u32>,
    ) -> Self {
        debug_assert!(validate_compressed(
            cols,
            rows,
            &col_ptr,
            &row_idx,
            row_idx.len(),
            "col_ptr"
        )
        .is_ok());
        CscPattern {
            rows,
            cols,
            col_ptr,
            row_idx,
        }
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

    /// Number of stored non-zeros.
    pub fn nnz(&self) -> usize {
        self.row_idx.len()
    }

    /// Fraction of entries that are non-zero.
    pub fn density(&self) -> f64 {
        if self.rows == 0 || self.cols == 0 {
            0.0
        } else {
            self.nnz() as f64 / (self.rows as f64 * self.cols as f64)
        }
    }

    /// Number of non-zeros in `col`.
    ///
    /// # Panics
    ///
    /// Panics if `col >= self.cols()`.
    #[inline]
    pub fn col_nnz(&self, col: usize) -> usize {
        assert!(col < self.cols, "column {col} out of bounds");
        self.col_ptr[col + 1] - self.col_ptr[col]
    }

    /// Row indices of the non-zeros in `col` — what TDQ-2's Omega network
    /// routes on.
    ///
    /// # Panics
    ///
    /// Panics if `col >= self.cols()`.
    pub fn col_row_indices(&self, col: usize) -> &[u32] {
        assert!(col < self.cols, "column {col} out of bounds");
        &self.row_idx[self.col_ptr[col]..self.col_ptr[col + 1]]
    }

    /// The raw column-pointer array (`Col Ptr`).
    pub fn col_ptr(&self) -> &[usize] {
        &self.col_ptr
    }

    /// The raw row-index array (`Row ID`).
    pub fn row_idx(&self) -> &[u32] {
        &self.row_idx
    }

    /// Heap bytes held by the two arrays (`Col Ptr` at
    /// `size_of::<usize>()` per entry, `Row ID` at 4).
    pub fn heap_bytes(&self) -> usize {
        self.col_ptr.len() * std::mem::size_of::<usize>()
            + self.row_idx.len() * std::mem::size_of::<u32>()
    }

    /// The column block `range` as a standalone pattern (see
    /// [`Csc::col_range`]).
    ///
    /// # Panics
    ///
    /// Panics if `range.end > self.cols()` or `range.start > range.end`.
    pub fn col_range(&self, range: std::ops::Range<usize>) -> CscPattern {
        assert!(
            range.start <= range.end && range.end <= self.cols,
            "column range {range:?} out of bounds for {} columns",
            self.cols
        );
        let lo = self.col_ptr[range.start];
        let hi = self.col_ptr[range.end];
        let col_ptr = self.col_ptr[range.start..=range.end]
            .iter()
            .map(|&p| p - lo)
            .collect();
        CscPattern {
            rows: self.rows,
            cols: range.len(),
            col_ptr,
            row_idx: self.row_idx[lo..hi].to_vec(),
        }
    }
}

impl AsRef<CscPattern> for CscPattern {
    fn as_ref(&self) -> &CscPattern {
        self
    }
}

/// Compressed-sparse-column matrix — the accelerator's native format.
///
/// The paper's Fig. 4 stores a sparse matrix as three arrays: `Val` (the
/// non-zero values in column-major order), `Row ID` (the row index of each
/// value), and `Col Ptr` (the offset of each column's first value). TDQ-2
/// streams `Val`/`Row ID` directly, which is why ultra-sparse matrices pay
/// no cost for their zeros. The two index arrays are the matrix's
/// [`CscPattern`].
///
/// # Example
///
/// The matrix of the paper's Fig. 4:
///
/// ```
/// use awb_sparse::Csc;
///
/// # fn main() -> Result<(), awb_sparse::SparseError> {
/// let m = Csc::from_parts(
///     5,
///     5,
///     vec![0, 2, 4, 5, 7, 8],
///     vec![0, 3, 1, 4, 0, 1, 4, 2],
///     vec![1.0, 3.0, 6.0, 5.0, 9.0, 2.0, 3.0, 7.0],
/// )?;
/// assert_eq!(m.nnz(), 8);
/// assert_eq!(m.col_nnz(0), 2);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone, PartialEq, Default)]
pub struct Csc {
    pattern: CscPattern,
    values: Vec<f32>,
}

impl Csc {
    /// Builds a CSC matrix from its raw arrays (`Col Ptr`, `Row ID`, `Val`).
    ///
    /// # Errors
    ///
    /// Returns [`crate::SparseError::MalformedFormat`] if the arrays are
    /// inconsistent (see [`Csr::from_parts`] for the mirrored conditions).
    pub fn from_parts(
        rows: usize,
        cols: usize,
        col_ptr: Vec<usize>,
        row_idx: Vec<u32>,
        values: Vec<f32>,
    ) -> Result<Self> {
        validate_compressed(cols, rows, &col_ptr, &row_idx, values.len(), "col_ptr")?;
        Ok(Csc {
            pattern: CscPattern {
                rows,
                cols,
                col_ptr,
                row_idx,
            },
            values,
        })
    }

    /// An empty `rows x cols` matrix.
    pub fn empty(rows: usize, cols: usize) -> Self {
        Csc {
            pattern: CscPattern {
                rows,
                cols,
                col_ptr: vec![0; cols + 1],
                row_idx: Vec::new(),
            },
            values: Vec::new(),
        }
    }

    /// The matrix's column structure (`Col Ptr` + `Row ID`).
    pub fn pattern(&self) -> &CscPattern {
        &self.pattern
    }

    /// Number of rows.
    pub fn rows(&self) -> usize {
        self.pattern.rows
    }

    /// Number of columns.
    pub fn cols(&self) -> usize {
        self.pattern.cols
    }

    /// `(rows, cols)` pair.
    pub fn shape(&self) -> (usize, usize) {
        self.pattern.shape()
    }

    /// Number of stored non-zeros.
    pub fn nnz(&self) -> usize {
        self.pattern.nnz()
    }

    /// Fraction of entries that are non-zero.
    pub fn density(&self) -> f64 {
        self.pattern.density()
    }

    /// Number of non-zeros in `col`.
    ///
    /// # Panics
    ///
    /// Panics if `col >= self.cols()`.
    #[inline]
    pub fn col_nnz(&self, col: usize) -> usize {
        self.pattern.col_nnz(col)
    }

    /// The vector of per-column non-zero counts (the per-round delivery
    /// workload when this matrix is the sparse operand: column `c` of `A`
    /// streams once per dense `B` column).
    pub fn col_nnz_counts(&self) -> Vec<usize> {
        (0..self.cols()).map(|c| self.col_nnz(c)).collect()
    }

    /// Iterates over the `(row, value)` entries of `col`.
    ///
    /// # Panics
    ///
    /// Panics if `col >= self.cols()`.
    pub fn col_entries(&self, col: usize) -> impl Iterator<Item = (usize, f32)> + '_ {
        assert!(col < self.cols(), "column {col} out of bounds");
        let (lo, hi) = (self.pattern.col_ptr[col], self.pattern.col_ptr[col + 1]);
        self.pattern.row_idx[lo..hi]
            .iter()
            .zip(&self.values[lo..hi])
            .map(|(&r, &v)| (r as usize, v))
    }

    /// Row indices of the non-zeros in `col` (no values) — what TDQ-2's
    /// Omega network routes on.
    ///
    /// # Panics
    ///
    /// Panics if `col >= self.cols()`.
    pub fn col_row_indices(&self, col: usize) -> &[u32] {
        self.pattern.col_row_indices(col)
    }

    /// Per-row non-zero counts (the per-PE workload under row
    /// partitioning). O(nnz).
    pub fn row_nnz_counts(&self) -> Vec<usize> {
        let mut counts = vec![0usize; self.rows()];
        for &r in self.row_idx() {
            counts[r as usize] += 1;
        }
        counts
    }

    /// The raw column-pointer array (`Col Ptr`).
    pub fn col_ptr(&self) -> &[usize] {
        &self.pattern.col_ptr
    }

    /// The raw row-index array (`Row ID`).
    pub fn row_idx(&self) -> &[u32] {
        &self.pattern.row_idx
    }

    /// The raw values array (`Val`).
    pub fn values(&self) -> &[f32] {
        &self.values
    }

    /// Heap bytes held by the three storage arrays (`Col Ptr` at
    /// `size_of::<usize>()` per entry, `Row ID` at 4, `Val` at 4) — the
    /// size-estimate input for plan-cache memory budgeting.
    pub fn heap_bytes(&self) -> usize {
        self.pattern.heap_bytes() + self.values.len() * std::mem::size_of::<f32>()
    }

    /// Iterates over all `(row, col, value)` triplets in column-major order.
    pub fn iter(&self) -> impl Iterator<Item = (usize, usize, f32)> + '_ {
        (0..self.cols()).flat_map(move |c| self.col_entries(c).map(move |(r, v)| (r, c, v)))
    }

    /// Extracts the column block `range` as a standalone matrix without
    /// re-bucketing: because CSC stores entries in column-major order, a
    /// contiguous column range is a contiguous slice of `Row ID`/`Val`, so
    /// the cut is three slice copies plus a rebased `Col Ptr` — O(slice),
    /// never O(nnz of the whole matrix). This is the primitive the
    /// [`partition`](crate::partition) module shards graphs with.
    ///
    /// Row indices are preserved (the slice keeps the full row space), so
    /// `A = [A[:, 0..k] | A[:, k..cols]]` column-concatenates back exactly.
    ///
    /// # Panics
    ///
    /// Panics if `range.end > self.cols()` or `range.start > range.end`.
    pub fn col_range(&self, range: std::ops::Range<usize>) -> Csc {
        let pattern = self.pattern.col_range(range.clone());
        let lo = self.pattern.col_ptr[range.start];
        Csc {
            values: self.values[lo..lo + pattern.nnz()].to_vec(),
            pattern,
        }
    }

    /// Converts to CSR by re-bucketing entries by row.
    pub fn to_csr(&self) -> Csr {
        let (row_ptr, col_idx, values) =
            transpose_compressed::<true>(self.rows(), self.col_ptr(), self.row_idx(), &self.values);
        Csr::from_parts(self.rows(), self.cols(), row_ptr, col_idx, values)
            .expect("re-bucketing preserves validity")
    }

    /// Converts to COO triplets.
    pub fn to_coo(&self) -> Coo {
        let mut coo = Coo::new(self.rows(), self.cols());
        coo.reserve(self.nnz());
        for (r, c, v) in self.iter() {
            coo.push(r, c, v).expect("indices valid by construction");
        }
        coo
    }

    /// Materializes as a dense matrix.
    pub fn to_dense(&self) -> DenseMatrix {
        let mut d = DenseMatrix::zeros(self.rows(), self.cols());
        for (r, c, v) in self.iter() {
            d.set(r, c, v);
        }
        d
    }
}

impl AsRef<CscPattern> for Csc {
    fn as_ref(&self) -> &CscPattern {
        &self.pattern
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The exact matrix of the paper's Fig. 4.
    fn fig4() -> Csc {
        Csc::from_parts(
            5,
            5,
            vec![0, 2, 4, 5, 7, 8],
            vec![0, 3, 1, 4, 0, 1, 4, 2],
            vec![1.0, 3.0, 6.0, 5.0, 9.0, 2.0, 3.0, 7.0],
        )
        .unwrap()
    }

    #[test]
    fn fig4_dense_matches_paper() {
        // Paper Fig. 4 shows the dense matrix:
        // [0 6 0 9 0; 0 0 0 2 0; 3(row2?)...] — we verify via CSC semantics.
        let d = fig4().to_dense();
        assert_eq!(d.get(0, 0), 1.0);
        assert_eq!(d.get(3, 0), 3.0);
        assert_eq!(d.get(1, 1), 6.0);
        assert_eq!(d.get(4, 1), 5.0);
        assert_eq!(d.get(0, 2), 9.0);
        assert_eq!(d.get(1, 3), 2.0);
        assert_eq!(d.get(4, 3), 3.0);
        assert_eq!(d.get(2, 4), 7.0);
        assert_eq!(d.nnz(), 8);
    }

    #[test]
    fn col_access() {
        let m = fig4();
        assert_eq!(m.col_nnz(0), 2);
        assert_eq!(m.col_nnz(2), 1);
        assert_eq!(m.col_row_indices(3), &[1, 4]);
        let entries: Vec<_> = m.col_entries(1).collect();
        assert_eq!(entries, vec![(1, 6.0), (4, 5.0)]);
    }

    #[test]
    fn row_nnz_counts_correct() {
        let m = fig4();
        assert_eq!(m.row_nnz_counts(), vec![2, 2, 1, 1, 2]);
    }

    #[test]
    fn csr_roundtrip() {
        let m = fig4();
        assert_eq!(m.to_csr().to_csc(), m);
        assert_eq!(m.to_csr().to_dense(), m.to_dense());
    }

    #[test]
    fn coo_roundtrip() {
        let m = fig4();
        assert_eq!(m.to_coo().to_csc(), m);
    }

    #[test]
    fn from_parts_validates() {
        assert!(Csc::from_parts(2, 2, vec![0, 0], vec![], vec![]).is_err());
        assert!(Csc::from_parts(2, 2, vec![0, 1, 1], vec![9], vec![1.0]).is_err());
        assert!(Csc::from_parts(2, 2, vec![0, 0, 0], vec![], vec![]).is_ok());
    }

    #[test]
    fn pattern_is_the_index_arrays() {
        let m = fig4();
        let p = m.pattern();
        assert_eq!(p.shape(), m.shape());
        assert_eq!(p.col_ptr(), m.col_ptr());
        assert_eq!(p.row_idx(), m.row_idx());
        assert_eq!(p.heap_bytes() + 4 * m.nnz(), m.heap_bytes());
        assert_eq!(m.col_range(1..4).pattern(), &p.col_range(1..4));
        // The structure-only transpose is the full transpose's pattern.
        assert_eq!(&m.to_csr().to_csc_pattern(), p);
    }

    #[test]
    fn col_range_slices_without_rebuild() {
        let m = fig4();
        let left = m.col_range(0..2);
        assert_eq!(left.shape(), (5, 2));
        assert_eq!(left.nnz(), 4);
        assert_eq!(left.to_dense().get(3, 0), 3.0);
        let right = m.col_range(2..5);
        assert_eq!(right.shape(), (5, 3));
        assert_eq!(right.nnz(), 4);
        // Column j of the slice is column lo + j of the original.
        assert_eq!(right.col_row_indices(1), m.col_row_indices(3));
        // Full range is the identity; empty range is a 0-column matrix.
        assert_eq!(m.col_range(0..5), m);
        assert_eq!(m.col_range(3..3).nnz(), 0);
        assert_eq!(m.col_range(3..3).shape(), (5, 0));
    }

    #[test]
    #[should_panic(expected = "out of bounds")]
    fn col_range_rejects_out_of_bounds() {
        fig4().col_range(2..6);
    }

    #[test]
    fn empty_matrix() {
        let m = Csc::empty(4, 3);
        assert_eq!(m.nnz(), 0);
        assert_eq!(m.col_nnz(2), 0);
        assert_eq!(m.row_nnz_counts(), vec![0; 4]);
    }
}
