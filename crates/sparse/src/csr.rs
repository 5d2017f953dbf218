use crate::{Coo, Csc, CscPattern, DenseMatrix, Result, SparseError};

/// Compressed-sparse-row matrix.
///
/// CSR is the natural layout for row-wise profiling (the paper's Fig. 13
/// plots non-zeros *per row* of the adjacency matrix, which determines the
/// per-PE workload under row partitioning).
///
/// # Example
///
/// ```
/// use awb_sparse::{Coo, Csr};
///
/// # fn main() -> Result<(), awb_sparse::SparseError> {
/// let mut coo = Coo::new(2, 3);
/// coo.push(0, 2, 1.0)?;
/// coo.push(1, 0, 2.0)?;
/// let csr: Csr = coo.to_csr();
/// assert_eq!(csr.row_nnz(0), 1);
/// assert_eq!(csr.row_entries(1).next(), Some((0, 2.0)));
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone, PartialEq, Default)]
pub struct Csr {
    rows: usize,
    cols: usize,
    row_ptr: Vec<usize>,
    col_idx: Vec<u32>,
    values: Vec<f32>,
}

impl Csr {
    /// Builds a CSR matrix from its raw arrays.
    ///
    /// # Errors
    ///
    /// Returns [`SparseError::MalformedFormat`] if the arrays are
    /// inconsistent: `row_ptr` must have `rows + 1` monotonically
    /// non-decreasing entries starting at 0 and ending at `col_idx.len()`,
    /// `col_idx` and `values` must have equal lengths, and every column
    /// index must be `< cols`.
    pub fn from_parts(
        rows: usize,
        cols: usize,
        row_ptr: Vec<usize>,
        col_idx: Vec<u32>,
        values: Vec<f32>,
    ) -> Result<Self> {
        validate_compressed(rows, cols, &row_ptr, &col_idx, values.len(), "row_ptr")?;
        Ok(Csr {
            rows,
            cols,
            row_ptr,
            col_idx,
            values,
        })
    }

    /// An empty `rows x cols` matrix.
    pub fn empty(rows: usize, cols: usize) -> Self {
        Csr {
            rows,
            cols,
            row_ptr: vec![0; rows + 1],
            col_idx: Vec::new(),
            values: Vec::new(),
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
        self.col_idx.len()
    }

    /// Fraction of entries that are non-zero.
    pub fn density(&self) -> f64 {
        if self.rows == 0 || self.cols == 0 {
            0.0
        } else {
            self.nnz() as f64 / (self.rows as f64 * self.cols as f64)
        }
    }

    /// Number of non-zeros in `row`.
    ///
    /// # Panics
    ///
    /// Panics if `row >= self.rows()`.
    #[inline]
    pub fn row_nnz(&self, row: usize) -> usize {
        assert!(row < self.rows, "row {row} out of bounds");
        self.row_ptr[row + 1] - self.row_ptr[row]
    }

    /// Iterates over the `(col, value)` entries of `row`.
    ///
    /// # Panics
    ///
    /// Panics if `row >= self.rows()`.
    pub fn row_entries(&self, row: usize) -> impl Iterator<Item = (usize, f32)> + '_ {
        assert!(row < self.rows, "row {row} out of bounds");
        let (lo, hi) = (self.row_ptr[row], self.row_ptr[row + 1]);
        self.col_idx[lo..hi]
            .iter()
            .zip(&self.values[lo..hi])
            .map(|(&c, &v)| (c as usize, v))
    }

    /// The vector of per-row non-zero counts (the per-row workload under the
    /// accelerator's row partitioning).
    pub fn row_nnz_counts(&self) -> Vec<usize> {
        (0..self.rows).map(|r| self.row_nnz(r)).collect()
    }

    /// The raw row-pointer array.
    pub fn row_ptr(&self) -> &[usize] {
        &self.row_ptr
    }

    /// The raw column-index array.
    pub fn col_idx(&self) -> &[u32] {
        &self.col_idx
    }

    /// The raw values array.
    pub fn values(&self) -> &[f32] {
        &self.values
    }

    /// Iterates over all `(row, col, value)` triplets in row-major order.
    pub fn iter(&self) -> impl Iterator<Item = (usize, usize, f32)> + '_ {
        (0..self.rows).flat_map(move |r| self.row_entries(r).map(move |(c, v)| (r, c, v)))
    }

    /// Converts to CSC by re-bucketing entries by column.
    pub fn to_csc(&self) -> Csc {
        let (col_ptr, row_idx, values) =
            transpose_compressed::<true>(self.cols, &self.row_ptr, &self.col_idx, &self.values);
        Csc::from_parts(self.rows, self.cols, col_ptr, row_idx, values)
            .expect("re-bucketing preserves validity")
    }

    /// The column structure [`to_csc`](Csr::to_csc) would build, without
    /// moving any value: the same counting sort over the index arrays only.
    /// What a simulator that times this matrix as a sparse operand needs,
    /// when its numerics read the rows directly.
    pub fn to_csc_pattern(&self) -> CscPattern {
        let (col_ptr, row_idx, _) =
            transpose_compressed::<false>(self.cols, &self.row_ptr, &self.col_idx, &[]);
        CscPattern::from_parts_trusted(self.rows, self.cols, col_ptr, row_idx)
    }

    /// Converts to COO triplets.
    pub fn to_coo(&self) -> Coo {
        let mut coo = Coo::new(self.rows, self.cols);
        coo.reserve(self.nnz());
        for (r, c, v) in self.iter() {
            coo.push(r, c, v).expect("indices valid by construction");
        }
        coo
    }

    /// Materializes as a dense matrix.
    pub fn to_dense(&self) -> DenseMatrix {
        let mut d = DenseMatrix::zeros(self.rows, self.cols);
        for (r, c, v) in self.iter() {
            d.set(r, c, v);
        }
        d
    }

    /// Extracts the row block `range` as a standalone matrix without
    /// re-bucketing — the CSR mirror of [`Csc::col_range`]: a contiguous
    /// row range is a contiguous slice of the index/value arrays, so the
    /// cut is three slice copies plus a rebased `row_ptr`. Column indices
    /// are preserved (the slice keeps the full column space).
    ///
    /// # Panics
    ///
    /// Panics if `range.end > self.rows()` or `range.start > range.end`.
    pub fn row_range(&self, range: std::ops::Range<usize>) -> Csr {
        assert!(
            range.start <= range.end && range.end <= self.rows,
            "row range {range:?} out of bounds for {} rows",
            self.rows
        );
        let lo = self.row_ptr[range.start];
        let hi = self.row_ptr[range.end];
        let row_ptr = self.row_ptr[range.start..=range.end]
            .iter()
            .map(|&p| p - lo)
            .collect();
        Csr {
            rows: range.len(),
            cols: self.cols,
            row_ptr,
            col_idx: self.col_idx[lo..hi].to_vec(),
            values: self.values[lo..hi].to_vec(),
        }
    }

    /// Returns the transpose (a CSC of this matrix reinterpreted as CSR of
    /// the transpose shares the same arrays; we materialize explicitly for
    /// clarity).
    pub fn transpose(&self) -> Csr {
        let csc = self.to_csc();
        Csr::from_parts(
            self.cols,
            self.rows,
            csc.col_ptr().to_vec(),
            csc.row_idx().to_vec(),
            csc.values().to_vec(),
        )
        .expect("transpose of valid CSC is valid CSR")
    }
}

/// Counting-sort transpose of a compressed matrix: re-buckets the entries
/// of `major_ptr`/`minor_idx` (and `values`, when `VALUES`) by minor
/// index, returning the transposed `(ptr, idx, values)` arrays — `values`
/// empty without `VALUES`, which also leaves the scatter loop free of a
/// per-entry branch. Each output bucket lists its entries in
/// ascending major index, ties in stored order: the order every
/// conversion in this crate produces. The one transpose behind
/// [`Csr::to_csc`], [`Csr::to_csc_pattern`] and [`Csc::to_csr`].
pub(crate) fn transpose_compressed<const VALUES: bool>(
    n_minor: usize,
    major_ptr: &[usize],
    minor_idx: &[u32],
    values: &[f32],
) -> (Vec<usize>, Vec<u32>, Vec<f32>) {
    let mut ptr = vec![0usize; n_minor + 1];
    for &m in minor_idx {
        ptr[m as usize + 1] += 1;
    }
    for i in 0..n_minor {
        ptr[i + 1] += ptr[i];
    }
    let mut idx = vec![0u32; minor_idx.len()];
    let mut out_values = vec![0.0f32; if VALUES { values.len() } else { 0 }];
    let mut cursor = ptr[..n_minor].to_vec();
    for (major, span) in major_ptr.windows(2).enumerate() {
        for p in span[0]..span[1] {
            let m = minor_idx[p] as usize;
            let q = cursor[m];
            cursor[m] += 1;
            idx[q] = major as u32;
            if VALUES {
                out_values[q] = values[p];
            }
        }
    }
    (ptr, idx, out_values)
}

/// Validation shared between CSR and CSC (`major_ptr` semantics).
pub(crate) fn validate_compressed(
    n_major: usize,
    n_minor: usize,
    major_ptr: &[usize],
    minor_idx: &[u32],
    n_values: usize,
    ptr_name: &str,
) -> Result<()> {
    if major_ptr.len() != n_major + 1 {
        return Err(SparseError::MalformedFormat(format!(
            "{ptr_name} length {} != {} + 1",
            major_ptr.len(),
            n_major
        )));
    }
    if major_ptr.first() != Some(&0) {
        return Err(SparseError::MalformedFormat(format!(
            "{ptr_name} must start at 0"
        )));
    }
    if major_ptr.windows(2).any(|w| w[0] > w[1]) {
        return Err(SparseError::MalformedFormat(format!(
            "{ptr_name} must be monotonically non-decreasing"
        )));
    }
    if *major_ptr.last().expect("non-empty by length check") != minor_idx.len() {
        return Err(SparseError::MalformedFormat(format!(
            "{ptr_name} last entry {} != index array length {}",
            major_ptr.last().expect("non-empty"),
            minor_idx.len()
        )));
    }
    if minor_idx.len() != n_values {
        return Err(SparseError::MalformedFormat(format!(
            "index array length {} != values length {n_values}",
            minor_idx.len()
        )));
    }
    if let Some(&bad) = minor_idx.iter().find(|&&i| i as usize >= n_minor) {
        return Err(SparseError::MalformedFormat(format!(
            "index {bad} out of bounds for minor dimension {n_minor}"
        )));
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> Csr {
        // [[0, 6, 0, 9, 0],
        //  [0, 0, 0, 0, 7],
        //  [3, 0, 0, 0, 0]]
        Csr::from_parts(
            3,
            5,
            vec![0, 2, 3, 4],
            vec![1, 3, 4, 0],
            vec![6.0, 9.0, 7.0, 3.0],
        )
        .unwrap()
    }

    #[test]
    fn from_parts_validates() {
        assert!(Csr::from_parts(2, 2, vec![0, 1], vec![0], vec![1.0]).is_err()); // ptr too short
        assert!(Csr::from_parts(2, 2, vec![1, 1, 1], vec![], vec![]).is_err()); // doesn't start at 0
        assert!(Csr::from_parts(2, 2, vec![0, 2, 1], vec![0], vec![1.0]).is_err()); // not monotone
        assert!(Csr::from_parts(2, 2, vec![0, 1, 2], vec![0], vec![1.0]).is_err()); // last != nnz
        assert!(Csr::from_parts(2, 2, vec![0, 1, 1], vec![5], vec![1.0]).is_err()); // col oob
        assert!(Csr::from_parts(2, 2, vec![0, 1, 1], vec![0], vec![]).is_err()); // val len
        assert!(Csr::from_parts(2, 2, vec![0, 1, 1], vec![0], vec![1.0]).is_ok());
    }

    #[test]
    fn row_access() {
        let m = sample();
        assert_eq!(m.row_nnz(0), 2);
        assert_eq!(m.row_nnz(1), 1);
        let entries: Vec<_> = m.row_entries(0).collect();
        assert_eq!(entries, vec![(1, 6.0), (3, 9.0)]);
        assert_eq!(m.row_nnz_counts(), vec![2, 1, 1]);
    }

    #[test]
    fn density_and_nnz() {
        let m = sample();
        assert_eq!(m.nnz(), 4);
        assert!((m.density() - 4.0 / 15.0).abs() < 1e-12);
        assert_eq!(Csr::empty(0, 0).density(), 0.0);
    }

    #[test]
    fn csc_roundtrip_preserves_dense() {
        let m = sample();
        assert_eq!(m.to_csc().to_dense(), m.to_dense());
        assert_eq!(m.to_csc().to_csr().to_dense(), m.to_dense());
    }

    #[test]
    fn coo_roundtrip() {
        let m = sample();
        assert_eq!(m.to_coo().to_csr(), m);
    }

    #[test]
    fn transpose_matches_dense_transpose() {
        let m = sample();
        assert_eq!(m.transpose().to_dense(), m.to_dense().transpose());
    }

    #[test]
    fn iter_row_major_order() {
        let m = sample();
        let triplets: Vec<_> = m.iter().collect();
        assert_eq!(
            triplets,
            vec![(0, 1, 6.0), (0, 3, 9.0), (1, 4, 7.0), (2, 0, 3.0)]
        );
    }

    #[test]
    fn row_range_slices_without_rebuild() {
        let m = sample();
        let top = m.row_range(0..1);
        assert_eq!(top.shape(), (1, 5));
        assert_eq!(top.nnz(), 2);
        assert_eq!(
            top.row_entries(0).collect::<Vec<_>>(),
            vec![(1, 6.0), (3, 9.0)]
        );
        let rest = m.row_range(1..3);
        assert_eq!(rest.shape(), (2, 5));
        assert_eq!(rest.nnz(), 2);
        assert_eq!(m.row_range(0..3), m);
        assert_eq!(m.row_range(2..2).nnz(), 0);
    }

    #[test]
    #[should_panic(expected = "out of bounds")]
    fn row_range_rejects_out_of_bounds() {
        sample().row_range(1..4);
    }

    #[test]
    fn empty_matrix_behaves() {
        let m = Csr::empty(3, 4);
        assert_eq!(m.nnz(), 0);
        assert_eq!(m.row_nnz(2), 0);
        assert_eq!(m.to_dense(), DenseMatrix::zeros(3, 4));
    }
}
