use std::error::Error;
use std::fmt;

/// Errors produced by sparse-matrix construction and kernels.
///
/// # Example
///
/// ```
/// use awb_sparse::{DenseMatrix, SparseError};
///
/// let err = DenseMatrix::from_rows(&[&[1.0][..], &[1.0, 2.0][..]]).unwrap_err();
/// assert!(matches!(err, SparseError::RaggedRows { .. }));
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
#[non_exhaustive]
pub enum SparseError {
    /// Two matrices had incompatible shapes for the requested operation.
    DimensionMismatch {
        /// Shape of the left-hand operand.
        left: (usize, usize),
        /// Shape of the right-hand operand.
        right: (usize, usize),
        /// The operation that was attempted (e.g. `"spmm"`).
        op: &'static str,
    },
    /// An index was outside the matrix bounds.
    IndexOutOfBounds {
        /// The offending `(row, col)` index.
        index: (usize, usize),
        /// The matrix shape.
        shape: (usize, usize),
    },
    /// Rows supplied to a dense constructor had differing lengths.
    RaggedRows {
        /// Length of the first row.
        expected: usize,
        /// Index of the first row with a different length.
        row: usize,
        /// Length of that row.
        found: usize,
    },
    /// A compressed format's internal arrays were inconsistent.
    MalformedFormat(String),
    /// A requested shape has a dimension the `u32` row/column indices
    /// cannot address.
    IndexSpaceExceeded {
        /// The requested `(rows, cols)`.
        shape: (usize, usize),
    },
}

impl fmt::Display for SparseError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SparseError::DimensionMismatch { left, right, op } => write!(
                f,
                "dimension mismatch in {op}: {}x{} vs {}x{}",
                left.0, left.1, right.0, right.1
            ),
            SparseError::IndexOutOfBounds { index, shape } => write!(
                f,
                "index ({}, {}) out of bounds for {}x{} matrix",
                index.0, index.1, shape.0, shape.1
            ),
            SparseError::RaggedRows {
                expected,
                row,
                found,
            } => write!(
                f,
                "ragged rows: row {row} has {found} entries, expected {expected}"
            ),
            SparseError::MalformedFormat(msg) => write!(f, "malformed sparse format: {msg}"),
            SparseError::IndexSpaceExceeded { shape } => write!(
                f,
                "dimensions {}x{} exceed the u32 index space",
                shape.0, shape.1
            ),
        }
    }
}

impl Error for SparseError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_is_informative() {
        let e = SparseError::DimensionMismatch {
            left: (2, 3),
            right: (4, 5),
            op: "spmm",
        };
        assert_eq!(e.to_string(), "dimension mismatch in spmm: 2x3 vs 4x5");
        let e = SparseError::IndexOutOfBounds {
            index: (9, 1),
            shape: (3, 3),
        };
        assert!(e.to_string().contains("(9, 1)"));
        let e = SparseError::RaggedRows {
            expected: 2,
            row: 1,
            found: 1,
        };
        assert!(e.to_string().contains("row 1"));
        let e = SparseError::MalformedFormat("col_ptr not monotone".into());
        assert!(e.to_string().contains("col_ptr"));
        let e = SparseError::IndexSpaceExceeded {
            shape: (1 << 33, 4),
        };
        assert!(e.to_string().contains("8589934592x4"));
    }

    #[test]
    fn error_is_send_sync() {
        fn assert_send_sync<T: Send + Sync>() {}
        assert_send_sync::<SparseError>();
    }
}
