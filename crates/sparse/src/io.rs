//! Matrix Market (`.mtx`) import/export.
//!
//! The synthetic generators in `awb-datasets` reproduce the published
//! statistics of the paper's datasets, but a user who has the original
//! graphs (or any other SuiteSparse-style matrix) can feed them to the
//! simulator through this module: `coordinate real/integer/pattern`
//! matrices in `general` or `symmetric` form are supported, which covers
//! the common ways GCN adjacency matrices are distributed.

use crate::{Coo, Result, SparseError};
use std::io::{BufRead, Write};

/// Value type declared in the Matrix Market header.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum MmField {
    Real,
    Integer,
    /// Pattern matrices carry no values; entries read as 1.0.
    Pattern,
}

/// Entries reserved up front from the size line. Larger files grow the
/// buffer as entries arrive, so a header that overstates `nnz` cannot
/// force a huge allocation before a single entry is read.
const MAX_UPFRONT_RESERVE: usize = 1 << 20;

/// Rows and columns a size line may declare whatever its nnz: the
/// compressed formats allocate one pointer per column (CSC) or row (CSR),
/// and up to this many cost at most 128 MiB.
const DIM_FLOOR: usize = 1 << 24;

/// Beyond [`DIM_FLOOR`], rows and columns may each exceed the stored
/// entry count at most this many times, so the pointer arrays stay within
/// a fixed multiple of the entries the file must actually contain.
const DIM_PER_ENTRY: usize = 16;

/// Symmetry declared in the Matrix Market header.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum MmSymmetry {
    General,
    /// Off-diagonal entries are mirrored on read.
    Symmetric,
}

/// Reads a sparse matrix in Matrix Market coordinate format.
///
/// # Errors
///
/// Returns [`SparseError::MalformedFormat`] for syntax errors, unsupported
/// header variants (`array` storage, `complex`/`hermitian`/`skew-symmetric`
/// qualifiers), dimensions beyond the `u32` index space, implausible
/// dimensions, out-of-range indices, non-finite (NaN/±inf) values, or
/// entry-count mismatches.
///
/// # Dimension cap
///
/// Compressing the result allocates a pointer per row or column, so a
/// size line like `4000000000 4000000000 1` would make a later
/// `to_csc` abort on a 32 GB allocation. Dimensions up to 2^24 are always
/// accepted; above that, `max(rows, cols)` may be at most 16 × the stored
/// entry count (the declared nnz, doubled for `symmetric`). Anything else
/// is rejected at the size line, before the matrix is allocated. An
/// overstated nnz cannot slip a large shape past the cap: the file must
/// then contain that many entries, or the count check rejects it.
///
/// # Example
///
/// ```
/// use awb_sparse::io::read_matrix_market;
///
/// let text = "%%MatrixMarket matrix coordinate real general\n\
///             % a comment\n\
///             3 3 2\n\
///             1 2 5.0\n\
///             3 1 -1.5\n";
/// let coo = read_matrix_market(text.as_bytes()).unwrap();
/// assert_eq!(coo.shape(), (3, 3));
/// assert_eq!(coo.to_dense().get(0, 1), 5.0);
/// assert_eq!(coo.to_dense().get(2, 0), -1.5);
/// ```
pub fn read_matrix_market<R: BufRead>(reader: R) -> Result<Coo> {
    let mut lines = reader.lines();
    let header = lines
        .next()
        .ok_or_else(|| SparseError::MalformedFormat("empty file".into()))?
        .map_err(io_err)?;
    let (field, symmetry) = parse_header(&header)?;

    // Skip comments; the first non-comment line is the size line.
    let mut size_line = None;
    for line in lines.by_ref() {
        let line = line.map_err(io_err)?;
        let trimmed = line.trim();
        if trimmed.is_empty() || trimmed.starts_with('%') {
            continue;
        }
        size_line = Some(line);
        break;
    }
    let size_line =
        size_line.ok_or_else(|| SparseError::MalformedFormat("missing size line".into()))?;
    let dims: Vec<usize> = size_line
        .split_whitespace()
        .map(|t| {
            t.parse::<usize>()
                .map_err(|_| SparseError::MalformedFormat(format!("bad size token `{t}`")))
        })
        .collect::<Result<_>>()?;
    let [rows, cols, nnz] = dims[..] else {
        return Err(SparseError::MalformedFormat(format!(
            "size line needs `rows cols nnz`, got `{size_line}`"
        )));
    };

    if rows > u32::MAX as usize || cols > u32::MAX as usize {
        return Err(SparseError::MalformedFormat(format!(
            "dimensions {rows}x{cols} exceed the u32 index space"
        )));
    }
    let stored = match symmetry {
        MmSymmetry::Symmetric => nnz.checked_mul(2).ok_or_else(|| {
            SparseError::MalformedFormat(format!("declared nnz {nnz} overflows when mirrored"))
        })?,
        MmSymmetry::General => nnz,
    };
    let plausible = DIM_FLOOR.max(stored.saturating_mul(DIM_PER_ENTRY));
    if rows.max(cols) > plausible {
        return Err(SparseError::MalformedFormat(format!(
            "dimensions {rows}x{cols} are implausible for {stored} stored entries \
             (above {DIM_FLOOR} rows or columns, at most {DIM_PER_ENTRY} per entry)"
        )));
    }
    let mut coo = Coo::new(rows, cols);
    coo.reserve(stored.min(MAX_UPFRONT_RESERVE));
    let mut read = 0usize;
    for line in lines {
        let line = line.map_err(io_err)?;
        let trimmed = line.trim();
        if trimmed.is_empty() || trimmed.starts_with('%') {
            continue;
        }
        let mut tokens = trimmed.split_whitespace();
        let r: usize = parse_index(tokens.next(), "row")?;
        let c: usize = parse_index(tokens.next(), "column")?;
        let v: f32 = match field {
            MmField::Pattern => 1.0,
            MmField::Real | MmField::Integer => {
                let t = tokens
                    .next()
                    .ok_or_else(|| SparseError::MalformedFormat("missing value token".into()))?;
                let v = t
                    .parse::<f32>()
                    .map_err(|_| SparseError::MalformedFormat(format!("bad value `{t}`")))?;
                // `f32::from_str` happily parses "NaN"/"inf"; a non-finite
                // adjacency or feature value would silently poison every
                // SPMM it touches, so reject at the boundary.
                if !v.is_finite() {
                    return Err(SparseError::MalformedFormat(format!(
                        "non-finite value `{t}` (NaN/inf entries are rejected at ingest)"
                    )));
                }
                v
            }
        };
        // Matrix Market is 1-indexed.
        if r == 0 || c == 0 {
            return Err(SparseError::MalformedFormat(
                "matrix market indices are 1-based; found 0".into(),
            ));
        }
        coo.push(r - 1, c - 1, v)?;
        if symmetry == MmSymmetry::Symmetric && r != c {
            coo.push(c - 1, r - 1, v)?;
        }
        read += 1;
    }
    if read != nnz {
        return Err(SparseError::MalformedFormat(format!(
            "header declared {nnz} entries, file contained {read}"
        )));
    }
    Ok(coo)
}

/// Writes a matrix in Matrix Market `coordinate real general` format.
///
/// # Errors
///
/// Returns [`SparseError::MalformedFormat`] wrapping any I/O failure.
///
/// # Example
///
/// ```
/// use awb_sparse::io::{read_matrix_market, write_matrix_market};
/// use awb_sparse::Coo;
///
/// let mut m = Coo::new(2, 2);
/// m.push(0, 1, 2.5).unwrap();
/// let mut buf = Vec::new();
/// write_matrix_market(&mut buf, &m).unwrap();
/// let back = read_matrix_market(buf.as_slice()).unwrap();
/// assert_eq!(back.to_dense(), m.to_dense());
/// ```
pub fn write_matrix_market<W: Write>(writer: &mut W, m: &Coo) -> Result<()> {
    writeln!(writer, "%%MatrixMarket matrix coordinate real general").map_err(io_err)?;
    writeln!(writer, "% written by awb-sparse").map_err(io_err)?;
    writeln!(writer, "{} {} {}", m.rows(), m.cols(), m.nnz()).map_err(io_err)?;
    for (r, c, v) in m.iter() {
        writeln!(writer, "{} {} {}", r + 1, c + 1, v).map_err(io_err)?;
    }
    Ok(())
}

fn parse_header(header: &str) -> Result<(MmField, MmSymmetry)> {
    let tokens: Vec<String> = header.split_whitespace().map(str::to_lowercase).collect();
    let [banner, object, format, field, symmetry] = &tokens[..] else {
        return Err(SparseError::MalformedFormat(format!(
            "bad matrix market header `{header}`"
        )));
    };
    if banner != "%%matrixmarket" || object != "matrix" {
        return Err(SparseError::MalformedFormat(format!(
            "not a matrix market file: `{header}`"
        )));
    }
    if format != "coordinate" {
        return Err(SparseError::MalformedFormat(format!(
            "only coordinate storage is supported, got `{format}`"
        )));
    }
    let field = match field.as_str() {
        "real" => MmField::Real,
        "integer" => MmField::Integer,
        "pattern" => MmField::Pattern,
        other => {
            return Err(SparseError::MalformedFormat(format!(
                "unsupported field type `{other}`"
            )))
        }
    };
    let symmetry = match symmetry.as_str() {
        "general" => MmSymmetry::General,
        "symmetric" => MmSymmetry::Symmetric,
        other => {
            return Err(SparseError::MalformedFormat(format!(
                "unsupported symmetry `{other}`"
            )))
        }
    };
    Ok((field, symmetry))
}

fn parse_index(token: Option<&str>, what: &str) -> Result<usize> {
    let t = token.ok_or_else(|| SparseError::MalformedFormat(format!("missing {what} index")))?;
    t.parse::<usize>()
        .map_err(|_| SparseError::MalformedFormat(format!("bad {what} index `{t}`")))
}

fn io_err(e: std::io::Error) -> SparseError {
    SparseError::MalformedFormat(format!("io error: {e}"))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn reads_real_general() {
        let text = "%%MatrixMarket matrix coordinate real general\n2 3 2\n1 1 1.5\n2 3 -2\n";
        let m = read_matrix_market(text.as_bytes()).unwrap();
        assert_eq!(m.shape(), (2, 3));
        let d = m.to_dense();
        assert_eq!(d.get(0, 0), 1.5);
        assert_eq!(d.get(1, 2), -2.0);
    }

    #[test]
    fn reads_pattern_symmetric() {
        let text =
            "%%MatrixMarket matrix coordinate pattern symmetric\n% adjacency\n3 3 2\n2 1\n3 3\n";
        let m = read_matrix_market(text.as_bytes()).unwrap();
        let d = m.to_dense();
        assert_eq!(d.get(1, 0), 1.0);
        assert_eq!(d.get(0, 1), 1.0); // mirrored
        assert_eq!(d.get(2, 2), 1.0); // diagonal not duplicated
        assert_eq!(m.nnz(), 3);
    }

    #[test]
    fn reads_integer_field() {
        let text = "%%MatrixMarket matrix coordinate integer general\n1 1 1\n1 1 7\n";
        let m = read_matrix_market(text.as_bytes()).unwrap();
        assert_eq!(m.to_dense().get(0, 0), 7.0);
    }

    #[test]
    fn skips_comments_and_blank_lines() {
        let text = "%%MatrixMarket matrix coordinate real general\n%c1\n\n% c2\n2 2 1\n\n1 2 3\n";
        let m = read_matrix_market(text.as_bytes()).unwrap();
        assert_eq!(m.nnz(), 1);
    }

    #[test]
    fn rejects_bad_headers() {
        for text in [
            "",
            "plain garbage\n1 1 0\n",
            "%%MatrixMarket matrix array real general\n1 1 0\n",
            "%%MatrixMarket matrix coordinate complex general\n1 1 0\n",
            "%%MatrixMarket matrix coordinate real hermitian\n1 1 0\n",
        ] {
            assert!(
                read_matrix_market(text.as_bytes()).is_err(),
                "accepted: {text:?}"
            );
        }
    }

    #[test]
    fn rejects_inconsistencies() {
        // Declared 2 entries, has 1.
        let text = "%%MatrixMarket matrix coordinate real general\n2 2 2\n1 1 1\n";
        assert!(read_matrix_market(text.as_bytes()).is_err());
        // Zero-based index.
        let text = "%%MatrixMarket matrix coordinate real general\n2 2 1\n0 1 1\n";
        assert!(read_matrix_market(text.as_bytes()).is_err());
        // Out-of-range index.
        let text = "%%MatrixMarket matrix coordinate real general\n2 2 1\n3 1 1\n";
        assert!(read_matrix_market(text.as_bytes()).is_err());
        // Missing value.
        let text = "%%MatrixMarket matrix coordinate real general\n2 2 1\n1 1\n";
        assert!(read_matrix_market(text.as_bytes()).is_err());
    }

    #[test]
    fn rejects_truncated_files() {
        // Header only.
        let text = "%%MatrixMarket matrix coordinate real general\n";
        assert!(matches!(
            read_matrix_market(text.as_bytes()),
            Err(SparseError::MalformedFormat(_))
        ));
        // Size line cut mid-token ("2 2" instead of "2 2 nnz").
        let text = "%%MatrixMarket matrix coordinate real general\n2 2\n";
        assert!(read_matrix_market(text.as_bytes()).is_err());
        // Entry line truncated after the column index.
        let text = "%%MatrixMarket matrix coordinate real general\n2 2 2\n1 1 1.0\n2 2\n";
        assert!(read_matrix_market(text.as_bytes()).is_err());
        // File ends before all declared entries arrive.
        let text = "%%MatrixMarket matrix coordinate real general\n2 2 3\n1 1 1.0\n";
        assert!(read_matrix_market(text.as_bytes()).is_err());
    }

    #[test]
    fn rejects_out_of_range_indices_without_panicking() {
        for entry in ["3 1 1.0", "1 9 1.0", "100 100 1.0"] {
            let text = format!("%%MatrixMarket matrix coordinate real general\n2 2 1\n{entry}\n");
            assert!(matches!(
                read_matrix_market(text.as_bytes()),
                Err(SparseError::IndexOutOfBounds { .. } | SparseError::MalformedFormat(_))
            ));
        }
        // Symmetric mirror of an out-of-range entry must also error, not
        // panic.
        let text = "%%MatrixMarket matrix coordinate real symmetric\n2 2 1\n1 3 1.0\n";
        assert!(read_matrix_market(text.as_bytes()).is_err());
    }

    #[test]
    fn rejects_non_finite_values() {
        for bad in ["NaN", "nan", "inf", "-inf", "infinity", "1e999"] {
            let text = format!("%%MatrixMarket matrix coordinate real general\n2 2 1\n1 1 {bad}\n");
            let err = read_matrix_market(text.as_bytes()).unwrap_err();
            assert!(
                matches!(err, SparseError::MalformedFormat(ref m) if m.contains("non-finite")),
                "{bad} -> {err:?}"
            );
        }
        // Finite extremes still pass.
        let text = "%%MatrixMarket matrix coordinate real general\n2 2 1\n1 1 3.4e38\n";
        assert!(read_matrix_market(text.as_bytes()).is_ok());
    }

    #[test]
    fn oversized_dimensions_are_a_typed_error() {
        for size in ["5000000000 1 0", "1 5000000000 0"] {
            let text = format!("%%MatrixMarket matrix coordinate real general\n{size}\n");
            let err = read_matrix_market(text.as_bytes()).unwrap_err();
            assert!(
                matches!(err, SparseError::MalformedFormat(ref m) if m.contains("u32")),
                "{size} -> {err:?}"
            );
        }
    }

    #[test]
    fn implausible_dimensions_are_a_typed_error() {
        // Regression: this size line passed the u32 check and the reader
        // returned a 1-entry matrix whose `to_csc` aborted allocating a
        // 32 GB column pointer.
        for (size, entry) in [
            ("4000000000 4000000000 1", "1 1 1.0"),
            ("20000000 3 1", "1 1 1.0"),
            ("3 20000000 1", "1 1 1.0"),
        ] {
            let text = format!("%%MatrixMarket matrix coordinate real general\n{size}\n{entry}\n");
            let err = read_matrix_market(text.as_bytes()).unwrap_err();
            assert!(
                matches!(err, SparseError::MalformedFormat(ref m) if m.contains("implausible")),
                "{size} -> {err:?}"
            );
        }
        // Small shapes pass whatever the nnz, empty ones included; large
        // ones pass with enough entries (symmetric entries count twice).
        let text = "%%MatrixMarket matrix coordinate real general\n16777216 3 1\n1 1 1.0\n";
        assert_eq!(read_matrix_market(text.as_bytes()).unwrap().nnz(), 1);
        let text = "%%MatrixMarket matrix coordinate real general\n1000 1000 0\n";
        assert_eq!(
            read_matrix_market(text.as_bytes()).unwrap().shape(),
            (1000, 1000)
        );
        let header = "%%MatrixMarket matrix coordinate pattern symmetric\n32 33554432 1048576\n";
        let err = read_matrix_market(header.as_bytes()).unwrap_err();
        assert!(
            matches!(err, SparseError::MalformedFormat(ref m) if m.contains("file contained 0")),
            "{err:?}"
        );
    }

    #[test]
    fn huge_declared_nnz_is_not_reserved_up_front() {
        // A header declaring 10^12 entries followed by one entry: the
        // reader must reach the count check instead of aborting on a
        // multi-terabyte reservation.
        let text = "%%MatrixMarket matrix coordinate real general\n1 1 1000000000000\n1 1 1.0\n";
        let err = read_matrix_market(text.as_bytes()).unwrap_err();
        assert!(
            matches!(err, SparseError::MalformedFormat(ref m) if m.contains("file contained 1")),
            "{err:?}"
        );
        // The symmetric mirror of a usize-max count overflows: typed too.
        let text = format!(
            "%%MatrixMarket matrix coordinate real symmetric\n1 1 {}\n1 1 1.0\n",
            usize::MAX
        );
        let err = read_matrix_market(text.as_bytes()).unwrap_err();
        assert!(
            matches!(err, SparseError::MalformedFormat(ref m) if m.contains("overflows")),
            "{err:?}"
        );
    }

    #[test]
    fn roundtrip_preserves_matrix() {
        let mut m = Coo::new(4, 5);
        for (r, c, v) in [(0, 0, 1.0f32), (3, 4, -2.5), (1, 2, 0.125)] {
            m.push(r, c, v).unwrap();
        }
        let mut buf = Vec::new();
        write_matrix_market(&mut buf, &m).unwrap();
        let back = read_matrix_market(buf.as_slice()).unwrap();
        assert_eq!(back.shape(), m.shape());
        assert_eq!(back.to_dense(), m.to_dense());
    }
}
