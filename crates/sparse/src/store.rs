//! Chunked on-disk sparse store, column-major.
//!
//! For graphs bigger than host memory, the whole-matrix [`Csc`] stops
//! being the unit of I/O: the out-of-core execution layer needs to
//! materialize *one column shard at a time*, drop it after its rounds, and
//! plan shard boundaries without ever loading values. This module stores
//! a sparse matrix on disk along the one axis the engines stream — by
//! column, as the accelerator broadcasts `A[:, j]` per non-zero `b(j, k)`
//! (paper Eq. 4 / Fig. 5):
//!
//! ```text
//! store/
//!   manifest.json            format v2: shape, nnz, per-chunk profiles
//!   by_column/
//!     indptr.bin             full Col Ptr (u64 LE, cols + 1 entries)
//!     data/chunk-00000.bin   values (f32 LE) of the chunk's columns
//!     indices/chunk-00000.bin  row indices (u32 LE) of the chunk's columns
//! ```
//!
//! Chunks are **column-aligned**: each chunk covers a contiguous range of
//! columns filled greedily to a target nnz count, so any `col_range`
//! materializes by reading only the chunks it overlaps — never a
//! partial-column seek. Every chunk file is a checksummed blob (byte-level
//! run-length compression when it helps, raw otherwise), and the manifest
//! records each chunk's column range, nnz, heaviest column, and on-disk
//! payload size — enough for the partitioner to plan nnz-balanced cuts and
//! for the cost model to forecast read traffic, all without touching
//! `data/`.
//!
//! # Validation
//!
//! [`SparseStore::open`] performs one full streaming pass over every chunk
//! (peak memory: one decompressed chunk) and rejects truncated or corrupt
//! chunk files, manifest/chunk nnz mismatches, out-of-bounds indices, and
//! non-finite values with typed [`StoreError`]s — a bad store never panics
//! mid-stream in the execution layer. A store of another format version
//! is a typed [`StoreError::Manifest`], never a misread.
//!
//! # Example
//!
//! ```
//! use awb_sparse::store::SparseStore;
//! use awb_sparse::Coo;
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let dir = std::env::temp_dir().join(format!("awb-store-doc-{}", std::process::id()));
//! # let _ = std::fs::remove_dir_all(&dir);
//! let mut a = Coo::new(4, 4);
//! a.push(0, 1, 2.0)?;
//! a.push(3, 2, -1.0)?;
//! let a = a.to_csc();
//! let store = SparseStore::write_with_chunk_nnz(&dir, &a, 1)?;
//! assert_eq!(store.read_csc()?, a);
//! assert_eq!(store.read_col_range(1..3)?, a.col_range(1..3));
//! # std::fs::remove_dir_all(&dir)?;
//! # Ok(())
//! # }
//! ```

use crate::Csc;
use std::fmt;
use std::fs;
use std::io::{Read, Write};
use std::ops::Range;
use std::path::{Path, PathBuf};

/// On-disk format version written to (and required in) the manifest.
/// Version 1 also carried a by-row mirror; a v1 store fails
/// [`SparseStore::open`] with a typed [`StoreError::Manifest`].
pub const FORMAT_VERSION: u64 = 2;

/// Format tag written to the manifest.
pub const FORMAT_NAME: &str = "awb-sparse-store";

/// Subdirectory holding the column-major chunks.
const COLUMN_DIR: &str = "by_column";

/// Default per-chunk nnz target: 64 Ki non-zeros ≈ 512 KiB of raw
/// value+index payload per chunk — large enough to amortize per-file
/// overhead, small enough that a shard spanning a few chunks stays a
/// bounded read unit.
pub const DEFAULT_CHUNK_NNZ: usize = 64 * 1024;

/// Magic bytes opening every chunk/indptr blob.
const BLOB_MAGIC: [u8; 4] = *b"AWBS";

/// Blob codec: raw payload.
const CODEC_RAW: u8 = 0;
/// Blob codec: byte-level run-length encoding (see [`rle_encode`]).
const CODEC_RLE: u8 = 1;

/// Errors from writing, opening, or reading a [`SparseStore`].
///
/// Kept separate from [`crate::SparseError`] (which is `Eq` and cannot
/// carry I/O context); the accelerator layer maps these to its
/// `InvalidInput`-style ingest errors.
#[derive(Debug)]
#[non_exhaustive]
pub enum StoreError {
    /// Filesystem-level failure (open/create/read/write).
    Io {
        /// The file or directory the operation touched.
        path: PathBuf,
        /// Stringified OS error.
        detail: String,
    },
    /// The manifest is missing, unparsable, or internally inconsistent.
    Manifest {
        /// The manifest path.
        path: PathBuf,
        /// What was wrong.
        detail: String,
    },
    /// A chunk or indptr blob is truncated, fails its checksum, disagrees
    /// with the manifest, holds out-of-bounds indices, or holds
    /// non-finite values.
    Corrupt {
        /// The offending file.
        path: PathBuf,
        /// What was wrong.
        detail: String,
    },
    /// The request itself is invalid (bad range, zero chunk target,
    /// refusing to overwrite an existing store).
    InvalidInput(String),
}

impl fmt::Display for StoreError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            StoreError::Io { path, detail } => {
                write!(f, "store io error at {}: {detail}", path.display())
            }
            StoreError::Manifest { path, detail } => {
                write!(f, "store manifest error at {}: {detail}", path.display())
            }
            StoreError::Corrupt { path, detail } => {
                write!(f, "corrupt store file {}: {detail}", path.display())
            }
            StoreError::InvalidInput(msg) => write!(f, "invalid store request: {msg}"),
        }
    }
}

impl std::error::Error for StoreError {}

/// Convenience alias for store results.
pub type StoreResult<T> = std::result::Result<T, StoreError>;

/// Manifest profile of one chunk: the contiguous column range it covers,
/// its nnz count, its heaviest single column, and its on-disk payload
/// size — everything a planner needs without reading `data/`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ChunkProfile {
    /// Half-open column range `lo..hi`.
    pub lines: Range<usize>,
    /// Non-zeros inside the range.
    pub nnz: usize,
    /// Heaviest single column inside the range.
    pub max_line_nnz: usize,
    /// Compressed bytes of the chunk's two payload files on disk.
    pub disk_bytes: u64,
}

/// An opened (validated) chunked sparse store. See the module docs for
/// the layout.
#[derive(Debug, Clone)]
pub struct SparseStore {
    dir: PathBuf,
    rows: usize,
    cols: usize,
    nnz: usize,
    /// Full `Col Ptr` (`cols + 1` entries), loaded at open — the O(cols)
    /// half kept resident; values and indices stream.
    col_ptr: Vec<usize>,
    chunks: Vec<ChunkProfile>,
}

impl SparseStore {
    /// Writes `a` to `dir` with the default chunk target, then re-opens it
    /// — so every store returned by `write` has passed the same validation
    /// pass as [`open`](SparseStore::open).
    ///
    /// # Errors
    ///
    /// [`StoreError::InvalidInput`] if `dir` already holds a store;
    /// [`StoreError::Io`] on filesystem failure.
    pub fn write(dir: impl AsRef<Path>, a: &Csc) -> StoreResult<SparseStore> {
        SparseStore::write_with_chunk_nnz(dir, a, DEFAULT_CHUNK_NNZ)
    }

    /// [`write`](SparseStore::write) with an explicit per-chunk nnz
    /// target: each chunk greedily takes whole columns until it holds at
    /// least `chunk_nnz` non-zeros (so a single column heavier than the
    /// target still gets its own chunk — columns are the indivisible unit).
    ///
    /// # Errors
    ///
    /// [`StoreError::InvalidInput`] if `chunk_nnz == 0` or `dir` already
    /// holds a store; [`StoreError::Io`] on filesystem failure.
    pub fn write_with_chunk_nnz(
        dir: impl AsRef<Path>,
        a: &Csc,
        chunk_nnz: usize,
    ) -> StoreResult<SparseStore> {
        let dir = dir.as_ref();
        if chunk_nnz == 0 {
            return Err(StoreError::InvalidInput(
                "chunk nnz target must be >= 1".into(),
            ));
        }
        if SparseStore::exists(dir) {
            return Err(StoreError::InvalidInput(format!(
                "{} already holds a store manifest; refusing to overwrite",
                dir.display()
            )));
        }
        fs::create_dir_all(dir).map_err(|e| io_err(dir, &e))?;

        let chunks = write_chunks(&dir.join(COLUMN_DIR), a, chunk_nnz)?;
        let manifest = render_manifest(a.rows(), a.cols(), a.nnz(), &chunks);
        let manifest_path = dir.join("manifest.json");
        fs::write(&manifest_path, manifest).map_err(|e| io_err(&manifest_path, &e))?;

        SparseStore::open(dir)
    }

    /// True when `dir` contains a store manifest (the cheap existence
    /// probe callers use to decide between ingest and open).
    pub fn exists(dir: impl AsRef<Path>) -> bool {
        dir.as_ref().join("manifest.json").is_file()
    }

    /// Opens and fully validates the store at `dir`: parses the manifest,
    /// loads the `indptr`, and makes one streaming pass over every chunk
    /// (decompress, checksum, length vs manifest nnz, index bounds, value
    /// finiteness) with one chunk resident at a time.
    ///
    /// # Errors
    ///
    /// [`StoreError::Manifest`] for a missing/unparsable/inconsistent
    /// manifest or another format version, [`StoreError::Corrupt`] for
    /// truncated or corrupt blobs, nnz mismatches, out-of-bounds indices,
    /// or non-finite values, and [`StoreError::Io`] for filesystem
    /// failures.
    pub fn open(dir: impl AsRef<Path>) -> StoreResult<SparseStore> {
        let dir = dir.as_ref().to_path_buf();
        let manifest_path = dir.join("manifest.json");
        let text = fs::read_to_string(&manifest_path).map_err(|e| StoreError::Manifest {
            path: manifest_path.clone(),
            detail: format!("cannot read manifest: {e}"),
        })?;
        let parsed = parse_manifest(&text).map_err(|detail| StoreError::Manifest {
            path: manifest_path.clone(),
            detail,
        })?;
        let col_ptr = validate_chunks(&dir.join(COLUMN_DIR), &parsed, &manifest_path)?;
        Ok(SparseStore {
            dir,
            rows: parsed.rows,
            cols: parsed.cols,
            nnz: parsed.nnz,
            col_ptr,
            chunks: parsed.chunks,
        })
    }

    /// The store's directory.
    pub fn dir(&self) -> &Path {
        &self.dir
    }

    /// Number of rows of the stored matrix.
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Number of columns of the stored matrix.
    pub fn cols(&self) -> usize {
        self.cols
    }

    /// Number of stored non-zeros.
    pub fn nnz(&self) -> usize {
        self.nnz
    }

    /// Per-chunk profiles in ascending column order (what the
    /// store-backed partitioner plans over).
    pub fn column_chunks(&self) -> &[ChunkProfile] {
        &self.chunks
    }

    /// The full resident `Col Ptr` (`cols + 1` entries).
    pub fn col_ptr(&self) -> &[usize] {
        &self.col_ptr
    }

    /// Non-zeros inside a column range (O(1), from the resident pointer).
    ///
    /// # Panics
    ///
    /// Panics if `range.end > cols` or the range is decreasing.
    pub fn range_nnz(&self, range: Range<usize>) -> usize {
        self.col_ptr[range.end] - self.col_ptr[range.start]
    }

    /// Total compressed payload bytes on disk (what one full streaming
    /// pass reads). The cost model's I/O volume.
    pub fn column_disk_bytes(&self) -> u64 {
        self.chunks.iter().map(|c| c.disk_bytes).sum()
    }

    /// Materializes columns `lo..hi` as a [`Csc`] slice, bit-identical to
    /// [`Csc::col_range`] on the originally written matrix, by reading
    /// only the chunks the range overlaps (rebasing the resident pointer
    /// and decompressing one chunk at a time).
    ///
    /// # Errors
    ///
    /// [`StoreError::InvalidInput`] for an out-of-range request;
    /// [`StoreError::Io`]/[`StoreError::Corrupt`] if the underlying files
    /// fail or changed since [`open`](SparseStore::open).
    pub fn read_col_range(&self, range: Range<usize>) -> StoreResult<Csc> {
        if range.start > range.end || range.end > self.cols {
            return Err(StoreError::InvalidInput(format!(
                "column range {}..{} out of bounds for {} columns",
                range.start, range.end, self.cols
            )));
        }
        let base = self.col_ptr[range.start];
        let ptr: Vec<usize> = self.col_ptr[range.start..=range.end]
            .iter()
            .map(|&p| p - base)
            .collect();
        let total = self.col_ptr[range.end] - base;
        let mut idx: Vec<u32> = Vec::with_capacity(total);
        let mut vals: Vec<f32> = Vec::with_capacity(total);
        let dir = self.dir.join(COLUMN_DIR);
        for (k, chunk) in self.chunks.iter().enumerate() {
            if chunk.lines.end <= range.start {
                continue;
            }
            if chunk.lines.start >= range.end {
                break;
            }
            let lo = range.start.max(chunk.lines.start);
            let hi = range.end.min(chunk.lines.end);
            let chunk_base = self.col_ptr[chunk.lines.start];
            let span = (self.col_ptr[lo] - chunk_base)..(self.col_ptr[hi] - chunk_base);
            let idx_path = dir.join("indices").join(chunk_file(k));
            let chunk_idx = bytes_to_u32(&read_blob(&idx_path)?, &idx_path)?;
            let val_path = dir.join("data").join(chunk_file(k));
            let chunk_vals = bytes_to_f32(&read_blob(&val_path)?, &val_path)?;
            if chunk_idx.len() != chunk.nnz || chunk_vals.len() != chunk.nnz {
                return Err(StoreError::Corrupt {
                    path: idx_path,
                    detail: format!(
                        "chunk {k} holds {} indices / {} values, manifest says {}",
                        chunk_idx.len(),
                        chunk_vals.len(),
                        chunk.nnz
                    ),
                });
            }
            idx.extend_from_slice(&chunk_idx[span.clone()]);
            vals.extend_from_slice(&chunk_vals[span]);
        }
        Csc::from_parts(self.rows, range.len(), ptr, idx, vals).map_err(|e| StoreError::Corrupt {
            path: dir,
            detail: format!("chunk data does not assemble into a valid CSC slice: {e}"),
        })
    }

    /// Reads the whole matrix back as a [`Csc`].
    ///
    /// # Errors
    ///
    /// As [`read_col_range`](SparseStore::read_col_range).
    pub fn read_csc(&self) -> StoreResult<Csc> {
        self.read_col_range(0..self.cols)
    }
}

/// `chunk-NNNNN.bin` file name for chunk `k`.
fn chunk_file(k: usize) -> String {
    format!("chunk-{k:05}.bin")
}

fn io_err(path: &Path, e: &std::io::Error) -> StoreError {
    StoreError::Io {
        path: path.to_path_buf(),
        detail: e.to_string(),
    }
}

/// Greedy column-aligned chunking: each chunk takes whole columns until
/// it holds at least `target` nnz (always at least one column).
fn plan_chunks(ptr: &[usize], target: usize) -> Vec<Range<usize>> {
    let n = ptr.len() - 1;
    let mut out = Vec::new();
    let mut lo = 0usize;
    while lo < n {
        let mut hi = lo + 1;
        while hi < n && ptr[hi] - ptr[lo] < target {
            hi += 1;
        }
        out.push(lo..hi);
        lo = hi;
    }
    out
}

/// Writes `a`'s `indptr.bin` plus its `data/` and `indices/` chunk files
/// under `dir`, returning the chunk profiles for the manifest.
fn write_chunks(dir: &Path, a: &Csc, chunk_nnz: usize) -> StoreResult<Vec<ChunkProfile>> {
    let data_dir = dir.join("data");
    let idx_dir = dir.join("indices");
    fs::create_dir_all(&data_dir).map_err(|e| io_err(&data_dir, &e))?;
    fs::create_dir_all(&idx_dir).map_err(|e| io_err(&idx_dir, &e))?;

    let ptr = a.col_ptr();
    let ptr_bytes: Vec<u8> = ptr.iter().flat_map(|&p| (p as u64).to_le_bytes()).collect();
    write_blob(&dir.join("indptr.bin"), &ptr_bytes)?;

    let mut chunks = Vec::new();
    for (k, lines) in plan_chunks(ptr, chunk_nnz).into_iter().enumerate() {
        let span = ptr[lines.start]..ptr[lines.end];
        let idx_bytes: Vec<u8> = a.row_idx()[span.clone()]
            .iter()
            .flat_map(|&i| i.to_le_bytes())
            .collect();
        let val_bytes: Vec<u8> = a.values()[span.clone()]
            .iter()
            .flat_map(|&v| v.to_le_bytes())
            .collect();
        let mut disk_bytes = write_blob(&idx_dir.join(chunk_file(k)), &idx_bytes)?;
        disk_bytes += write_blob(&data_dir.join(chunk_file(k)), &val_bytes)?;
        let max_line_nnz = lines
            .clone()
            .map(|l| ptr[l + 1] - ptr[l])
            .max()
            .unwrap_or(0);
        chunks.push(ChunkProfile {
            nnz: span.len(),
            max_line_nnz,
            disk_bytes,
            lines,
        });
    }
    Ok(chunks)
}

/// Validates the manifest's chunks against the blobs under `dir` and
/// returns the resident column pointer (see [`SparseStore::open`] for the
/// checks).
fn validate_chunks(
    dir: &Path,
    manifest: &ParsedManifest,
    manifest_path: &Path,
) -> StoreResult<Vec<usize>> {
    let (rows, cols, nnz, chunks) = (manifest.rows, manifest.cols, manifest.nnz, &manifest.chunks);
    let bad_manifest = |detail: String| StoreError::Manifest {
        path: manifest_path.to_path_buf(),
        detail,
    };

    // Chunks must tile `0..cols` contiguously and conserve nnz.
    if cols == 0 {
        if !chunks.is_empty() {
            return Err(bad_manifest("chunks on a 0-column matrix".into()));
        }
    } else {
        if chunks.first().map(|c| c.lines.start) != Some(0)
            || chunks.last().map(|c| c.lines.end) != Some(cols)
        {
            return Err(bad_manifest(format!("chunks do not cover 0..{cols}")));
        }
        for w in chunks.windows(2) {
            if w[0].lines.end != w[1].lines.start {
                return Err(bad_manifest(format!(
                    "gap or overlap between chunk ranges {:?} and {:?}",
                    w[0].lines, w[1].lines
                )));
            }
        }
        for c in chunks {
            if c.lines.start >= c.lines.end {
                return Err(bad_manifest(format!("empty chunk range {:?}", c.lines)));
            }
        }
    }
    let chunk_nnz_sum = chunks
        .iter()
        .try_fold(0usize, |sum, c| sum.checked_add(c.nnz))
        .ok_or_else(|| bad_manifest("chunk nnz sum overflows".into()))?;
    if chunk_nnz_sum != nnz {
        return Err(bad_manifest(format!(
            "chunk nnz sum {chunk_nnz_sum} != declared nnz {nnz}"
        )));
    }

    // The resident pointer: `cols + 1` u64 entries. A column count whose
    // pointer length overflows cannot describe a real store.
    let ptr_path = dir.join("indptr.bin");
    let Some(ptr_len) = cols.checked_add(1).and_then(|n| n.checked_mul(8)) else {
        return Err(bad_manifest(format!(
            "{cols} columns: an indptr of cols + 1 u64 entries overflows"
        )));
    };
    let ptr_bytes = read_blob(&ptr_path)?;
    if ptr_bytes.len() != ptr_len {
        return Err(StoreError::Corrupt {
            path: ptr_path,
            detail: format!(
                "indptr holds {} bytes, expected {ptr_len} ({cols} columns + 1, u64 each)",
                ptr_bytes.len()
            ),
        });
    }
    let ptr: Vec<usize> = ptr_bytes
        .chunks_exact(8)
        .map(|b| u64::from_le_bytes(b.try_into().expect("chunks_exact(8)")) as usize)
        .collect();
    if ptr[0] != 0 || ptr[cols] != nnz || ptr.windows(2).any(|w| w[0] > w[1]) {
        return Err(StoreError::Corrupt {
            path: ptr_path,
            detail: format!(
                "indptr is not a monotone prefix sum from 0 to {nnz} (starts {}, ends {})",
                ptr[0], ptr[cols]
            ),
        });
    }

    // Per-chunk streaming validation: one decompressed chunk resident at
    // a time.
    for (k, chunk) in chunks.iter().enumerate() {
        let declared = ptr[chunk.lines.end] - ptr[chunk.lines.start];
        if declared != chunk.nnz {
            return Err(StoreError::Corrupt {
                path: ptr_path.clone(),
                detail: format!(
                    "chunk {k} (columns {:?}): manifest says {} nnz, indptr says {declared}",
                    chunk.lines, chunk.nnz
                ),
            });
        }
        let max_line = chunk
            .lines
            .clone()
            .map(|l| ptr[l + 1] - ptr[l])
            .max()
            .unwrap_or(0);
        if max_line != chunk.max_line_nnz {
            return Err(StoreError::Corrupt {
                path: ptr_path.clone(),
                detail: format!(
                    "chunk {k}: manifest max_line_nnz {} disagrees with indptr ({max_line})",
                    chunk.max_line_nnz
                ),
            });
        }

        let idx_path = dir.join("indices").join(chunk_file(k));
        let idx_bytes = read_blob(&idx_path)?;
        if Some(idx_bytes.len()) != chunk.nnz.checked_mul(4) {
            return Err(StoreError::Corrupt {
                path: idx_path,
                detail: format!(
                    "chunk {k} holds {} index bytes, manifest nnz {} needs 4 each",
                    idx_bytes.len(),
                    chunk.nnz
                ),
            });
        }
        for b in idx_bytes.chunks_exact(4) {
            let i = u32::from_le_bytes(b.try_into().expect("chunks_exact(4)")) as usize;
            if i >= rows {
                return Err(StoreError::Corrupt {
                    path: idx_path,
                    detail: format!("chunk {k}: index {i} out of bounds (< {rows} required)"),
                });
            }
        }

        let val_path = dir.join("data").join(chunk_file(k));
        let val_bytes = read_blob(&val_path)?;
        if Some(val_bytes.len()) != chunk.nnz.checked_mul(4) {
            return Err(StoreError::Corrupt {
                path: val_path,
                detail: format!(
                    "chunk {k} holds {} value bytes, manifest nnz {} needs 4 each",
                    val_bytes.len(),
                    chunk.nnz
                ),
            });
        }
        for b in val_bytes.chunks_exact(4) {
            let v = f32::from_le_bytes(b.try_into().expect("chunks_exact(4)"));
            if !v.is_finite() {
                return Err(StoreError::Corrupt {
                    path: val_path,
                    detail: format!(
                        "chunk {k}: non-finite value {v} (NaN/inf entries are rejected at open)"
                    ),
                });
            }
        }
    }

    Ok(ptr)
}

// ---------------------------------------------------------------------
// Blob format: [magic "AWBS"][codec u8][raw_len u64][comp_len u64]
//              [fnv1a(raw) u64][payload comp_len bytes]
// ---------------------------------------------------------------------

/// FNV-1a over a byte slice (the workspace's standard content hash).
fn fnv1a(bytes: &[u8]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in bytes {
        h ^= b as u64;
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

/// Byte-level run-length encoding. Control byte `c`:
/// `c < 0x80` — copy the next `c + 1` literal bytes (runs of 1..=128);
/// `c >= 0x80` — repeat the next byte `c - 0x80 + 3` times (3..=130).
/// Worst case (no runs) adds one control byte per 128 literals.
fn rle_encode(raw: &[u8]) -> Vec<u8> {
    let mut out = Vec::with_capacity(raw.len() / 4);
    let mut i = 0usize;
    let mut lit_start = 0usize;
    while i < raw.len() {
        let mut run = 1usize;
        while i + run < raw.len() && raw[i + run] == raw[i] && run < 130 {
            run += 1;
        }
        if run >= 3 {
            flush_literals(&mut out, &raw[lit_start..i]);
            out.push(0x80 + (run - 3) as u8);
            out.push(raw[i]);
            i += run;
            lit_start = i;
        } else {
            i += run;
        }
    }
    flush_literals(&mut out, &raw[lit_start..]);
    out
}

fn flush_literals(out: &mut Vec<u8>, mut lit: &[u8]) {
    while !lit.is_empty() {
        let take = lit.len().min(128);
        out.push((take - 1) as u8);
        out.extend_from_slice(&lit[..take]);
        lit = &lit[take..];
    }
}

/// Decodes [`rle_encode`] output; `None` on a malformed stream or when
/// the decoded length disagrees with `raw_len`.
fn rle_decode(comp: &[u8], raw_len: usize) -> Option<Vec<u8>> {
    let mut out = Vec::with_capacity(raw_len);
    let mut i = 0usize;
    while i < comp.len() {
        let c = comp[i];
        i += 1;
        if c < 0x80 {
            let take = c as usize + 1;
            if i + take > comp.len() {
                return None;
            }
            out.extend_from_slice(&comp[i..i + take]);
            i += take;
        } else {
            let b = *comp.get(i)?;
            i += 1;
            out.resize(out.len() + (c as usize - 0x80 + 3), b);
        }
        if out.len() > raw_len {
            return None;
        }
    }
    (out.len() == raw_len).then_some(out)
}

/// Writes `raw` as a checksummed blob (RLE when it helps, raw otherwise),
/// returning the payload bytes written (the compressed size).
fn write_blob(path: &Path, raw: &[u8]) -> StoreResult<u64> {
    let rle = rle_encode(raw);
    let (codec, payload) = if rle.len() < raw.len() {
        (CODEC_RLE, rle.as_slice())
    } else {
        (CODEC_RAW, raw)
    };
    let mut f = fs::File::create(path).map_err(|e| io_err(path, &e))?;
    let mut header = Vec::with_capacity(29);
    header.extend_from_slice(&BLOB_MAGIC);
    header.push(codec);
    header.extend_from_slice(&(raw.len() as u64).to_le_bytes());
    header.extend_from_slice(&(payload.len() as u64).to_le_bytes());
    header.extend_from_slice(&fnv1a(raw).to_le_bytes());
    f.write_all(&header).map_err(|e| io_err(path, &e))?;
    f.write_all(payload).map_err(|e| io_err(path, &e))?;
    Ok(payload.len() as u64)
}

/// Reads a blob back, verifying magic, codec, payload length, and
/// checksum. Truncation at any point is a typed [`StoreError::Corrupt`].
fn read_blob(path: &Path) -> StoreResult<Vec<u8>> {
    let mut f = fs::File::open(path).map_err(|e| io_err(path, &e))?;
    let mut bytes = Vec::new();
    f.read_to_end(&mut bytes).map_err(|e| io_err(path, &e))?;
    let corrupt = |detail: String| StoreError::Corrupt {
        path: path.to_path_buf(),
        detail,
    };
    if bytes.len() < 29 {
        return Err(corrupt(format!(
            "truncated blob header ({} bytes, need 29)",
            bytes.len()
        )));
    }
    if bytes[..4] != BLOB_MAGIC {
        return Err(corrupt("bad magic (not an awb-sparse-store blob)".into()));
    }
    let codec = bytes[4];
    let raw_len = u64::from_le_bytes(bytes[5..13].try_into().expect("sized")) as usize;
    let comp_len = u64::from_le_bytes(bytes[13..21].try_into().expect("sized")) as usize;
    let checksum = u64::from_le_bytes(bytes[21..29].try_into().expect("sized"));
    let payload = &bytes[29..];
    if payload.len() != comp_len {
        return Err(corrupt(format!(
            "truncated payload ({} bytes, header declares {comp_len})",
            payload.len()
        )));
    }
    let raw = match codec {
        CODEC_RAW => {
            if payload.len() != raw_len {
                return Err(corrupt(format!(
                    "raw payload length {} != declared raw length {raw_len}",
                    payload.len()
                )));
            }
            payload.to_vec()
        }
        CODEC_RLE => rle_decode(payload, raw_len)
            .ok_or_else(|| corrupt("malformed run-length stream".into()))?,
        other => return Err(corrupt(format!("unknown codec byte {other}"))),
    };
    if fnv1a(&raw) != checksum {
        return Err(corrupt("checksum mismatch (payload corrupted)".into()));
    }
    Ok(raw)
}

fn bytes_to_u32(bytes: &[u8], path: &Path) -> StoreResult<Vec<u32>> {
    if bytes.len() % 4 != 0 {
        return Err(StoreError::Corrupt {
            path: path.to_path_buf(),
            detail: format!("payload length {} is not a multiple of 4", bytes.len()),
        });
    }
    Ok(bytes
        .chunks_exact(4)
        .map(|b| u32::from_le_bytes(b.try_into().expect("chunks_exact(4)")))
        .collect())
}

fn bytes_to_f32(bytes: &[u8], path: &Path) -> StoreResult<Vec<f32>> {
    if bytes.len() % 4 != 0 {
        return Err(StoreError::Corrupt {
            path: path.to_path_buf(),
            detail: format!("payload length {} is not a multiple of 4", bytes.len()),
        });
    }
    Ok(bytes
        .chunks_exact(4)
        .map(|b| f32::from_le_bytes(b.try_into().expect("chunks_exact(4)")))
        .collect())
}

// ---------------------------------------------------------------------
// Manifest (hand-rolled JSON; the container has no cargo-registry route)
// ---------------------------------------------------------------------

fn render_manifest(rows: usize, cols: usize, nnz: usize, chunks: &[ChunkProfile]) -> String {
    let mut s = String::new();
    s.push_str("{\n");
    s.push_str(&format!("  \"format\": \"{FORMAT_NAME}\",\n"));
    s.push_str(&format!("  \"version\": {FORMAT_VERSION},\n"));
    s.push_str(&format!("  \"rows\": {rows},\n"));
    s.push_str(&format!("  \"cols\": {cols},\n"));
    s.push_str(&format!("  \"nnz\": {nnz},\n"));
    s.push_str(&format!("  \"{COLUMN_DIR}\": [\n"));
    for (k, c) in chunks.iter().enumerate() {
        s.push_str(&format!(
            "    {{\"start\": {}, \"end\": {}, \"nnz\": {}, \"max_line_nnz\": {}, \
             \"disk_bytes\": {}}}{}\n",
            c.lines.start,
            c.lines.end,
            c.nnz,
            c.max_line_nnz,
            c.disk_bytes,
            if k + 1 < chunks.len() { "," } else { "" }
        ));
    }
    s.push_str("  ]\n}\n");
    s
}

/// Parsed manifest contents.
struct ParsedManifest {
    rows: usize,
    cols: usize,
    nnz: usize,
    chunks: Vec<ChunkProfile>,
}

/// Minimal JSON value for the manifest's shape (objects, arrays, strings,
/// unsigned integers).
enum Json {
    Num(u64),
    Str(String),
    Arr(Vec<Json>),
    Obj(Vec<(String, Json)>),
}

fn parse_manifest(text: &str) -> std::result::Result<ParsedManifest, String> {
    let mut p = JsonParser {
        bytes: text.as_bytes(),
        pos: 0,
    };
    let root = p.parse_value(0)?;
    p.skip_ws();
    if p.pos != p.bytes.len() {
        return Err(format!(
            "trailing bytes after JSON value at offset {}",
            p.pos
        ));
    }
    let Json::Obj(fields) = root else {
        return Err("manifest root is not an object".into());
    };
    let get = |key: &str| -> std::result::Result<&Json, String> {
        fields
            .iter()
            .find(|(k, _)| k == key)
            .map(|(_, v)| v)
            .ok_or_else(|| format!("manifest missing `{key}`"))
    };
    let num = |key: &str| -> std::result::Result<u64, String> {
        match get(key)? {
            Json::Num(n) => Ok(*n),
            _ => Err(format!("manifest `{key}` is not an unsigned integer")),
        }
    };
    match get("format")? {
        Json::Str(s) if s == FORMAT_NAME => {}
        Json::Str(s) => return Err(format!("unknown store format `{s}`")),
        _ => return Err("manifest `format` is not a string".into()),
    }
    let version = num("version")?;
    if version != FORMAT_VERSION {
        return Err(format!(
            "unsupported store format version {version} (this build reads {FORMAT_VERSION})"
        ));
    }
    let Json::Arr(items) = get(COLUMN_DIR)? else {
        return Err(format!("manifest `{COLUMN_DIR}` is not an array"));
    };
    let chunks = items
        .iter()
        .enumerate()
        .map(|(i, item)| {
            let Json::Obj(f) = item else {
                return Err(format!("`{COLUMN_DIR}[{i}]` is not an object"));
            };
            let field = |name: &str| -> std::result::Result<u64, String> {
                match f.iter().find(|(k, _)| k == name).map(|(_, v)| v) {
                    Some(Json::Num(n)) => Ok(*n),
                    Some(_) => Err(format!(
                        "`{COLUMN_DIR}[{i}].{name}` is not an unsigned integer"
                    )),
                    None => Err(format!("`{COLUMN_DIR}[{i}]` missing `{name}`")),
                }
            };
            Ok(ChunkProfile {
                lines: field("start")? as usize..field("end")? as usize,
                nnz: field("nnz")? as usize,
                max_line_nnz: field("max_line_nnz")? as usize,
                disk_bytes: field("disk_bytes")?,
            })
        })
        .collect::<std::result::Result<_, String>>()?;
    Ok(ParsedManifest {
        rows: num("rows")? as usize,
        cols: num("cols")? as usize,
        nnz: num("nnz")? as usize,
        chunks,
    })
}

/// Deepest object/array nesting a manifest has: root object → chunk
/// array → chunk object. The parser is recursive, so anything deeper is
/// rejected before it can exhaust the stack.
const MAX_MANIFEST_DEPTH: usize = 3;

struct JsonParser<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl JsonParser<'_> {
    fn skip_ws(&mut self) {
        while self
            .bytes
            .get(self.pos)
            .is_some_and(|b| b.is_ascii_whitespace())
        {
            self.pos += 1;
        }
    }

    fn expect(&mut self, b: u8) -> std::result::Result<(), String> {
        self.skip_ws();
        if self.bytes.get(self.pos) == Some(&b) {
            self.pos += 1;
            Ok(())
        } else {
            Err(format!("expected `{}` at offset {}", b as char, self.pos))
        }
    }

    /// Parses one value with `depth` objects/arrays already open.
    fn parse_value(&mut self, depth: usize) -> std::result::Result<Json, String> {
        self.skip_ws();
        match self.bytes.get(self.pos) {
            Some(b'{' | b'[') if depth == MAX_MANIFEST_DEPTH => Err(format!(
                "nesting deeper than {MAX_MANIFEST_DEPTH} levels at offset {}",
                self.pos
            )),
            Some(b'{') => self.parse_object(depth + 1),
            Some(b'[') => self.parse_array(depth + 1),
            Some(b'"') => Ok(Json::Str(self.parse_string()?)),
            Some(b) if b.is_ascii_digit() => self.parse_number(),
            Some(b) => Err(format!(
                "unexpected byte `{}` at offset {} (only objects, arrays, strings, and \
                 unsigned integers appear in a store manifest)",
                *b as char, self.pos
            )),
            None => Err("unexpected end of manifest".into()),
        }
    }

    fn parse_object(&mut self, depth: usize) -> std::result::Result<Json, String> {
        self.expect(b'{')?;
        let mut fields = Vec::new();
        self.skip_ws();
        if self.bytes.get(self.pos) == Some(&b'}') {
            self.pos += 1;
            return Ok(Json::Obj(fields));
        }
        loop {
            self.skip_ws();
            let key = self.parse_string()?;
            self.expect(b':')?;
            let value = self.parse_value(depth)?;
            fields.push((key, value));
            self.skip_ws();
            match self.bytes.get(self.pos) {
                Some(b',') => self.pos += 1,
                Some(b'}') => {
                    self.pos += 1;
                    return Ok(Json::Obj(fields));
                }
                _ => return Err(format!("expected `,` or `}}` at offset {}", self.pos)),
            }
        }
    }

    fn parse_array(&mut self, depth: usize) -> std::result::Result<Json, String> {
        self.expect(b'[')?;
        let mut items = Vec::new();
        self.skip_ws();
        if self.bytes.get(self.pos) == Some(&b']') {
            self.pos += 1;
            return Ok(Json::Arr(items));
        }
        loop {
            items.push(self.parse_value(depth)?);
            self.skip_ws();
            match self.bytes.get(self.pos) {
                Some(b',') => self.pos += 1,
                Some(b']') => {
                    self.pos += 1;
                    return Ok(Json::Arr(items));
                }
                _ => return Err(format!("expected `,` or `]` at offset {}", self.pos)),
            }
        }
    }

    fn parse_string(&mut self) -> std::result::Result<String, String> {
        self.expect(b'"')?;
        let start = self.pos;
        while let Some(&b) = self.bytes.get(self.pos) {
            match b {
                b'"' => {
                    let s = std::str::from_utf8(&self.bytes[start..self.pos])
                        .map_err(|_| "non-UTF8 string".to_string())?
                        .to_string();
                    self.pos += 1;
                    return Ok(s);
                }
                b'\\' => {
                    return Err(format!(
                        "escape sequence at offset {} (store manifests never contain them)",
                        self.pos
                    ))
                }
                _ => self.pos += 1,
            }
        }
        Err("unterminated string".into())
    }

    fn parse_number(&mut self) -> std::result::Result<Json, String> {
        let start = self.pos;
        while self.bytes.get(self.pos).is_some_and(|b| b.is_ascii_digit()) {
            self.pos += 1;
        }
        let text = std::str::from_utf8(&self.bytes[start..self.pos]).expect("ascii digits");
        text.parse::<u64>()
            .map(Json::Num)
            .map_err(|_| format!("number `{text}` does not fit u64"))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Coo;

    fn temp_dir(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!(
            "awb-store-test-{tag}-{}-{:?}",
            std::process::id(),
            std::thread::current().id()
        ));
        let _ = fs::remove_dir_all(&dir);
        dir
    }

    fn clustered(n: usize) -> Csc {
        let mut coo = Coo::new(n, n);
        for c in 0..4.min(n) {
            for r in 0..10 {
                coo.push(r % n, c, (r as f32) - 4.5).unwrap();
            }
        }
        for c in 4..n {
            coo.push(c % n, c, 0.25 * c as f32).unwrap();
        }
        coo.to_csc()
    }

    #[test]
    fn roundtrip_is_bit_identical_across_chunk_sizes() {
        let a = clustered(32);
        for chunk_nnz in [1, 3, 7, 1000] {
            let dir = temp_dir(&format!("rt{chunk_nnz}"));
            let store = SparseStore::write_with_chunk_nnz(&dir, &a, chunk_nnz).unwrap();
            assert_eq!(store.shape(), (32, 32));
            let back = store.read_csc().unwrap();
            assert_eq!(back, a);
            assert_eq!(
                back.values()
                    .iter()
                    .map(|v| v.to_bits())
                    .collect::<Vec<_>>(),
                a.values().iter().map(|v| v.to_bits()).collect::<Vec<_>>()
            );
            fs::remove_dir_all(&dir).unwrap();
        }
    }

    impl SparseStore {
        fn shape(&self) -> (usize, usize) {
            (self.rows, self.cols)
        }
    }

    #[test]
    fn col_ranges_match_resident_slices() {
        let a = clustered(24);
        let dir = temp_dir("ranges");
        let store = SparseStore::write_with_chunk_nnz(&dir, &a, 5).unwrap();
        for range in [0..24, 0..1, 23..24, 3..17, 8..8] {
            let slice = store.read_col_range(range.clone()).unwrap();
            assert_eq!(slice, a.col_range(range.clone()), "{range:?}");
        }
        assert!(matches!(
            store.read_col_range(5..30),
            Err(StoreError::InvalidInput(_))
        ));
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn chunks_tile_and_profile_the_matrix() {
        let a = clustered(24);
        let dir = temp_dir("profiles");
        let store = SparseStore::write_with_chunk_nnz(&dir, &a, 6).unwrap();
        let chunks = store.column_chunks();
        assert!(chunks.len() > 1, "expected multiple chunks");
        assert_eq!(chunks.first().unwrap().lines.start, 0);
        assert_eq!(chunks.last().unwrap().lines.end, 24);
        assert_eq!(chunks.iter().map(|c| c.nnz).sum::<usize>(), a.nnz());
        for c in chunks {
            let nnz = store.range_nnz(c.lines.clone());
            assert_eq!(nnz, c.nnz);
            let max = c.lines.clone().map(|l| a.col_nnz(l)).max().unwrap();
            assert_eq!(max, c.max_line_nnz);
            assert!(c.disk_bytes > 0);
        }
        assert!(store.column_disk_bytes() > 0);
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn empty_and_zero_matrices() {
        for (rows, cols) in [(0, 0), (4, 0), (0, 4), (5, 3)] {
            let dir = temp_dir(&format!("empty{rows}x{cols}"));
            let a = Csc::empty(rows, cols);
            let store = SparseStore::write(&dir, &a).unwrap();
            assert_eq!(store.read_csc().unwrap(), a);
            fs::remove_dir_all(&dir).unwrap();
        }
    }

    #[test]
    fn refuses_overwrite_and_zero_chunk_target() {
        let a = clustered(8);
        let dir = temp_dir("overwrite");
        SparseStore::write(&dir, &a).unwrap();
        assert!(matches!(
            SparseStore::write(&dir, &a),
            Err(StoreError::InvalidInput(_))
        ));
        assert!(matches!(
            SparseStore::write_with_chunk_nnz(temp_dir("zc"), &a, 0),
            Err(StoreError::InvalidInput(_))
        ));
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn open_rejects_truncated_chunks() {
        let a = clustered(16);
        let dir = temp_dir("trunc");
        SparseStore::write_with_chunk_nnz(&dir, &a, 4).unwrap();
        let victim = dir.join("by_column").join("data").join(chunk_file(0));
        let bytes = fs::read(&victim).unwrap();
        // Cut the payload short: typed Corrupt, not a panic.
        fs::write(&victim, &bytes[..bytes.len() - 3]).unwrap();
        assert!(matches!(
            SparseStore::open(&dir),
            Err(StoreError::Corrupt { .. })
        ));
        // Header-only truncation too.
        fs::write(&victim, &bytes[..10]).unwrap();
        assert!(matches!(
            SparseStore::open(&dir),
            Err(StoreError::Corrupt { .. })
        ));
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn open_rejects_corrupted_payloads() {
        let a = clustered(16);
        let dir = temp_dir("flip");
        SparseStore::write_with_chunk_nnz(&dir, &a, 4).unwrap();
        let victim = dir.join("by_column").join("data").join(chunk_file(1));
        let mut bytes = fs::read(&victim).unwrap();
        let last = bytes.len() - 1;
        bytes[last] ^= 0xff; // checksum must catch a payload bit flip
        fs::write(&victim, &bytes).unwrap();
        assert!(matches!(
            SparseStore::open(&dir),
            Err(StoreError::Corrupt { .. })
        ));
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn open_rejects_manifest_nnz_mismatch() {
        let a = clustered(16);
        let dir = temp_dir("nnz");
        SparseStore::write_with_chunk_nnz(&dir, &a, 4).unwrap();
        let manifest = dir.join("manifest.json");
        let text = fs::read_to_string(&manifest).unwrap();
        // Bump the declared total nnz: chunk sums no longer reconcile.
        let bumped = text.replace(
            &format!("\"nnz\": {},", a.nnz()),
            &format!("\"nnz\": {},", a.nnz() + 1),
        );
        assert_ne!(text, bumped);
        fs::write(&manifest, bumped).unwrap();
        assert!(matches!(
            SparseStore::open(&dir),
            Err(StoreError::Manifest { .. })
        ));
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn open_rejects_out_of_bounds_indices() {
        let a = clustered(16);
        let dir = temp_dir("oob");
        SparseStore::write_with_chunk_nnz(&dir, &a, 4).unwrap();
        let victim = dir.join("by_column").join("indices").join(chunk_file(0));
        let raw = read_blob(&victim).unwrap();
        let mut idx = bytes_to_u32(&raw, &victim).unwrap();
        idx[0] = 1_000_000; // far past `rows`
        let bytes: Vec<u8> = idx.iter().flat_map(|i| i.to_le_bytes()).collect();
        write_blob(&victim, &bytes).unwrap();
        let err = SparseStore::open(&dir).unwrap_err();
        assert!(
            matches!(err, StoreError::Corrupt { ref detail, .. } if detail.contains("out of bounds")),
            "{err}"
        );
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn open_rejects_non_finite_values() {
        let a = clustered(16);
        let dir = temp_dir("nan");
        SparseStore::write_with_chunk_nnz(&dir, &a, 4).unwrap();
        let victim = dir.join("by_column").join("data").join(chunk_file(0));
        let raw = read_blob(&victim).unwrap();
        let mut vals = bytes_to_f32(&raw, &victim).unwrap();
        vals[0] = f32::NAN;
        let bytes: Vec<u8> = vals.iter().flat_map(|v| v.to_le_bytes()).collect();
        write_blob(&victim, &bytes).unwrap();
        let err = SparseStore::open(&dir).unwrap_err();
        assert!(
            matches!(err, StoreError::Corrupt { ref detail, .. } if detail.contains("non-finite")),
            "{err}"
        );
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn open_rejects_missing_and_garbage_manifests() {
        let dir = temp_dir("missing");
        assert!(matches!(
            SparseStore::open(&dir),
            Err(StoreError::Manifest { .. })
        ));
        fs::create_dir_all(&dir).unwrap();
        fs::write(dir.join("manifest.json"), "not json at all").unwrap();
        assert!(matches!(
            SparseStore::open(&dir),
            Err(StoreError::Manifest { .. })
        ));
        fs::write(
            dir.join("manifest.json"),
            "{\"format\": \"something-else\", \"version\": 1}",
        )
        .unwrap();
        assert!(matches!(
            SparseStore::open(&dir),
            Err(StoreError::Manifest { .. })
        ));
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn rle_roundtrips_and_compresses_runs() {
        let cases: Vec<Vec<u8>> = vec![
            Vec::new(),
            vec![7],
            vec![0; 1000],
            (0..=255u8).collect(),
            (0..1000).map(|i| (i % 3) as u8).collect(),
            [vec![1u8; 200], (0..130).map(|i| i as u8).collect()].concat(),
        ];
        for raw in cases {
            let comp = rle_encode(&raw);
            assert_eq!(rle_decode(&comp, raw.len()).unwrap(), raw);
            // Worst-case bound: one control byte per 128 literals.
            assert!(comp.len() <= raw.len() + raw.len() / 128 + 1);
        }
        // A constant run compresses hard.
        assert!(rle_encode(&vec![0u8; 1000]).len() < 20);
        // Declared-length mismatches are detected.
        let comp = rle_encode(&[1, 2, 3, 4]);
        assert!(rle_decode(&comp, 3).is_none());
        assert!(rle_decode(&comp, 5).is_none());
    }

    #[test]
    fn manifest_renders_and_parses_back() {
        let chunks = vec![
            ChunkProfile {
                lines: 0..3,
                nnz: 10,
                max_line_nnz: 4,
                disk_bytes: 99,
            },
            ChunkProfile {
                lines: 3..8,
                nnz: 2,
                max_line_nnz: 1,
                disk_bytes: 17,
            },
        ];
        let text = render_manifest(9, 8, 12, &chunks);
        let parsed = parse_manifest(&text).unwrap();
        assert_eq!(parsed.rows, 9);
        assert_eq!(parsed.cols, 8);
        assert_eq!(parsed.nnz, 12);
        assert_eq!(parsed.chunks, chunks);
        // Unsupported version is a parse error, not a misread.
        let future = text.replace("\"version\": 2", "\"version\": 3");
        assert_ne!(future, text);
        assert!(parse_manifest(&future).is_err());
    }

    #[test]
    fn deeply_nested_manifest_is_a_typed_error() {
        // 200 000 `[` used to overflow the recursive parser's stack.
        let dir = temp_dir("nesting");
        fs::create_dir_all(&dir).unwrap();
        fs::write(dir.join("manifest.json"), "[".repeat(200_000)).unwrap();
        let err = SparseStore::open(&dir);
        assert!(
            matches!(&err, Err(StoreError::Manifest { detail, .. }) if detail.contains("nesting"))
        );
        // One level past the schema is rejected too.
        let err = parse_manifest(r#"{"by_column": [{"x": []}]}"#);
        assert!(matches!(err, Err(e) if e.contains("nesting")));
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn write_leaves_only_manifest_and_column_axis() {
        let dir = temp_dir("layout");
        SparseStore::write_with_chunk_nnz(&dir, &clustered(16), 4).unwrap();
        let mut entries: Vec<String> = fs::read_dir(&dir)
            .unwrap()
            .map(|e| e.unwrap().file_name().into_string().unwrap())
            .collect();
        entries.sort();
        assert_eq!(entries, ["by_column", "manifest.json"]);
        assert!(dir.join("by_column").is_dir());
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn version_1_store_is_a_typed_error() {
        let dir = temp_dir("v1");
        SparseStore::write_with_chunk_nnz(&dir, &clustered(16), 4).unwrap();
        let manifest = dir.join("manifest.json");
        let text = fs::read_to_string(&manifest).unwrap();
        let v1 = text.replace("\"version\": 2,", "\"version\": 1,");
        assert_ne!(v1, text);
        fs::write(&manifest, v1).unwrap();
        let err = SparseStore::open(&dir).unwrap_err();
        assert!(
            matches!(&err, StoreError::Manifest { detail, .. } if detail.contains("version 1")),
            "{err}"
        );
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn huge_declared_line_count_is_a_typed_error() {
        // Manifests whose declared sizes overflow `usize` arithmetic in
        // `open`, each over well-formed blobs. 2^61 columns make the
        // `(cols + 1) * 8` indptr length overflow: a debug panic, and in
        // release a wrap to 8 bytes that indexed past the pointer. A
        // 2^62-nnz chunk over empty blobs wrapped `nnz * 4` to 0 and
        // opened; two 2^63-nnz chunks overflowed the nnz sum.
        let dir = temp_dir("hugecols");
        SparseStore::write_with_chunk_nnz(&dir, &Csc::empty(4, 0), 4).unwrap();
        let col_dir = dir.join(COLUMN_DIR);
        for k in 0..2 {
            write_blob(&col_dir.join("indices").join(chunk_file(k)), &[]).unwrap();
            write_blob(&col_dir.join("data").join(chunk_file(k)), &[]).unwrap();
        }
        let chunk = |lines: Range<usize>, nnz: usize| ChunkProfile {
            lines,
            nnz,
            max_line_nnz: nnz,
            disk_bytes: 0,
        };
        let (cols, nnz) = (1usize << 61, 1usize << 62);
        let cases = [
            (cols, 0, vec![chunk(0..cols, 0)], vec![0u64], "overflows"),
            (
                1,
                nnz,
                vec![chunk(0..1, nnz)],
                vec![0, nnz as u64],
                "index bytes",
            ),
            (
                2,
                0,
                vec![chunk(0..1, 1 << 63), chunk(1..2, 1 << 63)],
                vec![0],
                "overflows",
            ),
        ];
        for (cols, nnz, chunks, ptr, expect) in cases {
            fs::write(
                dir.join("manifest.json"),
                render_manifest(4, cols, nnz, &chunks),
            )
            .unwrap();
            let ptr: Vec<u8> = ptr.iter().flat_map(|p| p.to_le_bytes()).collect();
            write_blob(&col_dir.join("indptr.bin"), &ptr).unwrap();
            let err = SparseStore::open(&dir).unwrap_err();
            assert!(
                matches!(
                    &err,
                    StoreError::Manifest { detail, .. } | StoreError::Corrupt { detail, .. }
                        if detail.contains(expect)
                ),
                "{cols} columns: {err}"
            );
        }
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn plan_chunks_cover_all_lines() {
        for (ptr, target) in [
            (vec![0usize, 2, 2, 5, 9, 9, 10], 3),
            (vec![0, 0, 0, 0], 1),
            (vec![0, 100], 5),
            (vec![0], 4),
        ] {
            let chunks = plan_chunks(&ptr, target);
            let n = ptr.len() - 1;
            if n == 0 {
                assert!(chunks.is_empty());
                continue;
            }
            assert_eq!(chunks.first().unwrap().start, 0);
            assert_eq!(chunks.last().unwrap().end, n);
            for w in chunks.windows(2) {
                assert_eq!(w[0].end, w[1].start);
            }
        }
    }
}
