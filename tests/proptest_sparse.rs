//! Property-based tests on the sparse-matrix substrate: format round-trips
//! and kernel equivalence against the dense ground truth.

use awb_gcn_repro::sparse::spmm::RowOperand;
use awb_gcn_repro::sparse::store::SparseStore;
use awb_gcn_repro::sparse::{profile, spmm, Coo, Csr, DenseMatrix};
use proptest::prelude::*;
use std::sync::atomic::{AtomicUsize, Ordering};

/// A unique on-disk scratch directory per proptest case (cases run
/// concurrently across test threads and repeatedly within one).
fn store_scratch_dir() -> std::path::PathBuf {
    static CASE: AtomicUsize = AtomicUsize::new(0);
    std::env::temp_dir().join(format!(
        "awb-proptest-store-{}-{}",
        std::process::id(),
        CASE.fetch_add(1, Ordering::Relaxed),
    ))
}

/// Strategy: a random sparse matrix as (rows, cols, triplets).
fn coo_strategy(max_dim: usize, max_nnz: usize) -> impl Strategy<Value = Coo> {
    (1..max_dim, 1..max_dim).prop_flat_map(move |(rows, cols)| {
        proptest::collection::vec((0..rows, 0..cols, -8i32..8), 0..max_nnz).prop_map(
            move |entries| {
                let mut coo = Coo::new(rows, cols);
                for (r, c, v) in entries {
                    // Quantized values keep float sums exact across kernels.
                    coo.push(r, c, v as f32).unwrap();
                }
                coo
            },
        )
    })
}

fn dense_strategy(rows: usize, cols: usize) -> impl Strategy<Value = DenseMatrix> {
    proptest::collection::vec(-8i32..8, rows * cols).prop_map(move |v| {
        DenseMatrix::from_vec(rows, cols, v.into_iter().map(|x| x as f32).collect()).unwrap()
    })
}

proptest! {
    // 128 cases keeps this suite in the hundreds of milliseconds; CI
    // additionally caps every proptest suite via the PROPTEST_CASES
    // environment variable (a cap, never a raise — see vendor/proptest).
    // Known-tricky seeds are pinned in proptest-regressions/tests/.
    #![proptest_config(ProptestConfig::with_cases(128))]

    #[test]
    fn csr_roundtrip_preserves_dense(coo in coo_strategy(24, 64)) {
        let dense = coo.to_dense();
        prop_assert_eq!(coo.to_csr().to_dense(), dense);
    }

    #[test]
    fn csc_roundtrip_preserves_dense(coo in coo_strategy(24, 64)) {
        let dense = coo.to_dense();
        prop_assert_eq!(coo.to_csc().to_dense(), dense);
    }

    #[test]
    fn csr_csc_cross_conversion(coo in coo_strategy(24, 64)) {
        let csr = coo.to_csr();
        prop_assert_eq!(csr.to_csc().to_csr(), csr.clone());
        let csc = coo.to_csc();
        prop_assert_eq!(csc.to_csr().to_csc(), csc);
    }

    #[test]
    fn nnz_counts_agree(coo in coo_strategy(24, 64)) {
        let dense = coo.to_dense();
        let csr = coo.to_csr();
        let csc = coo.to_csc();
        prop_assert_eq!(csr.nnz(), dense.nnz());
        prop_assert_eq!(csc.nnz(), dense.nnz());
        prop_assert_eq!(
            csr.row_nnz_counts().iter().sum::<usize>(),
            csr.nnz()
        );
        prop_assert_eq!(csc.row_nnz_counts(), csr.row_nnz_counts());
    }

    #[test]
    fn transpose_involution(coo in coo_strategy(16, 48)) {
        let csr = coo.to_csr();
        prop_assert_eq!(csr.transpose().transpose(), csr);
    }

    #[test]
    fn spmm_kernels_agree_with_dense_matmul(
        coo in coo_strategy(12, 32),
        cols in 1usize..6,
        seed in 0u64..1000,
    ) {
        let a_dense = coo.to_dense();
        // Derive a deterministic small dense B.
        let b = {
            let n = coo.cols() * cols;
            let data: Vec<f32> = (0..n)
                .map(|i| (((i as u64 * 2654435761 + seed) >> 7) % 9) as f32 - 4.0)
                .collect();
            DenseMatrix::from_vec(coo.cols(), cols, data).unwrap()
        };
        let expect = a_dense.matmul(&b).unwrap();
        let via_csc = spmm::csc_times_dense(&coo.to_csc(), &b).unwrap();
        let via_csr = spmm::csr_times_dense(&coo.to_csr(), &b).unwrap();
        prop_assert!(via_csc.approx_eq(&expect, 1e-3));
        prop_assert!(via_csr.approx_eq(&expect, 1e-3));
    }

    /// The blocked accumulate kernel must be *bit-identical* to the scalar
    /// column kernel — not approximately equal — because every bit-identity
    /// pin in the repo (sharded merge, replay, golden CLI) rides on it.
    /// B deliberately mixes negative zeros and exactly-cancelling pairs so
    /// the all-lanes-zero skip and the ±0.0 no-op argument both get hit,
    /// and the width range straddles multiples and non-multiples of the
    /// 8/4-lane dispatch.
    #[test]
    fn blocked_spmm_bit_identical_to_scalar(
        coo in coo_strategy(20, 96),
        width in 1usize..20,
        seed in 0u64..1000,
    ) {
        let a = coo.to_csc();
        let b = {
            let n = coo.cols() * width;
            let data: Vec<f32> = (0..n)
                .map(|i| {
                    let h = (i as u64).wrapping_mul(2654435761).wrapping_add(seed) >> 6;
                    match h % 8 {
                        0 => 0.0,
                        1 => -0.0,
                        v => (v as f32) - 4.5,
                    }
                })
                .collect();
            DenseMatrix::from_vec(coo.cols(), width, data).unwrap()
        };
        let scalar = spmm::csc_times_dense(&a, &b).unwrap();
        let blocked = spmm::csc_times_dense_blocked(&a, &b).unwrap();
        // Compare bit patterns, not f32 semantics: -0.0 == +0.0 would
        // mask a sign-of-zero divergence.
        let scalar_bits: Vec<u32> = scalar.into_vec().iter().map(|v| v.to_bits()).collect();
        let blocked_bits: Vec<u32> = blocked.into_vec().iter().map(|v| v.to_bits()).collect();
        prop_assert_eq!(blocked_bits, scalar_bits);
    }

    #[test]
    fn spgemm_agrees_with_dense(
        a in coo_strategy(10, 24),
        b_seed in 0u64..100,
    ) {
        // Square B with same dim as a.cols() so shapes always chain.
        let k = a.cols();
        let mut b = Coo::new(k, k);
        for i in 0..k {
            let j = ((i as u64 * 7 + b_seed) % k as u64) as usize;
            b.push(i, j, ((b_seed % 5) as f32) - 2.0).unwrap();
        }
        let expect = a.to_dense().matmul(&b.to_dense()).unwrap();
        let got = spmm::csr_times_csr(&a.to_csr(), &b.to_csr()).unwrap();
        prop_assert!(got.approx_eq(&expect, 1e-3));
    }

    #[test]
    fn mac_count_equals_reference_work(
        coo in coo_strategy(12, 32),
        b in (1usize..5).prop_flat_map(|c| dense_strategy(32, c)),
    ) {
        prop_assume!(coo.cols() <= b.rows());
        // Pad A's column count up to b.rows() by reinterpreting: easier to
        // just rebuild a COO with cols == b.rows().
        let mut a = Coo::new(coo.rows(), b.rows());
        for (r, c, v) in coo.iter() {
            a.push(r, c, v).unwrap();
        }
        let a = a.to_csc();
        // The MAC count must equal the number of (nnz(A col j), b(j,k)!=0)
        // pairings, computed independently here.
        let mut manual = 0usize;
        for k in 0..b.cols() {
            for j in 0..a.cols() {
                if b.get(j, k) != 0.0 {
                    manual += a.col_nnz(j);
                }
            }
        }
        prop_assert_eq!(spmm::csc_times_dense_macs(&a, &b).unwrap(), manual);
    }

    #[test]
    fn gini_bounded_and_ordered(counts in proptest::collection::vec(0usize..100, 1..200)) {
        let g = profile::gini_coefficient(&counts);
        prop_assert!((0.0..=1.0).contains(&g), "gini {g}");
        // Perfectly even distribution of the same total has lower-or-equal
        // Gini.
        let total: usize = counts.iter().sum();
        let even = vec![total / counts.len().max(1); counts.len()];
        prop_assert!(profile::gini_coefficient(&even) <= g + 1e-9);
    }

    #[test]
    fn histogram_conserves_rows(coo in coo_strategy(32, 128)) {
        let csr = coo.to_csr();
        let hist = profile::RowNnzHistogram::of(&csr);
        prop_assert_eq!(hist.bins.iter().sum::<usize>(), csr.rows());
    }

    #[test]
    fn heatmap_conserves_nnz(coo in coo_strategy(32, 128), grid in 1usize..8) {
        let csr = coo.to_csr();
        let map = profile::BlockHeatmap::of(&csr, grid);
        prop_assert_eq!(map.counts.iter().sum::<usize>(), csr.nnz());
    }

    #[test]
    fn matrix_market_roundtrip(coo in coo_strategy(24, 64)) {
        use awb_gcn_repro::sparse::io::{read_matrix_market, write_matrix_market};
        // Deduplicate via CSR first: matrix market has one entry per cell.
        let canonical = coo.to_csr().to_coo();
        let mut buf = Vec::new();
        write_matrix_market(&mut buf, &canonical).unwrap();
        let back = read_matrix_market(buf.as_slice()).unwrap();
        prop_assert_eq!(back.shape(), canonical.shape());
        prop_assert_eq!(back.to_dense(), canonical.to_dense());
    }

    /// `ColumnPartitioner::by_shards` always tiles the column space
    /// contiguously — every column in exactly one shard, no empty shards,
    /// shard count clamped to the column count, nnz conserved.
    #[test]
    fn partitioner_by_shards_covers_every_column_once(
        coo in coo_strategy(32, 160),
        k in 1usize..10,
    ) {
        use awb_gcn_repro::sparse::partition::ColumnPartitioner;
        let a = coo.to_csc();
        let shards = ColumnPartitioner::by_shards(k).partition(&a);
        prop_assert_eq!(shards.len(), k.min(a.cols()));
        let mut cursor = 0usize;
        for s in &shards {
            prop_assert_eq!(s.cols.start, cursor, "gap or overlap");
            prop_assert!(!s.cols.is_empty());
            cursor = s.cols.end;
            // Profile consistency against the actual slice.
            let slice = s.slice(&a);
            prop_assert_eq!(slice.nnz(), s.nnz);
            prop_assert_eq!(slice.shape(), (a.rows(), s.n_cols()));
        }
        prop_assert_eq!(cursor, a.cols());
        prop_assert_eq!(shards.iter().map(|s| s.nnz).sum::<usize>(), a.nnz());
    }

    /// `ColumnPartitioner::by_max_nnz` never exceeds the budget (whenever
    /// the budget admits the heaviest single column — columns are the
    /// indivisible unit) while still covering every column exactly once.
    #[test]
    fn partitioner_by_max_nnz_respects_budget(
        coo in coo_strategy(32, 160),
        slack in 0usize..40,
    ) {
        use awb_gcn_repro::sparse::partition::ColumnPartitioner;
        let a = coo.to_csc();
        let heaviest = (0..a.cols()).map(|c| a.col_nnz(c)).max().unwrap_or(0);
        let budget = heaviest.max(1) + slack;
        let shards = ColumnPartitioner::by_max_nnz(budget).partition(&a);
        let mut cursor = 0usize;
        for s in &shards {
            prop_assert_eq!(s.cols.start, cursor);
            cursor = s.cols.end;
            prop_assert!(s.nnz <= budget, "shard {:?} holds {} > budget {}", s.cols, s.nnz, budget);
        }
        prop_assert_eq!(cursor, a.cols());
        prop_assert_eq!(shards.iter().map(|s| s.nnz).sum::<usize>(), a.nnz());
    }

    /// Slicing round-trip: concatenating the triplets of `col_range` cuts
    /// (with rebased column indices) reproduces the original matrix, and
    /// `Csr::row_range` mirrors it on rows.
    #[test]
    fn range_slices_reassemble(coo in coo_strategy(24, 96), cut_num in 0usize..100) {
        let csc = coo.to_csc();
        let cut = if csc.cols() == 0 { 0 } else { cut_num % (csc.cols() + 1) };
        let left = csc.col_range(0..cut);
        let right = csc.col_range(cut..csc.cols());
        let mut merged: Vec<(usize, usize, f32)> = left.iter().collect();
        merged.extend(right.iter().map(|(r, c, v)| (r, c + cut, v)));
        prop_assert_eq!(merged, csc.iter().collect::<Vec<_>>());

        let csr = coo.to_csr();
        let cut = if csr.rows() == 0 { 0 } else { cut_num % (csr.rows() + 1) };
        let top = csr.row_range(0..cut);
        let bottom = csr.row_range(cut..csr.rows());
        let mut merged: Vec<(usize, usize, f32)> = top.iter().collect();
        merged.extend(bottom.iter().map(|(r, c, v)| (r + cut, c, v)));
        prop_assert_eq!(merged, csr.iter().collect::<Vec<_>>());
    }

    /// Chunked on-disk store round-trip (DESIGN.md §13): writing any
    /// matrix and reading it back — whole, or reassembled from random
    /// column-range cuts — is *bit-identical*, the
    /// manifest's per-chunk nnz agrees with the data, and a reopen
    /// revalidates to the same matrix. Tiny `chunk_nnz` values force
    /// multi-chunk layouts even on small cases.
    #[test]
    fn sparse_store_roundtrip_is_bit_identical(
        coo in coo_strategy(24, 96),
        chunk_nnz in 1usize..32,
        cut_num in 0usize..100,
    ) {
        let csc = coo.to_csc();
        let dir = store_scratch_dir();
        let store = SparseStore::write_with_chunk_nnz(&dir, &csc, chunk_nnz).unwrap();

        // Whole-matrix read.
        prop_assert_eq!(store.read_csc().unwrap(), csc.clone());

        // Manifest bookkeeping agrees with the data it indexes.
        prop_assert_eq!(store.nnz(), csc.nnz());
        prop_assert_eq!(store.col_ptr(), csc.col_ptr());
        prop_assert_eq!(
            store.column_chunks().iter().map(|c| c.nnz).sum::<usize>(),
            csc.nnz()
        );
        prop_assert_eq!(store.range_nnz(0..store.cols()), csc.nnz());

        // A random column cut reassembles the original exactly.
        let cut = if csc.cols() == 0 { 0 } else { cut_num % (csc.cols() + 1) };
        let left = store.read_col_range(0..cut).unwrap();
        let right = store.read_col_range(cut..csc.cols()).unwrap();
        let mut merged: Vec<(usize, usize, f32)> = left.iter().collect();
        merged.extend(right.iter().map(|(r, c, v)| (r, c + cut, v)));
        prop_assert_eq!(merged, csc.iter().collect::<Vec<_>>());

        // Reopen revalidates the manifest/chunks and reads the same bits.
        let reopened = SparseStore::open(&dir).unwrap();
        prop_assert_eq!(reopened.read_csc().unwrap(), csc);
        std::fs::remove_dir_all(&dir).ok();
    }
}

/// The inter-layer hop as the definitions read, one entry at a time:
/// with `activate`, ReLU as a conditional store (`v < 0.0` → `+0.0`; NaN
/// and `-0.0` stay); then the CSC of the entries `v != 0.0`, column by
/// column in ascending row order. Returns the (activated) matrix's bits
/// and the CSC arrays, values as bits.
fn hop_reference(m: &DenseMatrix, activate: bool) -> (Vec<u32>, Vec<usize>, Vec<u32>, Vec<u32>) {
    let mut x = m.as_slice().to_vec();
    if activate {
        for v in &mut x {
            if *v < 0.0 {
                *v = 0.0;
            }
        }
    }
    let (rows, cols) = m.shape();
    let mut col_ptr = vec![0usize];
    let (mut row_idx, mut values) = (Vec::new(), Vec::new());
    for c in 0..cols {
        for r in 0..rows {
            let v = x[r * cols + c];
            if v != 0.0 {
                row_idx.push(r as u32);
                values.push(v.to_bits());
            }
        }
        col_ptr.push(row_idx.len());
    }
    let x_bits = x.iter().map(|v| v.to_bits()).collect();
    (x_bits, col_ptr, row_idx, values)
}

proptest! {
    // Raised above the suite's 128: widths reach two register tiles and a
    // tail, and non-finite values only show on some draws. CI runs it by
    // name.
    #![proptest_config(ProptestConfig::with_cases(1024))]

    /// Row-major `X × W` — the GCN layers' `X × W` numerics — must be
    /// bit-identical to the blocked column kernel on `X`'s CSC transpose,
    /// for CSR and dense-row `X` alike: random shapes, ±0.0 in both
    /// operands (stored in the CSR too), ±inf and NaN in both operands,
    /// all-zero rows of `W` and all-zero lane blocks from the second block
    /// on, or inside the second 16-lane register tile only, widths 1–40
    /// (no full tile, one, and two with a tail), values whose sums round
    /// (so any reordering shows), duplicate entries, and CSR rows stored
    /// out of column order. NaNs compare by position: Rust leaves NaN
    /// payloads and signs unspecified.
    #[test]
    fn row_major_bit_identical_to_blocked(
        shape in (1usize..24, 1usize..24),
        entries in proptest::collection::vec((0u64..1000, 0usize..24), 0..200),
        width in 1usize..41,
        w_zero_rows in proptest::collection::vec(0u32..6, 24),
        seed in 0u64..1000,
        sorted in prop_oneof![Just(true), Just(false)],
        non_finite in prop_oneof![Just(false), Just(true)],
    ) {
        let (rows, cols) = shape;
        let value = |h: u64| match h % 10 {
            0 => 0.0,
            1 => -0.0,
            2 if non_finite && h % 3 == 0 => {
                [f32::INFINITY, f32::NEG_INFINITY, f32::NAN][(h / 3 % 3) as usize]
            }
            v => (v as f32 - 5.5) * 0.1 + (h % 7) as f32 / 3.0,
        };
        // X as CSR, entry `e` in row `e % rows`, in draw order unless
        // sorted; the same entries (last write wins) as a dense matrix.
        let mut by_row: Vec<Vec<(u32, f32)>> = vec![Vec::new(); rows];
        let mut x_dense = DenseMatrix::zeros(rows, cols);
        for (e, &(h, c)) in entries.iter().enumerate() {
            let (r, c, v) = (e % rows, c % cols, value(h.wrapping_add(seed)));
            by_row[r].push((c as u32, v));
            x_dense.set(r, c, v);
        }
        let mut row_ptr = vec![0usize];
        let (mut col_idx, mut values) = (Vec::new(), Vec::new());
        for mut row in by_row {
            if sorted {
                row.sort_by_key(|&(c, _)| c);
            }
            for (c, v) in row {
                col_idx.push(c);
                values.push(v);
            }
            row_ptr.push(col_idx.len());
        }
        let x_csr = Csr::from_parts(rows, cols, row_ptr, col_idx, values).unwrap();
        let w = {
            let data: Vec<f32> = (0..cols * width)
                .map(|i| {
                    let (j, k) = (i / width, i % width);
                    let h = (i as u64).wrapping_mul(2654435761).wrapping_add(seed) >> 5;
                    // Whole zero rows, zero blocks from the second on, and
                    // a zero block in either half of the second tile.
                    let zero = match w_zero_rows[j] {
                        0 => true,
                        1 => k >= 8,
                        2 => (16..24).contains(&k),
                        3 => (24..32).contains(&k),
                        _ => false,
                    };
                    if zero {
                        if h % 2 == 0 { 0.0 } else { -0.0 }
                    } else {
                        value(h)
                    }
                })
                .collect();
            DenseMatrix::from_vec(cols, width, data).unwrap()
        };
        let bits = |m: DenseMatrix| -> Vec<u32> {
            m.into_vec()
                .iter()
                .map(|v| if v.is_nan() { f32::NAN } else { *v }.to_bits())
                .collect()
        };
        let blocked = spmm::csc_times_dense_blocked(&x_csr.to_csc(), &w).unwrap();
        let row_major = spmm::row_major_times_dense(RowOperand::Sparse(&x_csr), &w).unwrap();
        prop_assert_eq!(bits(row_major), bits(blocked));
        let blocked = spmm::csc_times_dense_blocked(&x_dense.to_csc(), &w).unwrap();
        let row_major = spmm::row_major_times_dense(RowOperand::Dense(&x_dense), &w).unwrap();
        prop_assert_eq!(bits(row_major), bits(blocked));
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    /// The branch-free hop kernels — `relu_in_place` (a select) and the
    /// bitmask `to_csc_pattern`/`to_csc` — equal the per-entry reference
    /// bit for bit: widths on both sides of the 64-column mask word (0, 1,
    /// 63, 64, 65, 130), cells drawn from `±0.0`, NaN, `±inf` and finite
    /// values of both signs, with all-zero rows and columns. The CSC of
    /// the un-activated matrix (negatives kept) is checked too.
    #[test]
    fn hop_kernels_match_per_entry_reference(
        rows in 0usize..12,
        width in prop_oneof![Just(0usize), Just(1), Just(63), Just(64), Just(65), Just(130)],
        cells in proptest::collection::vec(0u32..16, 12 * 130),
        zero_rows in proptest::collection::vec(0u32..4, 12),
        zero_col_phase in 0usize..5,
    ) {
        let data: Vec<f32> = (0..rows * width)
            .map(|i| {
                let (r, c) = (i / width, i % width);
                let cell = cells[i];
                if zero_rows[r] == 0 || (c + zero_col_phase) % 5 == 0 {
                    return if cell % 2 == 0 { 0.0 } else { -0.0 };
                }
                match cell {
                    0 => 0.0,
                    1 => -0.0,
                    2 => f32::NAN,
                    3 => f32::INFINITY,
                    4 => f32::NEG_INFINITY,
                    v => (v as f32 - 10.5) * 0.75,
                }
            })
            .collect();
        let m = DenseMatrix::from_vec(rows, width, data).unwrap();
        let bits = |v: &[f32]| -> Vec<u32> { v.iter().map(|v| v.to_bits()).collect() };
        for activate in [false, true] {
            let mut x = m.clone();
            if activate {
                x.relu_in_place();
            }
            let (x_bits, col_ptr, row_idx, values) = hop_reference(&m, activate);
            prop_assert_eq!(bits(x.as_slice()), x_bits);
            let csc = x.to_csc();
            prop_assert_eq!(csc.col_ptr(), &col_ptr[..]);
            prop_assert_eq!(csc.row_idx(), &row_idx[..]);
            prop_assert_eq!(bits(csc.values()), values);
            let pattern = x.to_csc_pattern();
            prop_assert_eq!(pattern.col_ptr(), &col_ptr[..]);
            prop_assert_eq!(pattern.row_idx(), &row_idx[..]);
        }
    }
}
