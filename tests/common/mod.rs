//! Fixtures shared by the integration suites: the scaled paper-family
//! inputs, the two adversarial synthetics, the random-graph strategies, a
//! scratch store directory, the cold reference run and the one bit-level
//! output comparator.
//!
//! Each suite compiles its own copy of this module and uses a subset of
//! it, hence the blanket `dead_code` allowance.
#![allow(dead_code)]

use awb_gcn_repro::accel::{AccelConfig, Design, GcnRunOutcome, GcnRunner};
use awb_gcn_repro::datasets::{DatasetSpec, GeneratedDataset, PaperDataset};
use awb_gcn_repro::gcn::GcnInput;
use awb_gcn_repro::sparse::{Coo, Csc, Csr, DenseMatrix};
use proptest::prelude::*;
use std::path::{Path, PathBuf};

/// The output's bit patterns. Comparing these, not `DenseMatrix ==`, is
/// what "bit-identical" means: f32 `==` equates `-0.0` with `0.0` and
/// never equates a NaN with itself.
pub fn bits(m: &DenseMatrix) -> Vec<u32> {
    m.as_slice().iter().map(|v| v.to_bits()).collect()
}

/// A generated dataset of shape `spec`, normalized for inference.
pub fn spec_input(spec: &DatasetSpec, seed: u64) -> GcnInput {
    let data = GeneratedDataset::generate(spec, seed).unwrap();
    GcnInput::from_dataset(&data).unwrap()
}

/// A Cora-shaped graph of `nodes` nodes: distinct seeds give distinct
/// structures, hence distinct plan fingerprints.
pub fn cora_input(nodes: usize, seed: u64) -> GcnInput {
    spec_input(&DatasetSpec::cora().with_nodes(nodes), seed)
}

/// LS1+RS on `n_pes` PEs, every other knob at its default.
pub fn ls1_rs(n_pes: usize) -> AccelConfig {
    Design::LocalPlusRemote { hop: 1 }.apply(AccelConfig::builder().n_pes(n_pes).build().unwrap())
}

/// `input`'s graph and model with `x1` as the features.
pub fn with_features(input: &GcnInput, x1: &Csr) -> GcnInput {
    GcnInput {
        x1: x1.clone(),
        ..input.clone()
    }
}

/// Cold, fault-free reference for one request: an independent run of
/// `cfg` with no fault plan armed.
pub fn cold_run(cfg: &AccelConfig, input: &GcnInput, x1: &Csr) -> GcnRunOutcome {
    let mut clean = cfg.clone();
    clean.faults = None;
    GcnRunner::new(clean)
        .run(&with_features(input, x1))
        .unwrap()
}

/// A paper dataset at the suites' scale: small enough for a debug build,
/// large enough to shard (Nell and Reddit are scaled harder for their
/// feature widths and degrees).
pub fn paper_input(dataset: PaperDataset, seed: u64) -> GcnInput {
    let scale = match dataset {
        PaperDataset::Reddit => 0.002,
        PaperDataset::Nell => 0.02,
        _ => 0.08,
    };
    spec_input(&dataset.spec().scaled(scale), seed)
}

/// Deterministic features and weights around a hand-built adjacency.
fn assemble(a: Coo, n: usize) -> GcnInput {
    let (f1, f2, f3) = (24usize, 12usize, 6usize);
    let mut x = Coo::new(n, f1);
    for i in 0..n {
        for k in 0..3 {
            // Offsets 0/7/14 are distinct mod 24, so no duplicate pushes.
            x.push(i, (i * 5 + k * 7) % f1, ((i + k) % 5 + 1) as f32)
                .unwrap();
        }
    }
    let weight = |rows: usize, cols: usize, salt: usize| {
        let data: Vec<f32> = (0..rows * cols)
            .map(|i| ((i * 3 + salt) % 7) as f32 / 4.0 - 0.75)
            .collect();
        DenseMatrix::from_vec(rows, cols, data).unwrap()
    };
    GcnInput::from_parts(
        a.to_csr(),
        x.to_csr(),
        vec![weight(f1, f2, 1), weight(f2, f3, 2)],
    )
    .unwrap()
}

/// Adversarial synthetic 1: a power-law degree tail — a few super-hub rows
/// next to a long tail of near-empty ones (the skew AWB-GCN rebalances).
pub fn power_law_input() -> GcnInput {
    let n = 256;
    let mut a = Coo::new(n, n);
    for i in 0..n {
        a.push(i, i, 1.0).unwrap();
        let deg = ((n as f64 / ((i + 1) as f64).powf(1.2)).ceil() as usize).min(n - 1);
        for k in 0..deg {
            // 13 is coprime with any power of two >= n, so columns are
            // distinct for k < n.
            let c = (i * 7 + k * 13 + 1) % n;
            if c != i {
                a.push(i, c, 0.5).unwrap();
            }
        }
    }
    assemble(a, n)
}

/// Adversarial synthetic 2: a near-dense block riding a sparse ring — high
/// aggregate density concentrated in one corner of the adjacency.
pub fn near_dense_block_input() -> GcnInput {
    let n = 192;
    let block = 32;
    let mut a = Coo::new(n, n);
    for i in 0..n {
        a.push(i, i, 1.0).unwrap();
    }
    for r in 0..block {
        for c in 0..block {
            if r != c {
                a.push(r, c, 0.25).unwrap();
            }
        }
    }
    for i in block..n {
        let c = (i + 1) % n;
        if c != i {
            a.push(i, c, 0.5).unwrap();
        }
    }
    assemble(a, n)
}

/// `input`'s graph with `X1` divided by 3 and the weights scaled by 4/3:
/// the same non-zero patterns, hence the same timing, but values in
/// thirds. The synthetics' own values are dyadic and sum exactly in any
/// order; thirds round, so a reordered reduction changes bits.
pub fn in_thirds(input: GcnInput) -> GcnInput {
    let x1 = &input.x1;
    let x1 = Csr::from_parts(
        x1.rows(),
        x1.cols(),
        x1.row_ptr().to_vec(),
        x1.col_idx().to_vec(),
        x1.values().iter().map(|v| v / 3.0).collect(),
    )
    .unwrap();
    let weights = input
        .weights
        .iter()
        .map(|w| {
            let data = w.as_slice().iter().map(|v| v * 4.0 / 3.0).collect();
            DenseMatrix::from_vec(w.rows(), w.cols(), data).unwrap()
        })
        .collect();
    GcnInput {
        x1,
        weights,
        ..input
    }
}

/// Random sparse square matrix with quantized values.
pub fn sparse_strategy(max_n: usize, max_nnz: usize) -> impl Strategy<Value = Csc> {
    (4..max_n).prop_flat_map(move |n| {
        proptest::collection::vec((0..n, 0..n, -4i32..5), 1..max_nnz).prop_map(move |entries| {
            let mut coo = Coo::new(n, n);
            for (r, c, v) in entries {
                coo.push(r, c, v as f32).unwrap();
            }
            coo.to_csc()
        })
    })
}

/// A dense matrix of small integers in [-4, 4], scrambled by `seed`.
pub fn dense_for(rows: usize, cols: usize, seed: u64) -> DenseMatrix {
    let data: Vec<f32> = (0..rows * cols)
        .map(|i| (((i as u64).wrapping_mul(0x9e3779b97f4a7c15) ^ seed) % 9) as f32 - 4.0)
        .collect();
    DenseMatrix::from_vec(rows, cols, data).unwrap()
}

/// A random two-layer GCN around adjacency `a`: sparse features and
/// quantized weights derived from `seed`. The features are thirds, so
/// partial sums round and a reordered reduction changes bits (with
/// integers only, every order would give the same exact sums).
pub fn random_input(a: &Csc, seed: u64) -> GcnInput {
    let n = a.rows();
    let mut x1 = Coo::new(n, 5);
    for v in 0..n {
        let value = ((v % 3) as f32 + 1.0) / 3.0;
        x1.push(v, (v as u64 ^ seed) as usize % 5, value).unwrap();
    }
    let w1 = dense_for(5, 4, seed);
    let w2 = dense_for(4, 3, seed ^ 0xabcd);
    GcnInput::from_parts(a.to_csr(), x1.to_csr(), vec![w1, w2]).unwrap()
}

/// Every design family, at hops 1 and 2 where it has one.
pub fn design_strategy() -> impl Strategy<Value = Design> {
    prop_oneof![
        Just(Design::Baseline),
        (1usize..3).prop_map(|hop| Design::LocalSharing { hop }),
        (1usize..3).prop_map(|hop| Design::LocalPlusRemote { hop }),
        Just(Design::EieLike),
    ]
}

/// A per-process, per-thread scratch directory under the system temp dir,
/// emptied on creation and removed on drop (also when a test panics).
pub struct ScratchDir(PathBuf);

impl ScratchDir {
    /// A fresh directory path tagged `tag`; the directory itself is left
    /// for its user (e.g. a store ingest) to create.
    pub fn new(tag: &str) -> Self {
        let dir = std::env::temp_dir().join(format!(
            "awb-{tag}-{}-{:?}",
            std::process::id(),
            std::thread::current().id()
        ));
        std::fs::remove_dir_all(&dir).ok();
        ScratchDir(dir)
    }

    /// The directory's path.
    pub fn path(&self) -> &Path {
        &self.0
    }
}

impl Drop for ScratchDir {
    fn drop(&mut self) {
        std::fs::remove_dir_all(&self.0).ok();
    }
}
