//! Golden statistics pin: a cold `GcnRunner::run` on scaled Cora, Pubmed
//! and Nell under four design points must reproduce exactly the cycle
//! statistics and output bits recorded below.
//!
//! The round simulator is the part of the crate most worth optimising and
//! the easiest to break subtly: a reordered tie-break or an off-by-one in
//! the queue drain shifts a handful of cycles without failing any
//! functional check. Each case folds every `RunStats` field (per-round
//! cycles, tasks, busy extrema, queue depths, RaW stalls, tuning flags,
//! per-PE queue high-water marks, pipelined layer cycles) and every
//! output `f32` bit pattern into one FNV-1a digest. The digests were
//! recorded on the straightforward simulator before any round-model
//! optimisation, so a faster simulator must be bit-identical to it.
//!
//! If a change is *meant* to alter the simulated timing, re-record the
//! digests and say why in the change description.

use awb_gcn_repro::accel::{AccelConfig, Design, GcnRunner, RunStats, SpmmStats};
use awb_gcn_repro::datasets::{DatasetSpec, GeneratedDataset};
use awb_gcn_repro::gcn::GcnInput;
use awb_gcn_repro::sparse::DenseMatrix;

/// Incremental FNV-1a over 64-bit words.
struct Fnv(u64);

impl Fnv {
    fn new() -> Self {
        Fnv(0xcbf2_9ce4_8422_2325)
    }

    fn word(&mut self, x: u64) {
        for byte in x.to_le_bytes() {
            self.0 ^= byte as u64;
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }

    fn spmm(&mut self, s: &SpmmStats) {
        for byte in s.label.bytes() {
            self.word(byte as u64);
        }
        self.word(s.n_pes as u64);
        self.word(s.rounds.len() as u64);
        for r in &s.rounds {
            self.word(r.cycles);
            self.word(r.tasks);
            self.word(r.busy_cycles);
            self.word(r.max_pe_busy);
            self.word(r.min_pe_busy);
            self.word(r.max_queue_depth as u64);
            self.word(r.raw_stalls);
            self.word(r.tuning_active as u64);
        }
        self.word(s.queue_high_water.len() as u64);
        for &q in &s.queue_high_water {
            self.word(q as u64);
        }
    }

    fn run(&mut self, stats: &RunStats, output: &DenseMatrix) {
        self.word(stats.n_pes as u64);
        self.word(stats.layers.len() as u64);
        for layer in &stats.layers {
            self.spmm(&layer.xw);
            self.spmm(&layer.a_xw);
            self.word(layer.pipelined_cycles);
        }
        let (rows, cols) = output.shape();
        self.word(rows as u64);
        self.word(cols as u64);
        for r in 0..rows {
            for c in 0..cols {
                self.word(output.get(r, c).to_bits() as u64);
            }
        }
    }
}

const DESIGNS: [Design; 4] = [
    Design::Baseline,
    Design::LocalSharing { hop: 2 },
    Design::LocalPlusRemote { hop: 2 },
    Design::LocalPlusRemote { hop: 3 },
];

/// Digest of a cold run of `spec` (seed 17, 128 PEs) under each design of
/// [`DESIGNS`], in order.
fn digests(spec: &DatasetSpec) -> Vec<u64> {
    let data = GeneratedDataset::generate(spec, 17).unwrap();
    let input = GcnInput::from_dataset(&data).unwrap();
    DESIGNS
        .iter()
        .map(|design| {
            let config = design.apply(AccelConfig::builder().n_pes(128).build().unwrap());
            let outcome = GcnRunner::new(config).run(&input).unwrap();
            let mut h = Fnv::new();
            h.run(&outcome.stats, &outcome.output);
            h.0
        })
        .collect()
}

fn check(name: &str, spec: DatasetSpec, expected: [u64; 4]) {
    let got = digests(&spec);
    let labels: Vec<String> = DESIGNS.iter().map(|d| d.label()).collect();
    for ((label, &g), &e) in labels.iter().zip(&got).zip(&expected) {
        assert_eq!(
            g, e,
            "{name} {label}: stats/output digest {g:#018x} differs from the pinned \
             {e:#018x} (all digests: {got:x?})"
        );
    }
}

#[test]
fn golden_stats_cora() {
    check(
        "Cora",
        DatasetSpec::cora().scaled(0.2),
        [
            0x4854_3021_9eee_af0d,
            0xcbbc_f507_f733_4b0f,
            0x8d75_4b2f_f1c4_da0c,
            0x9d30_f806_6488_4083,
        ],
    );
}

#[test]
fn golden_stats_pubmed() {
    check(
        "Pubmed",
        DatasetSpec::pubmed().scaled(0.05),
        [
            0xac45_fc53_0fdd_013b,
            0x7f1a_e631_e80c_168d,
            0xac37_95d4_888d_806a,
            0xf79d_d44b_70fb_13d0,
        ],
    );
}

#[test]
fn golden_stats_nell() {
    check(
        "Nell",
        DatasetSpec::nell().with_nodes(1024),
        [
            0x6820_3f56_5df4_3913,
            0xd0a9_baa1_ce98_3303,
            0xc53f_cb7a_ea1e_23aa,
            0x93e1_de92_522c_3d3c,
        ],
    );
}
