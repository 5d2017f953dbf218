//! Criterion micro-benchmarks of the kernels underlying everything else:
//! reference SpMM, format conversion, simulator task throughput, and the
//! Omega network's cycle rate. Not a paper experiment — this is the
//! engineering dashboard for the repository itself.
//!
//! Run: `cargo bench -p awb-bench --bench kernels`

use awb_accel::{AccelConfig, Design, FastEngine, SpmmEngine};
use awb_datasets::{DatasetSpec, GeneratedDataset};
use awb_hw::{OmegaNetwork, Packet};
use awb_sparse::{spmm, DenseMatrix};
use criterion::{criterion_group, criterion_main, Criterion, Throughput};
use std::hint::black_box;

fn bench_spmm_kernels(c: &mut Criterion) {
    let data = GeneratedDataset::generate(&DatasetSpec::cora(), 5).expect("dataset");
    let a_csc = data.adjacency.to_csc();
    let b = DenseMatrix::from_vec(
        a_csc.cols(),
        16,
        (0..a_csc.cols() * 16).map(|i| (i % 7) as f32).collect(),
    )
    .expect("dense B");
    let macs = spmm::csc_times_dense_macs(&a_csc, &b).unwrap() as u64;

    let mut group = c.benchmark_group("spmm_reference");
    group.throughput(Throughput::Elements(macs));
    group.bench_function("csc_times_dense/cora_a_x16", |bench| {
        bench.iter(|| spmm::csc_times_dense(black_box(&a_csc), black_box(&b)).unwrap())
    });
    group.bench_function("csr_times_dense/cora_a_x16", |bench| {
        bench.iter(|| spmm::csr_times_dense(black_box(&data.adjacency), black_box(&b)).unwrap())
    });
    group.finish();
}

/// Blocked (one pass over `A` into every output lane, skipping all-zero
/// 8-lane blocks, `csc_times_dense_blocked`) vs scalar (one column per
/// pass, `csc_times_dense`) kernels across operand scales
/// and B widths — ISSUE 8's tentpole. Outputs are bit-identical (pinned
/// reduction order, asserted in `awb_sparse::spmm` tests and the blocked
/// proptest), so this group is pure speed; the headline target is ≥1.5×
/// on the Pubmed-shaped operand.
fn bench_blocked_vs_scalar(c: &mut Criterion) {
    let shapes = [
        ("small", DatasetSpec::cora().with_nodes(512)),
        ("medium", DatasetSpec::cora()),
        ("pubmed", DatasetSpec::pubmed()),
    ];
    for (name, spec) in shapes {
        let data = GeneratedDataset::generate(&spec, 5).expect("dataset");
        let a_csc = data.adjacency.to_csc();
        for width in [4usize, 8, 16, 64] {
            let b = DenseMatrix::from_vec(
                a_csc.cols(),
                width,
                (0..a_csc.cols() * width)
                    .map(|i| ((i % 13) as f32) - 6.0)
                    .collect(),
            )
            .expect("dense B");
            let macs = spmm::csc_times_dense_macs(&a_csc, &b).unwrap() as u64;
            let mut group = c.benchmark_group("kernels_blocked_vs_scalar");
            group.throughput(Throughput::Elements(macs));
            group.bench_function(format!("scalar/{name}_x{width}"), |bench| {
                bench.iter(|| spmm::csc_times_dense(black_box(&a_csc), black_box(&b)).unwrap())
            });
            group.bench_function(format!("blocked/{name}_x{width}"), |bench| {
                bench.iter(|| {
                    spmm::csc_times_dense_blocked(black_box(&a_csc), black_box(&b)).unwrap()
                })
            });
            group.finish();
        }
    }
}

fn bench_format_conversion(c: &mut Criterion) {
    let data = GeneratedDataset::generate(&DatasetSpec::pubmed(), 5).expect("dataset");
    let mut group = c.benchmark_group("format_conversion");
    group.throughput(Throughput::Elements(data.adjacency.nnz() as u64));
    group.bench_function("csr_to_csc/pubmed_a", |bench| {
        bench.iter(|| black_box(&data.adjacency).to_csc())
    });
    group.finish();
}

fn bench_fast_engine(c: &mut Criterion) {
    let data = GeneratedDataset::generate(&DatasetSpec::cora(), 5).expect("dataset");
    let a_csc = data.adjacency.to_csc();
    let b = DenseMatrix::from_vec(
        a_csc.cols(),
        16,
        (0..a_csc.cols() * 16).map(|i| (i % 7) as f32).collect(),
    )
    .expect("dense B");
    let tasks = spmm::csc_times_dense_macs(&a_csc, &b).unwrap() as u64;

    let mut group = c.benchmark_group("fast_engine");
    group.throughput(Throughput::Elements(tasks));
    for design in [Design::Baseline, Design::LocalPlusRemote { hop: 2 }] {
        group.bench_function(format!("cora_a/{}", design.label()), |bench| {
            bench.iter(|| {
                let config = design.apply(AccelConfig::builder().n_pes(1024).build().unwrap());
                FastEngine::new(config)
                    .run(black_box(&a_csc), black_box(&b), "bench")
                    .unwrap()
            })
        });
        // The same design point with the steady-state replay cache off:
        // the pre-ISSUE-2 cost of every round.
        group.bench_function(format!("cora_a/{}/no_replay", design.label()), |bench| {
            bench.iter(|| {
                let config = design.apply(AccelConfig::builder().n_pes(1024).build().unwrap());
                let mut engine = FastEngine::new(config);
                engine.set_replay_enabled(false);
                engine
                    .run(black_box(&a_csc), black_box(&b), "bench")
                    .unwrap()
            })
        });
    }
    group.finish();
}

fn bench_omega_network(c: &mut Criterion) {
    let mut group = c.benchmark_group("omega_network");
    group.throughput(Throughput::Elements(4096));
    group.bench_function("route_4096_uniform/64ports", |bench| {
        bench.iter(|| {
            let mut net = OmegaNetwork::new(64, 4);
            let mut delivered = 0usize;
            let mut next = 0u32;
            let mut injected = 0usize;
            while delivered < 4096 {
                for port in 0..64 {
                    if injected >= 4096 {
                        break;
                    }
                    let pkt = Packet {
                        dest: next % 64,
                        row: next,
                    };
                    if net.inject(port, pkt).is_ok() {
                        next = next.wrapping_mul(29).wrapping_add(17);
                        injected += 1;
                    }
                }
                net.tick(|_, _| delivered += 1);
            }
            black_box(delivered)
        })
    });
    group.finish();
}

criterion_group!(
    benches,
    bench_spmm_kernels,
    bench_blocked_vs_scalar,
    bench_format_conversion,
    bench_fast_engine,
    bench_omega_network
);
criterion_main!(benches);
