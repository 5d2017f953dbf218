//! Integration tests of the column-sharded execution layer (`DESIGN.md`
//! §7): bit-identity of sharded runs against the unsharded path on every
//! paper dataset, memory-budget-derived sharding, the stats views, and the
//! external-graph (Matrix Market) → partitioner → sharded-run path.

use awb_gcn_repro::accel::{AccelConfig, Design, GcnRunner, GcnService, ShardPolicy};
use awb_gcn_repro::datasets::{GeneratedDataset, PaperDataset};
use awb_gcn_repro::gcn::GcnInput;
use awb_gcn_repro::hw::{MemoryModel, BYTES_PER_NNZ};
use awb_gcn_repro::sparse::io::{read_matrix_market, write_matrix_market};
use awb_gcn_repro::sparse::partition::ColumnPartitioner;
use awb_gcn_repro::sparse::{Coo, Csr, DenseMatrix};

fn config(n_pes: usize, shards: ShardPolicy) -> AccelConfig {
    let mut builder = AccelConfig::builder();
    builder.n_pes(n_pes).shards(shards);
    Design::LocalPlusRemote { hop: 1 }.apply(builder.build().unwrap())
}

/// Acceptance pin: on all five paper datasets (small scale), sharded runs
/// — cold, prepared-warm, and served — are bit-identical to the unsharded
/// `GcnPlan::run`/`GcnRunner::run` outputs.
#[test]
fn all_five_paper_datasets_bit_identical_under_sharding() {
    for dataset in PaperDataset::all() {
        let scale = match dataset {
            PaperDataset::Reddit => 0.002,
            PaperDataset::Nell => 0.02,
            _ => 0.08,
        };
        let spec = dataset.spec().scaled(scale);
        let data = GeneratedDataset::generate(&spec, 11).unwrap();
        let input = GcnInput::from_dataset(&data).unwrap();

        let unsharded = GcnRunner::new(config(16, ShardPolicy::Single));
        let (reference_plan, reference_cold) = unsharded.prepare(&input).unwrap();
        let reference_warm = reference_plan.run_input(&input).unwrap();
        assert_eq!(reference_warm.output, reference_cold.output);

        for shards in [2, 4] {
            let runner = GcnRunner::new(config(16, ShardPolicy::Fixed(shards)));
            let cold = runner.run(&input).unwrap();
            assert_eq!(
                cold.output,
                reference_cold.output,
                "{}: cold output diverged at {shards} shards",
                dataset.name()
            );
            let (plan, warmup) = runner.prepare(&input).unwrap();
            assert_eq!(warmup.output, reference_cold.output);
            assert_eq!(plan.shard_count(), shards);
            let warm = plan.run_input(&input).unwrap();
            assert_eq!(
                warm.output,
                reference_warm.output,
                "{}: warm output diverged at {shards} shards",
                dataset.name()
            );
        }
    }
}

/// Sharding by memory budget: a budget too small for the whole adjacency
/// splits it into shards that each fit on chip, and the serving front-end
/// carries the shard count through `PrepareReport` while outputs stay
/// bit-identical.
#[test]
fn memory_budget_sharding_end_to_end() {
    let spec = PaperDataset::Pubmed.spec().scaled(0.03);
    let data = GeneratedDataset::generate(&spec, 21).unwrap();
    let input = GcnInput::from_dataset(&data).unwrap();
    let a_nnz = input.a_norm_csc.nnz();

    let mut cfg = config(16, ShardPolicy::MemoryBudget);
    let budget_nnz = a_nnz / 3 + 1;
    cfg.memory = MemoryModel {
        on_chip_bytes: budget_nnz * BYTES_PER_NNZ,
        off_chip_bytes_per_cycle: 280.0,
    };
    assert!(!cfg.memory.fits_on_chip(a_nnz), "whole graph must not fit");

    let mut service = GcnService::new(cfg.clone());
    let report = service.prepare("pubmed", &input).unwrap();
    assert!(
        report.shards >= 3,
        "budget of {} nnz must split {} nnz into >= 3 shards, got {}",
        budget_nnz,
        a_nnz,
        report.shards
    );
    let plan = service.plan("pubmed").unwrap();
    for shard in plan.sharded_plan().unwrap().shards() {
        assert!(shard.nnz() <= budget_nnz, "shard over budget");
    }

    let batch = service
        .serve("pubmed", std::slice::from_ref(&input.x1))
        .unwrap();
    let reference = GcnRunner::new(config(16, ShardPolicy::Single))
        .run(&input)
        .unwrap();
    assert_eq!(batch.requests[0].outcome.output, reference.output);
}

/// A shard that spans the whole adjacency holds no copy of it: on one
/// input, `Single` and `Fixed(1)` plans (one device either way) report
/// equal `memory_bytes()`, so the plan-cache budget charges them alike.
#[test]
fn single_and_one_shard_plans_cost_the_same_memory() {
    let spec = PaperDataset::Cora.spec().scaled(0.1);
    let data = GeneratedDataset::generate(&spec, 41).unwrap();
    let input = GcnInput::from_dataset(&data).unwrap();
    let (single, _) = GcnRunner::new(config(16, ShardPolicy::Single))
        .prepare(&input)
        .unwrap();
    let (one_shard, _) = GcnRunner::new(config(16, ShardPolicy::Fixed(1)))
        .prepare(&input)
        .unwrap();
    assert_eq!(one_shard.shard_count(), 1);
    assert_eq!(one_shard.memory_bytes(), single.memory_bytes());
}

/// The merged stats view: critical-path cycles (max over shard devices per
/// round), summed tasks, total PE count, and utilization in range.
#[test]
fn sharded_stats_aggregate_honestly() {
    let spec = PaperDataset::Cora.spec().scaled(0.1);
    let data = GeneratedDataset::generate(&spec, 31).unwrap();
    let input = GcnInput::from_dataset(&data).unwrap();

    let single = GcnRunner::new(config(16, ShardPolicy::Single))
        .run(&input)
        .unwrap();
    let sharded = GcnRunner::new(config(16, ShardPolicy::Fixed(4)))
        .run(&input)
        .unwrap();

    for (layer_s, layer_1) in sharded.stats.layers.iter().zip(&single.stats.layers) {
        // Work is conserved across the shard split.
        assert_eq!(layer_s.a_xw.total_tasks(), layer_1.a_xw.total_tasks());
        // 4 shard devices of 16 PEs each.
        assert_eq!(layer_s.a_xw.n_pes, 64);
        // Per-round critical path can never exceed the single-device time
        // of the same round set (each shard does a subset of the work)…
        assert!(layer_s.a_xw.total_cycles() <= layer_1.a_xw.total_cycles());
        // …and per-PE queue high-water marks span all shard devices.
        assert_eq!(layer_s.a_xw.queue_high_water.len(), 64);
    }
    let util = sharded.stats.avg_utilization();
    assert!(util > 0.0 && util <= 1.0);
}

/// Acceptance pin for the combination axis: with `X × W` sharded (alone
/// and together with `A`-side sharding), cold, prepared-warm, and served
/// outputs stay bit-identical to the unsharded path, the serving report
/// carries both shard counts, and the merged `X × W` stats aggregate over
/// the combination shard devices.
#[test]
fn combination_sharding_bit_identical_end_to_end() {
    for dataset in [PaperDataset::Cora, PaperDataset::Nell] {
        let scale = match dataset {
            PaperDataset::Nell => 0.02,
            _ => 0.08,
        };
        let spec = dataset.spec().scaled(scale);
        let data = GeneratedDataset::generate(&spec, 13).unwrap();
        let input = GcnInput::from_dataset(&data).unwrap();

        let reference = GcnRunner::new(config(16, ShardPolicy::Single))
            .run(&input)
            .unwrap();

        for (a_shards, xw_shards) in [(ShardPolicy::Single, 2), (ShardPolicy::Fixed(2), 4)] {
            let mut cfg = config(16, a_shards);
            cfg.combination_shards = ShardPolicy::Fixed(xw_shards);

            let cold = GcnRunner::new(cfg.clone()).run(&input).unwrap();
            assert_eq!(
                cold.output,
                reference.output,
                "{}: cold output diverged at {xw_shards} X shards ({a_shards:?} A)",
                dataset.name()
            );
            for (layer_s, layer_1) in cold.stats.layers.iter().zip(&reference.stats.layers) {
                // Combination work is conserved across the X split, and
                // the merged X×W view spans all combination devices.
                assert_eq!(layer_s.xw.total_tasks(), layer_1.xw.total_tasks());
                assert_eq!(layer_s.xw.n_pes, xw_shards * 16);
                assert!(layer_s.xw.total_cycles() <= layer_1.xw.total_cycles());
            }

            let mut service = GcnService::new(cfg);
            let report = service.prepare(dataset.name(), &input).unwrap();
            assert_eq!(report.combination_shards, xw_shards);
            let batch = service
                .serve(dataset.name(), std::slice::from_ref(&input.x1))
                .unwrap();
            assert_eq!(
                batch.requests[0].outcome.output,
                reference.output,
                "{}: served output diverged at {xw_shards} X shards",
                dataset.name()
            );
        }
    }
}

/// `--mem-budget`-style deployment: one on-chip budget derives the shard
/// counts of *both* phases, every slice (A's and layer-1 X's) fits the
/// budget, and outputs stay bit-identical.
#[test]
fn memory_budget_shards_both_phases() {
    let spec = PaperDataset::Cora.spec().scaled(0.08);
    let data = GeneratedDataset::generate(&spec, 23).unwrap();
    let input = GcnInput::from_dataset(&data).unwrap();
    let a_nnz = input.a_norm_csc.nnz();
    let x1_nnz = input.x1.nnz();

    let mut cfg = config(16, ShardPolicy::MemoryBudget);
    cfg.combination_shards = ShardPolicy::MemoryBudget;
    let budget_nnz = a_nnz.min(x1_nnz) / 2 + 1;
    cfg.memory = MemoryModel {
        on_chip_bytes: budget_nnz * BYTES_PER_NNZ,
        off_chip_bytes_per_cycle: 280.0,
    };
    assert!(!cfg.memory.fits_on_chip(a_nnz));
    assert!(!cfg.memory.fits_on_chip(x1_nnz));

    let mut service = GcnService::new(cfg.clone());
    let report = service.prepare("cora", &input).unwrap();
    assert!(report.shards >= 2, "A must split, got {}", report.shards);
    assert!(
        report.combination_shards >= 2,
        "X1 must split, got {}",
        report.combination_shards
    );
    for shard in cfg.combination_partitioner().partition(&input.x1.to_csc()) {
        assert!(shard.nnz <= budget_nnz, "X1 shard over budget: {shard:?}");
    }

    let batch = service
        .serve("cora", std::slice::from_ref(&input.x1))
        .unwrap();
    let reference = GcnRunner::new(config(16, ShardPolicy::Single))
        .run(&input)
        .unwrap();
    assert_eq!(batch.requests[0].outcome.output, reference.output);
}

/// Satellite pin of the external-graph path: a symmetric pattern adjacency
/// survives `write_matrix_market` → `read_matrix_market` exactly, then
/// feeds the partitioner and a sharded run whose output matches the
/// unsharded reference bit for bit.
#[test]
fn matrix_market_roundtrip_feeds_partitioner_and_sharded_run() {
    // A clustered symmetric pattern graph (hub node 0), ~ the shape of a
    // real-world adjacency distributed as `pattern symmetric`.
    let n = 96;
    let mut coo = Coo::new(n, n);
    for v in 1..n {
        if v % 3 != 0 {
            coo.push(0, v, 1.0).unwrap();
            coo.push(v, 0, 1.0).unwrap();
        }
    }
    for v in 1..n {
        let w = (v * 7) % n;
        if w != v && w != 0 {
            coo.push(v, w, 1.0).unwrap();
            coo.push(w, v, 1.0).unwrap();
        }
    }
    for v in 0..n {
        coo.push(v, v, 1.0).unwrap(); // self-loops keep rows non-empty
    }

    // Round-trip through the Matrix Market writer/reader.
    let mut buf = Vec::new();
    write_matrix_market(&mut buf, &coo).unwrap();
    let back = read_matrix_market(buf.as_slice()).unwrap();
    assert_eq!(back.shape(), coo.shape());
    assert_eq!(back.to_dense(), coo.to_dense());

    // The re-imported graph feeds the partitioner…
    let a = back.to_csc();
    let shards = ColumnPartitioner::by_shards(4).partition(&a);
    assert_eq!(shards.len(), 4);
    assert_eq!(shards.iter().map(|s| s.nnz).sum::<usize>(), a.nnz());
    assert_eq!(shards[0].cols.start, 0);
    assert_eq!(shards[3].cols.end, n);

    // …and a sharded GCN run on it matches the unsharded reference.
    let a_norm: Csr = a.to_csr();
    let x1 = {
        let mut x = Coo::new(n, 8);
        for v in 0..n {
            x.push(v, v % 8, 1.0 + (v % 3) as f32).unwrap();
        }
        x.to_csr()
    };
    let w1 = DenseMatrix::from_vec(8, 4, (0..32).map(|i| (i % 5) as f32 - 2.0).collect()).unwrap();
    let w2 = DenseMatrix::from_vec(4, 3, (0..12).map(|i| (i % 3) as f32 - 1.0).collect()).unwrap();
    let input = GcnInput::from_parts(a_norm, x1, vec![w1, w2]).unwrap();

    let reference = GcnRunner::new(config(8, ShardPolicy::Single))
        .run(&input)
        .unwrap();
    let sharded = GcnRunner::new(config(8, ShardPolicy::Fixed(4)))
        .run(&input)
        .unwrap();
    assert_eq!(sharded.output, reference.output);
    assert_eq!(sharded.output.shape(), (n, 3));
}
