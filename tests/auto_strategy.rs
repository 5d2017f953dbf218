//! Honesty and identity tests for `StrategyPolicy::Auto` — LS+RS by rule
//! plus the cost model's shard layout must land within 10% of the post-hoc
//! best sweep point, execute bit-identically to hand-specifying its
//! choice, and describe the unsharded plan it built when a sharded
//! prepare degrades.

use awb_gcn_repro::accel::{
    cost, AccelConfig, CostProfile, Design, DesignSweep, FaultPlan, GcnRunner, ShardPolicy,
    StrategyPolicy,
};
use awb_gcn_repro::datasets::{DatasetSpec, GeneratedDataset};
use awb_gcn_repro::gcn::GcnInput;
use awb_gcn_repro::hw::MemoryModel;
use awb_gcn_repro::sparse::{Coo, DenseMatrix};
use proptest::prelude::*;

const N_PES: usize = 32;

fn base_config() -> AccelConfig {
    let mut builder = AccelConfig::builder();
    builder.n_pes(N_PES);
    builder.build().unwrap()
}

fn paper_input(spec: DatasetSpec, seed: u64) -> GcnInput {
    let data = GeneratedDataset::generate(&spec, seed).unwrap();
    GcnInput::from_dataset(&data).unwrap()
}

/// Deterministic weights/features around a hand-built adjacency.
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
fn power_law_input() -> GcnInput {
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
fn near_dense_block_input() -> GcnInput {
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

/// Auto's warm-path cycles must land within 10% of the best point of a
/// post-hoc design sweep over the paper lineup at the same PE count.
fn check_honesty(name: &str, input: &GcnInput) {
    let base = base_config();
    let points = DesignSweep::new()
        .pe_counts(vec![N_PES])
        .base_config(base.clone())
        .run(input)
        .unwrap();
    let best = points.iter().min_by_key(|p| p.warm_cycles).unwrap();

    let mut auto_cfg = base;
    auto_cfg.strategy = StrategyPolicy::Auto;
    let (plan, _) = GcnRunner::new(auto_cfg).prepare(input).unwrap();
    let decision = plan.auto_decision().expect("auto plans carry a decision");
    let auto_warm = plan.run_input(input).unwrap().stats.total_cycles();

    let ratio = auto_warm as f64 / best.warm_cycles.max(1) as f64;
    // Captured by the harness normally; `--nocapture` prints the table
    // EXPERIMENTS.md §10 records.
    eprintln!(
        "honesty {name}: chose [{}] warm {auto_warm} vs best {} ({} warm) ratio {ratio:.3}",
        decision.label(),
        best.design.label(),
        best.warm_cycles,
    );
    assert!(
        ratio <= 1.10,
        "{name}: auto chose {} ({auto_warm} warm cycles) but post-hoc best is {} \
         ({} warm cycles) — ratio {ratio:.3} > 1.10",
        decision.label(),
        best.design.label(),
        best.warm_cycles,
    );
}

#[test]
fn auto_within_ten_percent_of_best_on_paper_datasets() {
    check_honesty("cora", &paper_input(DatasetSpec::cora().with_nodes(256), 7));
    check_honesty(
        "citeseer",
        &paper_input(DatasetSpec::citeseer().with_nodes(256), 11),
    );
    check_honesty(
        "pubmed",
        &paper_input(DatasetSpec::pubmed().with_nodes(256), 13),
    );
    check_honesty(
        "nell",
        &paper_input(DatasetSpec::nell().with_nodes(256), 17),
    );
    check_honesty(
        "reddit",
        &paper_input(DatasetSpec::reddit().with_nodes(192), 19),
    );
}

#[test]
fn auto_within_ten_percent_of_best_on_adversarial_synthetics() {
    check_honesty("power-law tail", &power_law_input());
    check_honesty("near-dense block", &near_dense_block_input());
}

/// Auto resolves the design by rule, not by search: the largest LS+RS of
/// the paper lineup whose hop fits the PE count — LS2+RS on every
/// honesty input, and LS1+RS on two PEs.
#[test]
fn auto_resolves_largest_fitting_ls_rs() {
    let inputs = [
        paper_input(DatasetSpec::cora().with_nodes(256), 7),
        paper_input(DatasetSpec::citeseer().with_nodes(256), 11),
        paper_input(DatasetSpec::pubmed().with_nodes(256), 13),
        paper_input(DatasetSpec::nell().with_nodes(256), 17),
        paper_input(DatasetSpec::reddit().with_nodes(192), 19),
        power_law_input(),
        near_dense_block_input(),
    ];
    for (n_pes, hop) in [(N_PES, 2), (2, 1)] {
        let mut config = base_config();
        config.n_pes = n_pes;
        config.strategy = StrategyPolicy::Auto;
        let runner = GcnRunner::new(config);
        for input in &inputs {
            let decision = runner.resolve_strategy(input).unwrap();
            assert_eq!(
                decision.design,
                Design::LocalPlusRemote { hop },
                "{n_pes} PEs: {}",
                decision.label()
            );
        }
    }
}

/// Auto must be a pure selector: running under Auto and running with the
/// chosen configuration hand-specified are bit-identical, on both the
/// direct-run path and the prepare/run-input path.
#[test]
fn auto_is_bit_identical_to_hand_specified_choice() {
    let input = paper_input(DatasetSpec::nell().with_nodes(256), 23);
    let base = base_config();
    let mut auto_cfg = base.clone();
    auto_cfg.strategy = StrategyPolicy::Auto;

    let decision = GcnRunner::new(auto_cfg.clone())
        .resolve_strategy(&input)
        .expect("auto resolves a decision");
    let manual_cfg = decision.apply(&base);
    assert_eq!(manual_cfg.strategy, StrategyPolicy::Manual);

    let auto_run = GcnRunner::new(auto_cfg.clone()).run(&input).unwrap();
    let manual_run = GcnRunner::new(manual_cfg.clone()).run(&input).unwrap();
    assert_eq!(auto_run.output, manual_run.output);
    assert_eq!(
        auto_run.stats.total_cycles(),
        manual_run.stats.total_cycles()
    );

    let (auto_plan, auto_warm) = GcnRunner::new(auto_cfg).prepare(&input).unwrap();
    let (manual_plan, manual_warm) = GcnRunner::new(manual_cfg).prepare(&input).unwrap();
    assert_eq!(auto_warm.output, manual_warm.output);
    let a = auto_plan.run_input(&input).unwrap();
    let m = manual_plan.run_input(&input).unwrap();
    assert_eq!(a.output, m.output);
    assert_eq!(a.stats.total_cycles(), m.stats.total_cycles());
}

/// When the sharded prepare degrades (DESIGN.md §10's fallback rung), the
/// plan is built with `A` on one device and every other setting kept: the
/// plan's config says so, and an Auto decision describes that plan — its
/// prediction re-scored for the built config, not the stale sharded one.
#[test]
fn degraded_sharded_prepare_rescores_unsharded() {
    let input = paper_input(DatasetSpec::cora().with_nodes(256), 5);
    let mut config = base_config();
    config.strategy = StrategyPolicy::Auto;
    // A quarter of the adjacency's footprint: the model must shard the
    // aggregation phase to fit.
    config.memory = MemoryModel {
        on_chip_bytes: input.a_norm.nnz() * 2,
        off_chip_bytes_per_cycle: MemoryModel::vcu118().off_chip_bytes_per_cycle,
    };
    let clean = GcnRunner::new(config.clone())
        .resolve_strategy(&input)
        .unwrap();
    assert!(
        matches!(clean.shards, ShardPolicy::Fixed(s) if s > 1),
        "the memory bound must force a sharded pick, got {:?}",
        clean.shards
    );
    let profile = CostProfile::of_input(&input);

    let mut exercised = false;
    for seed in 1..400u64 {
        if FaultPlan::new(seed).decide("prepare:sharded", 0).is_none() {
            continue;
        }
        let mut faulted = config.clone();
        faulted.faults = Some(FaultPlan::new(seed));
        // Other fault sites may take the whole prepare down; any seed that
        // produces a degraded plan exercises the fallback.
        let Ok((plan, _)) = GcnRunner::new(faulted.clone()).prepare(&input) else {
            continue;
        };
        if plan.degraded().is_none() {
            continue;
        }
        let d = plan
            .auto_decision()
            .expect("auto decision survives degrade");
        assert_eq!(d.shards, ShardPolicy::Single, "{}", d.label());
        assert_eq!(d.design, clean.design);
        assert_eq!(d.combination_shards, clean.combination_shards);
        assert_eq!(plan.config(), &d.apply(&faulted));
        assert_eq!(
            d.predicted_cycles.to_bits(),
            cost::predict_config_cycles(plan.config(), &profile).to_bits()
        );
        assert_eq!(plan.shard_count(), 1);

        // The same fault under the hand-specified (Manual) choice degrades
        // by the same rule: `A` on one device, every other knob kept.
        let manual = clean.apply(&faulted);
        let (plan, _) = GcnRunner::new(manual.clone()).prepare(&input).unwrap();
        assert!(plan.degraded().is_some());
        assert!(plan.auto_decision().is_none());
        let mut expect = manual;
        expect.shards = ShardPolicy::Single;
        assert_eq!(plan.config(), &expect);
        exercised = true;
        break;
    }
    assert!(exercised, "no fault seed degraded the sharded prepare");
}

fn design_strategy() -> impl Strategy<Value = Design> {
    prop_oneof![
        Just(Design::Baseline),
        (1usize..3).prop_map(|hop| Design::LocalSharing { hop }),
        (1usize..3).prop_map(|hop| Design::LocalPlusRemote { hop }),
        Just(Design::EieLike),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Cost predictions are finite and strictly positive for every design
    /// point and shape.
    #[test]
    fn cost_predictions_finite_and_positive(
        loads in proptest::collection::vec(0usize..64, 1..128),
        n_pes_log in 2u32..6,
        rounds in 1usize..32,
        design in design_strategy(),
    ) {
        let cycles = cost::predict_spmm_cycles(&loads, 1 << n_pes_log, rounds, design);
        prop_assert!(cycles.is_finite());
        prop_assert!(cycles > 0.0);
    }

    /// At a fixed shape, adding non-zeros never predicts fewer cycles.
    #[test]
    fn cost_prediction_monotone_in_nnz(
        loads in proptest::collection::vec(0usize..64, 1..96),
        idx in 0usize..96,
        bump in 1usize..16,
        n_pes_log in 2u32..6,
        rounds in 1usize..16,
        design in design_strategy(),
    ) {
        let n_pes = 1 << n_pes_log;
        let lighter = cost::predict_spmm_cycles(&loads, n_pes, rounds, design);
        let mut heavier = loads.clone();
        let i = idx % heavier.len();
        heavier[i] += bump;
        let bumped = cost::predict_spmm_cycles(&heavier, n_pes, rounds, design);
        prop_assert!(
            bumped >= lighter - 1e-9,
            "bump at {i} dropped the prediction: {lighter} -> {bumped}"
        );
    }
}
