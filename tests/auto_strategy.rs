//! Honesty tests for `StrategyPolicy::Auto` — LS+RS by rule plus the cost
//! model's shard layout must land within 10% of the post-hoc best sweep
//! point, and describe the unsharded plan it built when a sharded prepare
//! degrades. That an Auto run is bit-identical to hand-specifying its
//! choice is checked on every path by `tests/exec_paths.rs`.

mod common;

use awb_gcn_repro::accel::{
    cost, AccelConfig, CostProfile, Design, DesignSweep, FaultPlan, GcnRunner, ShardPolicy,
    StrategyPolicy,
};
use awb_gcn_repro::datasets::DatasetSpec;
use awb_gcn_repro::gcn::GcnInput;
use awb_gcn_repro::hw::MemoryModel;
use common::{design_strategy, near_dense_block_input, power_law_input, spec_input};
use proptest::prelude::*;

const N_PES: usize = 32;

fn base_config() -> AccelConfig {
    let mut builder = AccelConfig::builder();
    builder.n_pes(N_PES);
    builder.build().unwrap()
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
    check_honesty("cora", &spec_input(&DatasetSpec::cora().with_nodes(256), 7));
    check_honesty(
        "citeseer",
        &spec_input(&DatasetSpec::citeseer().with_nodes(256), 11),
    );
    check_honesty(
        "pubmed",
        &spec_input(&DatasetSpec::pubmed().with_nodes(256), 13),
    );
    check_honesty(
        "nell",
        &spec_input(&DatasetSpec::nell().with_nodes(256), 17),
    );
    check_honesty(
        "reddit",
        &spec_input(&DatasetSpec::reddit().with_nodes(192), 19),
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
        spec_input(&DatasetSpec::cora().with_nodes(256), 7),
        spec_input(&DatasetSpec::citeseer().with_nodes(256), 11),
        spec_input(&DatasetSpec::pubmed().with_nodes(256), 13),
        spec_input(&DatasetSpec::nell().with_nodes(256), 17),
        spec_input(&DatasetSpec::reddit().with_nodes(192), 19),
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

/// When the sharded prepare degrades (DESIGN.md §10's fallback rung), the
/// plan is built with `A` on one device and every other setting kept: the
/// plan's config says so, and an Auto decision describes that plan — its
/// prediction re-scored for the built config, not the stale sharded one.
#[test]
fn degraded_sharded_prepare_rescores_unsharded() {
    let input = spec_input(&DatasetSpec::cora().with_nodes(256), 5);
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
