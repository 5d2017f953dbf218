//! End-to-end: dataset generation → normalization → accelerated inference
//! → functional verification, across dataset shapes and design points.

mod common;

use awb_gcn_repro::accel::{verify_against_reference, AccelConfig, Design, GcnRunner};
use awb_gcn_repro::datasets::{DatasetSpec, PaperDataset, RowOrdering};
use common::spec_input;

fn config(n_pes: usize) -> AccelConfig {
    AccelConfig::builder().n_pes(n_pes).build().unwrap()
}

#[test]
fn every_paper_dataset_shape_verifies_functionally() {
    // Scaled-down instances of all five shapes.
    for paper in PaperDataset::all() {
        let spec = paper.spec().with_nodes(256);
        let input = spec_input(&spec, 21);
        let outcome = GcnRunner::new(Design::LocalPlusRemote { hop: 2 }.apply(config(32)))
            .run(&input)
            .unwrap();
        let diff = verify_against_reference(&input, &outcome, 2e-3).unwrap();
        assert!(diff <= 2e-3, "{}: diff {diff}", spec.name);
        assert_eq!(outcome.output.shape(), (256, spec.f3));
    }
}

#[test]
fn design_progression_improves_utilization_on_skewed_graphs() {
    // Nell-like clustering is the adversarial case the paper leads with.
    let spec = DatasetSpec::nell().with_nodes(1024);
    let input = spec_input(&spec, 33);
    let mut utils = Vec::new();
    for design in [
        Design::Baseline,
        Design::LocalSharing { hop: 2 },
        Design::LocalPlusRemote { hop: 3 },
    ] {
        let outcome = GcnRunner::new(design.apply(config(128)))
            .run(&input)
            .unwrap();
        utils.push((design.label(), outcome.stats.avg_utilization()));
    }
    assert!(
        utils[1].1 > utils[0].1,
        "local sharing should beat baseline: {utils:?}"
    );
    assert!(
        utils[2].1 > utils[1].1,
        "remote switching should add on top: {utils:?}"
    );
}

#[test]
fn rebalancing_gain_grows_with_imbalance() {
    let balanced = DatasetSpec::reddit().with_nodes(1024);
    let clustered = DatasetSpec::nell().with_nodes(1024);
    let speedup = |spec: &DatasetSpec| {
        let input = spec_input(spec, 5);
        let base = GcnRunner::new(Design::Baseline.apply(config(64)))
            .run(&input)
            .unwrap();
        let tuned = GcnRunner::new(Design::LocalPlusRemote { hop: 2 }.apply(config(64)))
            .run(&input)
            .unwrap();
        base.stats.total_cycles() as f64 / tuned.stats.total_cycles() as f64
    };
    let s_balanced = speedup(&balanced);
    let s_clustered = speedup(&clustered);
    assert!(
        s_clustered > s_balanced,
        "clustered {s_clustered:.2}x should exceed balanced {s_balanced:.2}x"
    );
}

#[test]
fn shuffled_ordering_reduces_baseline_imbalance() {
    // With hubs spread randomly, the baseline suffers less — the paper's
    // remote imbalance is specifically a *clustered* phenomenon.
    let hubs_first = DatasetSpec::nell().with_nodes(1024);
    let shuffled = hubs_first.clone().with_ordering(RowOrdering::Shuffled);
    let util = |spec: &DatasetSpec| {
        let input = spec_input(spec, 17);
        GcnRunner::new(Design::Baseline.apply(config(128)))
            .run(&input)
            .unwrap()
            .stats
            .avg_utilization()
    };
    assert!(util(&shuffled) > util(&hubs_first));
}

#[test]
fn tq_requirement_shrinks_with_rebalancing() {
    let spec = DatasetSpec::nell().with_nodes(1024);
    let input = spec_input(&spec, 41);
    let depth = |design: Design| {
        GcnRunner::new(design.apply(config(128)))
            .run(&input)
            .unwrap()
            .stats
            .max_queue_depth()
    };
    let base = depth(Design::Baseline);
    let tuned = depth(Design::LocalPlusRemote { hop: 3 });
    assert!(
        tuned < base,
        "rebalancing should shrink TQ depth: base {base}, tuned {tuned}"
    );
}

#[test]
fn latency_scales_down_with_more_pes() {
    let spec = DatasetSpec::pubmed().with_nodes(2048);
    let input = spec_input(&spec, 3);
    let cycles = |n_pes: usize| {
        GcnRunner::new(Design::LocalPlusRemote { hop: 1 }.apply(config(n_pes)))
            .run(&input)
            .unwrap()
            .stats
            .total_cycles()
    };
    let c64 = cycles(64);
    let c256 = cycles(256);
    assert!(
        c256 < c64,
        "more PEs must not be slower: 64 PEs {c64}, 256 PEs {c256}"
    );
    // The paper's Fig. 15: rebalanced designs scale near-linearly. Demand
    // at least 2x out of the 4x PE increase.
    assert!(c64 as f64 / c256 as f64 > 2.0);
}

#[test]
fn deterministic_given_seed() {
    let spec = DatasetSpec::cora().with_nodes(256);
    let input = spec_input(&spec, 77);
    let run = || {
        GcnRunner::new(Design::LocalPlusRemote { hop: 1 }.apply(config(32)))
            .run(&input)
            .unwrap()
    };
    let a = run();
    let b = run();
    assert_eq!(a.stats.total_cycles(), b.stats.total_cycles());
    assert_eq!(a.output, b.output);
}
