//! Integration tests of the plan/execute split: the replay cache warms
//! from the first request, a plan rejects foreign graphs, warm requests
//! amortize tuning, and concurrent requests on one plan equal the serial
//! one. That every entry point's output — cold run, plan, named batch and
//! drained queue, on one device or sharded on either axis — is
//! bit-identical to the software reference, with tuning paid once, is
//! `tests/exec_paths.rs`'s job.

mod common;

use awb_gcn_repro::accel::{
    par_map_threads, AccelConfig, Design, GcnPlan, GcnRunner, ShardPolicy, StreamStats,
};
use awb_gcn_repro::datasets::DatasetSpec;
use awb_gcn_repro::sparse::Csr;
use common::{bits, cora_input, ls1_rs, spec_input};

const NODES: usize = 192;
#[test]
fn replay_hits_strictly_increase_across_requests() {
    let input = cora_input(NODES, 31);
    let (plan, _) = GcnRunner::new(ls1_rs(32)).prepare(&input).unwrap();
    assert!(
        plan.tuning_rounds() > 0,
        "the warm-up tunes before freezing"
    );
    // Identical requests: every round's pattern was cached by the warm-up
    // or by the first request, so hits grow strictly and misses freeze.
    let mut last_hits = plan.replay_hits();
    let misses_after_warmup = plan.replay_misses();
    for i in 0..4 {
        plan.run_input(&input).unwrap();
        let hits = plan.replay_hits();
        assert!(
            hits > last_hits,
            "request {i}: hits must strictly increase ({last_hits} -> {hits})"
        );
        last_hits = hits;
    }
    assert_eq!(
        plan.replay_misses(),
        misses_after_warmup,
        "repeat requests must not re-simulate cached patterns"
    );
}

#[test]
fn plan_rejects_structurally_different_graph() {
    let input = cora_input(NODES, 31);
    let (plan, _) = GcnRunner::new(ls1_rs(32)).prepare(&input).unwrap();
    // Same node count and shapes, different adjacency structure.
    let other = cora_input(NODES, 77);
    assert!(!plan.matches(&other));
    assert!(plan.run_input(&other).is_err());
    // The underlying one-shard SPMM plan also rejects the foreign operand
    // directly.
    let a_plan = plan.plan_a().expect("unsharded plan");
    assert_eq!(a_plan.shard_count(), 1);
    let mut session = a_plan.session();
    let b = awb_gcn_repro::sparse::DenseMatrix::zeros(NODES, 2);
    let err = awb_gcn_repro::accel::SpmmEngine::run(&mut session, &other.a_norm_csc, &b, "foreign");
    assert!(err.is_err(), "fingerprint mismatch must be rejected");
}

#[test]
fn plan_amortizes_tuning_cold_vs_warm_cycles() {
    // The serving premise quantified: warm requests (frozen map) are never
    // slower than the cold run that had to tune, and on a skewed graph the
    // tuned map makes them strictly faster.
    let input = spec_input(&DatasetSpec::nell().with_nodes(512), 8);
    let cfg =
        Design::LocalPlusRemote { hop: 2 }.apply(AccelConfig::builder().n_pes(64).build().unwrap());
    let (plan, cold) = GcnRunner::new(cfg).prepare(&input).unwrap();
    let warm = plan.run_input(&input).unwrap();
    assert!(
        warm.stats.total_cycles() < cold.stats.total_cycles(),
        "warm {} cold {}",
        warm.stats.total_cycles(),
        cold.stats.total_cycles()
    );
}

/// 16 requests on one shared plan over 8 threads: every output and every
/// statistic equals the serial run's, bit for bit.
fn assert_concurrent_runs_match_serial(plan: &GcnPlan, x1: &Csr) {
    let serial = plan.run(x1).unwrap();
    let requests: Vec<usize> = (0..16).collect();
    let outcomes = par_map_threads(8, &requests, |_| plan.run(x1).unwrap());
    for (i, out) in outcomes.iter().enumerate() {
        assert_eq!(
            bits(&out.output),
            bits(&serial.output),
            "request {i} output diverged"
        );
        assert_eq!(out.stats, serial.stats, "request {i} stats diverged");
        // Each request reports its own streaming pass; the deterministic
        // fields must equal the serial pass's.
        let pass =
            |s: Option<StreamStats>| s.map(|s| (s.shards, s.io_bytes, s.resident_peak_bytes));
        assert_eq!(out.stream.is_some(), plan.streamed_plan().is_some());
        assert_eq!(
            pass(out.stream),
            pass(serial.stream),
            "request {i} stream diverged"
        );
    }
}

#[test]
fn concurrent_plan_runs_match_serial() {
    let input = cora_input(NODES, 24);

    let (single, _) = GcnRunner::new(ls1_rs(32)).prepare(&input).unwrap();
    assert_concurrent_runs_match_serial(&single, &input.x1);

    let mut sharded = ls1_rs(16);
    sharded.shards = ShardPolicy::Fixed(3);
    let (sharded, _) = GcnRunner::new(sharded).prepare(&input).unwrap();
    assert_eq!(sharded.shard_count(), 3);
    assert_concurrent_runs_match_serial(&sharded, &input.x1);

    let dir = std::env::temp_dir().join(format!("awb-plan-serve-{}", std::process::id()));
    std::fs::remove_dir_all(&dir).ok();
    let mut streamed = ls1_rs(32);
    streamed.store = Some(dir.clone());
    streamed.host_mem_budget = Some(input.a_norm_csc.heap_bytes() / 2);
    let (streamed, _) = GcnRunner::new(streamed).prepare(&input).unwrap();
    assert!(streamed.streamed_plan().is_some());
    assert!(
        streamed.shard_count() > 1,
        "the budget must force streaming shards"
    );
    assert_concurrent_runs_match_serial(&streamed, &input.x1);
    std::fs::remove_dir_all(&dir).ok();
}
