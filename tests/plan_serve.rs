//! Integration tests of the plan/execute split and the serving front-end:
//! N requests on one graph against a shared plan must be bit-identical to
//! N independent fresh-runner runs, with tuning paid exactly once and the
//! replay cache warm from the first request.

use awb_gcn_repro::accel::{
    par_map_threads, AccelConfig, Design, GcnPlan, GcnRunner, GcnService, ShardPolicy, StreamStats,
};
use awb_gcn_repro::datasets::{DatasetSpec, GeneratedDataset};
use awb_gcn_repro::gcn::GcnInput;
use awb_gcn_repro::sparse::Csr;

const NODES: usize = 192;
const N_REQUESTS: usize = 5;

fn spec() -> DatasetSpec {
    DatasetSpec::cora().with_nodes(NODES)
}

fn config(n_pes: usize) -> AccelConfig {
    Design::LocalPlusRemote { hop: 1 }.apply(AccelConfig::builder().n_pes(n_pes).build().unwrap())
}

/// The serving traffic shape: one fixed graph, per-request feature
/// matrices (request 0 reuses the warm-up features).
fn graph_and_requests() -> (GcnInput, Vec<Csr>) {
    let data = GeneratedDataset::generate(&spec(), 31).unwrap();
    let input = GcnInput::from_dataset(&data).unwrap();
    let requests: Vec<Csr> = (0..N_REQUESTS)
        .map(|i| {
            if i == 0 {
                input.x1.clone()
            } else {
                GeneratedDataset::with_adjacency(&spec(), data.adjacency.clone(), 400 + i as u64)
                    .unwrap()
                    .features
            }
        })
        .collect();
    (input, requests)
}

/// Reference: a fresh runner per request (tuning re-paid every time).
fn fresh_runs(
    input: &GcnInput,
    requests: &[Csr],
    cfg: &AccelConfig,
) -> Vec<awb_gcn_repro::accel::GcnRunOutcome> {
    let runner = GcnRunner::new(cfg.clone());
    requests
        .iter()
        .map(|x1| {
            let cold_input =
                GcnInput::from_parts(input.a_norm.clone(), x1.clone(), input.weights.clone())
                    .unwrap();
            runner.run(&cold_input).unwrap()
        })
        .collect()
}

#[test]
fn sequential_plan_requests_match_fresh_runs_bitwise() {
    let (input, requests) = graph_and_requests();
    let cfg = config(32);
    let (plan, _) = GcnRunner::new(cfg.clone()).prepare(&input).unwrap();
    let reference = fresh_runs(&input, &requests, &cfg);
    for (x1, fresh) in requests.iter().zip(&reference) {
        let served = plan.run(x1).unwrap();
        assert_eq!(served.output, fresh.output, "outputs must be bit-identical");
        assert_eq!(served.x_density, fresh.x_density);
        // The served request never pays tuning (the fresh run does, in
        // layer 1's A*(XW)).
        for layer in &served.stats.layers {
            assert_eq!(layer.a_xw.tuning_rounds(), 0);
        }
    }
}

#[test]
fn batched_service_requests_match_fresh_runs_bitwise() {
    let (input, requests) = graph_and_requests();
    let cfg = config(32);
    let mut service = GcnService::new(cfg.clone());
    service.prepare("graph", &input).unwrap();
    let batch = service.serve("graph", &requests).unwrap();
    assert_eq!(batch.requests.len(), requests.len());
    let reference = fresh_runs(&input, &requests, &cfg);
    for ((i, served), fresh) in batch.requests.iter().enumerate().zip(&reference) {
        assert_eq!(served.index, i, "batch results keep request order");
        assert_eq!(served.outcome.output, fresh.output);
    }
    assert!(batch.mean_cycles() > 0.0);
    assert!(batch.throughput_rps() > 0.0);
    assert!(batch.avg_utilization() > 0.0 && batch.avg_utilization() <= 1.0);
}

#[test]
fn batched_equals_sequential_on_shared_plan() {
    let (input, requests) = graph_and_requests();
    let mut service = GcnService::new(config(32));
    service.prepare("graph", &input).unwrap();
    let batch = service.serve("graph", &requests).unwrap();
    let plan = service.plan("graph").unwrap();
    for (served, x1) in batch.requests.iter().zip(&requests) {
        let sequential = plan.run(x1).unwrap();
        assert_eq!(served.outcome.output, sequential.output);
        assert_eq!(served.outcome.stats, sequential.stats);
    }
}

#[test]
fn combination_sharded_plan_requests_match_fresh_unsharded_runs() {
    // Sharding the combination phase is invisible to the serving
    // contract: warm requests on a doubly sharded plan are bit-identical
    // to fresh *unsharded* runs on the same inputs.
    let (input, requests) = graph_and_requests();
    let unsharded = config(32);
    let mut cfg = unsharded.clone();
    cfg.shards = ShardPolicy::Fixed(2);
    cfg.combination_shards = ShardPolicy::Fixed(3);
    let mut service = GcnService::new(cfg);
    let report = service.prepare("graph", &input).unwrap();
    assert_eq!(report.shards, 2);
    assert_eq!(report.combination_shards, 3);
    let batch = service.serve("graph", &requests).unwrap();
    let reference = fresh_runs(&input, &requests, &unsharded);
    for (served, fresh) in batch.requests.iter().zip(&reference) {
        assert_eq!(served.outcome.output, fresh.output);
        for layer in &served.outcome.stats.layers {
            assert_eq!(layer.a_xw.tuning_rounds(), 0);
        }
    }
}

#[test]
fn replay_hits_strictly_increase_across_requests() {
    let (input, _) = graph_and_requests();
    let (plan, _) = GcnRunner::new(config(32)).prepare(&input).unwrap();
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
    let (input, _) = graph_and_requests();
    let (plan, _) = GcnRunner::new(config(32)).prepare(&input).unwrap();
    // Same node count and shapes, different adjacency structure.
    let other_data = GeneratedDataset::generate(&spec(), 77).unwrap();
    let other = GcnInput::from_dataset(&other_data).unwrap();
    assert!(!plan.matches(&other));
    assert!(plan.run_input(&other).is_err());
    // The underlying SPMM plan also rejects the foreign operand directly.
    let mut session = plan.plan_a().expect("unsharded plan").session();
    let b = awb_gcn_repro::sparse::DenseMatrix::zeros(NODES, 2);
    let err = awb_gcn_repro::accel::SpmmEngine::run(&mut session, &other.a_norm_csc, &b, "foreign");
    assert!(err.is_err(), "fingerprint mismatch must be rejected");
}

#[test]
fn plan_amortizes_tuning_cold_vs_warm_cycles() {
    // The serving premise quantified: warm requests (frozen map) are never
    // slower than the cold run that had to tune, and on a skewed graph the
    // tuned map makes them strictly faster.
    let data = GeneratedDataset::generate(&DatasetSpec::nell().with_nodes(512), 8).unwrap();
    let input = GcnInput::from_dataset(&data).unwrap();
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
        assert_eq!(out.output, serial.output, "request {i} output diverged");
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
    let data = GeneratedDataset::generate(&spec(), 24).unwrap();
    let input = GcnInput::from_dataset(&data).unwrap();

    let (single, _) = GcnRunner::new(config(32)).prepare(&input).unwrap();
    assert_concurrent_runs_match_serial(&single, &input.x1);

    let mut sharded = config(16);
    sharded.shards = ShardPolicy::Fixed(3);
    let (sharded, _) = GcnRunner::new(sharded).prepare(&input).unwrap();
    assert_eq!(sharded.shard_count(), 3);
    assert_concurrent_runs_match_serial(&sharded, &input.x1);

    let dir = std::env::temp_dir().join(format!("awb-plan-serve-{}", std::process::id()));
    std::fs::remove_dir_all(&dir).ok();
    let mut streamed = config(32);
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
