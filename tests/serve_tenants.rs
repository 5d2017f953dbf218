//! Integration tests of multi-tenant serving: the fingerprint-keyed plan
//! cache (hit/miss/eviction round-trips, mutated-graph re-prepare), the
//! admission queue, and concurrent sessions over one shared plan — every
//! path bit-identical to independent cold prepare+run.

use std::sync::Arc;
use std::thread;

use awb_gcn_repro::accel::{AccelConfig, AccelError, Design, GcnRunner, GcnService, ServeOptions};
use awb_gcn_repro::datasets::{DatasetSpec, GeneratedDataset};
use awb_gcn_repro::gcn::GcnInput;
use awb_gcn_repro::sparse::Csr;

fn spec(nodes: usize) -> DatasetSpec {
    DatasetSpec::cora().with_nodes(nodes)
}

fn config(n_pes: usize) -> AccelConfig {
    Design::LocalPlusRemote { hop: 1 }.apply(AccelConfig::builder().n_pes(n_pes).build().unwrap())
}

/// A tenant graph: distinct seed → distinct structure → distinct
/// fingerprint and plan.
fn tenant(nodes: usize, seed: u64) -> GcnInput {
    let data = GeneratedDataset::generate(&spec(nodes), seed).unwrap();
    GcnInput::from_dataset(&data).unwrap()
}

/// Cold reference for one request: independent prepare + run.
fn cold_run(cfg: &AccelConfig, input: &GcnInput, x1: &Csr) -> awb_gcn_repro::accel::GcnRunOutcome {
    let cold_input =
        GcnInput::from_parts(input.a_norm.clone(), x1.clone(), input.weights.clone()).unwrap();
    GcnRunner::new(cfg.clone()).run(&cold_input).unwrap()
}

/// Two tenants interleaved through `serve_graph`: the first batch per
/// tenant misses (prepare-on-miss), later batches hit, and every response
/// is bit-identical to an independent cold prepare+run.
#[test]
fn interleaved_tenants_share_the_cache() {
    let cfg = config(16);
    let mut service = GcnService::new(cfg.clone());
    let a = tenant(128, 31);
    let b = tenant(96, 32);
    // a, b, a, b: 2 misses (first touch each) then 2 hits.
    for (round, input) in [(0, &a), (0, &b), (1, &a), (1, &b)] {
        let batch = service
            .serve_graph(input, std::slice::from_ref(&input.x1))
            .unwrap();
        let cold = cold_run(&cfg, input, &input.x1);
        assert_eq!(
            batch.requests[0].outcome.output, cold.output,
            "round {round}: served output must be bit-identical to cold"
        );
    }
    let stats = service.cache_stats();
    assert_eq!((stats.hits, stats.misses, stats.evictions), (2, 2, 0));
    assert_eq!(stats.resident_plans, 2);
}

/// Mutating the graph *structure* between requests changes the
/// fingerprint: the stale plan is never reused, the mutated graph is
/// prepared fresh, and its response is bit-identical to a cold prepare on
/// the mutated graph.
#[test]
fn mutated_structure_is_a_cache_miss() {
    let cfg = config(16);
    let mut service = GcnService::new(cfg.clone());
    let original = tenant(128, 41);
    service
        .serve_graph(&original, std::slice::from_ref(&original.x1))
        .unwrap();
    // Same spec, different seed: a structurally different graph.
    let mutated = tenant(128, 42);
    assert_ne!(
        original.a_norm.to_csc().col_ptr(),
        mutated.a_norm.to_csc().col_ptr(),
        "mutation must actually change the structure"
    );
    let batch = service
        .serve_graph(&mutated, std::slice::from_ref(&mutated.x1))
        .unwrap();
    let stats = service.cache_stats();
    assert_eq!(
        (stats.misses, stats.resident_plans),
        (2, 2),
        "mutated structure must be a fresh miss, not a stale hit"
    );
    let cold = cold_run(&cfg, &mutated, &mutated.x1);
    assert_eq!(batch.requests[0].outcome.output, cold.output);
}

/// Mutating the *weights* under an unchanged structure keeps the
/// fingerprint but fails `GcnPlan::matches`: a well-defined miss that
/// replaces the stale entry (counted as an eviction) — never a stale
/// plan serving old weights.
#[test]
fn mutated_weights_replace_the_stale_plan() {
    let cfg = config(16);
    let mut service = GcnService::new(cfg.clone());
    let data = GeneratedDataset::generate(&spec(128), 51).unwrap();
    let original = GcnInput::from_dataset(&data).unwrap();
    service
        .serve_graph(&original, std::slice::from_ref(&original.x1))
        .unwrap();
    // Same adjacency (same fingerprint), freshly drawn weights.
    let retrained =
        GeneratedDataset::with_adjacency(&spec(128), data.adjacency.clone(), 900).unwrap();
    let retrained = GcnInput::from_dataset(&retrained).unwrap();
    assert_eq!(original.a_norm, retrained.a_norm, "structure unchanged");
    assert_ne!(original.weights, retrained.weights, "weights mutated");
    let batch = service
        .serve_graph(&retrained, std::slice::from_ref(&retrained.x1))
        .unwrap();
    let stats = service.cache_stats();
    assert_eq!(
        (
            stats.hits,
            stats.misses,
            stats.evictions,
            stats.resident_plans
        ),
        (0, 2, 1, 1),
        "stale same-fingerprint plan must be replaced, not reused"
    );
    let cold = cold_run(&cfg, &retrained, &retrained.x1);
    assert_eq!(batch.requests[0].outcome.output, cold.output);
    // The replacement is now the resident plan: serving the retrained
    // tenant again hits.
    service
        .serve_graph(&retrained, std::slice::from_ref(&retrained.x1))
        .unwrap();
    assert_eq!(service.cache_stats().hits, 1);
}

/// Scaling `A`'s values under an unchanged structure keeps the
/// fingerprint but fails `GcnPlan::matches`, which compares the values
/// bit for bit: a miss that replaces the stale plan, never a stale hit.
#[test]
fn mutated_values_are_a_cache_miss() {
    let cfg = config(16);
    let mut service = GcnService::new(cfg.clone());
    let original = tenant(128, 45);
    let (a, x1) = (&original.a_norm, &original.x1);
    service
        .serve_graph(&original, std::slice::from_ref(x1))
        .unwrap();
    let doubled = a.values().iter().map(|v| v * 2.0).collect();
    let (ptr, idx) = (a.row_ptr().to_vec(), a.col_idx().to_vec());
    let a2 = Csr::from_parts(a.rows(), a.cols(), ptr, idx, doubled).unwrap();
    let mutated = GcnInput::from_parts(a2, x1.clone(), original.weights.clone()).unwrap();
    let batch = service
        .serve_graph(&mutated, std::slice::from_ref(x1))
        .unwrap();
    let s = service.cache_stats();
    assert_eq!(
        (s.hits, s.misses, s.evictions, s.resident_plans),
        (0, 2, 1, 1)
    );
    let cold = cold_run(&cfg, &mutated, x1);
    assert_eq!(batch.requests[0].outcome.output, cold.output);
}

/// Eviction round-trip: a budget sized for one plan forces LRU eviction
/// when a second tenant arrives; returning to the evicted tenant
/// re-prepares (a miss, not an error) and stays bit-identical.
#[test]
fn eviction_round_trip_re_prepares_evicted_tenant() {
    let cfg = config(16);
    let a = tenant(128, 61);
    let b = tenant(96, 62);
    // Budget below two plans: measure plan sizes first.
    let (plan_a, _) = GcnRunner::new(cfg.clone()).prepare(&a).unwrap();
    let (plan_b, _) = GcnRunner::new(cfg.clone()).prepare(&b).unwrap();
    let budget = plan_a.memory_bytes().max(plan_b.memory_bytes()) + 1024;
    assert!(budget < plan_a.memory_bytes() + plan_b.memory_bytes());
    let mut service = GcnService::with_options(
        cfg.clone(),
        ServeOptions {
            queue_depth: 64,
            cache_budget_bytes: Some(budget),
            deadline: None,
        },
    )
    .unwrap();
    service
        .serve_graph(&a, std::slice::from_ref(&a.x1))
        .unwrap();
    service
        .serve_graph(&b, std::slice::from_ref(&b.x1))
        .unwrap();
    let stats = service.cache_stats();
    assert_eq!(
        (stats.evictions, stats.resident_plans),
        (1, 1),
        "admitting b must evict the LRU plan (a)"
    );
    assert!(stats.resident_bytes <= budget);
    assert!(service.cached_plan(&a).is_none());
    assert!(service.cached_plan(&b).is_some());
    // Round-trip: the evicted tenant re-prepares and serves identically.
    let batch = service
        .serve_graph(&a, std::slice::from_ref(&a.x1))
        .unwrap();
    let stats = service.cache_stats();
    assert_eq!(stats.misses, 3, "return of a is a fresh miss");
    assert_eq!(stats.evictions, 2, "b is evicted in turn");
    let cold = cold_run(&cfg, &a, &a.x1);
    assert_eq!(batch.requests[0].outcome.output, cold.output);
}

/// A budget smaller than a single plan keeps exactly the most recent
/// plan resident (the just-used plan is never evicted by its own
/// insertion).
#[test]
fn oversized_plan_stays_resident() {
    let cfg = config(16);
    let a = tenant(96, 71);
    let mut service = GcnService::with_options(
        cfg,
        ServeOptions {
            queue_depth: 64,
            cache_budget_bytes: Some(1),
            deadline: None,
        },
    )
    .unwrap();
    service
        .serve_graph(&a, std::slice::from_ref(&a.x1))
        .unwrap();
    let stats = service.cache_stats();
    assert_eq!(stats.resident_plans, 1);
    // The resident plan is reusable: the next batch hits.
    service
        .serve_graph(&a, std::slice::from_ref(&a.x1))
        .unwrap();
    assert_eq!(service.cache_stats().hits, 1);
}

/// Queue admission across tenants: requests from different tenants
/// interleave in one queue, drain in admission order, and each runs
/// against its own tenant's plan.
#[test]
fn queued_tenants_drain_in_admission_order() {
    let cfg = config(16);
    let mut service = GcnService::new(cfg.clone());
    let a = tenant(128, 81);
    let b = tenant(96, 82);
    let order = [&a, &b, &a, &b, &b];
    for (i, input) in order.iter().enumerate() {
        assert_eq!(service.enqueue(input, input.x1.clone()).unwrap(), i);
    }
    let batch = service.drain().unwrap();
    assert_eq!(batch.requests.len(), order.len());
    for (r, input) in batch.requests.iter().zip(order.iter()) {
        let cold = cold_run(&cfg, input, &input.x1);
        assert_eq!(
            r.outcome.output, cold.output,
            "request {} must run against its own tenant's plan",
            r.index
        );
        assert!(r.queue_wait_s >= 0.0 && r.queue_wait_s.is_finite());
    }
    // Queue-admission lookups: 2 misses (first touch per tenant), 3 hits.
    let stats = service.cache_stats();
    assert_eq!((stats.hits, stats.misses), (3, 2));
}

/// An admitted request survives eviction of its plan: the queue holds the
/// `Arc`, so draining after the cache dropped the entry still runs — and
/// still bit-identical.
#[test]
fn admitted_request_survives_plan_eviction() {
    let cfg = config(16);
    let a = tenant(128, 91);
    let b = tenant(96, 92);
    let mut service = GcnService::with_options(
        cfg.clone(),
        ServeOptions {
            queue_depth: 8,
            // Any second plan evicts the first.
            cache_budget_bytes: Some(1),
            deadline: None,
        },
    )
    .unwrap();
    service.enqueue(&a, a.x1.clone()).unwrap();
    // Admitting b evicts a's plan while a's request still waits.
    service.enqueue(&b, b.x1.clone()).unwrap();
    assert!(service.cached_plan(&a).is_none(), "a was evicted");
    let batch = service.drain().unwrap();
    assert_eq!(batch.requests.len(), 2);
    let cold_a = cold_run(&cfg, &a, &a.x1);
    let cold_b = cold_run(&cfg, &b, &b.x1);
    assert_eq!(batch.requests[0].outcome.output, cold_a.output);
    assert_eq!(batch.requests[1].outcome.output, cold_b.output);
}

/// Backpressure is typed and non-destructive: the rejected request is not
/// admitted, nothing already queued is lost.
#[test]
fn queue_full_is_typed_backpressure() {
    let cfg = config(16);
    let a = tenant(96, 101);
    let mut service = GcnService::with_options(
        cfg,
        ServeOptions {
            queue_depth: 2,
            cache_budget_bytes: None,
            deadline: None,
        },
    )
    .unwrap();
    service.enqueue(&a, a.x1.clone()).unwrap();
    service.enqueue(&a, a.x1.clone()).unwrap();
    match service.enqueue(&a, a.x1.clone()) {
        Err(AccelError::QueueFull { depth }) => assert_eq!(depth, 2),
        other => panic!("expected QueueFull, got {other:?}"),
    }
    assert_eq!(service.queue_len(), 2);
    let batch = service.drain().unwrap();
    assert_eq!(batch.requests.len(), 2);
    // Post-drain the queue accepts again.
    service.enqueue(&a, a.x1.clone()).unwrap();
}

/// Concurrent sessions over one shared plan: N threads × M requests
/// through the RwLock'd replay cache. The frozen map never re-tunes
/// (misses stay fixed), the atomic hit counter sums exactly, and every
/// thread's outputs are bit-identical to the sequential reference.
#[test]
fn concurrent_sessions_count_exactly_and_match_sequential() {
    const THREADS: usize = 4;
    const REQUESTS_PER_THREAD: usize = 3;
    let cfg = config(32);
    let data = GeneratedDataset::generate(&spec(192), 111).unwrap();
    let input = GcnInput::from_dataset(&data).unwrap();
    let requests: Vec<Csr> = (0..REQUESTS_PER_THREAD)
        .map(|i| {
            GeneratedDataset::with_adjacency(&spec(192), data.adjacency.clone(), 500 + i as u64)
                .unwrap()
                .features
        })
        .collect();
    let (plan, _) = GcnRunner::new(cfg).prepare(&input).unwrap();
    let plan = Arc::new(plan);

    // Sequential reference, and the per-request replay hit cost measured
    // on the warm cache.
    let sequential: Vec<_> = requests.iter().map(|x1| plan.run(x1).unwrap()).collect();
    let hits_before = plan.replay_hits();
    let misses_before = plan.replay_misses();
    for x1 in &requests {
        plan.run(x1).unwrap();
    }
    let hits_per_round = plan.replay_hits() - hits_before;
    assert_eq!(
        plan.replay_misses(),
        misses_before,
        "a warm frozen plan never misses"
    );
    assert!(hits_per_round > 0, "served rounds replay from the cache");

    let hits_start = plan.replay_hits();
    let outputs: Vec<Vec<_>> = thread::scope(|scope| {
        let handles: Vec<_> = (0..THREADS)
            .map(|_| {
                let plan = Arc::clone(&plan);
                let requests = &requests;
                scope.spawn(move || {
                    requests
                        .iter()
                        .map(|x1| plan.run(x1).unwrap())
                        .collect::<Vec<_>>()
                })
            })
            .collect();
        handles.into_iter().map(|h| h.join().unwrap()).collect()
    });
    // Counters sum exactly: every thread's every request contributed its
    // full hit count, no increments lost to the interleaving.
    assert_eq!(
        plan.replay_hits() - hits_start,
        hits_per_round * THREADS as u64,
        "atomic hit counter must sum exactly under concurrency"
    );
    assert_eq!(plan.replay_misses(), misses_before);
    for thread_outputs in &outputs {
        for (served, reference) in thread_outputs.iter().zip(&sequential) {
            assert_eq!(served.output, reference.output);
            assert_eq!(served.stats, reference.stats);
        }
    }
}
