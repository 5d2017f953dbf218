//! Chaos integration suite: seeded fault injection through the serving
//! stack (DESIGN.md §10). Every decision is a pure function of the fault
//! seed, so each test *predicts* which requests fault and asserts the
//! exact typed error — and that everything else stays bit-identical to an
//! independent, fault-free cold run.

mod common;

use std::time::Duration;

use awb_gcn_repro::accel::{
    AccelError, FaultKind, FaultPlan, GcnService, ServeOptions, ShardPolicy,
};
use awb_gcn_repro::gcn::GcnInput;
use awb_gcn_repro::sparse::{Coo, Csr};
use common::{bits, cold_run, cora_input, ls1_rs};

/// Deterministically searches for a fault seed whose `site` decisions over
/// `0..n` satisfy `want` — the suite never depends on luck.
fn find_seed(site: &str, n: u64, want: impl Fn(&[Option<FaultKind>]) -> bool) -> u64 {
    (1u64..10_000)
        .find(|&seed| {
            let plan = FaultPlan::new(seed);
            let kinds: Vec<_> = (0..n).map(|i| plan.decide(site, i)).collect();
            want(&kinds)
        })
        .expect("a qualifying fault seed exists well below 10k")
}

/// The acceptance-criteria chaos run: 3 tenants × 4 requests through the
/// admission queue under a seed that injects all three fault kinds at the
/// drain site. Non-faulted requests must be bit-identical to cold
/// fault-free runs, faulted ones must surface as the exact predicted typed
/// error, and a post-chaos request on every surviving cached plan must
/// still succeed bit-identically (no poisoned plan, no wedged service).
#[test]
fn chaos_drain_isolates_faults_and_preserves_survivors() {
    const REQUESTS: u64 = 12;
    let seed = find_seed("drain", REQUESTS, |kinds| {
        kinds.contains(&Some(FaultKind::Panic))
            && kinds.contains(&Some(FaultKind::NanPayload))
            && kinds.contains(&Some(FaultKind::Delay))
            && kinds.contains(&None)
    });
    let mut cfg = ls1_rs(16);
    cfg.faults = Some(FaultPlan::new(seed));
    let plan = cfg.faults.unwrap();

    let tenants = [cora_input(96, 11), cora_input(80, 12), cora_input(112, 13)];
    let options = ServeOptions {
        queue_depth: REQUESTS as usize,
        ..ServeOptions::default()
    };
    let mut service = GcnService::with_options(cfg.clone(), options).unwrap();

    // Interleave tenants: request i belongs to tenant i % 3.
    let mut enqueued: Vec<(usize, Csr)> = Vec::new();
    for i in 0..REQUESTS as usize {
        let t = i % tenants.len();
        service.enqueue(&tenants[t], tenants[t].x1.clone()).unwrap();
        enqueued.push((t, tenants[t].x1.clone()));
    }
    let batch = service.drain_isolated();
    assert_eq!(batch.results.len(), REQUESTS as usize);

    for (i, result) in batch.results.iter().enumerate() {
        let (t, x1) = &enqueued[i];
        match plan.decide("drain", i as u64) {
            Some(FaultKind::Panic) => {
                let err = result.as_ref().unwrap_err();
                assert!(
                    matches!(err, AccelError::WorkerPanicked { site, .. }
                        if site == &format!("drain[{i}]")),
                    "request {i}: expected WorkerPanicked, got {err:?}"
                );
            }
            Some(FaultKind::NanPayload) => {
                let err = result.as_ref().unwrap_err();
                assert!(
                    matches!(err, AccelError::NonFiniteOutput { site }
                        if site == &format!("drain[{i}]")),
                    "request {i}: expected NonFiniteOutput, got {err:?}"
                );
                // The corrupted payload is suppressed — no NaN escapes.
            }
            Some(FaultKind::Delay) | None => {
                let outcome = result.as_ref().unwrap_or_else(|e| {
                    panic!(
                        "request {i} (kind {:?}) failed: {e}",
                        plan.decide("drain", i as u64)
                    )
                });
                let cold = cold_run(&cfg, &tenants[*t], x1);
                assert_eq!(
                    bits(&outcome.outcome.output),
                    bits(&cold.output),
                    "request {i}: non-faulted output must be bit-identical to cold"
                );
            }
        }
    }

    // Post-chaos: every tenant's cached plan survived and still serves
    // bit-identically (panics never wedged a plan or the service).
    for (t, input) in tenants.iter().enumerate() {
        let cached = service
            .cached_plan(input)
            .unwrap_or_else(|| panic!("tenant {t}: plan evicted or poisoned"));
        let out = cached.run(&input.x1).unwrap();
        let cold = cold_run(&cfg, input, &input.x1);
        assert_eq!(
            bits(&out.output),
            bits(&cold.output),
            "tenant {t}: post-chaos request must be bit-identical"
        );
    }
}

/// The replay-cache poison satellite, end to end: a seed whose first serve
/// slot panics kills one session mid-request; the next request on the very
/// same cached plan still succeeds bit-identically.
#[test]
fn panicked_session_leaves_cached_plan_usable() {
    let seed = find_seed("serve", 2, |kinds| {
        kinds[0] == Some(FaultKind::Panic) && kinds[1].is_none()
    });
    let mut cfg = ls1_rs(16);
    cfg.faults = Some(FaultPlan::new(seed));
    let input = cora_input(128, 21);

    let mut service = GcnService::new(cfg.clone());
    service.prepare("g", &input).unwrap();
    let x1 = input.x1.clone();
    let batch = service
        .serve_isolated("g", &[x1.clone(), x1.clone()])
        .unwrap();
    assert!(
        matches!(batch.results[0], Err(AccelError::WorkerPanicked { .. })),
        "slot 0 must panic by seed construction"
    );
    let survivor = batch.results[1].as_ref().unwrap();
    let cold = cold_run(&cfg, &input, &x1);
    assert_eq!(bits(&survivor.outcome.output), bits(&cold.output));

    // Session 2 on the same plan: the panic must not have wedged it.
    let plan = service.plan("g").expect("named plan still registered");
    assert_eq!(bits(&plan.run(&x1).unwrap().output), bits(&cold.output));
}

/// Queue-wait deadlines shed stale requests with the typed error and
/// never execute them; a generous budget sheds nothing.
#[test]
fn blown_deadlines_shed_with_typed_errors() {
    let input = cora_input(96, 31);
    let x1 = input.x1.clone();

    let tight = ServeOptions {
        deadline: Some(Duration::from_millis(1)),
        ..ServeOptions::default()
    };
    let mut service = GcnService::with_options(ls1_rs(16), tight).unwrap();
    for _ in 0..3 {
        service.enqueue(&input, x1.clone()).unwrap();
    }
    std::thread::sleep(Duration::from_millis(20));
    let batch = service.drain_isolated();
    assert_eq!(batch.failed_count(), 3);
    for (_, err) in batch.failed() {
        assert!(
            matches!(err, AccelError::DeadlineExceeded { waited_ms, budget_ms: 1 }
                if *waited_ms >= 1),
            "expected DeadlineExceeded, got {err:?}"
        );
    }

    let generous = ServeOptions {
        deadline: Some(Duration::from_secs(100)),
        ..ServeOptions::default()
    };
    let mut service = GcnService::with_options(ls1_rs(16), generous).unwrap();
    for _ in 0..3 {
        service.enqueue(&input, x1.clone()).unwrap();
    }
    let batch = service.drain_isolated();
    assert_eq!(batch.failed_count(), 0);
    assert_eq!(batch.completed().count(), 3);
}

/// Admission validation: NaN features, NaN weights, NaN adjacency, and
/// dimension mismatches are all rejected with `InvalidInput` before they
/// can enter the plan cache or produce a silent-NaN output.
#[test]
fn malformed_ingest_is_rejected_before_the_plan_cache() {
    let input = cora_input(96, 51);
    let mut service = GcnService::new(ls1_rs(16));

    // NaN in the feature matrix of an enqueued request.
    let mut bad = Coo::new(input.x1.rows(), input.x1.cols());
    bad.push(3, 1, f32::NAN).unwrap();
    let err = service.enqueue(&input, bad.to_csr()).unwrap_err();
    assert!(matches!(err, AccelError::InvalidInput(_)), "got {err:?}");

    // Wrong-shaped feature matrix.
    let short = Coo::new(input.x1.rows() / 2, input.x1.cols()).to_csr();
    let err = service.enqueue(&input, short).unwrap_err();
    assert!(matches!(err, AccelError::InvalidInput(_)), "got {err:?}");

    // NaN in a weight matrix: rejected at prepare (and nothing cached).
    let mut weights = input.weights.clone();
    let mut w0 = weights[0].clone();
    w0.set(0, 0, f32::INFINITY);
    weights[0] = w0;
    let bad_input = GcnInput::from_parts(input.a_norm.clone(), input.x1.clone(), weights).unwrap();
    let err = service.prepare("bad-weights", &bad_input).unwrap_err();
    assert!(matches!(err, AccelError::InvalidInput(_)), "got {err:?}");
    assert!(service.plan("bad-weights").is_none());

    // NaN in the adjacency.
    let n = input.a_norm.rows();
    let mut adj = Coo::new(n, n);
    adj.push(0, 0, 1.0).unwrap();
    adj.push(1, 0, f32::NAN).unwrap();
    let bad_input =
        GcnInput::from_parts(adj.to_csr(), input.x1.clone(), input.weights.clone()).unwrap();
    let err = service.prepare("bad-adj", &bad_input).unwrap_err();
    assert!(matches!(err, AccelError::InvalidInput(_)), "got {err:?}");

    // Nothing poisoned the service: a clean prepare still works.
    service.prepare("clean", &input).unwrap();
}

/// Graceful degradation: a faulted sharded prepare falls back to an
/// unsharded plan, records the reason in the report, and still serves
/// bit-identical outputs. A clean sharded prepare reports no degradation.
#[test]
fn faulted_sharded_prepare_degrades_to_unsharded() {
    let seed = find_seed("prepare:sharded", 1, |kinds| kinds[0].is_some());
    let input = cora_input(128, 61);

    let mut cfg = ls1_rs(16);
    cfg.shards = ShardPolicy::Fixed(2);
    cfg.faults = Some(FaultPlan::new(seed));
    let mut service = GcnService::new(cfg.clone());
    let report = service.prepare("g", &input).unwrap();
    assert!(
        report.degraded.is_some(),
        "injected prepare fault must surface as degradation"
    );
    assert_eq!(report.shards, 1, "fallback plan must be unsharded");
    let plan = service.plan("g").unwrap();
    assert_eq!(plan.shard_count(), 1);
    let reason = plan
        .degraded()
        .expect("degradation reason recorded on the plan");
    assert!(reason.contains("injected fault"), "reason: {reason}");
    let out = plan.run(&input.x1).unwrap();
    let cold = cold_run(&cfg, &input, &input.x1);
    assert_eq!(
        bits(&out.output),
        bits(&cold.output),
        "degraded plan must stay bit-identical"
    );

    // Clean sharded prepare: no degradation, both shards in place.
    let mut clean = cfg.clone();
    clean.faults = None;
    let mut service = GcnService::new(clean);
    let report = service.prepare("g", &input).unwrap();
    assert!(report.degraded.is_none());
    assert_eq!(service.plan("g").unwrap().shard_count(), 2);
}
