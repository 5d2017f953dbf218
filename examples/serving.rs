//! Serving traffic on a fixed graph with the plan/execute split.
//!
//! The production shape the ROADMAP aims at: the graph and model change
//! rarely, feature-matrix requests arrive constantly. This example
//! prepares a Cora-like graph once (paying auto-tuning), then serves a
//! batch of requests against the shared plan and compares the cost with
//! re-running a fresh engine per request. It then switches to the
//! multi-tenant front-end: two tenant graphs through the
//! fingerprint-keyed plan registry (prepare-on-miss; the named plan is
//! a hit) and the admission queue, with per-batch queue-wait/execute
//! latency percentiles.
//!
//! Run: `cargo run --release --example serving`

use awb_gcn_repro::accel::{AccelConfig, Design, GcnRunner, GcnService};
use awb_gcn_repro::datasets::{DatasetSpec, GeneratedDataset};
use awb_gcn_repro::gcn::GcnInput;
use std::time::Instant;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let spec = DatasetSpec::cora();
    let data = GeneratedDataset::generate(&spec, 42)?;
    let input = GcnInput::from_dataset(&data)?;
    let config =
        Design::LocalPlusRemote { hop: 2 }.apply(AccelConfig::builder().n_pes(256).build()?);

    // --- Prepare: pay tuning + replay warm-up once per graph ---
    let mut service = GcnService::new(config.clone());
    let report = service.prepare("cora", &input)?;
    println!(
        "prepared cora: {} tuning rounds, {} rows switched, {:.3}s wall",
        report.tuning_rounds, report.total_switches, report.wall_s
    );

    // --- Serve: a batch of 8 requests (fresh features, fixed graph) ---
    let requests: Vec<_> = (0..8)
        .map(|i| {
            GeneratedDataset::with_adjacency(&spec, data.adjacency.clone(), 1000 + i)
                .map(|d| d.features)
        })
        .collect::<Result<_, _>>()?;
    let batch = service.serve("cora", &requests)?;
    println!(
        "served {} requests: mean {:.0} cycles ({:.4} ms @{} MHz), util {:.1}%, {:.1} req/s",
        batch.requests.len(),
        batch.mean_cycles(),
        batch.mean_latency_ms(),
        batch.freq_mhz,
        batch.avg_utilization() * 100.0,
        batch.throughput_rps()
    );

    // --- The counterfactual: a fresh runner per request ---
    let runner = GcnRunner::new(config);
    let cold_inputs: Vec<GcnInput> = requests
        .iter()
        .map(|x1| GcnInput::from_parts(input.a_norm.clone(), x1.clone(), input.weights.clone()))
        .collect::<Result<_, _>>()?;
    let start = Instant::now();
    let mut cold_cycles = 0u64;
    for (cold_input, served) in cold_inputs.iter().zip(&batch.requests) {
        let cold = runner.run(cold_input)?;
        assert_eq!(
            cold.output, served.outcome.output,
            "served outputs are bit-identical to cold runs"
        );
        cold_cycles += cold.stats.total_cycles();
    }
    let cold_wall = start.elapsed().as_secs_f64();
    println!(
        "fresh-engine comparison: {:.0} mean cycles ({:.2}x more), {:.3}s wall vs {:.3}s warm — \
         outputs bit-identical",
        cold_cycles as f64 / requests.len() as f64,
        cold_cycles as f64 / (batch.mean_cycles() * requests.len() as f64),
        cold_wall,
        batch.wall_s
    );

    // --- Multi-tenant: two graphs through the plan registry + queue ---
    // Plans are keyed on the graph's sparsity fingerprint: cora hits the
    // plan prepared above under its name, the new tenant's first touch
    // prepares (a miss), later requests hit. The admission queue bounds
    // in-flight work with typed backpressure.
    let tenant_spec = DatasetSpec::cora().with_nodes(spec.nodes / 4);
    let tenant_data = GeneratedDataset::generate(&tenant_spec, 7)?;
    let tenant = GcnInput::from_dataset(&tenant_data)?;
    for graph in [&input, &tenant, &input] {
        service.enqueue(graph, graph.x1.clone())?;
    }
    let mixed = service.drain()?;
    let wait = mixed.queue_wait_percentiles();
    let exec = mixed.execute_percentiles();
    let stats = service.cache_stats();
    println!(
        "multi-tenant drain: {} requests, queue-wait p50/p95/p99 {:.2}/{:.2}/{:.2} ms, \
         execute p50/p95/p99 {:.2}/{:.2}/{:.2} ms",
        mixed.requests.len(),
        wait.p50 * 1e3,
        wait.p95 * 1e3,
        wait.p99 * 1e3,
        exec.p50 * 1e3,
        exec.p95 * 1e3,
        exec.p99 * 1e3,
    );
    println!(
        "plan cache: {} hits / {} misses / {} evictions, resident {} bytes ({} plans)",
        stats.hits, stats.misses, stats.evictions, stats.resident_bytes, stats.resident_plans
    );
    Ok(())
}
