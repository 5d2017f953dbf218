//! The three workloads: input generation from the seed, set-up, the timed
//! closed loop, output and determinism checks, and the end-to-end
//! metrics. With `--trace 1` each workload then hands its served state to
//! [`crate::traced`] for the per-layer run.

use crate::traced::{self, same_bits, Job};
use crate::{mean, median, peak_rss_mb, percentile, Args, Metrics, Report, Rng};
use awb_accel::{
    AccelConfig, AccelConfigBuilder, AccelError, Design, GcnPlan, GcnRunOutcome, GcnRunner,
    GcnService, RequestOutcome, ServeOptions, ShardPolicy, StrategyPolicy,
};
use awb_datasets::{DatasetSpec, GeneratedDataset, PaperDataset};
use awb_gcn_model::GcnInput;
use awb_sparse::store::{SparseStore, DEFAULT_CHUNK_NNZ};
use awb_sparse::Csr;
use std::error::Error;
use std::path::Path;
use std::time::{Duration, Instant};

pub const NAMES: [&str; 3] = ["serve-pubmed", "tenant-churn", "nell-streamed"];

/// Seed of the generated graphs. A graph stands in for a fixed dataset,
/// so it does not change with `--seed`; the seed draws the requests'
/// feature matrices, the arrival order and the checked sample.
const GRAPH_SEED: u64 = 20_200_417;
/// Set-ups per run; `setup_s` is their median.
const SETUP_REPS: usize = 5;
/// Distinct generated feature matrices a fixed-graph workload cycles
/// through (a multiple of `CONCURRENCY`).
const POOL: usize = 8;
/// Requests in flight in the fixed-graph closed loop (one per worker).
const CONCURRENCY: usize = 2;
/// Responses compared against independent cold runs, the first included.
const CHECKS: usize = 3;
/// Requests run through the traced layer-schedule copy.
const TRACED: usize = 4;

const TENANTS: usize = 32;
const GIANTS: usize = 2;
const REQUESTS_PER_TENANT: usize = 3;
const QUEUE_DEPTH: usize = 8;
/// Arrivals replayed with timed admission calls in the traced run.
const TRACED_ARRIVALS: usize = 48;

pub fn run(args: &Args, work_dir: &Path) -> Result<Report, Box<dyn Error>> {
    match args.workload.as_str() {
        "serve-pubmed" => fixed_graph(args, work_dir, false),
        "nell-streamed" => fixed_graph(args, work_dir, true),
        "tenant-churn" => tenant_churn(args, work_dir),
        other => Err(format!("unknown workload `{other}` (expected one of {NAMES:?})").into()),
    }
}

/// 1024 PEs, two host workers; the design is applied by [`finish`].
fn builder() -> AccelConfigBuilder {
    let mut b = AccelConfig::builder();
    b.n_pes(1024).threads(Some(CONCURRENCY));
    b
}

/// LS2+RS (the paper's Design D) over a built configuration.
fn finish(b: &AccelConfigBuilder) -> Result<AccelConfig, AccelError> {
    Ok(Design::LocalPlusRemote { hop: 2 }.apply(b.build()?))
}

/// The independent reference for output checks: a cold, resident,
/// unsharded, Manual run. Outputs never depend on the design, shards,
/// streaming or the Auto choice, so every workload must match it.
fn reference_runner() -> Result<GcnRunner, AccelError> {
    Ok(GcnRunner::new(finish(&builder())?))
}

/// Fig. 14 Design-D PE utilisation (paper), per dataset.
fn paper_util(dataset: PaperDataset) -> f64 {
    match dataset {
        PaperDataset::Cora => 0.90,
        PaperDataset::Citeseer => 0.89,
        PaperDataset::Pubmed => 0.96,
        PaperDataset::Nell => 0.77,
        PaperDataset::Reddit => 0.99,
    }
}

/// Timed-phase bookkeeping, keyed by request identity (pool slot or
/// arrival). The first response per key is kept for the simulated
/// metrics and the output check; every later response to the same key
/// must repeat its statistics and output bits exactly.
struct Recorder {
    first: Vec<Option<GcnRunOutcome>>,
    /// Keys answered at least once, with a response or a failure.
    tried: Vec<bool>,
    latency_s: Vec<f64>,
    queue_wait_s: Vec<f64>,
    execute_s: Vec<f64>,
    attempted: usize,
    failed: usize,
    drift: usize,
}

impl Recorder {
    fn new(keys: usize) -> Self {
        Recorder {
            first: vec![None; keys],
            tried: vec![false; keys],
            latency_s: Vec::new(),
            queue_wait_s: Vec::new(),
            execute_s: Vec::new(),
            attempted: 0,
            failed: 0,
            drift: 0,
        }
    }

    fn ok(&mut self, key: usize, latency_s: f64, r: RequestOutcome) {
        self.tried[key] = true;
        self.attempted += 1;
        self.latency_s.push(latency_s);
        self.queue_wait_s.push(r.queue_wait_s);
        self.execute_s.push(r.wall_s);
        match &self.first[key] {
            None => self.first[key] = Some(r.outcome),
            Some(f) => {
                if f.stats != r.outcome.stats || !same_bits(&f.output, &r.outcome.output) {
                    self.drift += 1;
                }
            }
        }
    }

    fn failed(&mut self, key: usize) {
        self.tried[key] = true;
        self.attempted += 1;
        self.failed += 1;
    }

    /// True once every key has been answered, so a key that always fails
    /// cannot keep the timed loop running.
    fn all_tried(&self) -> bool {
        self.tried.iter().all(|&t| t)
    }

    /// Mean simulated cycles and mean `RunStats::avg_utilization` over the
    /// first response of every key: a fixed request set, so both are
    /// deterministic for a seed however many requests the loop served.
    fn simulated(&self) -> (f64, f64) {
        let done: Vec<&GcnRunOutcome> = self.first.iter().flatten().collect();
        let cycles: Vec<f64> = done.iter().map(|o| o.stats.total_cycles() as f64).collect();
        let util: Vec<f64> = done.iter().map(|o| o.stats.avg_utilization()).collect();
        (mean(&cycles), mean(&util))
    }

    /// FNV-1a over every simulated number of the first responses, printed
    /// so two runs of one seed can be compared exactly.
    fn digest(&self, extra: &[u64]) -> u64 {
        let mut h: u64 = 0xcbf2_9ce4_8422_2325;
        let mut eat = |v: u64| {
            h ^= v;
            h = h.wrapping_mul(0x0100_0000_01b3);
        };
        extra.iter().for_each(|&v| eat(v));
        for o in self.first.iter().flatten() {
            for s in o.stats.spmms() {
                eat(s.total_cycles());
                eat(s.total_busy());
                eat(s.tuning_rounds() as u64);
            }
        }
        h
    }
}

/// `[0]` plus `n - 1` further distinct seeded picks below `keys`.
fn sample(rng: &mut Rng, keys: usize, n: usize) -> Vec<usize> {
    let mut picked = vec![0];
    while picked.len() < n.min(keys) {
        let k = rng.below(keys);
        if !picked.contains(&k) {
            picked.push(k);
        }
    }
    picked
}

/// Compares the first response of each sampled key against a cold
/// reference run; returns the number of mismatches. A key that never
/// completed is skipped: it already counts as failed.
fn check_outputs(
    rec: &Recorder,
    keys: &[usize],
    cold_input: impl Fn(usize) -> Result<GcnInput, Box<dyn Error>>,
) -> Result<usize, Box<dyn Error>> {
    let runner = reference_runner()?;
    let mut mismatches = 0;
    for &key in keys {
        let Some(served) = &rec.first[key] else {
            continue;
        };
        let cold = runner.run(&cold_input(key)?)?;
        if !same_bits(&cold.output, &served.output) {
            eprintln!("output check: request {key} differs from the cold reference run");
            mismatches += 1;
        }
    }
    Ok(mismatches)
}

/// The end-to-end metrics shared by every workload.
struct EndToEnd<'a> {
    rec: &'a Recorder,
    elapsed_s: f64,
    setup_s: &'a [f64],
    peak_rss_mb: f64,
    mismatches: usize,
    paper_util: f64,
}

impl EndToEnd<'_> {
    fn failed(&self) -> usize {
        self.rec.failed + self.mismatches
    }

    fn report(&self, name: &str) -> Metrics {
        let rec = self.rec;
        let completed = rec.attempted - rec.failed;
        let (cycles, util) = rec.simulated();
        println!(
            "{name}: {} requests in {:.3} s, {} latency samples (p90 leaves {} above it), \
             {} set-ups",
            rec.attempted,
            self.elapsed_s,
            rec.latency_s.len(),
            rec.latency_s.len() - (0.9 * rec.latency_s.len() as f64).ceil() as usize,
            self.setup_s.len(),
        );
        println!(
            "fidelity (model vs paper, not a hardware measurement): pe_utilization {:.1}% vs \
             paper Fig. 14 Design D {:.1}%, gap {:+.1} points",
            util * 100.0,
            self.paper_util * 100.0,
            (util - self.paper_util) * 100.0,
        );
        let mut m = Metrics::default();
        m.put("throughput_rps", completed as f64 / self.elapsed_s, "1/s");
        m.put(
            "latency_p50_ms",
            percentile(&rec.latency_s, 50.0) * 1e3,
            "ms",
        );
        m.put(
            "latency_p90_ms",
            percentile(&rec.latency_s, 90.0) * 1e3,
            "ms",
        );
        m.put("setup_s", median(self.setup_s), "s");
        m.put("peak_rss_mb", self.peak_rss_mb, "MiB");
        m.put(
            "success_fraction",
            1.0 - self.failed() as f64 / rec.attempted.max(1) as f64,
            "fraction",
        );
        m.put("sim_cycles_per_request", cycles, "cycles");
        m.put("pe_utilization", util, "fraction");
        m
    }
}

/// The timed-phase serving statistics every traced report carries.
struct ServeStats {
    queue_full: usize,
    batch_sizes: Vec<usize>,
    /// Plan-cache hits, misses and evictions during the timed phase.
    cache: (u64, u64, u64),
}

impl ServeStats {
    fn put(&self, m: &mut Metrics, rec: &Recorder) {
        let ms = |v: &[f64], p: f64| percentile(v, p) * 1e3;
        m.put("serve.queue_wait_ms_p50", ms(&rec.queue_wait_s, 50.0), "ms");
        m.put("serve.queue_wait_ms_p90", ms(&rec.queue_wait_s, 90.0), "ms");
        m.put("serve.execute_ms_p50", ms(&rec.execute_s, 50.0), "ms");
        m.put("serve.execute_ms_p90", ms(&rec.execute_s, 90.0), "ms");
        m.put("serve.queue_full", self.queue_full as f64, "count");
        let sizes: Vec<f64> = self.batch_sizes.iter().map(|&s| s as f64).collect();
        m.put("serve.batch_size_mean", mean(&sizes), "count");
        let (hits, misses, evictions) = self.cache;
        m.put("serve.cache_hits", hits as f64, "count");
        m.put("serve.cache_misses", misses as f64, "count");
        m.put("serve.cache_evictions", evictions as f64, "count");
        let lookups = (hits + misses).max(1) as f64;
        m.put("serve.cache_hit_ratio", hits as f64 / lookups, "fraction");
        m.put("serve.latency_samples", rec.latency_s.len() as f64, "count");
    }
}

fn report(
    e2e: &EndToEnd<'_>,
    name: &str,
    drift: usize,
    digest: u64,
    traced: Option<(Metrics, usize)>,
) -> Report {
    let metrics = e2e.report(name);
    println!("determinism: sim digest {digest:016x}, {drift} drifted repeat(s)");
    let (metrics, trace_mismatches) = match traced {
        Some((per_layer, mismatches)) => (per_layer, mismatches),
        None => (metrics, 0),
    };
    Report {
        correct: e2e.failed() == 0 && drift == 0 && trace_mismatches == 0,
        attempted: e2e.rec.attempted,
        failed: e2e.failed(),
        metrics,
    }
}

/// `serve-pubmed` and `nell-streamed`: one fixed graph prepared under a
/// name, served in a closed loop of `CONCURRENCY` requests per
/// `GcnService::serve` call.
fn fixed_graph(args: &Args, work_dir: &Path, streamed: bool) -> Result<Report, Box<dyn Error>> {
    let (name, dataset, spec) = if streamed {
        ("nell", PaperDataset::Nell, DatasetSpec::nell().scaled(0.25))
    } else {
        ("pubmed", PaperDataset::Pubmed, DatasetSpec::pubmed())
    };
    let data = GeneratedDataset::generate(&spec, GRAPH_SEED)?;
    let input = GcnInput::from_dataset(&data)?;
    let mut rng = Rng::new(args.seed);
    let pool: Vec<Csr> = (0..POOL)
        .map(|_| {
            GeneratedDataset::with_adjacency(&spec, data.adjacency.clone(), rng.next_u64())
                .map(|d| d.features)
        })
        .collect::<Result<_, _>>()?;
    drop(data);

    let mut b = builder();
    let store_dir = work_dir.join("store");
    // A host budget of a third of the adjacency forces several stream
    // shards; X × W splits over four combination shards.
    let budget = input.a_norm_csc.heap_bytes() / 3;
    if streamed {
        b.store(Some(store_dir.clone()))
            .host_mem_budget(Some(budget))
            .combination_shards(ShardPolicy::Fixed(4));
    }
    let config = finish(&b)?;

    let mut setup_s = Vec::new();
    let mut ingest_s = Vec::new();
    let mut prepared = Vec::new();
    let mut service = None;
    for _ in 0..SETUP_REPS {
        // Release the previous set-up's plan (and its open store) first.
        drop(service.take());
        let start = Instant::now();
        if streamed {
            let _ = std::fs::remove_dir_all(&store_dir);
            // The runner's own chunk rule for a store it ingests itself.
            let chunk_nnz = (budget / 64).clamp(1, DEFAULT_CHUNK_NNZ);
            SparseStore::write_with_chunk_nnz(&store_dir, &input.a_norm_csc, chunk_nnz)?;
            ingest_s.push(start.elapsed().as_secs_f64());
            SparseStore::open(&store_dir)?;
        }
        let mut s = GcnService::new(config.clone());
        let r = s.prepare(name, &input)?;
        setup_s.push(start.elapsed().as_secs_f64());
        prepared.push((r.tuning_rounds, r.total_switches, r.warmup.stats));
        service = Some(s);
    }
    let service = service.ok_or("no set-up ran")?;
    let setup_drift = prepared.iter().filter(|p| **p != prepared[0]).count();

    let mut rec = Recorder::new(POOL);
    let deadline = Duration::from_secs_f64(args.seconds);
    let start = Instant::now();
    let mut next = 0;
    while start.elapsed() < deadline || !rec.all_tried() {
        let t = Instant::now();
        let result = service.serve(name, &pool[next..next + CONCURRENCY]);
        let latency_s = t.elapsed().as_secs_f64();
        match result {
            Ok(batch) => {
                for r in batch.requests {
                    rec.ok(next + r.index, latency_s, r);
                }
            }
            Err(e) => {
                eprintln!("serve failed: {e}");
                (next..next + CONCURRENCY).for_each(|key| rec.failed(key));
            }
        }
        next = (next + CONCURRENCY) % POOL;
    }
    let elapsed_s = start.elapsed().as_secs_f64();
    let rss = peak_rss_mb()?;
    let plan = service.plan(name).ok_or("prepared plan missing")?;
    let serving_stream = plan.stream_stats();

    let checked = sample(&mut rng, POOL, CHECKS);
    let mismatches = check_outputs(&rec, &checked, |k| {
        let (a, w) = (input.a_norm.clone(), input.weights.clone());
        Ok(GcnInput::from_parts(a, pool[k].clone(), w)?)
    })?;
    let e2e = EndToEnd {
        rec: &rec,
        elapsed_s,
        setup_s: &setup_s,
        peak_rss_mb: rss,
        mismatches,
        paper_util: paper_util(dataset),
    };
    let tuning: Vec<u64> = prepared
        .iter()
        .flat_map(|p| [p.0 as u64, p.1, p.2.total_cycles()])
        .collect();
    let digest = rec.digest(&tuning);

    let traced = if args.trace {
        let mut m = Metrics::default();
        let jobs: Vec<Job<'_>> = pool[..TRACED].iter().map(|x1| Job { plan, x1 }).collect();
        let layers = traced::layer_schedule(&jobs, &mut m)?;
        let arrivals: Vec<(&GcnInput, &Csr)> = pool[..TRACED].iter().map(|x| (&input, x)).collect();
        let options = ServeOptions {
            queue_depth: QUEUE_DEPTH,
            ..ServeOptions::default()
        };
        traced::admission(&config, options, &arrivals, &mut m)?;
        traced::prepare(&config, &[&input], &mut m)?;
        let serving_overlap = serving_stream.map_or(0.0, |s| s.overlap_fraction());
        let stream = match layers.stream {
            Some(inline) => traced::Streaming {
                ingest_s: median(&ingest_s),
                inline,
                serving_overlap,
            },
            None => traced::store_probe(&config, &input, &pool[0], work_dir)?,
        };
        stream.put(&mut m);
        ServeStats {
            queue_full: 0,
            batch_sizes: vec![CONCURRENCY],
            cache: (0, 0, 0),
        }
        .put(&mut m, &rec);
        let p50 = percentile(&rec.latency_s, 50.0) * 1e3;
        m.put("trace.latency_p50_ms_untraced", p50, "ms");
        Some((m, layers.mismatches))
    } else {
        None
    };
    Ok(report(
        &e2e,
        args.workload.as_str(),
        rec.drift + setup_drift,
        digest,
        traced,
    ))
}

/// One tenant: its graph, its requests and the paper utilisation of the
/// dataset it is shaped after.
struct Tenant {
    input: GcnInput,
    requests: Vec<Csr>,
    paper_util: f64,
}

fn make_tenants(rng: &mut Rng) -> Result<Vec<Tenant>, Box<dyn Error>> {
    let family = [
        PaperDataset::Cora,
        PaperDataset::Citeseer,
        PaperDataset::Pubmed,
    ];
    // The tenant mix and every graph are fixed; the seed draws the
    // requests' feature matrices.
    (0..TENANTS)
        .map(|t| {
            let (dataset, scale) = if t < GIANTS {
                (PaperDataset::Pubmed, 1.0)
            } else {
                (family[t % 3], [0.125, 0.25, 0.5][(t / 3) % 3])
            };
            let spec = dataset.spec().scaled(scale);
            let data = GeneratedDataset::generate(&spec, GRAPH_SEED + t as u64)?;
            let input = GcnInput::from_dataset(&data)?;
            let requests = (0..REQUESTS_PER_TENANT)
                .map(|_| {
                    GeneratedDataset::with_adjacency(&spec, data.adjacency.clone(), rng.next_u64())
                        .map(|d| d.features)
                })
                .collect::<Result<_, _>>()?;
            Ok(Tenant {
                input,
                requests,
                paper_util: paper_util(dataset),
            })
        })
        .collect()
}

/// Drains the admission queue and files each result under the arrival
/// it was admitted for (drain keeps admission order).
fn drain(
    service: &mut GcnService,
    pending: &mut Vec<(usize, Instant)>,
    rec: &mut Recorder,
    batch_sizes: &mut Vec<usize>,
) {
    let batch = service.drain_isolated();
    let done = Instant::now();
    batch_sizes.push(batch.results.len());
    for ((key, submitted), result) in pending.drain(..).zip(batch.results) {
        match result {
            Ok(r) => rec.ok(key, done.duration_since(submitted).as_secs_f64(), r),
            Err(e) => {
                eprintln!("arrival {key} failed: {e}");
                rec.failed(key);
            }
        }
    }
}

/// The arrival order of one pass over every (tenant, request) pair.
fn pass_order(seed: u64, pass: u64, arrivals: usize) -> Vec<usize> {
    let mut order: Vec<usize> = (0..arrivals).collect();
    Rng::new(seed ^ pass.wrapping_mul(0x7472_6163_6500_0001)).shuffle(&mut order);
    order
}

/// `tenant-churn`: many citation-family graphs through the admission
/// queue and a plan cache too small for all of them, under Auto.
fn tenant_churn(args: &Args, work_dir: &Path) -> Result<Report, Box<dyn Error>> {
    let mut rng = Rng::new(args.seed);
    let tenants = make_tenants(&mut rng)?;
    let arrivals: Vec<(usize, usize)> = (0..TENANTS)
        .flat_map(|t| (0..REQUESTS_PER_TENANT).map(move |r| (t, r)))
        .collect();
    // The plan cache holds about a third of the tenants' plans, estimated
    // from the arrays a plan keeps (adjacency and weights).
    let total_bytes: u64 = tenants
        .iter()
        .map(|t| {
            let weights: usize = t.input.weights.iter().map(|w| w.heap_bytes()).sum();
            (t.input.a_norm_csc.heap_bytes() + weights) as u64
        })
        .sum();
    let options = ServeOptions {
        queue_depth: QUEUE_DEPTH,
        cache_budget_bytes: Some(total_bytes / 3),
        deadline: None,
    };
    let mut b = builder();
    b.strategy(StrategyPolicy::Auto);
    let config = finish(&b)?;

    // Set-up: the first pass, one request per tenant, brings every tenant
    // online once.
    let mut setup_s = Vec::new();
    let mut first_pass = Vec::new();
    let mut service = None;
    for _ in 0..SETUP_REPS {
        drop(service.take());
        let mut s = GcnService::with_options(config.clone(), options)?;
        let mut outcomes = Vec::new();
        let start = Instant::now();
        for t in &tenants {
            loop {
                match s.enqueue(&t.input, t.requests[0].clone()) {
                    Ok(_) => break,
                    Err(AccelError::QueueFull { .. }) => outcomes.push(s.drain_isolated()),
                    Err(e) => return Err(e.into()),
                }
            }
        }
        outcomes.push(s.drain_isolated());
        setup_s.push(start.elapsed().as_secs_f64());
        let cycles = outcomes
            .into_iter()
            .flat_map(|b| b.results)
            .map(|r| r.map(|r| r.outcome.stats.total_cycles()))
            .collect::<Result<Vec<u64>, _>>()?;
        first_pass.push(cycles);
        service = Some(s);
    }
    let mut service = service.ok_or("no set-up ran")?;
    let setup_drift = first_pass.iter().filter(|c| **c != first_pass[0]).count();

    let mut rec = Recorder::new(arrivals.len());
    let mut pending: Vec<(usize, Instant)> = Vec::new();
    let mut batch_sizes = Vec::new();
    let mut queue_full = 0;
    let cache_before = service.cache_stats();
    let deadline = Duration::from_secs_f64(args.seconds);
    let start = Instant::now();
    let mut pass = 0;
    'timed: loop {
        for key in pass_order(args.seed, pass, arrivals.len()) {
            if start.elapsed() >= deadline && rec.all_tried() {
                break 'timed;
            }
            let (t, r) = arrivals[key];
            let tenant = &tenants[t];
            let submitted = Instant::now();
            loop {
                match service.enqueue(&tenant.input, tenant.requests[r].clone()) {
                    Ok(_) => {
                        pending.push((key, submitted));
                        break;
                    }
                    Err(AccelError::QueueFull { .. }) => {
                        queue_full += 1;
                        drain(&mut service, &mut pending, &mut rec, &mut batch_sizes);
                    }
                    Err(e) => {
                        eprintln!("arrival {key} rejected: {e}");
                        rec.failed(key);
                        break;
                    }
                }
            }
        }
        pass += 1;
    }
    drain(&mut service, &mut pending, &mut rec, &mut batch_sizes);
    let elapsed_s = start.elapsed().as_secs_f64();
    let rss = peak_rss_mb()?;
    let cache_after = service.cache_stats();

    let order = pass_order(args.seed, 0, arrivals.len());
    // Always check the first arrival's response, plus seeded others.
    let checked: Vec<usize> = sample(&mut rng, arrivals.len(), CHECKS)
        .into_iter()
        .map(|i| order[i])
        .collect();
    let mismatches = check_outputs(&rec, &checked, |key| {
        let (t, r) = arrivals[key];
        let (input, x1) = (&tenants[t].input, &tenants[t].requests[r]);
        let (a, w) = (input.a_norm.clone(), input.weights.clone());
        Ok(GcnInput::from_parts(a, x1.clone(), w)?)
    })?;
    let utils: Vec<f64> = arrivals
        .iter()
        .map(|&(t, _)| tenants[t].paper_util)
        .collect();
    let e2e = EndToEnd {
        rec: &rec,
        elapsed_s,
        setup_s: &setup_s,
        peak_rss_mb: rss,
        mismatches,
        paper_util: mean(&utils),
    };
    println!(
        "tenant-churn: {TENANTS} tenants, {} arrivals per pass, {} passes, cache budget {:.2} of \
         {:.2} MiB estimated",
        arrivals.len(),
        pass + 1,
        (total_bytes / 3) as f64 / (1 << 20) as f64,
        total_bytes as f64 / (1 << 20) as f64,
    );
    let digest = rec.digest(&first_pass[0]);

    let traced = if args.trace {
        let mut m = Metrics::default();
        // Trace the checked arrivals' requests on freshly prepared plans
        // of their tenants (Auto resolved, as the cache would hold them).
        let inputs: Vec<&GcnInput> = checked
            .iter()
            .map(|&k| &tenants[arrivals[k].0].input)
            .collect();
        let plans: Vec<GcnPlan> = traced::prepare(&config, &inputs, &mut m)?;
        let jobs: Vec<Job<'_>> = checked
            .iter()
            .zip(&plans)
            .map(|(&k, plan)| Job {
                plan,
                x1: &tenants[arrivals[k].0].requests[arrivals[k].1],
            })
            .collect();
        let layers = traced::layer_schedule(&jobs, &mut m)?;
        let replay: Vec<(&GcnInput, &Csr)> = order[..TRACED_ARRIVALS.min(order.len())]
            .iter()
            .map(|&k| {
                let (t, r) = arrivals[k];
                (&tenants[t].input, &tenants[t].requests[r])
            })
            .collect();
        traced::admission(&config, options, &replay, &mut m)?;
        let first = &tenants[arrivals[order[0]].0];
        let resident = finish(&builder())?;
        traced::store_probe(&resident, &first.input, &first.requests[0], work_dir)?.put(&mut m);
        ServeStats {
            queue_full,
            batch_sizes,
            cache: (
                cache_after.hits - cache_before.hits,
                cache_after.misses - cache_before.misses,
                cache_after.evictions - cache_before.evictions,
            ),
        }
        .put(&mut m, &rec);
        let p50 = percentile(&rec.latency_s, 50.0) * 1e3;
        m.put("trace.latency_p50_ms_untraced", p50, "ms");
        Some((m, layers.mismatches))
    } else {
        None
    };
    Ok(report(
        &e2e,
        "tenant-churn",
        rec.drift + setup_drift,
        digest,
        traced,
    ))
}
