//! The traced run. It replaces `GcnPlan::run` with this package's own copy
//! of the per-request layer schedule, built from public calls and timed
//! around each layer, and checks the copy against `GcnPlan::run` bit for
//! bit. It also times the admission, strategy-resolution, prepare and
//! store calls directly. Nothing inside the program is instrumented.

use crate::{mean, median, Metrics};
use awb_accel::pipeline::pipeline_two_stage;
use awb_accel::{
    validate_ingest, AccelConfig, AccelError, FastEngine, GcnPlan, GcnRunner, GcnService,
    LayerStats, RunStats, ServeOptions, ShardPolicy, ShardedEngine, SpmmEngine, SpmmOutcome,
    StreamStats,
};
use awb_gcn_model::GcnInput;
use awb_sparse::spmm::csc_times_dense_blocked;
use awb_sparse::store::{SparseStore, DEFAULT_CHUNK_NNZ};
use awb_sparse::{Csc, Csr, DenseMatrix};
use std::error::Error;
use std::hint::black_box;
use std::path::Path;
use std::time::Instant;

/// True when `a` and `b` have one shape and bit-identical elements.
pub fn same_bits(a: &DenseMatrix, b: &DenseMatrix) -> bool {
    a.shape() == b.shape()
        && a.as_slice()
            .iter()
            .zip(b.as_slice())
            .all(|(x, y)| x.to_bits() == y.to_bits())
}

fn ms_since(t: Instant) -> f64 {
    t.elapsed().as_secs_f64() * 1e3
}

/// One request to trace: a prepared plan and a feature matrix.
pub struct Job<'a> {
    pub plan: &'a GcnPlan,
    pub x1: &'a Csr,
}

/// One traced request: host milliseconds per segment, plus what the
/// kernel floors and the bit check need.
struct Traced {
    x1_to_csc_ms: f64,
    xw_ms: Vec<f64>,
    axw_ms: Vec<f64>,
    hop_ms: f64,
    total_ms: f64,
    xw_switches: u64,
    /// Combination shards per layer (1 = the plain engine ran).
    xw_shards: Vec<usize>,
    /// Each layer's input `X` and its `X × W` product.
    x: Vec<Csc>,
    xw: Vec<DenseMatrix>,
    output: DenseMatrix,
    stats: RunStats,
}

/// A per-request session on the plan's frozen `A` side.
fn session(plan: &GcnPlan) -> Result<Box<dyn SpmmEngine + '_>, AccelError> {
    if let Some(p) = plan.plan_a() {
        Ok(Box::new(p.session()))
    } else if let Some(p) = plan.sharded_plan() {
        Ok(Box::new(p.session()))
    } else if let Some(p) = plan.streamed_plan() {
        Ok(Box::new(p.session()))
    } else {
        Err(AccelError::InvalidConfig("plan has no A-side plan".into()))
    }
}

/// The copy of `GcnPlan::run`: `Csr::to_csc`, then per layer a fresh
/// X × W engine, A × (XW) on one session, and the ReLU + dense→CSC hop.
/// Unlike `GcnPlan::run`, the public session re-hashes A's structure on
/// every A × (XW) call, and no scratch arena is shared in.
fn copy_of_run(plan: &GcnPlan, x1: &Csr) -> Result<Traced, AccelError> {
    let config = plan.config();
    let a = plan.graph();
    let n_layers = plan.layers();
    let start = Instant::now();
    let t = Instant::now();
    let mut x_csc = x1.to_csc();
    let x1_to_csc_ms = ms_since(t);
    let mut a_side = session(plan)?;
    let mut tr = Traced {
        x1_to_csc_ms,
        xw_ms: Vec::new(),
        axw_ms: Vec::new(),
        hop_ms: 0.0,
        total_ms: 0.0,
        xw_switches: 0,
        xw_shards: Vec::new(),
        x: Vec::new(),
        xw: Vec::new(),
        output: DenseMatrix::zeros(0, 0),
        stats: RunStats {
            layers: Vec::new(),
            n_pes: config.n_pes,
        },
    };
    for (l, w) in plan.weights().iter().enumerate() {
        let t = Instant::now();
        let partitioner = config.combination_partitioner();
        let sharded =
            config.combination_shards != ShardPolicy::Single && !partitioner.is_single(&x_csc);
        let label = format!("L{}:X*W", l + 1);
        let xw = if sharded {
            let mut engine = ShardedEngine::with_partitioner(config.clone(), partitioner);
            let out = engine.run(&x_csc, w, &label)?;
            tr.xw_switches += engine.total_switches();
            out
        } else {
            let mut engine = FastEngine::new(config.clone());
            let out = engine.run(&x_csc, w, &label)?;
            tr.xw_switches += engine.total_switches();
            out
        };
        tr.xw_ms.push(ms_since(t));
        let t = Instant::now();
        let axw = a_side.run(a, &xw.c, &format!("L{}:A*(XW)", l + 1))?;
        tr.axw_ms.push(ms_since(t));

        tr.xw_shards.push(if sharded {
            partitioner.partition(&x_csc).len()
        } else {
            1
        });
        let SpmmOutcome {
            c: xw_c,
            stats: xw_stats,
        } = xw;
        let pipelined_cycles = if config.pipeline_spmms {
            pipeline_two_stage(&xw_stats.round_cycles(), &axw.stats.round_cycles())
        } else {
            xw_stats.total_cycles() + axw.stats.total_cycles()
        };
        tr.stats.layers.push(LayerStats {
            xw: xw_stats,
            a_xw: axw.stats,
            pipelined_cycles,
        });
        tr.xw.push(xw_c);
        let mut x_next = axw.c;
        let next_csc = if l + 1 < n_layers {
            let t = Instant::now();
            x_next.relu_in_place();
            let next = x_next.to_csc();
            tr.hop_ms += ms_since(t);
            next
        } else {
            Csc::empty(0, 0)
        };
        tr.x.push(std::mem::replace(&mut x_csc, next_csc));
        tr.output = x_next;
    }
    tr.total_ms = ms_since(start);
    Ok(tr)
}

/// What the layer-schedule trace hands back to the workload.
pub struct LayerRun {
    /// Traced requests whose copy differed from `GcnPlan::run` in output
    /// bits or simulated statistics.
    pub mismatches: usize,
    /// Mean streaming statistics of the traced requests, when the plans
    /// stream `A` from a store.
    pub stream: Option<StreamStats>,
}

/// Runs every job through `GcnPlan::run` (untraced) and through the
/// traced copy, alternating which goes first, checks the two agree bit
/// for bit, times the numeric kernel floors, and reports the engine,
/// sparse, sim and trace metrics.
pub fn layer_schedule(jobs: &[Job<'_>], m: &mut Metrics) -> Result<LayerRun, Box<dyn Error>> {
    let mut runs = Vec::new();
    let mut plain_ms = Vec::new();
    let mut mismatches = 0;
    let mut streams = Vec::new();
    let (mut hits, mut misses) = (0, 0);
    let mut xw_kernel_ms: Vec<Vec<f64>> = Vec::new();
    let mut axw_kernel_ms: Vec<Vec<f64>> = Vec::new();
    for (i, job) in jobs.iter().enumerate() {
        let (h0, m0) = (job.plan.replay_hits(), job.plan.replay_misses());
        let mut plain_run = || {
            let t = Instant::now();
            let plain = job.plan.run(job.x1);
            plain_ms.push(ms_since(t));
            plain
        };
        let (plain, tr) = if i % 2 == 0 {
            (plain_run()?, copy_of_run(job.plan, job.x1)?)
        } else {
            let tr = copy_of_run(job.plan, job.x1)?;
            (plain_run()?, tr)
        };
        hits += job.plan.replay_hits() - h0;
        misses += job.plan.replay_misses() - m0;
        streams.extend(job.plan.stream_stats());
        if !same_bits(&tr.output, &plain.output) || tr.stats != plain.stats {
            eprintln!("traced copy differs from GcnPlan::run");
            mismatches += 1;
        }
        for (l, w) in job.plan.weights().iter().enumerate() {
            if xw_kernel_ms.len() <= l {
                xw_kernel_ms.push(Vec::new());
                axw_kernel_ms.push(Vec::new());
            }
            let t = Instant::now();
            black_box(csc_times_dense_blocked(&tr.x[l], w)?);
            xw_kernel_ms[l].push(ms_since(t));
            let t = Instant::now();
            black_box(csc_times_dense_blocked(job.plan.graph(), &tr.xw[l])?);
            axw_kernel_ms[l].push(ms_since(t));
        }
        runs.push(tr);
    }

    let per = |f: &dyn Fn(&Traced) -> f64| -> Vec<f64> { runs.iter().map(f).collect() };
    for l in 0..xw_kernel_ms.len() {
        let layer = format!("L{}", l + 1);
        m.put(
            format!("engine.xw_ms.{layer}"),
            median(&per(&|t| t.xw_ms[l])),
            "ms",
        );
        m.put(
            format!("engine.axw_ms.{layer}"),
            median(&per(&|t| t.axw_ms[l])),
            "ms",
        );
        m.put(
            format!("sparse.xw_kernel_ms.{layer}"),
            median(&xw_kernel_ms[l]),
            "ms",
        );
        m.put(
            format!("sparse.axw_kernel_ms.{layer}"),
            median(&axw_kernel_ms[l]),
            "ms",
        );
        let cycles = |f: &dyn Fn(&LayerStats) -> u64| per(&|t| f(&t.stats.layers[l]) as f64);
        m.put(
            format!("sim.xw_cycles.{layer}"),
            mean(&cycles(&|s| s.xw.total_cycles())),
            "cycles",
        );
        m.put(
            format!("sim.axw_cycles.{layer}"),
            mean(&cycles(&|s| s.a_xw.total_cycles())),
            "cycles",
        );
    }
    let utils = |f: &dyn Fn(&LayerStats) -> f64| -> f64 {
        mean(
            &runs
                .iter()
                .flat_map(|t| t.stats.layers.iter().map(f))
                .collect::<Vec<_>>(),
        )
    };
    m.put("sim.xw_util", utils(&|s| s.xw.utilization()), "fraction");
    m.put("sim.axw_util", utils(&|s| s.a_xw.utilization()), "fraction");
    let xw_share = per(&|t| t.xw_ms.iter().sum::<f64>() / t.total_ms);
    m.put("engine.xw_share", mean(&xw_share), "fraction");
    m.put(
        "engine.xw_switches",
        mean(&per(&|t| t.xw_switches as f64)),
        "count",
    );
    let lookups = (hits + misses).max(1) as f64;
    m.put("engine.replay_hit_ratio", hits as f64 / lookups, "fraction");
    m.put(
        "sparse.x1_to_csc_ms",
        median(&per(&|t| t.x1_to_csc_ms)),
        "ms",
    );
    m.put("sparse.hop_ms", median(&per(&|t| t.hop_ms)), "ms");
    let shards = per(&|t| t.xw_shards.iter().copied().max().unwrap_or(1) as f64);
    m.put(
        "partition.xw_shards",
        shards.iter().copied().fold(0.0, f64::max),
        "count",
    );
    let traced_ms = median(&per(&|t| t.total_ms));
    let untraced_ms = median(&plain_ms);
    m.put("trace.request_ms", traced_ms, "ms");
    m.put("trace.untraced_request_ms", untraced_ms, "ms");
    m.put(
        "trace.overhead_pct",
        (traced_ms / untraced_ms - 1.0) * 100.0,
        "%",
    );
    let covered = per(&|t| {
        let parts = t.x1_to_csc_ms + t.hop_ms;
        (parts + t.xw_ms.iter().sum::<f64>() + t.axw_ms.iter().sum::<f64>()) / t.total_ms
    });
    m.put("trace.self_sum_pct", mean(&covered) * 100.0, "%");
    m.put("trace.bit_mismatches", mismatches as f64, "count");
    Ok(LayerRun {
        mismatches,
        stream: mean_stream(&streams),
    })
}

/// Mean per-request streaming statistics (peaks and shard counts as
/// maxima).
fn mean_stream(stats: &[StreamStats]) -> Option<StreamStats> {
    if stats.is_empty() {
        return None;
    }
    let avg = |f: &dyn Fn(&StreamStats) -> f64| mean(&stats.iter().map(f).collect::<Vec<_>>());
    Some(StreamStats {
        shards: stats.iter().map(|s| s.shards).max().unwrap_or(0),
        resident_peak_bytes: stats
            .iter()
            .map(|s| s.resident_peak_bytes)
            .max()
            .unwrap_or(0),
        io_bytes: avg(&|s| s.io_bytes as f64) as u64,
        compute_s: avg(&|s| s.compute_s),
        prefetch_s: avg(&|s| s.prefetch_s),
        overlap_s: avg(&|s| s.overlap_s),
    })
}

/// Replays `arrivals` through a fresh service, timing `validate_ingest`,
/// each `enqueue` (a miss when it raised `cache_stats().misses`) and each
/// `drain_isolated`.
pub fn admission(
    config: &AccelConfig,
    options: ServeOptions,
    arrivals: &[(&GcnInput, &Csr)],
    m: &mut Metrics,
) -> Result<(), Box<dyn Error>> {
    let mut service = GcnService::with_options(config.clone(), options)?;
    let (mut validate, mut hit, mut miss, mut drains) = (vec![], vec![], vec![], vec![]);
    let mut drain = |service: &mut GcnService| -> Result<(), Box<dyn Error>> {
        let t = Instant::now();
        let batch = service.drain_isolated();
        drains.push(ms_since(t));
        let failure = batch
            .failed()
            .next()
            .map(|(i, e)| format!("request {i} failed: {e}"));
        failure.map_or(Ok(()), |f| Err(format!("traced drain: {f}").into()))
    };
    for &(input, x1) in arrivals {
        let t = Instant::now();
        validate_ingest(input)?;
        validate.push(ms_since(t));
        loop {
            let misses = service.cache_stats().misses;
            let x1 = x1.clone();
            let t = Instant::now();
            let admitted = service.enqueue(input, x1);
            let took = ms_since(t);
            match admitted {
                Ok(_) if service.cache_stats().misses > misses => miss.push(took),
                Ok(_) => hit.push(took),
                Err(AccelError::QueueFull { .. }) => {
                    drain(&mut service)?;
                    continue;
                }
                Err(e) => return Err(e.into()),
            }
            break;
        }
    }
    drain(&mut service)?;
    m.put("serve.validate_ms", median(&validate), "ms");
    m.put("serve.admit_hit_ms", median(&hit), "ms");
    m.put("serve.admit_miss_ms", median(&miss), "ms");
    m.put("serve.admit_hits", hit.len() as f64, "count");
    m.put("serve.admit_misses", miss.len() as f64, "count");
    m.put("serve.drain_ms", median(&drains), "ms");
    Ok(())
}

/// Times `GcnRunner::resolve_strategy` and `GcnRunner::prepare` on each
/// input and returns the prepared plans.
pub fn prepare(
    config: &AccelConfig,
    inputs: &[&GcnInput],
    m: &mut Metrics,
) -> Result<Vec<GcnPlan>, Box<dyn Error>> {
    let runner = GcnRunner::new(config.clone());
    let (mut resolve, mut candidates, mut prepare) = (vec![], vec![], vec![]);
    let (mut rounds, mut switches, mut plans) = (vec![], vec![], vec![]);
    for input in inputs {
        let t = Instant::now();
        let decision = runner.resolve_strategy(input);
        resolve.push(ms_since(t));
        candidates.push(decision.map_or(0.0, |d| d.candidates_scored as f64));
        let t = Instant::now();
        let (plan, _) = runner.prepare(input)?;
        prepare.push(ms_since(t));
        rounds.push(plan.tuning_rounds() as f64);
        switches.push(plan.total_switches() as f64);
        plans.push(plan);
    }
    m.put("cost.resolve_ms", median(&resolve), "ms");
    m.put("cost.candidates_scored", mean(&candidates), "count");
    m.put("gcn_run.prepare_ms", median(&prepare), "ms");
    m.put("gcn_run.tuning_rounds", mean(&rounds), "count");
    m.put("gcn_run.rows_switched", mean(&switches), "count");
    Ok(plans)
}

/// The store and streaming layer's numbers for one workload.
pub struct Streaming {
    /// Seconds to ingest the adjacency into a store.
    pub ingest_s: f64,
    /// Streaming statistics of requests run on the benchmark's own thread.
    pub inline: StreamStats,
    /// Prefetch overlap of the last request served by a serve worker
    /// (0 when the workload's plan is resident).
    pub serving_overlap: f64,
}

impl Streaming {
    pub fn put(&self, m: &mut Metrics) {
        let s = &self.inline;
        m.put("store.ingest_s", self.ingest_s, "s");
        m.put("store.io_bytes_per_request", s.io_bytes as f64, "bytes");
        m.put("streaming.prefetch_ms", s.prefetch_s * 1e3, "ms");
        m.put("streaming.compute_ms", s.compute_s * 1e3, "ms");
        m.put(
            "streaming.overlap_fraction",
            self.serving_overlap,
            "fraction",
        );
        m.put(
            "streaming.overlap_fraction_inline",
            s.overlap_fraction(),
            "fraction",
        );
        m.put(
            "streaming.resident_peak_bytes",
            s.resident_peak_bytes as f64,
            "bytes",
        );
        m.put("streaming.shards", s.shards as f64, "count");
    }
}

/// For a workload whose plans are resident: ingests its graph into a
/// store, prepares a streamed twin under a budget of a third of the
/// adjacency, and runs one request on it. Not part of the workload's
/// end-to-end path; it keeps the store layer measured on every workload.
pub fn store_probe(
    config: &AccelConfig,
    input: &GcnInput,
    x1: &Csr,
    work_dir: &Path,
) -> Result<Streaming, Box<dyn Error>> {
    let dir = work_dir.join("probe-store");
    let budget = input.a_norm_csc.heap_bytes() / 3;
    let t = Instant::now();
    let chunk_nnz = (budget / 64).clamp(1, DEFAULT_CHUNK_NNZ);
    SparseStore::write_with_chunk_nnz(&dir, &input.a_norm_csc, chunk_nnz)?;
    let ingest_s = t.elapsed().as_secs_f64();
    let mut twin = config.clone();
    twin.store = Some(dir.clone());
    twin.host_mem_budget = Some(budget);
    let (plan, _) = GcnRunner::new(twin).prepare(input)?;
    let inline = plan
        .run(x1)?
        .stream
        .ok_or("the store probe did not stream")?;
    drop(plan);
    std::fs::remove_dir_all(&dir)?;
    Ok(Streaming {
        ingest_s,
        inline,
        serving_overlap: 0.0,
    })
}
