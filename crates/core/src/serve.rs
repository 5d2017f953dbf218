//! Multi-tenant serving front-end: one plan registry, an admission queue,
//! and one batch executor over prepared per-graph plans.
//!
//! The ROADMAP's north star is a production-scale system serving heavy
//! traffic on *fixed graphs*: graphs (and model weights) change rarely,
//! feature-matrix requests arrive constantly — and in a multi-tenant
//! deployment many graphs share one accelerator. [`GcnService`] is that
//! shape made concrete:
//!
//! * **One plan registry** — every prepared [`GcnPlan`] lives in one
//!   collection keyed on the graph's sparsity fingerprint.
//!   [`serve_graph`](GcnService::serve_graph) and
//!   [`enqueue`](GcnService::enqueue) resolve plans through it:
//!   prepare-on-miss, LRU eviction under the
//!   [`ServeOptions::cache_budget_bytes`] budget (derived from
//!   [`GcnPlan::memory_bytes`] estimates). A resident plan is only reused
//!   when [`GcnPlan::matches`] confirms graph *and* weights — a mutated
//!   tenant graph is a well-defined miss (re-prepare), never a stale plan.
//! * **Pinned names** — [`prepare`](GcnService::prepare) pays auto-tuning
//!   once and pins the plan under a name; [`serve`](GcnService::serve)
//!   runs batches on it by name. A pinned plan counts in the registry's
//!   residency but is never an LRU victim, and fingerprint lookups may hit
//!   it (a graph prepared by name is not prepared a second time).
//! * **Admission queue** — [`enqueue`](GcnService::enqueue) admits
//!   requests up to [`ServeOptions::queue_depth`] and rejects beyond it
//!   with [`AccelError::QueueFull`] (explicit backpressure);
//!   [`drain`](GcnService::drain) executes everything admitted as one
//!   deterministic batch.
//!
//! Every batch runs through one executor once its requests pass
//! validation against their plan. It reports per-request latency split
//! into *queue-wait* (admission or batch start to worker pickup) and
//! *execute* (the simulation itself), with p50/p95/p99 over both — see
//! [`BatchOutcome::queue_wait_percentiles`] /
//! [`BatchOutcome::execute_percentiles`].
//!
//! Results keep request order (`results[i]` always belongs to
//! `requests[i]`, at any thread count) and outputs are bit-identical to
//! independent cold [`GcnRunner::run`] calls on the same inputs; only the
//! *cost* differs (no per-request tuning, the replay cache is warm from
//! request 1).
//!
//! # Fault tolerance (DESIGN.md §10)
//!
//! The service degrades instead of dying:
//!
//! * **Ingest validation** — [`validate_ingest`] rejects NaN/±inf values,
//!   out-of-bounds indices, and dimension mismatches with
//!   [`AccelError::InvalidInput`] at admission, before a bad operand can
//!   enter the plan registry or produce a silent-NaN output.
//! * **Request isolation** — every batch executes each request behind
//!   [`exec::par_map_isolated`]: a panicking request yields its own
//!   [`AccelError::WorkerPanicked`] entry while every other request
//!   completes (and poison-recovering locks keep the shared plan serving
//!   afterwards). [`drain_isolated`](GcnService::drain_isolated) and
//!   [`serve_isolated`](GcnService::serve_isolated) return the
//!   per-request results; the other batch calls are fail-fast views.
//! * **Deadlines** — with [`ServeOptions::deadline`] set, a request whose
//!   queue wait exceeds the budget is shed with
//!   [`AccelError::DeadlineExceeded`] instead of executing stale work.
//! * **Bounded retry** —
//!   [`enqueue_with_backoff`](GcnService::enqueue_with_backoff) absorbs
//!   transient [`AccelError::QueueFull`] rejections with exponential
//!   backoff plus a forced drain per retry.
//! * **Fault injection** — an armed
//!   [`FaultPlan`](crate::fault::FaultPlan) (config `faults`) injects
//!   deterministic panics/NaN payloads/delays at the `drain`/`serve`
//!   sites; disabled injection is a single `Option` test per request.

use crate::config::{AccelConfig, RetryPolicy, ServeOptions, StrategyPolicy};
use crate::cost::AutoDecision;
use crate::engine::steady::structure_fingerprint;
use crate::error::AccelError;
use crate::exec;
use crate::fault::FaultKind;
use crate::gcn_run::{GcnPlan, GcnRunOutcome, GcnRunner};
use awb_gcn_model::GcnInput;
use awb_sparse::{Csr, DenseMatrix};
use std::collections::VecDeque;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Report of one graph-preparation (warm-up) pass.
#[derive(Debug, Clone)]
pub struct PrepareReport {
    /// Graph name the plan was stored under.
    pub graph: String,
    /// The warm-up inference's outcome (tuning rounds included).
    pub warmup: GcnRunOutcome,
    /// Auto-tuning rounds spent on `A` before freezing (summed over
    /// shards when the configuration shards the graph).
    pub tuning_rounds: usize,
    /// Rows exchanged by remote switching during warm-up.
    pub total_switches: u64,
    /// Column-shard devices the graph (aggregation side, `A`) was
    /// partitioned across (1 when unsharded).
    pub shards: usize,
    /// Most column-shard devices any layer's feature matrix was
    /// partitioned across for `X × W` during the warm-up (1 when the
    /// combination phase is unsharded; each layer of each request
    /// re-derives its own cut from its `X`, so counts can differ per
    /// layer — e.g. a memory budget that holds the sparse X1 but not the
    /// dense hidden matrix shards only layer 2).
    pub combination_shards: usize,
    /// Host wall-clock of the warm-up pass in seconds.
    pub wall_s: f64,
    /// `Some(reason)` when the configured sharded prepare failed and the
    /// runner degraded to an unsharded plan (see [`GcnPlan::degraded`]);
    /// `None` when the plan was prepared exactly as configured.
    pub degraded: Option<String>,
    /// Strategy policy the plan was prepared under (`"manual"`/`"auto"`).
    pub policy: &'static str,
    /// The cost model's resolution and its predicted-vs-measured scorecard
    /// when the plan was prepared under
    /// [`StrategyPolicy::Auto`](crate::StrategyPolicy::Auto); `None` under
    /// `Manual`.
    pub auto: Option<AutoReport>,
    /// Streaming statistics of the warm-up pass — stream shard count,
    /// peak resident sparse bytes, I/O traffic, and store-read and
    /// compute wall time — when the plan streams `A` from a configured
    /// on-disk store ([`AccelConfig::store`]); `None` for fully-resident
    /// plans.
    pub stream: Option<crate::StreamStats>,
}

/// The Auto-strategy scorecard attached to a [`PrepareReport`]: which
/// configuration the calibrated cost model chose, and its predictions next
/// to what the warm-up actually measured.
#[derive(Debug, Clone)]
pub struct AutoReport {
    /// Human label of the winning configuration
    /// (see [`AutoDecision::label`]).
    pub chosen: String,
    /// Predicted warm-path cycles for the chosen configuration.
    pub predicted_cycles: f64,
    /// Cycles the warm-up actually took. Includes the one-time tuning
    /// rounds the prediction deliberately excludes, so expect
    /// `predicted <= measured` on skew-heavy graphs.
    pub measured_cycles: u64,
    /// Predicted host wall seconds for one warm request.
    pub predicted_wall_s: f64,
    /// Host wall seconds of the (cold, tuning-inclusive) warm-up pass.
    pub measured_wall_s: f64,
    /// Candidate configurations the model scored.
    pub candidates_scored: usize,
    /// True when the decision was re-scored against the unsharded
    /// candidate set after a degraded sharded prepare.
    pub rescored_unsharded: bool,
}

/// One served request's result.
#[derive(Debug, Clone)]
pub struct RequestOutcome {
    /// Position in the batch (results keep request order).
    pub index: usize,
    /// The inference outcome (output features + cycle statistics).
    pub outcome: GcnRunOutcome,
    /// Host wall-clock spent simulating this request, in seconds.
    pub wall_s: f64,
    /// Host wall-clock the request waited before a worker picked it up,
    /// in seconds: from admission ([`GcnService::enqueue`]) or batch
    /// start ([`GcnService::serve`], [`GcnService::serve_graph`]) to
    /// execution start.
    pub queue_wait_s: f64,
}

/// p50/p95/p99 of a latency sample set, in seconds (nearest-rank).
///
/// Degenerate inputs are guarded: an empty sample set yields all-zero
/// percentiles, non-finite or negative samples are dropped before
/// ranking — a percentile can never be NaN/inf, so reports and bench
/// records stay aggregatable.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct LatencyPercentiles {
    /// Median (50th percentile).
    pub p50: f64,
    /// 95th percentile.
    pub p95: f64,
    /// 99th percentile.
    pub p99: f64,
}

impl LatencyPercentiles {
    /// Computes nearest-rank percentiles over `samples` (any order;
    /// non-finite and negative entries are dropped, see type docs).
    pub fn from_samples(samples: impl IntoIterator<Item = f64>) -> Self {
        let mut clean: Vec<f64> = samples
            .into_iter()
            .filter(|s| s.is_finite() && *s >= 0.0)
            .collect();
        clean.sort_by(f64::total_cmp);
        LatencyPercentiles {
            p50: nearest_rank(&clean, 50.0),
            p95: nearest_rank(&clean, 95.0),
            p99: nearest_rank(&clean, 99.0),
        }
    }
}

/// Nearest-rank percentile of an ascending-sorted, finite sample set
/// (0.0 when empty).
fn nearest_rank(sorted: &[f64], pct: f64) -> f64 {
    if sorted.is_empty() {
        return 0.0;
    }
    let rank = ((pct / 100.0) * sorted.len() as f64).ceil().max(1.0) as usize;
    sorted[rank.min(sorted.len()) - 1]
}

/// A served batch: per-request outcomes in request order plus aggregate
/// accounting.
#[derive(Debug, Clone)]
pub struct BatchOutcome {
    /// Per-request results, `requests[i]` ↦ `outcomes[i]`.
    pub requests: Vec<RequestOutcome>,
    /// Host wall-clock of the whole batch in seconds.
    pub wall_s: f64,
    /// Clock frequency used for latency conversion (MHz).
    pub freq_mhz: f64,
}

impl BatchOutcome {
    /// Mean simulated cycles per request.
    pub fn mean_cycles(&self) -> f64 {
        if self.requests.is_empty() {
            return 0.0;
        }
        let total: u64 = self
            .requests
            .iter()
            .map(|r| r.outcome.stats.total_cycles())
            .sum();
        total as f64 / self.requests.len() as f64
    }

    /// Mean simulated per-request latency in milliseconds. Returns 0.0
    /// (never NaN/inf) when `freq_mhz` is zero, negative, or non-finite —
    /// a degenerate record should read as "no latency measured", not
    /// poison downstream aggregation.
    pub fn mean_latency_ms(&self) -> f64 {
        if !(self.freq_mhz.is_finite() && self.freq_mhz > 0.0) {
            return 0.0;
        }
        self.mean_cycles() / (self.freq_mhz * 1e3)
    }

    /// Mean host wall-clock per request in seconds.
    pub fn mean_wall_s(&self) -> f64 {
        if self.requests.is_empty() {
            return 0.0;
        }
        self.requests.iter().map(|r| r.wall_s).sum::<f64>() / self.requests.len() as f64
    }

    /// Requests completed per host wall-clock second.
    pub fn throughput_rps(&self) -> f64 {
        if self.wall_s <= 0.0 {
            return 0.0;
        }
        self.requests.len() as f64 / self.wall_s
    }

    /// p50/p95/p99 of per-request host execution wall-clock, in seconds.
    pub fn execute_percentiles(&self) -> LatencyPercentiles {
        LatencyPercentiles::from_samples(self.requests.iter().map(|r| r.wall_s))
    }

    /// p50/p95/p99 of per-request queue wait, in seconds (see
    /// [`RequestOutcome::queue_wait_s`]).
    pub fn queue_wait_percentiles(&self) -> LatencyPercentiles {
        LatencyPercentiles::from_samples(self.requests.iter().map(|r| r.queue_wait_s))
    }

    /// Average simulated PE utilization over all requests (weighted by
    /// each request's busy/denominator, like [`RunStats::avg_utilization`]
    /// (crate::RunStats::avg_utilization)).
    pub fn avg_utilization(&self) -> f64 {
        let (busy, denom) = self
            .requests
            .iter()
            .flat_map(|r| r.outcome.stats.spmms())
            .fold((0u64, 0u64), |(b, d), s| {
                (b + s.total_busy(), d + s.total_cycles() * s.n_pes as u64)
            });
        if denom == 0 {
            0.0
        } else {
            busy as f64 / denom as f64
        }
    }
}

/// A fault-isolated batch: per-request `Result`s in request order. The
/// isolation contract: every `Ok` entry is bit-identical to an independent
/// cold run of that request, every `Err` entry is a typed [`AccelError`]
/// (a shed deadline, a caught worker panic, a suppressed non-finite
/// output) — and one request's failure never disturbs its neighbours.
#[derive(Debug, Clone)]
pub struct IsolatedBatch {
    /// Per-request results, `requests[i]` ↦ `results[i]` at any thread
    /// count.
    pub results: Vec<Result<RequestOutcome, AccelError>>,
    /// Host wall-clock of the whole batch in seconds.
    pub wall_s: f64,
    /// Clock frequency used for latency conversion (MHz).
    pub freq_mhz: f64,
}

impl IsolatedBatch {
    /// The successfully completed requests, in request order.
    pub fn completed(&self) -> impl Iterator<Item = &RequestOutcome> {
        self.results.iter().filter_map(|r| r.as_ref().ok())
    }

    /// The failed requests as `(index, error)`, in request order.
    pub fn failed(&self) -> impl Iterator<Item = (usize, &AccelError)> {
        self.results
            .iter()
            .enumerate()
            .filter_map(|(i, r)| r.as_ref().err().map(|e| (i, e)))
    }

    /// Number of failed requests.
    pub fn failed_count(&self) -> usize {
        self.results.iter().filter(|r| r.is_err()).count()
    }

    /// Collapses to the fail-fast [`BatchOutcome`] view: the whole batch,
    /// or the first per-request error. [`drain`](GcnService::drain),
    /// [`serve`](GcnService::serve) and
    /// [`serve_graph`](GcnService::serve_graph) are exactly this collapse.
    ///
    /// # Errors
    ///
    /// The first failed request's error, when any request failed.
    pub fn into_batch(self) -> Result<BatchOutcome, AccelError> {
        let mut requests = Vec::with_capacity(self.results.len());
        for result in self.results {
            requests.push(result?);
        }
        Ok(BatchOutcome {
            requests,
            wall_s: self.wall_s,
            freq_mhz: self.freq_mhz,
        })
    }
}

/// Result of a backoff-retried admission
/// (see [`GcnService::enqueue_with_backoff`]).
#[derive(Debug, Clone)]
pub struct AdmissionOutcome {
    /// Queue position the request was finally admitted at.
    pub position: usize,
    /// Retries it took (0 = admitted first try).
    pub retries: usize,
    /// Batches force-drained to free queue capacity, one per retry (the
    /// degradation trade: smaller batches for admission under pressure).
    pub drained: Vec<IsolatedBatch>,
}

/// Rejects non-finite values in a slice with a labelled
/// [`AccelError::InvalidInput`]. The success path is one branch-free
/// fold; the position scan runs only on failure, to name the value.
fn check_finite(label: &str, values: &[f32]) -> Result<(), AccelError> {
    if values.iter().fold(true, |ok, v| ok & v.is_finite()) {
        return Ok(());
    }
    let i = values.iter().position(|v| !v.is_finite()).unwrap_or(0);
    Err(AccelError::InvalidInput(format!(
        "{label} contains a non-finite value ({}) at position {i}",
        values[i]
    )))
}

/// Rejects an index array with an entry `>= bound` (`axis` names the
/// indexed dimension). The success path is one max-reduction; the first
/// offender is searched only on failure.
fn check_indices(label: &str, axis: &str, indices: &[u32], bound: usize) -> Result<(), AccelError> {
    let max = indices.iter().fold(0, |m, &i| m.max(i));
    if indices.is_empty() || (max as usize) < bound {
        return Ok(());
    }
    let bad = indices.iter().find(|&&i| i as usize >= bound);
    Err(AccelError::InvalidInput(format!(
        "{label} {axis} index {} is out of bounds for {bound} {axis}s",
        bad.unwrap_or(&max)
    )))
}

/// Validates one CSR operand: finite values, in-bounds column indices.
fn check_csr(label: &str, m: &Csr) -> Result<(), AccelError> {
    check_finite(label, m.values())?;
    check_indices(label, "column", m.col_idx(), m.cols())
}

/// Validates one feature-matrix request against the plan it will run on:
/// shape agreement plus [`check_csr`].
fn check_request(plan: &GcnPlan, x1: &Csr) -> Result<(), AccelError> {
    let rows = plan.graph().rows();
    if x1.rows() != rows {
        return Err(AccelError::InvalidInput(format!(
            "request x1 has {} rows but the graph has {rows} nodes",
            x1.rows()
        )));
    }
    if let Some(w1) = plan.weights().first() {
        if x1.cols() != w1.rows() {
            return Err(AccelError::InvalidInput(format!(
                "request x1 has {} feature columns but layer-1 weights expect {}",
                x1.cols(),
                w1.rows()
            )));
        }
    }
    check_csr("request x1", x1)
}

/// Admission-time ingest validation: rejects graphs, features, and
/// weights carrying NaN/±inf values, out-of-bounds indices, or dimension
/// mismatches with [`AccelError::InvalidInput`] — *before* they can enter
/// the plan cache or produce a silent-NaN output. Called by every
/// [`GcnService`] admission path ([`prepare`](GcnService::prepare),
/// [`serve_graph`](GcnService::serve_graph),
/// [`enqueue`](GcnService::enqueue)).
///
/// # Errors
///
/// [`AccelError::InvalidInput`] naming the offending operand.
pub fn validate_ingest(input: &GcnInput) -> Result<(), AccelError> {
    let a = &input.a_norm_csc;
    if a.rows() != a.cols() {
        return Err(AccelError::InvalidInput(format!(
            "adjacency must be square, got {}x{}",
            a.rows(),
            a.cols()
        )));
    }
    check_finite("adjacency", a.values())?;
    check_indices("adjacency", "row", a.row_idx(), a.rows())?;
    if input.x1.rows() != a.rows() {
        return Err(AccelError::InvalidInput(format!(
            "x1 has {} rows but the graph has {} nodes",
            input.x1.rows(),
            a.rows()
        )));
    }
    check_csr("x1", &input.x1)?;
    let mut in_dim = input.x1.cols();
    for (i, w) in input.weights.iter().enumerate() {
        if w.rows() != in_dim {
            return Err(AccelError::InvalidInput(format!(
                "layer-{} weights have {} rows but the layer input has {} columns",
                i + 1,
                w.rows(),
                in_dim
            )));
        }
        check_finite(&format!("layer-{} weights", i + 1), w.as_slice())?;
        in_dim = w.cols();
    }
    Ok(())
}

/// The fault harness's NaN-payload corruption (first element, or a no-op
/// on an empty output).
fn corrupt_output(output: &mut DenseMatrix) {
    if output.rows() > 0 && output.cols() > 0 {
        output.set(0, 0, f32::NAN);
    }
}

/// Aggregate counters of the plan registry. Hits, misses and evictions
/// count fingerprint lookups ([`serve_graph`](GcnService::serve_graph),
/// [`enqueue`](GcnService::enqueue)) only: calls by name never change
/// them. Residency covers every plan, pinned names included.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct CacheStats {
    /// Lookups served by a resident, still-matching plan (pinned or not).
    pub hits: u64,
    /// Lookups that had to prepare (absent, or resident-but-mismatched —
    /// e.g. a tenant mutated weights under an unchanged graph structure).
    pub misses: u64,
    /// Unpinned plans a miss dropped: LRU budget eviction, or replacement
    /// of a stale entry with the same fingerprint.
    pub evictions: u64,
    /// Estimated bytes currently resident ([`GcnPlan::memory_bytes`] sum).
    pub resident_bytes: u64,
    /// Plans currently resident.
    pub resident_plans: usize,
}

/// One registered plan.
#[derive(Debug, Clone)]
struct CacheEntry {
    /// Structure fingerprint, mixed with the Auto resolution (see
    /// `GcnService::plan_key`).
    key: u64,
    plan: Arc<GcnPlan>,
    bytes: u64,
    /// LRU stamp: the service's logical clock at last use.
    last_use: u64,
    /// `Some(name)` pins the entry: never an LRU victim, removed only by
    /// [`GcnService::evict`] or a re-prepare under the same name.
    name: Option<String>,
}

/// One admitted, not-yet-drained request.
#[derive(Debug, Clone)]
struct QueuedRequest {
    /// Resolved at admission (prepare-on-miss happens in `enqueue`, so
    /// `drain` is pure execution). The `Arc` keeps the plan alive even if
    /// the registry evicts it while the request waits.
    plan: Arc<GcnPlan>,
    x1: Csr,
    enqueued: Instant,
}

/// One request of a batch: the plan it runs on, its features, and the
/// instant its queue wait starts (admission, or batch start).
type BatchItem<'a> = (&'a GcnPlan, &'a Csr, Instant);

/// A serving front-end holding prepared per-graph plans (see module docs).
///
/// # Example
///
/// ```
/// use awb_accel::{AccelConfig, Design, GcnService};
/// use awb_datasets::{DatasetSpec, GeneratedDataset};
/// use awb_gcn_model::GcnInput;
///
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// let data = GeneratedDataset::generate(&DatasetSpec::cora().with_nodes(128), 5)?;
/// let input = GcnInput::from_dataset(&data)?;
/// let config = Design::LocalPlusRemote { hop: 1 }.apply(AccelConfig::builder().n_pes(16).build()?);
///
/// let mut service = GcnService::new(config);
/// // Multi-tenant path: plans are cached on the graph's fingerprint —
/// // the first batch prepares, later batches on the same graph hit.
/// let requests = vec![input.x1.clone(); 4];
/// let batch = service.serve_graph(&input, &requests)?;
/// assert_eq!(batch.requests.len(), 4);
/// assert_eq!(service.cache_stats().misses, 1);
/// let p = batch.execute_percentiles();
/// assert!(p.p50 <= p.p99);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone, Default)]
pub struct GcnService {
    config: AccelConfig,
    options: ServeOptions,
    /// The plan registry (see module docs). It holds a few dozen plans at
    /// most, so every lookup is a linear scan.
    plans: Vec<CacheEntry>,
    /// Logical clock for LRU stamps (monotone per service).
    lru_clock: u64,
    cache_hits: u64,
    cache_misses: u64,
    cache_evictions: u64,
    queue: VecDeque<QueuedRequest>,
}

impl GcnService {
    /// Creates an empty service with the given accelerator configuration
    /// and default [`ServeOptions`].
    pub fn new(config: AccelConfig) -> Self {
        GcnService {
            config,
            ..GcnService::default()
        }
    }

    /// Creates an empty service with explicit [`ServeOptions`].
    ///
    /// # Errors
    ///
    /// Returns [`AccelError::InvalidConfig`] when the options violate the
    /// zero-rejected rules (see [`ServeOptions::validate`]).
    pub fn with_options(config: AccelConfig, options: ServeOptions) -> Result<Self, AccelError> {
        options.validate()?;
        Ok(GcnService {
            config,
            options,
            ..GcnService::default()
        })
    }

    /// The configuration new plans are prepared under.
    pub fn config(&self) -> &AccelConfig {
        &self.config
    }

    /// The serving options (queue depth, cache budget).
    pub fn options(&self) -> &ServeOptions {
        &self.options
    }

    /// Prepares (or re-prepares) a graph: runs one warm-up inference on
    /// `input`, extracts the [`GcnPlan`], and pins it under `name` in the
    /// plan registry (replacing any plan pinned under that name). The
    /// plan counts in [`cache_stats`](GcnService::cache_stats) residency
    /// and may push unpinned plans out over the budget, but the call
    /// leaves the hit/miss/eviction counters alone.
    ///
    /// # Errors
    ///
    /// Propagates configuration/shape errors from the warm-up.
    pub fn prepare(
        &mut self,
        name: impl Into<String>,
        input: &GcnInput,
    ) -> Result<PrepareReport, AccelError> {
        let name = name.into();
        validate_ingest(input)?;
        let start = Instant::now();
        let (key, decision) = self.plan_key(input);
        let (plan, warmup, _) = self.register(input, key, decision, Some(name.clone()))?;
        // The merged X×W stats carry the total PE count over combination
        // shard devices, so the warm-up reveals each layer's shard count
        // without re-partitioning; report the deepest split (layers can
        // differ — see the field docs).
        let combination_shards = warmup
            .stats
            .layers
            .iter()
            .map(|l| (l.xw.n_pes / self.config.n_pes).max(1))
            .max()
            .unwrap_or(1);
        let wall_s = start.elapsed().as_secs_f64();
        let auto = plan.auto_decision().map(|d| AutoReport {
            chosen: d.label(),
            predicted_cycles: d.predicted_cycles,
            measured_cycles: warmup.stats.total_cycles(),
            predicted_wall_s: d.predicted_wall_s,
            measured_wall_s: wall_s,
            candidates_scored: d.candidates_scored,
            rescored_unsharded: d.rescored_unsharded,
        });
        Ok(PrepareReport {
            graph: name,
            tuning_rounds: plan.tuning_rounds(),
            total_switches: plan.total_switches(),
            shards: plan.shard_count(),
            combination_shards,
            wall_s,
            degraded: plan.degraded().map(String::from),
            policy: self.config.strategy.label(),
            auto,
            stream: plan.stream_stats(),
            warmup,
        })
    }

    /// The plan pinned under `name`, if any.
    pub fn plan(&self, name: &str) -> Option<&GcnPlan> {
        self.plans
            .iter()
            .find(|e| e.name.as_deref() == Some(name))
            .map(|e| &*e.plan)
    }

    /// Names of all prepared graphs (sorted for determinism).
    pub fn graph_names(&self) -> Vec<&str> {
        let mut names: Vec<&str> = self
            .plans
            .iter()
            .filter_map(|e| e.name.as_deref())
            .collect();
        names.sort_unstable();
        names
    }

    /// Removes the plan pinned under `name`, returning whether it existed.
    pub fn evict(&mut self, name: &str) -> bool {
        let before = self.plans.len();
        self.plans.retain(|e| e.name.as_deref() != Some(name));
        self.plans.len() < before
    }

    /// Aggregate plan-registry counters (hits/misses/evictions plus the
    /// current residency footprint).
    pub fn cache_stats(&self) -> CacheStats {
        CacheStats {
            hits: self.cache_hits,
            misses: self.cache_misses,
            evictions: self.cache_evictions,
            resident_bytes: self.plans.iter().map(|e| e.bytes).sum(),
            resident_plans: self.plans.len(),
        }
    }

    /// The resident plan for `input`'s graph — pinned or not — if it
    /// still matches (does not touch LRU order or counters).
    pub fn cached_plan(&self, input: &GcnInput) -> Option<Arc<GcnPlan>> {
        let (key, _) = self.plan_key(input);
        self.find(key, input)
            .map(|i| Arc::clone(&self.plans[i].plan))
    }

    /// Position of the first resident plan on `key` that still
    /// [`matches`](GcnPlan::matches) `input`.
    fn find(&self, key: u64, input: &GcnInput) -> Option<usize> {
        self.plans
            .iter()
            .position(|e| e.key == key && e.plan.matches(input))
    }

    /// Resolves `input`'s plan through the registry: a resident plan
    /// (pinned or not) that still [`matches`](GcnPlan::matches) is a hit;
    /// anything else (absent, or resident-but-mismatched — weights changed
    /// under an unchanged structure, or a fingerprint collision) is a miss
    /// that prepares a fresh plan through [`register`](Self::register).
    fn lookup_or_prepare(&mut self, input: &GcnInput) -> Result<Arc<GcnPlan>, AccelError> {
        let (key, decision) = self.plan_key(input);
        if let Some(i) = self.find(key, input) {
            self.lru_clock += 1;
            self.plans[i].last_use = self.lru_clock;
            self.cache_hits += 1;
            return Ok(Arc::clone(&self.plans[i].plan));
        }
        self.cache_misses += 1;
        let (plan, _warmup, dropped) = self.register(input, key, decision, None)?;
        self.cache_evictions += dropped;
        Ok(plan)
    }

    /// The prepare path of [`prepare`](GcnService::prepare) and a lookup
    /// miss: prepares under the already-resolved Auto `decision`, so Auto
    /// resolves once; registers the plan on `key`, replacing the unpinned
    /// plans on `key` and any plan already pinned under `name`; then
    /// evicts LRU unpinned plans, never the new one, while the budget is
    /// exceeded. Returns the plan, its warm-up, and the number of plans
    /// dropped.
    fn register(
        &mut self,
        input: &GcnInput,
        key: u64,
        decision: Option<AutoDecision>,
        name: Option<String>,
    ) -> Result<(Arc<GcnPlan>, GcnRunOutcome, u64), AccelError> {
        let (plan, warmup) =
            GcnRunner::new(self.config.clone()).prepare_with_decision(input, decision)?;
        let plan = Arc::new(plan);
        let before = self.plans.len();
        self.plans.retain(|e| match &e.name {
            Some(pinned) => Some(pinned) != name.as_ref(),
            None => e.key != key,
        });
        self.lru_clock += 1;
        self.plans.push(CacheEntry {
            key,
            bytes: plan.memory_bytes(),
            plan: Arc::clone(&plan),
            last_use: self.lru_clock,
            name,
        });
        if let Some(budget) = self.options.cache_budget_bytes {
            while self.plans.iter().map(|e| e.bytes).sum::<u64>() > budget {
                let victim = self.plans[..self.plans.len() - 1]
                    .iter()
                    .enumerate()
                    .filter(|(_, e)| e.name.is_none())
                    .min_by_key(|(_, e)| e.last_use)
                    .map(|(i, _)| i);
                // Only pinned plans and the new (last) one remain: an oversized
                // remainder stays resident (documented on ServeOptions).
                let Some(victim) = victim else { break };
                self.plans.remove(victim);
            }
        }
        let dropped = (before + 1 - self.plans.len()) as u64;
        Ok((plan, warmup, dropped))
    }

    /// The registry key for `input`'s plan, plus the Auto decision (if
    /// any) that was folded into it. Under [`StrategyPolicy::Manual`] the
    /// key is the structure fingerprint alone; under `Auto` the resolved
    /// choice is mixed in, so two tenants whose graphs collide on
    /// structure but resolve to different configurations occupy distinct
    /// slots.
    fn plan_key(&self, input: &GcnInput) -> (u64, Option<AutoDecision>) {
        let mut key = structure_fingerprint(input.a_norm_csc.pattern());
        let decision = match self.config.strategy {
            StrategyPolicy::Manual => None,
            StrategyPolicy::Auto => GcnRunner::new(self.config.clone()).resolve_strategy(input),
        };
        if let Some(d) = &decision {
            key ^= d.choice_hash().rotate_left(17);
        }
        (key, decision)
    }

    /// Serves a batch of feature-matrix requests for `input`'s graph
    /// through the plan registry (prepare-on-miss — no explicit
    /// [`prepare`](GcnService::prepare) call needed; a plan pinned by
    /// name is a hit), fanning requests out like
    /// [`serve`](GcnService::serve).
    ///
    /// # Errors
    ///
    /// Propagates configuration/shape errors from a cache-miss warm-up or
    /// from the requests.
    pub fn serve_graph(
        &mut self,
        input: &GcnInput,
        requests: &[Csr],
    ) -> Result<BatchOutcome, AccelError> {
        validate_ingest(input)?;
        let plan = self.lookup_or_prepare(input)?;
        self.serve_batch(&plan, requests)?.into_batch()
    }

    /// Admits one request to the queue, resolving its plan through the
    /// registry (prepare-on-miss happens here, at admission, so
    /// [`drain`](GcnService::drain) is pure execution and its queue-wait
    /// numbers measure queueing, not tuning). Returns the request's queue
    /// position. The admitted request holds its resolved plan: a later
    /// eviction or re-prepare never retroactively changes what an
    /// already-admitted request runs against.
    ///
    /// # Errors
    ///
    /// Returns [`AccelError::QueueFull`] when the queue is at
    /// [`ServeOptions::queue_depth`] (the request is NOT admitted);
    /// [`AccelError::InvalidInput`] when ingest validation rejects the
    /// graph, weights, or request features (see [`validate_ingest`] — a
    /// bad operand never reaches the plan registry); propagates warm-up
    /// errors from a cache miss.
    pub fn enqueue(&mut self, input: &GcnInput, x1: Csr) -> Result<usize, AccelError> {
        if self.queue.len() >= self.options.queue_depth {
            return Err(AccelError::QueueFull {
                depth: self.options.queue_depth,
            });
        }
        validate_ingest(input)?;
        let plan = self.lookup_or_prepare(input)?;
        check_request(&plan, &x1)?;
        self.queue.push_back(QueuedRequest {
            plan,
            x1,
            enqueued: Instant::now(),
        });
        Ok(self.queue.len() - 1)
    }

    /// [`enqueue`](GcnService::enqueue) with bounded retry-with-backoff
    /// for transient [`AccelError::QueueFull`] rejections: each retry
    /// sleeps the policy's (exponentially growing) backoff and then
    /// force-drains the queue — admitted work completes early to free
    /// capacity, trading batch size for admission under pressure. Any
    /// error other than `QueueFull` (validation, warm-up) fails
    /// immediately: retrying a request that was *rejected*, not
    /// *backpressured*, would never succeed.
    ///
    /// # Errors
    ///
    /// [`AccelError::InvalidConfig`] for an invalid policy; the last
    /// [`AccelError::QueueFull`] when every retry was exhausted; any
    /// non-transient admission error, immediately.
    pub fn enqueue_with_backoff(
        &mut self,
        input: &GcnInput,
        x1: &Csr,
        policy: &RetryPolicy,
    ) -> Result<AdmissionOutcome, AccelError> {
        policy.validate()?;
        let mut drained = Vec::new();
        for attempt in 0..=policy.max_retries {
            match self.enqueue(input, x1.clone()) {
                Ok(position) => {
                    return Ok(AdmissionOutcome {
                        position,
                        retries: attempt,
                        drained,
                    })
                }
                Err(AccelError::QueueFull { .. }) if attempt < policy.max_retries => {
                    std::thread::sleep(policy.backoff_for(attempt));
                    drained.push(self.drain_isolated());
                }
                Err(e) => return Err(e),
            }
        }
        unreachable!("the final attempt either admits or returns its error")
    }

    /// Admitted requests currently waiting for [`drain`](GcnService::drain).
    pub fn queue_len(&self) -> usize {
        self.queue.len()
    }

    /// Executes every admitted request as one batch over the [`exec`]
    /// substrate, emptying the queue. Results keep admission order at any
    /// thread count; each request's `queue_wait_s` spans admission to
    /// execution start. An empty queue yields an empty (guarded) batch.
    ///
    /// The fail-fast collapse of
    /// [`drain_isolated`](GcnService::drain_isolated): prefer that method
    /// when one faulty request should not discard its neighbours' results.
    ///
    /// # Errors
    ///
    /// Propagates the first per-request error (the queue is emptied
    /// either way — admitted work is never silently re-run).
    pub fn drain(&mut self) -> Result<BatchOutcome, AccelError> {
        self.drain_isolated().into_batch()
    }

    /// [`drain`](GcnService::drain) with per-request isolation: every
    /// admitted request gets its own `Result` slot — a worker panic is
    /// caught as [`AccelError::WorkerPanicked`], a blown
    /// [`ServeOptions::deadline`] is shed as
    /// [`AccelError::DeadlineExceeded`], and under an armed
    /// [`FaultPlan`](crate::fault::FaultPlan) a corrupted response is
    /// suppressed as [`AccelError::NonFiniteOutput`] — while every healthy
    /// request completes bit-identical to a cold run. The queue is emptied
    /// unconditionally.
    pub fn drain_isolated(&mut self) -> IsolatedBatch {
        let admitted: Vec<QueuedRequest> = self.queue.drain(..).collect();
        let items = admitted
            .iter()
            .map(|q| (&*q.plan, &q.x1, q.enqueued))
            .collect();
        self.run_batch("drain", items)
    }

    /// Serves a batch of feature-matrix requests against the plan pinned
    /// under `graph`, fanning requests out over the [`exec`] substrate.
    /// Results keep request order at any thread count; each request's
    /// outcome is bit-identical to a sequential (or cold) run. The
    /// fail-fast collapse of [`serve_isolated`](GcnService::serve_isolated).
    ///
    /// # Errors
    ///
    /// Returns [`AccelError::InvalidConfig`] when `graph` is not prepared,
    /// [`AccelError::InvalidInput`] when a request fails validation;
    /// propagates the first per-request error otherwise.
    pub fn serve(&self, graph: &str, requests: &[Csr]) -> Result<BatchOutcome, AccelError> {
        self.serve_isolated(graph, requests)?.into_batch()
    }

    /// [`serve`](GcnService::serve) with per-request isolation (the
    /// batch-serve analogue of
    /// [`drain_isolated`](GcnService::drain_isolated); each request's
    /// `queue_wait_s` spans batch start to worker pickup, and requests are
    /// validated against the plan before execution).
    ///
    /// # Errors
    ///
    /// Returns [`AccelError::InvalidConfig`] when `graph` is not prepared,
    /// or [`AccelError::InvalidInput`] when a request fails validation —
    /// both reject the whole batch up front; per-request faults are
    /// reported inside the returned [`IsolatedBatch`] instead.
    pub fn serve_isolated(
        &self,
        graph: &str,
        requests: &[Csr],
    ) -> Result<IsolatedBatch, AccelError> {
        let plan = self.plan(graph).ok_or_else(|| {
            AccelError::InvalidConfig(format!(
                "graph `{graph}` is not prepared (known: {:?})",
                self.graph_names()
            ))
        })?;
        self.serve_batch(plan, requests)
    }

    /// Validates every request against `plan`, then runs them as one
    /// `"serve"` batch whose queue wait starts now.
    fn serve_batch(&self, plan: &GcnPlan, requests: &[Csr]) -> Result<IsolatedBatch, AccelError> {
        for x1 in requests {
            check_request(plan, x1)?;
        }
        let start = Instant::now();
        let items = requests.iter().map(|x1| (plan, x1, start)).collect();
        Ok(self.run_batch("serve", items))
    }

    /// The one batch executor: fans `items` out over the [`exec`]
    /// substrate behind [`exec::par_map_isolated`], so each request gets
    /// its own `Result` slot and a caught panic becomes
    /// [`AccelError::WorkerPanicked`]. `site` names the fault-injection
    /// site (`"serve"` / `"drain"`).
    fn run_batch(&self, site: &str, items: Vec<BatchItem<'_>>) -> IsolatedBatch {
        let threads = self.config.threads.unwrap_or_else(exec::num_threads);
        let indexed: Vec<(usize, BatchItem<'_>)> = items.into_iter().enumerate().collect();
        let start = Instant::now();
        let slots = exec::par_map_isolated(threads, &indexed, |&(index, item)| {
            self.execute_one(site, index, item)
        });
        let wall_s = start.elapsed().as_secs_f64();
        IsolatedBatch {
            results: slots
                .into_iter()
                .enumerate()
                .map(|(index, slot)| {
                    slot.unwrap_or_else(|message| {
                        Err(AccelError::WorkerPanicked {
                            site: format!("{site}[{index}]"),
                            message,
                        })
                    })
                })
                .collect(),
            wall_s,
            freq_mhz: self.config.freq_mhz,
        }
    }

    /// Executes one request of a batch: deadline check, fault hooks, run,
    /// and the non-finite output guard.
    ///
    /// An injected `Panic` deliberately unwinds from here —
    /// [`run_batch`](Self::run_batch) runs this inside
    /// [`exec::par_map_isolated`], which is exactly the boundary under
    /// test.
    fn execute_one(
        &self,
        site: &str,
        index: usize,
        (plan, x1, enqueued): BatchItem<'_>,
    ) -> Result<RequestOutcome, AccelError> {
        let exec_start = Instant::now();
        let wait = exec_start.duration_since(enqueued);
        if let Some(budget) = self.options.deadline {
            if wait > budget {
                return Err(AccelError::DeadlineExceeded {
                    waited_ms: wait.as_millis() as u64,
                    budget_ms: budget.as_millis() as u64,
                });
            }
        }
        // Zero-cost when off: with `faults: None` the entire harness is this
        // one `if let` per request.
        if let Some(faults) = self.config.faults {
            match faults.decide(site, index as u64) {
                Some(FaultKind::Panic) => panic!("injected fault: {site}[{index}]"),
                Some(FaultKind::Delay) => {
                    std::thread::sleep(Duration::from_millis(faults.delay_ms(site, index as u64)))
                }
                _ => {}
            }
        }
        let mut outcome = plan.run(x1)?;
        if let Some(faults) = self.config.faults {
            if faults.decide(site, index as u64) == Some(FaultKind::NanPayload) {
                // Corrupt the response in flight — the guard below must catch
                // it; a NaN payload may never reach the caller as data.
                corrupt_output(&mut outcome.output);
            }
            if !outcome.output.as_slice().iter().all(|v| v.is_finite()) {
                return Err(AccelError::NonFiniteOutput {
                    site: format!("{site}[{index}]"),
                });
            }
        }
        Ok(RequestOutcome {
            index,
            outcome,
            wall_s: exec_start.elapsed().as_secs_f64(),
            queue_wait_s: wait.as_secs_f64(),
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::Design;
    use awb_datasets::{DatasetSpec, GeneratedDataset};

    fn config(n_pes: usize) -> AccelConfig {
        Design::LocalPlusRemote { hop: 1 }
            .apply(AccelConfig::builder().n_pes(n_pes).build().unwrap())
    }

    fn service_and_input(nodes: usize, seed: u64, n_pes: usize) -> (GcnService, GcnInput) {
        let data =
            GeneratedDataset::generate(&DatasetSpec::cora().with_nodes(nodes), seed).unwrap();
        let input = GcnInput::from_dataset(&data).unwrap();
        (GcnService::new(config(n_pes)), input)
    }

    #[test]
    fn prepare_then_serve_keeps_request_order() {
        let (mut service, input) = service_and_input(128, 21, 16);
        let report = service.prepare("g", &input).unwrap();
        assert!(report.warmup.stats.total_cycles() > 0);
        // Distinct requests: vary features via fresh generation on the
        // same graph.
        let requests: Vec<_> = (0..4)
            .map(|i| {
                GeneratedDataset::with_adjacency(
                    &input_spec(),
                    to_csr_adjacency(&input),
                    100 + i as u64,
                )
                .unwrap()
                .features
            })
            .collect();
        let batch = service.serve("g", &requests).unwrap();
        assert_eq!(batch.requests.len(), 4);
        for (i, r) in batch.requests.iter().enumerate() {
            assert_eq!(r.index, i);
            let direct = service.plan("g").unwrap().run(&requests[i]).unwrap();
            assert_eq!(r.outcome.output, direct.output);
            assert_eq!(r.outcome.stats, direct.stats);
        }
        assert!(batch.mean_cycles() > 0.0);
        assert!(batch.avg_utilization() > 0.0 && batch.avg_utilization() <= 1.0);
    }

    fn input_spec() -> DatasetSpec {
        DatasetSpec::cora().with_nodes(128)
    }

    fn to_csr_adjacency(input: &GcnInput) -> awb_sparse::Csr {
        // Rebuild an unnormalized-ish adjacency with the right shape; only
        // structure matters for feature regeneration.
        input.a_norm.clone()
    }

    #[test]
    fn unknown_graph_rejected() {
        let (service, input) = service_and_input(96, 22, 8);
        let err = service.serve("nope", std::slice::from_ref(&input.x1));
        assert!(matches!(err, Err(AccelError::InvalidConfig(_))));
    }

    #[test]
    fn prepare_overwrites_and_evict_removes() {
        let (mut service, input) = service_and_input(96, 23, 8);
        service.prepare("g", &input).unwrap();
        assert_eq!(service.graph_names(), vec!["g"]);
        service.prepare("g", &input).unwrap();
        assert_eq!(service.graph_names(), vec!["g"]);
        assert!(service.evict("g"));
        assert!(!service.evict("g"));
        assert!(service.plan("g").is_none());
    }

    #[test]
    fn freq_derived_metrics_guard_against_zero_frequency() {
        // A hand-built degenerate batch: freq_mhz of 0 (or worse) must
        // yield 0.0, never NaN/inf, from every freq-derived metric.
        let (mut service, input) = service_and_input(96, 25, 8);
        service.prepare("g", &input).unwrap();
        let batch = service.serve("g", std::slice::from_ref(&input.x1)).unwrap();
        assert!(batch.mean_latency_ms() > 0.0, "healthy batch has latency");
        for bad_freq in [0.0, -275.0, f64::NAN, f64::INFINITY] {
            let degenerate = BatchOutcome {
                freq_mhz: bad_freq,
                ..batch.clone()
            };
            let ms = degenerate.mean_latency_ms();
            assert_eq!(ms, 0.0, "freq {bad_freq}: got {ms}");
            assert!(ms.is_finite());
        }
        // Empty batches stay finite on every aggregate.
        let empty = BatchOutcome {
            requests: Vec::new(),
            wall_s: 0.0,
            freq_mhz: 0.0,
        };
        assert_eq!(empty.mean_cycles(), 0.0);
        assert_eq!(empty.mean_latency_ms(), 0.0);
        assert_eq!(empty.mean_wall_s(), 0.0);
        assert_eq!(empty.throughput_rps(), 0.0);
        assert_eq!(empty.avg_utilization(), 0.0);
        assert_eq!(empty.execute_percentiles(), LatencyPercentiles::default());
        assert_eq!(
            empty.queue_wait_percentiles(),
            LatencyPercentiles::default()
        );
    }

    #[test]
    fn percentiles_guard_degenerate_samples() {
        // Empty -> all zero.
        let p = LatencyPercentiles::from_samples(std::iter::empty());
        assert_eq!((p.p50, p.p95, p.p99), (0.0, 0.0, 0.0));
        // Single sample -> every percentile is that sample.
        let p = LatencyPercentiles::from_samples([0.25]);
        assert_eq!((p.p50, p.p95, p.p99), (0.25, 0.25, 0.25));
        // Non-finite and negative samples are dropped, not propagated.
        let p = LatencyPercentiles::from_samples([f64::NAN, f64::INFINITY, -1.0, 2.0]);
        assert_eq!((p.p50, p.p95, p.p99), (2.0, 2.0, 2.0));
        assert!(p.p50.is_finite() && p.p95.is_finite() && p.p99.is_finite());
        // All-degenerate input degrades to the empty guard.
        let p = LatencyPercentiles::from_samples([f64::NAN, f64::NEG_INFINITY]);
        assert_eq!((p.p50, p.p95, p.p99), (0.0, 0.0, 0.0));
        // Nearest-rank on a known ladder: p50 of 1..=100 is 50, p95 is
        // 95, p99 is 99.
        let p = LatencyPercentiles::from_samples((1..=100).map(|i| i as f64));
        assert_eq!((p.p50, p.p95, p.p99), (50.0, 95.0, 99.0));
        // Percentiles are monotone.
        assert!(p.p50 <= p.p95 && p.p95 <= p.p99);
        // Near-zero wall: a batch whose requests all ran in ~0s stays
        // finite and ordered.
        let p = LatencyPercentiles::from_samples([0.0, 0.0, 1e-12]);
        assert!(p.p50 >= 0.0 && p.p99.is_finite());
    }

    #[test]
    fn batch_percentiles_cover_wait_and_execute() {
        let (mut service, input) = service_and_input(96, 28, 8);
        let requests = vec![input.x1.clone(); 5];
        let batch = service.serve_graph(&input, &requests).unwrap();
        let exec_p = batch.execute_percentiles();
        assert!(exec_p.p50 > 0.0, "execution takes nonzero wall-clock");
        assert!(exec_p.p50 <= exec_p.p95 && exec_p.p95 <= exec_p.p99);
        let wait_p = batch.queue_wait_percentiles();
        assert!(wait_p.p50 >= 0.0 && wait_p.p99.is_finite());
        for r in &batch.requests {
            assert!(r.queue_wait_s >= 0.0 && r.queue_wait_s.is_finite());
        }
    }

    #[test]
    fn serve_options_validation() {
        let cfg = AccelConfig::builder().n_pes(8).build().unwrap();
        assert!(matches!(
            GcnService::with_options(
                cfg.clone(),
                ServeOptions {
                    queue_depth: 0,
                    cache_budget_bytes: None,
                    deadline: None,
                }
            ),
            Err(AccelError::InvalidConfig(_))
        ));
        assert!(matches!(
            GcnService::with_options(
                cfg.clone(),
                ServeOptions {
                    queue_depth: 4,
                    cache_budget_bytes: Some(0),
                    deadline: None,
                }
            ),
            Err(AccelError::InvalidConfig(_))
        ));
        let service = GcnService::with_options(
            cfg,
            ServeOptions {
                queue_depth: 4,
                cache_budget_bytes: Some(1 << 20),
                deadline: None,
            },
        )
        .unwrap();
        assert_eq!(service.options().queue_depth, 4);
    }

    #[test]
    fn cache_hit_and_miss_counters_track_lookups() {
        let (mut service, input) = service_and_input(96, 26, 8);
        assert_eq!(service.cache_stats(), CacheStats::default());
        service
            .serve_graph(&input, std::slice::from_ref(&input.x1))
            .unwrap();
        let s = service.cache_stats();
        assert_eq!((s.hits, s.misses, s.resident_plans), (0, 1, 1));
        assert!(s.resident_bytes > 0, "plan size estimate is nonzero");
        service
            .serve_graph(&input, std::slice::from_ref(&input.x1))
            .unwrap();
        let s = service.cache_stats();
        assert_eq!((s.hits, s.misses, s.evictions), (1, 1, 0));
        assert!(service.cached_plan(&input).is_some());
    }

    #[test]
    fn queue_backpressure_rejects_then_drains_in_order() {
        let cfg = Design::LocalPlusRemote { hop: 1 }
            .apply(AccelConfig::builder().n_pes(8).build().unwrap());
        let (_, input) = service_and_input(96, 27, 8);
        let mut service = GcnService::with_options(
            cfg,
            ServeOptions {
                queue_depth: 3,
                cache_budget_bytes: None,
                deadline: None,
            },
        )
        .unwrap();
        let requests: Vec<Csr> = (0..3)
            .map(|i| {
                GeneratedDataset::with_adjacency(
                    &DatasetSpec::cora().with_nodes(96),
                    input.a_norm.clone(),
                    700 + i as u64,
                )
                .unwrap()
                .features
            })
            .collect();
        for (i, x1) in requests.iter().enumerate() {
            assert_eq!(service.enqueue(&input, x1.clone()).unwrap(), i);
        }
        assert_eq!(service.queue_len(), 3);
        // Admission past the depth is an explicit, typed rejection…
        let err = service.enqueue(&input, requests[0].clone());
        assert!(matches!(err, Err(AccelError::QueueFull { depth: 3 })));
        // …that does not grow the queue.
        assert_eq!(service.queue_len(), 3);
        let batch = service.drain().unwrap();
        assert_eq!(service.queue_len(), 0);
        assert_eq!(batch.requests.len(), 3);
        // Admission order is result order, bit-identical to direct runs.
        let plan = service.cached_plan(&input).unwrap();
        for (r, x1) in batch.requests.iter().zip(&requests) {
            let direct = plan.run(x1).unwrap();
            assert_eq!(r.outcome.output, direct.output);
            assert!(r.queue_wait_s >= 0.0);
        }
        // Draining an empty queue is a guarded no-op batch.
        let empty = service.drain().unwrap();
        assert!(empty.requests.is_empty());
        assert_eq!(empty.throughput_rps(), 0.0);
    }

    #[test]
    fn sharded_service_serves_bit_identical_requests() {
        use crate::config::ShardPolicy;
        let (unsharded, input) = service_and_input(128, 26, 16);
        let mut cfg = unsharded.config().clone();
        cfg.shards = ShardPolicy::Fixed(4);
        let mut service = GcnService::new(cfg);
        let report = service.prepare("g", &input).unwrap();
        assert_eq!(report.shards, 4);
        assert_eq!(report.combination_shards, 1);
        let requests = vec![input.x1.clone(); 3];
        let batch = service.serve("g", &requests).unwrap();
        let reference = GcnRunner::new(unsharded.config().clone())
            .run(&input)
            .unwrap();
        for r in &batch.requests {
            assert_eq!(r.outcome.output, reference.output);
        }
        assert!(batch.avg_utilization() > 0.0 && batch.avg_utilization() <= 1.0);
    }

    #[test]
    fn combination_sharded_service_serves_bit_identical_requests() {
        use crate::config::ShardPolicy;
        let (unsharded, input) = service_and_input(128, 27, 16);
        let mut cfg = unsharded.config().clone();
        cfg.shards = ShardPolicy::Fixed(2);
        cfg.combination_shards = ShardPolicy::Fixed(3);
        let mut service = GcnService::new(cfg);
        let report = service.prepare("g", &input).unwrap();
        assert_eq!(report.shards, 2);
        assert_eq!(report.combination_shards, 3);
        let requests = vec![input.x1.clone(); 2];
        let batch = service.serve("g", &requests).unwrap();
        let reference = GcnRunner::new(unsharded.config().clone())
            .run(&input)
            .unwrap();
        for r in &batch.requests {
            assert_eq!(r.outcome.output, reference.output);
        }
    }

    #[test]
    fn batch_outputs_match_cold_runs_bitwise() {
        let (mut service, input) = service_and_input(128, 24, 16);
        service.prepare("g", &input).unwrap();
        let requests = vec![input.x1.clone(); 3];
        let batch = service.serve("g", &requests).unwrap();
        let cold = GcnRunner::new(service.config().clone())
            .run(&input)
            .unwrap();
        for r in &batch.requests {
            assert_eq!(r.outcome.output, cold.output);
            // Served requests never tune.
            for layer in &r.outcome.stats.layers {
                assert_eq!(layer.a_xw.tuning_rounds(), 0);
            }
        }
    }

    /// `(hits, misses, evictions)`, for before/after comparisons.
    fn counters(service: &GcnService) -> (u64, u64, u64) {
        let s = service.cache_stats();
        (s.hits, s.misses, s.evictions)
    }

    /// An 8-PE service with a plan budget of `bytes`.
    fn budgeted(bytes: u64) -> GcnService {
        let options = ServeOptions {
            cache_budget_bytes: Some(bytes),
            ..ServeOptions::default()
        };
        GcnService::with_options(config(8), options).unwrap()
    }

    /// Serves `input`'s own features through the fingerprint path.
    fn serve_own(service: &mut GcnService, input: &GcnInput) {
        let requests = std::slice::from_ref(&input.x1);
        service.serve_graph(input, requests).unwrap();
    }

    #[test]
    fn named_plan_counts_in_residency_and_outlives_a_tiny_budget() {
        let mut service = budgeted(1);
        let (_, input) = service_and_input(96, 41, 8);
        service.prepare("g", &input).unwrap();
        let bytes = service.plan("g").unwrap().memory_bytes();
        let s = service.cache_stats();
        assert_eq!((s.resident_plans, s.resident_bytes), (1, bytes));
        // The second tenant evicts the first, never the pinned plan.
        for seed in [42, 43] {
            serve_own(&mut service, &service_and_input(80, seed, 8).1);
        }
        assert_eq!(counters(&service), (0, 2, 1));
        assert_eq!(service.cache_stats().resident_plans, 2);
        assert!(service.plan("g").is_some());
    }

    #[test]
    fn fingerprint_lookups_hit_the_named_plan() {
        let (mut service, input) = service_and_input(96, 44, 8);
        service.prepare("g", &input).unwrap();
        serve_own(&mut service, &input);
        service.enqueue(&input, input.x1.clone()).unwrap();
        assert_eq!(service.drain().unwrap().requests.len(), 1);
        assert_eq!(counters(&service), (2, 0, 0));
        let cached = service.cached_plan(&input).unwrap();
        assert!(std::ptr::eq(&*cached, service.plan("g").unwrap()));
        assert_eq!(service.cache_stats().resident_plans, 1);
    }

    #[test]
    fn naming_a_cached_graph_replaces_its_unpinned_plan() {
        let (mut service, input) = service_and_input(96, 49, 8);
        serve_own(&mut service, &input);
        let unpinned = service.cached_plan(&input).unwrap();
        service.prepare("g", &input).unwrap();
        let s = service.cache_stats();
        let bytes = service.plan("g").unwrap().memory_bytes();
        assert_eq!((s.resident_plans, s.resident_bytes), (1, bytes));
        // The next fingerprint hit lands on the pinned plan.
        serve_own(&mut service, &input);
        let cached = service.cached_plan(&input).unwrap();
        assert!(std::ptr::eq(&*cached, service.plan("g").unwrap()));
        assert!(!Arc::ptr_eq(&cached, &unpinned));
        assert_eq!(counters(&service), (1, 1, 0));
    }

    #[test]
    fn same_fingerprint_miss_leaves_the_named_plan() {
        let (mut service, input) = service_and_input(96, 45, 8);
        service.prepare("g", &input).unwrap();
        // Same adjacency, scaled weights: same key, no match. The second
        // miss replaces the first's unpinned plan only.
        for (k, misses) in [(2.0, 1), (3.0, 2)] {
            let scaled = |w: &DenseMatrix| {
                let data = w.as_slice().iter().map(|v| v * k).collect();
                DenseMatrix::from_vec(w.rows(), w.cols(), data).unwrap()
            };
            let weights = input.weights.iter().map(scaled).collect();
            let a = input.a_norm.clone();
            serve_own(
                &mut service,
                &GcnInput::from_parts(a, input.x1.clone(), weights).unwrap(),
            );
            assert_eq!(counters(&service), (0, misses, misses - 1));
            assert_eq!(service.cache_stats().resident_plans, 2);
        }
        serve_own(&mut service, &input);
        assert_eq!(counters(&service), (1, 2, 1));
    }

    #[test]
    fn named_calls_leave_the_counters_alone() {
        let mut service = budgeted(1);
        serve_own(&mut service, &service_and_input(80, 47, 8).1);
        let before = counters(&service);
        // Over budget, the prepare pushes the unpinned tenant plan out:
        // residency changes, the counters do not.
        let (_, input) = service_and_input(96, 46, 8);
        service.prepare("g", &input).unwrap();
        assert_eq!(service.cache_stats().resident_plans, 1);
        assert!(service.plan("g").is_some());
        service.serve("g", std::slice::from_ref(&input.x1)).unwrap();
        service.prepare("g", &input).unwrap();
        assert!(service.evict("g"));
        assert_eq!(counters(&service), before);
        assert_eq!(service.cache_stats().resident_plans, 0);
    }

    #[test]
    fn serve_validates_requests_and_honours_deadlines() {
        let (mut service, input) = service_and_input(96, 48, 8);
        let x1 = &input.x1;
        let mut bad = awb_sparse::Coo::new(x1.rows(), x1.cols());
        bad.push(3, 1, f32::NAN).unwrap();
        service.prepare("g", &input).unwrap();
        let err = service.serve("g", &[x1.clone(), bad.to_csr()]);
        assert!(matches!(err, Err(AccelError::InvalidInput(_))), "{err:?}");
        // One worker: the second request waits out the first's execution,
        // far past a 1 ns budget.
        let mut config = service.config().clone();
        config.threads = Some(1);
        let options = ServeOptions {
            deadline: Some(Duration::from_nanos(1)),
            ..ServeOptions::default()
        };
        let mut service = GcnService::with_options(config, options).unwrap();
        service.prepare("g", &input).unwrap();
        let err = service.serve("g", &[x1.clone(), x1.clone()]);
        assert!(
            matches!(err, Err(AccelError::DeadlineExceeded { .. })),
            "{err:?}"
        );
    }
}
