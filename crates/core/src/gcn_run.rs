//! Full GCN inference on the simulated accelerator, split into a
//! *prepare* phase (pay auto-tuning once per graph) and a cheap *execute*
//! phase (per-request inference over the shared plan).
//!
//! Both phases run the paper's per-layer schedule: `X × W` first
//! (TDQ-1-class workload), then `A × (XW)` (TDQ-2-class), with
//! column-level pipelining between them (Fig. 8) and ReLU between layers.
//! On the host the two are one loop over the layers; only layer 1's
//! `X × W` timing, which needs nothing but X1, may run on a second thread
//! beside it (see `run_layers`).
//! A single engine serves every SPMM that uses `A`, so the auto-tuned row
//! map converged during layer 1 is *reused* in layer 2 — and, via
//! [`GcnPlan`], across every later request on the same graph: exactly the
//! paper's "ideal configuration is reused for the remaining iterations",
//! promoted from a per-call optimization to a shareable artifact.
//!
//! * [`GcnRunner::prepare`] runs one warm-up inference and extracts a
//!   [`GcnPlan`] (graph, weights, and the frozen [`ShardedPlan`] for `A`:
//!   one frozen [`FastEngine`](crate::FastEngine) per shard, a single
//!   device being the one-shard case).
//! * [`GcnPlan::run`] executes one feature-matrix request against the
//!   shared plan — no tuning, replay cache warm from request 1.
//! * [`GcnRunner::run`] is the thin compatibility wrapper: one cold
//!   inference, identical to the pre-split behaviour.

use crate::config::{AccelConfig, ShardPolicy, StrategyPolicy, DEFAULT_HOST_MEM_BUDGET};
use crate::cost::{self, AutoDecision, CostProfile};
use crate::engine::steady::compute_rows;
use crate::engine::streaming::store_err;
use crate::engine::{
    check_shapes, shard_timing, ShardedEngine, ShardedOutcome, ShardedPlan, StreamStats,
};
use crate::error::AccelError;
use crate::exec;
use crate::pipeline::pipeline_two_stage;
use crate::stats::{LayerStats, RunStats, SpmmStats};
use awb_gcn_model::{GcnInput, GcnModel};
use awb_sparse::spmm::RowOperand;
use awb_sparse::store::SparseStore;
use awb_sparse::{Csc, CscPattern, Csr, DenseMatrix};
use std::sync::Arc;

/// Outcome of one accelerated inference.
#[derive(Debug, Clone)]
pub struct GcnRunOutcome {
    /// Final output features.
    pub output: DenseMatrix,
    /// Cycle/utilization statistics.
    pub stats: RunStats,
    /// Densities of each layer's input feature matrix as the accelerator
    /// saw them (`x_density[0]` = X1).
    pub x_density: Vec<f64>,
    /// Streaming statistics (resident peak, I/O bytes, read and compute
    /// wall time) when the run streamed `A` from an on-disk store; `None`
    /// for resident runs.
    pub stream: Option<StreamStats>,
}

impl GcnRunOutcome {
    /// Inference latency in milliseconds at `freq_mhz`.
    pub fn latency_ms(&self, freq_mhz: f64) -> f64 {
        self.stats.latency_ms(freq_mhz)
    }
}

/// One layer's `X × W` timing: the density of `X` as the accelerator saw
/// it, and the merged statistics of its combination devices.
type XwTiming = (f64, SpmmStats);

/// The per-layer inference schedule, generic over how `A × (XW)` executes
/// (`a_times`): a [`ShardedEngine`] during warm-up (tuning live), a
/// [`ShardedSession`](crate::ShardedSession) during per-request
/// execution. The outcome's `stream` is the last `A × (XW)` pass's.
///
/// One loop runs the layers. Each layer's `X × W` *timing* simulates the
/// SPMM from `X`'s column structure alone: [`shard_timing`] on fresh
/// engines — one device, or one auto-tuned device per nnz-balanced
/// column shard of `X` under [`AccelConfig::combination_shards`]. Its
/// *numerics* read the same `X` row-major (X1's CSR, then the dense ReLU
/// output) in the pinned ascending-`j` order, so layer outputs are
/// bit-identical to the column kernel on `X`'s full CSC, which is never
/// built; then `a_times` runs, then the ReLU hop. Each hidden layer is
/// timed from its hop's structure just before its shape check and row
/// kernel.
///
/// Layer 1's timing (X1's structure-only transpose, then its
/// `shard_timing`) shares no state with the loop, as the device's
/// column-level pipelining of the two SPMMs assumes (Fig. 8). On a
/// thread that may fan out (`exec::workers(threads) > 1`) it runs on one
/// `exec` worker beside the loop; elsewhere — on a serving batch's
/// worker, at `threads = Some(1)` or `AWB_THREADS=1` — it runs first, on
/// the calling thread, with no thread spawned. Both orders return the
/// same outcome and the same error: layer 1's timing error first, then
/// the loop's, which is the sequential order (`DESIGN.md` §8).
///
/// With `time_xw` off (a plan-only warm-up, `DESIGN.md` §9) nothing is
/// timed; `a_times` sees the same `XW`.
fn run_layers(
    config: &AccelConfig,
    weights: &[DenseMatrix],
    x1: &Csr,
    time_xw: bool,
    mut a_times: impl FnMut(&DenseMatrix, &str) -> Result<ShardedOutcome, AccelError>,
) -> Result<GcnRunOutcome, AccelError> {
    let threads = config.threads.unwrap_or_else(exec::num_threads);
    let n_layers = weights.len();
    let time_layer = |l: usize, x: &CscPattern| -> Result<XwTiming, AccelError> {
        let label = format!("L{}:X*W", l + 1);
        let partitioner = config.combination_partitioner();
        let stats = shard_timing(config, partitioner, x, &weights[l], &label)?;
        Ok((x.density(), stats))
    };
    let time_first = || {
        let x = x1.to_csc_pattern();
        (time_layer(0, &x), x)
    };
    let mut timed = Vec::with_capacity(n_layers);
    let mut a_xw_stats = Vec::with_capacity(n_layers);
    let mut stream = None;
    // Layer 1 reads the sparse X1 as given; later layers read the previous
    // layer's ReLU output (`x_hidden`).
    let mut x_hidden: Option<DenseMatrix> = None;
    // `held` is the last structure timed, kept until the next is built.
    let mut each_layer = |mut held: Option<CscPattern>| -> Result<(), AccelError> {
        for (l, w) in weights.iter().enumerate() {
            let x = match &x_hidden {
                Some(x) => {
                    if time_xw {
                        timed.push(time_layer(l, held.insert(x.to_csc_pattern()))?);
                    }
                    RowOperand::Dense(x)
                }
                None => RowOperand::Sparse(x1),
            };
            check_shapes((x.rows(), x.cols()), w)?;
            let xw = compute_rows(x, w, threads);
            // Consumed intermediates are freed as soon as they are read.
            drop(x_hidden.take());
            let a_xw = a_times(&xw, &format!("L{}:A*(XW)", l + 1))?;
            drop(xw);
            stream = a_xw.stream;
            let mut x_next = a_xw.outcome.c;
            if l + 1 < n_layers {
                x_next.relu_in_place();
            }
            a_xw_stats.push(a_xw.outcome.stats);
            x_hidden = Some(x_next);
        }
        Ok(())
    };
    let first = if !time_xw || n_layers == 0 {
        each_layer(None)?;
        None
    } else if exec::workers(threads) > 1 {
        let (first, rest) = exec::fork(|| time_first().0, || each_layer(None));
        let first = first?;
        rest?;
        Some(first)
    } else {
        // X1's structure lives until layer 2's is built: freeing it sooner
        // shifts the serving path's allocation order, and with it where
        // glibc's adaptive mmap threshold settles (`DESIGN.md` §8).
        let (first, held) = time_first();
        let first = first?;
        each_layer(Some(held))?;
        Some(first)
    };

    let x_density = first.iter().chain(&timed).map(|(density, _)| *density);
    let x_density = x_density.collect();
    let layers = first
        .into_iter()
        .chain(timed)
        .zip(a_xw_stats)
        .map(|((_, xw), a_xw)| LayerStats {
            pipelined_cycles: if config.pipeline_spmms {
                pipeline_two_stage(&xw.round_cycles(), &a_xw.round_cycles())
            } else {
                xw.total_cycles() + a_xw.total_cycles()
            },
            xw,
            a_xw,
        })
        .collect();
    Ok(GcnRunOutcome {
        output: x_hidden.unwrap_or_else(|| DenseMatrix::zeros(0, 0)),
        stats: RunStats {
            layers,
            n_pes: config.n_pes,
        },
        x_density,
        stream,
    })
}

/// Drives GCN inference through the simulated accelerator.
///
/// # Example
///
/// ```
/// use awb_accel::{AccelConfig, GcnRunner};
/// use awb_datasets::{DatasetSpec, GeneratedDataset};
/// use awb_gcn_model::GcnInput;
///
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// let data = GeneratedDataset::generate(&DatasetSpec::cora().with_nodes(128), 5)?;
/// let input = GcnInput::from_dataset(&data)?;
/// let config = AccelConfig::builder().n_pes(32).build()?;
/// let outcome = GcnRunner::new(config).run(&input)?;
/// assert_eq!(outcome.output.shape(), (128, 7));
/// assert!(outcome.stats.avg_utilization() > 0.0);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone)]
pub struct GcnRunner {
    config: AccelConfig,
}

impl GcnRunner {
    /// Creates a runner with the given accelerator configuration.
    pub fn new(config: AccelConfig) -> Self {
        GcnRunner { config }
    }

    /// The configuration in use.
    pub fn config(&self) -> &AccelConfig {
        &self.config
    }

    /// Runs inference with the paper's activation schedule (ReLU between
    /// layers, none after the last). Thin compatibility wrapper: one cold
    /// inference (tuning included), discarding the reusable plan — call
    /// [`prepare`](GcnRunner::prepare) instead when more requests on the
    /// same graph will follow. Honours both of the configuration's
    /// [`ShardPolicy`] axes: `shards` executes `A × (XW)` across
    /// column-shard devices, `combination_shards` does the same for each
    /// layer's `X × W` (outputs bit-identical in every combination). Called
    /// from a thread that may fan out, the run times layer 1's `X × W` on
    /// one extra `exec` worker beside the layer loop; the outcome is the
    /// sequential order's either way (`DESIGN.md` §8).
    ///
    /// # Errors
    ///
    /// Propagates configuration/shape errors from the engines.
    pub fn run(&self, input: &GcnInput) -> Result<GcnRunOutcome, AccelError> {
        // Under Auto, resolve the strategy first and run the resolved
        // (Manual) configuration — bit-identical to hand-specifying it.
        if let Some(decision) = self.resolve_strategy(input) {
            return GcnRunner::new(decision.apply(&self.config)).run(input);
        }
        // One engine per sparse operand: A's engine persists across layers
        // so its tuned row map is reused.
        let a = &input.a_norm_csc;
        let mut engine_a = Self::engine_a(&self.config, a)?;
        run_layers(&self.config, &input.weights, &input.x1, true, |b, label| {
            engine_a.run_detailed(a, b, label)
        })
    }

    /// Resolves [`StrategyPolicy::Auto`] for `input`: takes the largest
    /// LS+RS design that fits the PE count, profiles the input's structure
    /// and scores the shard-layout candidates with the cost model
    /// ([`cost::select`]). Returns `None` under
    /// [`StrategyPolicy::Manual`] (nothing to resolve).
    pub fn resolve_strategy(&self, input: &GcnInput) -> Option<AutoDecision> {
        (self.config.strategy == StrategyPolicy::Auto)
            .then(|| cost::select(&self.config, &CostProfile::of_input(input)))
    }

    /// Runs one warm-up inference (identical to [`run`](GcnRunner::run))
    /// and extracts the reusable per-graph [`GcnPlan`]: the graph, the
    /// weights, and the frozen per-shard plans for `A` (one shard on a
    /// single device). The warm-up's outcome is returned alongside; the
    /// serving front-end's cache miss, which needs only the plan, skips
    /// the warm-up's `X × W` timing instead (`DESIGN.md` §9).
    ///
    /// # Errors
    ///
    /// Propagates configuration/shape errors from the engines.
    pub fn prepare(&self, input: &GcnInput) -> Result<(GcnPlan, GcnRunOutcome), AccelError> {
        self.warm_up(input, self.resolve_strategy(input), true)
    }

    /// One warm-up inference under the Auto `decision` the caller already
    /// resolved (`None` under Manual; the serving front-end resolves it
    /// for the plan-cache key first, and re-resolving here would double
    /// the work) and the plan extracted from it. The decision's winner is
    /// the concrete (Manual) configuration the plan is built under.
    /// `time_xw` is [`run_layers`]'.
    pub(crate) fn warm_up(
        &self,
        input: &GcnInput,
        mut decision: Option<AutoDecision>,
        time_xw: bool,
    ) -> Result<(GcnPlan, GcnRunOutcome), AccelError> {
        let mut config = match &decision {
            Some(decision) => decision.apply(&self.config),
            None => self.config.clone(),
        };
        let (a_plan, outcome, degraded) = match Self::prepare_a(&config, input, time_xw) {
            Ok((a_plan, outcome)) => (a_plan, outcome, None),
            // Degradation ladder, rung 2 (DESIGN.md §10): a failing
            // resident sharded prepare falls back to one device — the
            // tenant gets a correct (bit-identical) plan instead of an
            // error, and the fallback is recorded on the plan /
            // PrepareReport. Only the `A` layout changes; an Auto decision
            // is updated to describe the plan that was built. A stored or
            // single-device prepare has no rung below it: a store that
            // cannot be opened (or does not hold this graph) is a typed
            // ingest error, not a condition a resident fallback could mask.
            Err(reason) if Self::resident_sharded(&config) => {
                config.shards = ShardPolicy::Single;
                if let Some(decision) = &mut decision {
                    decision.shards = ShardPolicy::Single;
                    decision.predicted_cycles =
                        cost::predict_config_cycles(&config, &CostProfile::of_input(input));
                }
                let (a_plan, outcome) = Self::prepare_a(&config, input, time_xw)?;
                (a_plan, outcome, Some(reason.to_string()))
            }
            Err(e) => return Err(e),
        };
        Ok((
            GcnPlan {
                config,
                a_norm_csc: input.a_norm_csc.clone(),
                weights: input.weights.clone(),
                a_plan,
                degraded,
                auto: decision,
            },
            outcome,
        ))
    }

    /// True when `config` shards a resident `A` (any policy but `Single`,
    /// even one that resolves to one shard) — the prepare that runs behind
    /// `catch_unwind` and degrades to one device on failure.
    fn resident_sharded(config: &AccelConfig) -> bool {
        config.store.is_none() && config.shards != ShardPolicy::Single
    }

    /// The `A` engine for the configured source: resident shards cut by
    /// the aggregation-side policy (one whole-operand shard under
    /// [`ShardPolicy::Single`]), or — with a store configured — stored
    /// shards sized to the host budget. A store directory without a
    /// manifest is ingested first (chunk target derived from the host
    /// budget so even small graphs split finely enough for the budget to
    /// bind); an existing store is opened as-is (full ingest validation)
    /// and must hold exactly this graph. The engine is
    /// [`trusted`](ShardedEngine::trusted): a warm-up passes it the same
    /// `a` on every layer and at freeze, so it hashes `a` once, at bind.
    fn engine_a(config: &AccelConfig, a: &Csc) -> Result<ShardedEngine, AccelError> {
        let Some(dir) = &config.store else {
            return Ok(ShardedEngine::new(config.clone()).trusted());
        };
        let budget = config.host_mem_budget.unwrap_or(DEFAULT_HOST_MEM_BUDGET);
        let engine = if SparseStore::exists(dir) {
            ShardedEngine::open_stored(config.clone(), dir, budget)?
        } else {
            // Aim for ≥ 4 chunks per half-budget shard window: a chunk's
            // resident bytes (~8 B/nnz) stay under 1/8 of the budget, so
            // chunk_nnz ≤ budget / 64, capped at the format default.
            let chunk_nnz = (budget / 64).clamp(1, awb_sparse::store::DEFAULT_CHUNK_NNZ);
            let store = SparseStore::write_with_chunk_nnz(dir, a, chunk_nnz).map_err(store_err)?;
            ShardedEngine::stored(config.clone(), Arc::new(store), budget)?
        };
        Ok(engine.trusted())
    }

    /// Warms up `A`'s engine for the configured source and freezes it. A
    /// resident sharded prepare runs behind `catch_unwind`, so a
    /// panicking shard worker (or the fault harness's `prepare:sharded`
    /// site) surfaces as a typed error the caller can degrade on instead
    /// of unwinding through the service.
    fn prepare_a(
        config: &AccelConfig,
        input: &GcnInput,
        time_xw: bool,
    ) -> Result<(ShardedPlan, GcnRunOutcome), AccelError> {
        let warm_up = || {
            let a = &input.a_norm_csc;
            let mut engine_a = Self::engine_a(config, a)?;
            let outcome = run_layers(config, &input.weights, &input.x1, time_xw, |b, label| {
                engine_a.run_detailed(a, b, label)
            })?;
            Ok((engine_a.freeze_plan(a)?, outcome))
        };
        if !Self::resident_sharded(config) {
            return warm_up();
        }
        std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            if let Some(faults) = config.faults {
                // Any fault kind at this site means "the sharded prepare
                // dies": exercised as a panic so the recovery path under
                // test is the real catch_unwind boundary.
                if faults.decide("prepare:sharded", 0).is_some() {
                    panic!("injected fault: sharded prepare");
                }
            }
            warm_up()
        }))
        .unwrap_or_else(|payload| {
            Err(AccelError::WorkerPanicked {
                site: "prepare:sharded".into(),
                message: crate::exec::panic_message(payload.as_ref()),
            })
        })
    }
}

/// A prepared per-graph inference plan: everything that is a function of
/// the graph and the model — the normalized adjacency, the layer weights,
/// and the frozen `A`-side tuning state (one [`ShardedPlan`]: a frozen
/// [`FastEngine`](crate::FastEngine) per shard, resident or stored) — none
/// of what is a function of a request. Produced by
/// [`GcnRunner::prepare`]; executed per request by [`GcnPlan::run`].
/// Shareable: `&GcnPlan` may serve concurrent requests (see the plan
/// concurrency contract in `DESIGN.md` §6/§7).
#[derive(Debug, Clone)]
pub struct GcnPlan {
    config: AccelConfig,
    a_norm_csc: Csc,
    weights: Vec<DenseMatrix>,
    a_plan: ShardedPlan,
    /// `Some(reason)` when a failing sharded prepare degraded to this
    /// unsharded plan (see [`GcnPlan::degraded`]).
    degraded: Option<String>,
    /// The cost model's resolution when the plan was prepared under
    /// [`StrategyPolicy::Auto`] (see [`GcnPlan::auto_decision`]).
    auto: Option<AutoDecision>,
}

impl GcnPlan {
    /// The configuration the plan was built under — per-request execution
    /// replays exactly what the warm-up ran. For a plan prepared under
    /// [`StrategyPolicy::Auto`] this is the *resolved* configuration (the
    /// cost model's winning knobs, strategy set back to `Manual`); for a
    /// [`degraded`](GcnPlan::degraded) plan its `shards` is
    /// [`ShardPolicy::Single`].
    pub fn config(&self) -> &AccelConfig {
        &self.config
    }

    /// The cost model's resolution when the plan was prepared under
    /// [`StrategyPolicy::Auto`]: the design, the `A` and `X` layouts and
    /// the predicted cycles of the plan that was built. `None` for a
    /// `Manual` prepare. When [`degraded`](GcnPlan::degraded) is also set,
    /// its `shards` is [`ShardPolicy::Single`] and its prediction is
    /// [`cost::predict_config_cycles`] for [`config`](GcnPlan::config).
    pub fn auto_decision(&self) -> Option<&AutoDecision> {
        self.auto.as_ref()
    }

    /// The normalized adjacency the plan serves (CSC).
    pub fn graph(&self) -> &Csc {
        &self.a_norm_csc
    }

    /// The model's layer weights.
    pub fn weights(&self) -> &[DenseMatrix] {
        &self.weights
    }

    /// Number of layers.
    pub fn layers(&self) -> usize {
        self.weights.len()
    }

    /// The frozen one-shard resident plan for `A`, when the plan was
    /// prepared resident under [`ShardPolicy::Single`] (`None` otherwise —
    /// see [`sharded_plan`](GcnPlan::sharded_plan) and
    /// [`streamed_plan`](GcnPlan::streamed_plan)). Its one shard covers
    /// all of `A` on a single device, and its
    /// [`session`](ShardedPlan::session) reports exactly that device's
    /// statistics (a one-shard merge is the shard's own).
    pub fn plan_a(&self) -> Option<&ShardedPlan> {
        let single = self.a_plan.config().shards == ShardPolicy::Single;
        (single && self.a_plan.store().is_none()).then_some(&self.a_plan)
    }

    /// The frozen per-shard plans for `A`, when the plan was prepared
    /// resident under a sharded policy.
    pub fn sharded_plan(&self) -> Option<&ShardedPlan> {
        let sharded = self.a_plan.config().shards != ShardPolicy::Single;
        (sharded && self.a_plan.store().is_none()).then_some(&self.a_plan)
    }

    /// The frozen per-shard plans for `A`, when the plan streams `A` from
    /// a configured store.
    pub fn streamed_plan(&self) -> Option<&ShardedPlan> {
        self.a_plan.store().is_some().then_some(&self.a_plan)
    }

    /// The most recent pass's streaming statistics (resident peak, I/O
    /// bytes, read and compute wall time), when this plan streams `A`
    /// from a store.
    /// `None` for resident plans. Under concurrent requests this is
    /// whichever pass finished last; each request's own pass is in its
    /// [`GcnRunOutcome::stream`].
    pub fn stream_stats(&self) -> Option<StreamStats> {
        self.a_plan.stream_stats()
    }

    /// Why the plan was degraded: `Some(reason)` when the configured
    /// sharded prepare failed and the runner fell back to this unsharded
    /// plan (outputs stay bit-identical; only the simulated device count
    /// changes). `None` for a plan prepared exactly as configured.
    pub fn degraded(&self) -> Option<&str> {
        self.degraded.as_deref()
    }

    /// Number of `A`-side shard devices (1 when unsharded).
    pub fn shard_count(&self) -> usize {
        self.a_plan.shard_count()
    }

    /// Auto-tuning rounds the warm-up spent before freezing (summed over
    /// shards when sharded).
    pub fn tuning_rounds(&self) -> usize {
        self.a_plan.tuning_rounds()
    }

    /// Rows exchanged by remote switching during the warm-up (summed over
    /// shards when sharded).
    pub fn total_switches(&self) -> u64 {
        self.a_plan.total_switches()
    }

    /// Steady-state rounds served from the shared replay cache(s).
    pub fn replay_hits(&self) -> u64 {
        self.a_plan.replay_hits()
    }

    /// Steady-state rounds that had to be simulated (and were memoized).
    pub fn replay_misses(&self) -> u64 {
        self.a_plan.replay_misses()
    }

    /// Estimated heap bytes this plan keeps resident while cached: the
    /// normalized adjacency (CSC arrays), the layer weights, and the
    /// frozen `A`-side tuning state (row maps + replay caches, plus the
    /// column-slice patterns of resident shards that do not span all of
    /// `A` — so a `Fixed(1)` plan costs what a `Single` one does). The
    /// serving front-end
    /// evicts against a budget over these estimates — they track the
    /// dominant arrays, not allocator-exact overheads, which is all a
    /// relative LRU budget needs.
    pub fn memory_bytes(&self) -> u64 {
        let weights: u64 = self.weights.iter().map(|w| w.heap_bytes() as u64).sum();
        self.a_norm_csc.heap_bytes() as u64 + weights + self.a_plan.memory_bytes()
    }

    /// True when `input` carries the same graph (`A`'s structure exactly,
    /// and its values bit for bit) and the same weights this plan was
    /// prepared for. No hash is taken, so no collision can match.
    pub fn matches(&self, input: &GcnInput) -> bool {
        // Equal structures have equal nnz, so the zip covers every value.
        let values = self
            .a_norm_csc
            .values()
            .iter()
            .zip(input.a_norm_csc.values());
        self.a_norm_csc.pattern() == input.a_norm_csc.pattern()
            && values.fold(true, |eq, (a, b)| eq & (a.to_bits() == b.to_bits()))
            && self.weights == input.weights
    }

    /// Executes one feature-matrix request against the shared plan: same
    /// schedule as [`GcnRunner::run`], but `A × (XW)` executes through a
    /// session on the frozen plan(s) — no tuning rounds, replay cache(s)
    /// warm. `X × W` still runs fresh per layer (X is request state), on
    /// one device or across `combination_shards` devices. Output features
    /// are bit-identical to a cold run on the same input, sharded on
    /// either axis or not (the numerics never depend on the row map, and
    /// the sharded merges are pinned to the unsharded addition order).
    ///
    /// # Errors
    ///
    /// Propagates shape errors when `x1` does not match the graph/weights.
    pub fn run(&self, x1: &Csr) -> Result<GcnRunOutcome, AccelError> {
        // The plan owns the adjacency the inner plan was built from, so
        // the session can skip the per-layer O(nnz) fingerprint re-hash.
        let session = self.a_plan.session_trusted();
        run_layers(&self.config, &self.weights, x1, true, |b, label| {
            session.run_detailed(&self.a_norm_csc, b, label)
        })
    }

    /// [`run`](GcnPlan::run) for a full [`GcnInput`], first validating it
    /// is the graph/model this plan was prepared for.
    ///
    /// # Errors
    ///
    /// Returns [`AccelError::InvalidConfig`] when the input's graph or
    /// weights differ from the prepared ones.
    pub fn run_input(&self, input: &GcnInput) -> Result<GcnRunOutcome, AccelError> {
        if !self.matches(input) {
            return Err(AccelError::InvalidConfig(
                "input graph/weights do not match the prepared plan".into(),
            ));
        }
        self.run(&input.x1)
    }
}

/// Cross-checks an accelerator outcome against the software reference.
///
/// Returns the maximum absolute difference on success.
///
/// # Errors
///
/// Returns [`AccelError::VerificationFailed`] when the difference exceeds
/// `tol`, or a shape error if the reference pass fails.
pub fn verify_against_reference(
    input: &GcnInput,
    outcome: &GcnRunOutcome,
    tol: f32,
) -> Result<f32, AccelError> {
    let reference = GcnModel::with_layers(input.layers())
        .forward(input)
        .map_err(AccelError::Shape)?;
    let diff = outcome
        .output
        .max_abs_diff(&reference.output)
        .map_err(AccelError::Shape)?;
    if diff > tol {
        return Err(AccelError::VerificationFailed {
            label: "gcn_output".into(),
            max_diff: format!("{diff}"),
        });
    }
    Ok(diff)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::Design;
    use awb_datasets::{DatasetSpec, GeneratedDataset};

    fn small_input(nodes: usize, seed: u64) -> GcnInput {
        let data =
            GeneratedDataset::generate(&DatasetSpec::cora().with_nodes(nodes), seed).unwrap();
        GcnInput::from_dataset(&data).unwrap()
    }

    fn config(n_pes: usize) -> AccelConfig {
        AccelConfig::builder().n_pes(n_pes).build().unwrap()
    }

    #[test]
    fn output_matches_software_reference() {
        let input = small_input(192, 3);
        for design in [Design::Baseline, Design::LocalPlusRemote { hop: 2 }] {
            let outcome = GcnRunner::new(design.apply(config(32)))
                .run(&input)
                .unwrap();
            let diff = verify_against_reference(&input, &outcome, 1e-3).unwrap();
            assert!(diff <= 1e-3, "{design:?}: diff {diff}");
        }
    }

    #[test]
    fn stats_structure() {
        let input = small_input(128, 4);
        let outcome = GcnRunner::new(config(16)).run(&input).unwrap();
        assert_eq!(outcome.stats.layers.len(), 2);
        assert_eq!(outcome.stats.spmms().len(), 4);
        assert_eq!(outcome.stats.spmms()[0].label, "L1:X*W");
        assert_eq!(outcome.stats.spmms()[3].label, "L2:A*(XW)");
        assert!(outcome.stats.total_cycles() > 0);
        assert!(outcome.latency_ms(275.0) > 0.0);
    }

    #[test]
    fn layer2_reuses_tuned_a_map() {
        let input = small_input(256, 5);
        let outcome = GcnRunner::new(Design::LocalPlusRemote { hop: 1 }.apply(config(32)))
            .run(&input)
            .unwrap();
        // Tuning happened in layer 1's A*(XW); by layer 2 it is frozen.
        let l1_tuning = outcome.stats.layers[0].a_xw.tuning_rounds();
        let l2_tuning = outcome.stats.layers[1].a_xw.tuning_rounds();
        assert!(l1_tuning > 0, "layer 1 should tune");
        assert_eq!(l2_tuning, 0, "layer 2 must reuse the frozen map");
    }

    #[test]
    fn plan_rejects_foreign_input() {
        let input = small_input(128, 14);
        let other = small_input(128, 15); // different graph, same shapes
        let (plan, _) = GcnRunner::new(config(16)).prepare(&input).unwrap();
        assert!(!plan.matches(&other));
        assert!(matches!(
            plan.run_input(&other),
            Err(AccelError::InvalidConfig(_))
        ));
    }

    #[test]
    fn x2_density_recorded() {
        let input = small_input(128, 6);
        let outcome = GcnRunner::new(config(16)).run(&input).unwrap();
        assert_eq!(outcome.x_density.len(), 2);
        assert!(outcome.x_density[0] < 0.2, "X1 is sparse");
        assert!(outcome.x_density[1] > 0.3, "X2 is ReLU-dense");
    }

    #[test]
    fn pipelining_reduces_or_preserves_cycles() {
        let input = small_input(128, 7);
        let piped = GcnRunner::new(config(16)).run(&input).unwrap();
        let mut cfg = config(16);
        cfg.pipeline_spmms = false;
        let seq = GcnRunner::new(cfg).run(&input).unwrap();
        assert!(piped.stats.total_cycles() <= seq.stats.total_cycles());
        for layer in &piped.stats.layers {
            assert!(layer.pipelined_cycles <= layer.sequential_cycles());
            // Pipelining can never beat either stage alone.
            assert!(
                layer.pipelined_cycles >= layer.xw.total_cycles().max(layer.a_xw.total_cycles())
            );
        }
    }

    #[test]
    fn rebalanced_run_is_faster_on_skewed_graph() {
        // Nell-like clustering at small scale.
        let data = GeneratedDataset::generate(&DatasetSpec::nell().with_nodes(512), 8).unwrap();
        let input = GcnInput::from_dataset(&data).unwrap();
        let base = GcnRunner::new(Design::Baseline.apply(config(64)))
            .run(&input)
            .unwrap();
        let tuned = GcnRunner::new(Design::LocalPlusRemote { hop: 2 }.apply(config(64)))
            .run(&input)
            .unwrap();
        assert!(
            tuned.stats.total_cycles() < base.stats.total_cycles(),
            "base {} tuned {}",
            base.stats.total_cycles(),
            tuned.stats.total_cycles()
        );
        assert!(tuned.stats.avg_utilization() > base.stats.avg_utilization());
    }

    #[test]
    fn sharded_stats_report_total_pes() {
        use crate::config::ShardPolicy;
        let input = small_input(128, 17);
        let mut cfg = Design::LocalPlusRemote { hop: 1 }.apply(config(16));
        cfg.shards = ShardPolicy::Fixed(4);
        let outcome = GcnRunner::new(cfg).run(&input).unwrap();
        for layer in &outcome.stats.layers {
            // A × (XW) merges 4 shard devices; X × W stays single-device.
            assert_eq!(layer.a_xw.n_pes, 64);
            assert_eq!(layer.xw.n_pes, 16);
        }
        let util = outcome.stats.avg_utilization();
        assert!(util > 0.0 && util <= 1.0);
    }

    #[test]
    fn streamed_prepare_rejects_store_holding_a_different_graph() {
        let input = small_input(128, 22);
        let other = small_input(128, 23);
        let dir = std::env::temp_dir().join(format!(
            "awb-gcnrun-foreign-store-{}-{:?}",
            std::process::id(),
            std::thread::current().id()
        ));
        let _ = std::fs::remove_dir_all(&dir);
        // Ingest `other`'s adjacency, then point `input`'s run at it.
        awb_sparse::store::SparseStore::write(&dir, &other.a_norm_csc).unwrap();
        let mut cfg = config(16);
        cfg.store = Some(dir.clone());
        let err = GcnRunner::new(cfg).run(&input).unwrap_err();
        assert!(matches!(err, AccelError::InvalidConfig(_)), "{err}");
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn version_1_store_is_rejected_not_re_ingested() {
        let input = small_input(128, 24);
        let dir = std::env::temp_dir().join(format!(
            "awb-gcnrun-v1-store-{}-{:?}",
            std::process::id(),
            std::thread::current().id()
        ));
        let _ = std::fs::remove_dir_all(&dir);
        awb_sparse::store::SparseStore::write(&dir, &input.a_norm_csc).unwrap();
        let manifest = dir.join("manifest.json");
        let text = std::fs::read_to_string(&manifest).unwrap();
        let v1 = text.replace("\"version\": 2,", "\"version\": 1,");
        assert_ne!(v1, text);
        std::fs::write(&manifest, &v1).unwrap();
        let mut cfg = config(16);
        cfg.store = Some(dir.clone());
        let err = GcnRunner::new(cfg).run(&input).unwrap_err();
        assert!(matches!(err, AccelError::InvalidInput(_)), "{err}");
        assert_eq!(std::fs::read_to_string(&manifest).unwrap(), v1);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn overflowed_hidden_features_keep_nan_positions() {
        // Regression: the inter-layer hop kept `|v| > 0.0`, which is false
        // for NaN, so a NaN born in layer 1 was silently zeroed before
        // layer 2 while the reference forward propagated it. Finite but
        // huge features on one node overflow X1 × W1 to ±inf, `inf − inf`
        // turns to NaN, and both paths must carry it to the same outputs.
        let mut input = small_input(128, 31);
        let hot = (0..input.x1.rows())
            .max_by_key(|&r| input.x1.row_nnz(r))
            .unwrap();
        let x1 = &input.x1;
        let values: Vec<f32> = (0..x1.rows())
            .flat_map(|r| x1.row_entries(r).map(move |(_, v)| (r, v)))
            .map(|(r, v)| if r == hot { v * 1e30 } else { v })
            .collect();
        input.x1 = Csr::from_parts(
            x1.rows(),
            x1.cols(),
            x1.row_ptr().to_vec(),
            x1.col_idx().to_vec(),
            values,
        )
        .unwrap();
        let w1 = &input.weights[0];
        let scaled: Vec<f32> = w1.as_slice().iter().map(|v| v * 1e30).collect();
        input.weights[0] = DenseMatrix::from_vec(w1.rows(), w1.cols(), scaled).unwrap();
        assert!(input.x1.values().iter().all(|v| v.is_finite()));

        let reference = GcnModel::with_layers(2).forward(&input).unwrap();
        let nan_mask = |m: &DenseMatrix| m.as_slice().iter().map(|v| v.is_nan()).collect();
        let expected: Vec<bool> = nan_mask(&reference.output);
        assert!(expected.contains(&true), "the fixture must produce NaN");
        assert!(expected.contains(&false), "and leave some outputs finite");
        let runner = GcnRunner::new(Design::LocalPlusRemote { hop: 2 }.apply(config(32)));
        let cold = runner.run(&input).unwrap();
        assert_eq!(nan_mask(&cold.output), expected);
        let (plan, _) = runner.prepare(&input).unwrap();
        assert_eq!(nan_mask(&plan.run(&input.x1).unwrap().output), expected);
    }

    /// An X1 one column wider than W1 is a typed shape error from every
    /// entry point, sequential or forked: each layer checks its shapes
    /// before the row kernel (which would panic on them) runs. So is a W2
    /// one row taller than X2 is wide, which fails at layer 2, after
    /// layer 1 ran.
    #[test]
    fn shape_errors_stay_typed() {
        let input = small_input(128, 40);
        let x1 = &input.x1;
        let wide = Csr::from_parts(
            x1.rows(),
            x1.cols() + 1,
            x1.row_ptr().to_vec(),
            x1.col_idx().to_vec(),
            x1.values().to_vec(),
        )
        .unwrap();
        let mismatch = |x: (usize, usize), w: (usize, usize)| {
            format!(
                "operand shape error: dimension mismatch in spmm_engine: {}x{} vs {}x{}",
                x.0, x.1, w.0, w.1
            )
        };
        let w1 = input.weights[0].shape();
        let expected = mismatch(wide.shape(), w1);
        let mut bad = input.clone();
        bad.x1 = wide.clone();
        let w2 = input.weights[1].shape();
        let mut tall = input.clone();
        tall.weights[1] = DenseMatrix::zeros(w2.0 + 1, w2.1);
        let expected_l2 = mismatch((x1.rows(), w1.1), (w2.0 + 1, w2.1));
        for threads in [Some(1), Some(2)] {
            let mut cfg = Design::LocalPlusRemote { hop: 1 }.apply(config(16));
            cfg.threads = threads;
            let runner = GcnRunner::new(cfg);
            let (plan, _) = runner.prepare(&input).unwrap();
            let errors = [
                ("run", runner.run(&bad).err(), &expected),
                ("prepare", runner.prepare(&bad).err(), &expected),
                ("plan run", plan.run(&wide).err(), &expected),
                ("layer-2 run", runner.run(&tall).err(), &expected_l2),
                ("layer-2 prepare", runner.prepare(&tall).err(), &expected_l2),
            ];
            for (entry, err, expected) in errors {
                let err = err.unwrap_or_else(|| panic!("{entry} at {threads:?} accepted it"));
                assert!(matches!(err, AccelError::Shape(_)), "{entry}: {err}");
                assert_eq!(&err.to_string(), expected, "{entry} at {threads:?}");
            }
        }
    }

    /// Everything a caller can observe of a cold run, a prepare and a plan
    /// run: stats, densities, output bits and the prepare report's tuning
    /// fields.
    type Observed = Vec<(RunStats, Vec<f64>, Vec<u32>, [u64; 4])>;

    fn observe(config: &AccelConfig, input: &GcnInput) -> Observed {
        let bits = |m: &DenseMatrix| m.as_slice().iter().map(|v| v.to_bits()).collect();
        let seen = |o: GcnRunOutcome, tuning| (o.stats, o.x_density, bits(&o.output), tuning);
        let cold = GcnRunner::new(config.clone()).run(input).unwrap();
        let mut service = crate::GcnService::new(config.clone());
        let report = service.prepare("g", input).unwrap();
        let tuning = [
            report.tuning_rounds as u64,
            report.total_switches,
            report.shards as u64,
            report.combination_shards as u64,
        ];
        let warm = service.plan("g").unwrap().run(&input.x1).unwrap();
        vec![
            seen(cold, [0; 4]),
            seen(report.warmup, tuning),
            seen(warm, [0; 4]),
        ]
    }

    /// Running each layer's X × W timing beside its numerics (a caller
    /// that may fan out) changes nothing observable against the
    /// sequential order (`Some(1)`, or inside a `par_map` worker), and the
    /// sequential settings spawn no thread.
    #[test]
    fn overlap_changes_nothing_observable() {
        let input = small_input(160, 41);
        let store = std::env::temp_dir().join(format!(
            "awb-gcnrun-overlap-{}-{:?}",
            std::process::id(),
            std::thread::current().id()
        ));
        let _ = std::fs::remove_dir_all(&store);
        let base = Design::LocalPlusRemote { hop: 2 }.apply(config(16));
        let mut xw_sharded = base.clone();
        xw_sharded.combination_shards = ShardPolicy::Fixed(2);
        let mut stored = base.clone();
        stored.store = Some(store.clone());
        stored.host_mem_budget = Some(input.a_norm_csc.heap_bytes() / 3);
        for (name, cfg) in [
            ("resident", base),
            ("xw Fixed(2)", xw_sharded),
            ("stored", stored),
        ] {
            let with = |threads| AccelConfig {
                threads,
                ..cfg.clone()
            };
            let spawned = exec::spawned_here();
            let sequential = observe(&with(Some(1)), &input);
            assert_eq!(exec::spawned_here(), spawned, "{name}: Some(1) spawned");
            assert_eq!(
                observe(&with(Some(2)), &input),
                sequential,
                "{name}: Some(2)"
            );
            let in_worker = exec::par_map_threads(2, &[true, false], |&work| {
                assert_eq!(exec::num_threads(), 1, "runs on a worker");
                let spawned = exec::spawned_here();
                let seen = work.then(|| observe(&with(Some(2)), &input));
                (seen, exec::spawned_here() - spawned)
            });
            let (seen, spawned) = in_worker
                .into_iter()
                .find(|(seen, _)| seen.is_some())
                .unwrap();
            assert_eq!(spawned, 0, "{name}: the in-worker run spawned");
            assert_eq!(seen.unwrap(), sequential, "{name}: in a worker");
        }
        std::fs::remove_dir_all(&store).unwrap();
    }

    #[test]
    fn verification_rejects_corrupted_output() {
        let input = small_input(96, 9);
        let mut outcome = GcnRunner::new(config(16)).run(&input).unwrap();
        outcome.output.set(0, 0, 1e6);
        assert!(matches!(
            verify_against_reference(&input, &outcome, 1e-3),
            Err(AccelError::VerificationFailed { .. })
        ));
    }
}
