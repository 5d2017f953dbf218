//! The shard pipeline for `A`: one rebalanced PE array per column shard,
//! each shard read from a resident slice or from an on-disk store.
//!
//! `A × B = Σ_s A[:, lo_s..hi_s] × B[lo_s..hi_s, :]`: each contiguous
//! column shard of the sparse operand is an independent sub-multiply that
//! runs on its own simulated accelerator — its own row→PE map,
//! auto-tuner, and replay cache, so a skewed shard converges to its own
//! distribution instead of inheriting a global compromise. A single
//! device is the one-shard case of the same pipeline.
//!
//! # Shard sources
//!
//! Every shard of an engine or plan reads its part of `A` from one of two
//! sources (`DESIGN.md` §7/§13):
//!
//! * **Resident** — shards are cut nnz-balanced by the configuration's
//!   [`ColumnPartitioner`] and hold their column-slice *pattern* (values
//!   are never read), or nothing at all when one shard spans the whole
//!   operand. Shards fan out concurrently on [`exec`]; the merged
//!   numerics run [`compute_columns`] on the caller's `A`.
//! * **Stored** — shards are chunk-aligned ranges of a
//!   [`SparseStore`], each sized to half the host-memory budget, and are
//!   read on every pass: one at a time in ascending column order, each
//!   accumulated straight into the output and dropped before the next is
//!   read (the `streaming` module). The pass reports its [`StreamStats`].
//!
//! The numerics path follows the source; nothing else differs.
//!
//! # Merge determinism
//!
//! Merged *numerics* are computed through the same global-order column
//! stream the single-device kernel uses, so sharded outputs are
//! **bit-identical** to unsharded runs by construction — summing collapsed
//! f32 shard partials would regroup the per-row addition chains and drift
//! in the last ulp. A physical multi-device merge unit achieves the same
//! determinism by accumulating shard partial products in stream order;
//! the simulator realizes that pinned order directly. Shard members
//! therefore run **values-free** (timing-only — see
//! [`FastEngine::run_timing`]): the partial numerics the merge would
//! discard are never computed. Timing is a pure function of each round's
//! non-zero pattern, so shard statistics are bit-identical to what a
//! values-carrying shard run would report (pinned by the stats-equality
//! tests below).
//!
//! # Stats semantics
//!
//! Shards run in parallel and the merge of round `k` completes when the
//! slowest shard finishes round `k` (the merge itself is pipelined behind
//! shard execution). Merged per-round cycles are therefore the **max**
//! over shards (the critical path); tasks/busy/stalls **sum**; the PE
//! count is the **total** across shard devices, so merged utilization is
//! `Σ busy / (critical-path cycles × total PEs)` — idle devices waiting
//! on the slowest shard honestly depress it. Shards whose stats report
//! fewer rounds than the longest shard are padded with empty (all-zero)
//! rounds, so unequal per-shard round counts merge without panic or
//! truncation. With one shard the merged view is exactly that device's
//! statistics. [`ShardedOutcome`] keeps the per-shard stats alongside the
//! merged view.

use crate::config::AccelConfig;
use crate::engine::steady::{column_runs, compute_columns, structure_fingerprint, ColumnRun};
use crate::engine::streaming::{
    plan_stream_shards, store_err, stream_pass, verify_operand, StreamStats,
};
use crate::engine::{check_shapes, FastEngine, SpmmEngine, SpmmOutcome};
use crate::error::AccelError;
use crate::exec;
use crate::stats::{RoundStats, SpmmStats};
use awb_sparse::partition::ColumnPartitioner;
use awb_sparse::store::SparseStore;
use awb_sparse::{Csc, CscPattern, DenseMatrix};
use std::ops::Range;
use std::sync::{Arc, Mutex, MutexGuard, PoisonError};

/// Result of one sharded SPMM: the merged (critical-path) outcome plus
/// each shard's own statistics.
#[derive(Debug, Clone)]
pub struct ShardedOutcome {
    /// Merged view: output `C` (bit-identical to an unsharded run) and
    /// critical-path statistics over the total PE count.
    pub outcome: SpmmOutcome,
    /// Per-shard statistics, in shard (ascending column) order.
    pub per_shard: Vec<SpmmStats>,
    /// This pass's streaming statistics when the shards are stored;
    /// `None` for resident shards.
    pub stream: Option<StreamStats>,
}

/// Merges per-shard SPMM statistics into the critical-path view (see the
/// module docs for the exact semantics).
pub(crate) fn merge_stats(label: &str, per_shard: &[SpmmStats]) -> SpmmStats {
    let n_pes: usize = per_shard.iter().map(|s| s.n_pes).sum();
    // Shards may report unequal round counts (e.g. per-shard tuning that
    // converged at different columns, or a degenerate empty shard): merge
    // over the *max*, padding exhausted shards with an empty round —
    // their device is idle, so it contributes nothing but a 0 to the
    // min-busy floor. Sizing from the first shard instead would panic on
    // a longer shard or silently drop its trailing rounds.
    let n_rounds = per_shard.iter().map(|s| s.rounds.len()).max().unwrap_or(0);
    let empty = RoundStats {
        cycles: 0,
        tasks: 0,
        busy_cycles: 0,
        max_pe_busy: 0,
        min_pe_busy: 0,
        max_queue_depth: 0,
        raw_stalls: 0,
        tuning_active: false,
    };
    let mut rounds = Vec::with_capacity(n_rounds);
    for r in 0..n_rounds {
        let mut merged = RoundStats {
            min_pe_busy: u64::MAX,
            ..empty
        };
        for s in per_shard {
            let rs = s.rounds.get(r).unwrap_or(&empty);
            merged.cycles = merged.cycles.max(rs.cycles);
            merged.tasks += rs.tasks;
            merged.busy_cycles += rs.busy_cycles;
            merged.max_pe_busy = merged.max_pe_busy.max(rs.max_pe_busy);
            merged.min_pe_busy = merged.min_pe_busy.min(rs.min_pe_busy);
            merged.max_queue_depth = merged.max_queue_depth.max(rs.max_queue_depth);
            merged.raw_stalls += rs.raw_stalls;
            merged.tuning_active |= rs.tuning_active;
        }
        if merged.min_pe_busy == u64::MAX {
            merged.min_pe_busy = 0;
        }
        rounds.push(merged);
    }
    // Per-PE queue high-water marks concatenate across shard devices, so
    // the area model's total-TQ-slots sum spans the whole deployment.
    let queue_high_water = per_shard
        .iter()
        .flat_map(|s| s.queue_high_water.iter().copied())
        .collect();
    SpmmStats {
        label: label.to_owned(),
        n_pes,
        rounds,
        queue_high_water,
    }
}

/// Timing of one SPMM across the column shards `partitioner` cuts from
/// `a`'s structure: one fresh timing-only device per shard, stats merged
/// by [`merge_stats`]. The transient counterpart of [`ShardedEngine`] for
/// the GCN layers' `X × W`, whose numerics run row-major and whose devices
/// are never frozen into a plan — so shards are the pattern's column
/// slices and no slice of `X`'s values exists. Each device is dropped
/// after its call, so only that call's own steady phase replays its cache
/// and no structure fingerprint is taken. Statistics equal a
/// [`ShardedEngine`] run on the same operand. A cut of one shard
/// (`is_single` is O(1)) times `a` itself on one device: no partition
/// scan and no column-slice copy, and a one-shard merge is that shard's
/// stats.
pub(crate) fn shard_timing(
    config: &AccelConfig,
    partitioner: ColumnPartitioner,
    a: &CscPattern,
    b: &DenseMatrix,
    label: &str,
) -> Result<SpmmStats, AccelError> {
    check_shapes(a.shape(), b)?;
    let time = |a: &CscPattern, rows: Range<usize>| {
        let runs = column_runs(b, rows);
        FastEngine::new(config.clone()).time_runs(a, runs, label)
    };
    if partitioner.is_single(a) {
        return time(a, 0..b.rows());
    }
    let threads = config.threads.unwrap_or_else(exec::num_threads);
    let per_shard = resident_cut(partitioner, a, threads, |cols, _, slice| {
        time(slice.as_ref().unwrap_or(a), cols)
    });
    let per_shard = per_shard.into_iter().collect::<Result<Vec<_>, _>>()?;
    Ok(merge_stats(label, &per_shard))
}

/// The resident cut of `a`, the one rule resident shards follow:
/// `shard(cols, nnz, slice)` builds each of `partitioner`'s column shards
/// in ascending order, on up to `threads` workers, or one degenerate
/// shard when `a` has no columns (so round accounting still mirrors the
/// single device). `slice` is the shard's column-slice pattern, built as
/// its shard is, and `None` for a shard spanning all of `a`: that shard
/// reads `a` itself.
fn resident_cut<S: Send>(
    partitioner: ColumnPartitioner,
    a: &CscPattern,
    threads: usize,
    shard: impl Fn(Range<usize>, usize, Option<CscPattern>) -> S + Sync,
) -> Vec<S> {
    let whole = 0..a.cols();
    let mut cuts: Vec<_> = partitioner
        .partition(a)
        .into_iter()
        .map(|shard| (shard.cols, shard.nnz))
        .collect();
    if cuts.is_empty() {
        cuts.push((whole.clone(), 0));
    }
    exec::par_map_threads(threads, &cuts, |(cols, nnz)| {
        let slice = (*cols != whole).then(|| a.col_range(cols.clone()));
        shard(cols.clone(), *nnz, slice)
    })
}

/// Where every shard of an engine or plan reads its part of `A` from.
#[derive(Debug, Clone)]
enum ShardSource {
    /// In memory: each shard holds its column-slice pattern (none when it
    /// spans the whole operand) and the merge runs on the caller's `A`.
    Resident,
    /// Chunk-aligned column ranges read from the store on every pass.
    Stored(Arc<SparseStore>),
}

/// The operand an engine or plan is bound to: shape, nnz and structure
/// fingerprint. Shards are valid for exactly one sparsity structure.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct Operand {
    rows: usize,
    cols: usize,
    nnz: usize,
    fingerprint: u64,
}

impl Operand {
    fn of(a: &Csc) -> Self {
        Operand {
            rows: a.rows(),
            cols: a.cols(),
            nnz: a.nnz(),
            fingerprint: structure_fingerprint(a.pattern()),
        }
    }
}

/// One column shard of a [`ShardedEngine`] or [`ShardedPlan`]: its column
/// range, its non-zeros, and the [`FastEngine`] that times it — tuning-live
/// behind a lock, or frozen and shared ([`PlanShard`]).
#[derive(Debug, Clone)]
pub struct Shard<D> {
    pub(crate) cols: Range<usize>,
    nnz: usize,
    /// The resident column-slice pattern, shared between an engine and
    /// the plans frozen from it. `None` when the shard spans the whole
    /// resident operand (members read the caller's `A`, no copy) or is
    /// stored (read from the store on every pass).
    slice: Option<Arc<CscPattern>>,
    pub(crate) device: D,
}

/// One frozen shard of a [`ShardedPlan`].
pub type PlanShard = Shard<FastEngine>;

impl<D> Shard<D> {
    /// The shard's column range in the full operand.
    pub fn cols(&self) -> Range<usize> {
        self.cols.clone()
    }

    /// Non-zeros in the shard.
    pub fn nnz(&self) -> usize {
        self.nnz
    }
}

impl PlanShard {
    /// The shard's frozen engine: its row map, replay cache and warm-up
    /// record.
    pub fn plan(&self) -> &FastEngine {
        &self.device
    }
}

/// Poison-recovering lock. Sound for the same reason as `ReplayCache`: a
/// shard engine's replayable state (frozen map + memoized timings) and a
/// plan's last-pass stats are only ever mutated in complete units, so the
/// post-panic state a recovering lock observes is a consistent prefix of
/// finished work — an isolated request's panic must not brick the other
/// tenants' shards.
fn lock<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    m.lock().unwrap_or_else(PoisonError::into_inner)
}

/// The most recent stored pass's statistics on a plan (sessions run with
/// `&self`, hence the mutex; last writer wins).
#[derive(Debug)]
struct LastPass(Mutex<Option<StreamStats>>);

impl Clone for LastPass {
    fn clone(&self) -> Self {
        LastPass(Mutex::new(*lock(&self.0)))
    }
}

/// Simulates one shard's timing on its device from the shard's pattern
/// and the dense operand's column runs over the shard's rows of `B`.
pub(crate) type TimeShard<'f, D> =
    dyn Fn(&D, &CscPattern, Vec<ColumnRun>) -> Result<SpmmStats, AccelError> + Sync + 'f;

/// Runs one request over `shards` — `time` simulates a shard's timing on
/// its device — and merges it. The numerics path follows the source:
/// resident shards fan out and the merge runs `compute_columns` on `a`;
/// stored shards run the sequential streaming pass.
fn run_pass<D: Sync>(
    source: &ShardSource,
    shards: &[Shard<D>],
    a: &Csc,
    b: &DenseMatrix,
    label: &str,
    threads: Option<usize>,
    time: &TimeShard<'_, D>,
) -> Result<ShardedOutcome, AccelError> {
    let (c, per_shard, stream) = match source {
        ShardSource::Stored(store) => {
            let (c, per_shard, stream) = stream_pass(store, shards, b, time)?;
            (c, per_shard, Some(stream))
        }
        ShardSource::Resident => {
            let workers = threads.unwrap_or_else(exec::num_threads);
            let results = exec::par_map_threads(workers, shards, |shard| {
                let runs = column_runs(b, shard.cols.clone());
                time(
                    &shard.device,
                    shard.slice.as_deref().unwrap_or(a.pattern()),
                    runs,
                )
            });
            let per_shard = results.into_iter().collect::<Result<Vec<_>, _>>()?;
            (compute_columns(a, b, workers), per_shard, None)
        }
    };
    Ok(ShardedOutcome {
        outcome: SpmmOutcome {
            c,
            stats: merge_stats(label, &per_shard),
        },
        per_shard,
        stream,
    })
}

/// A tuning-live sharded engine: the multi-device analogue of
/// [`FastEngine`], and the one `A`-side engine ([`GcnRunner`] runs a
/// single device as its one-shard case). Resident shards are cut from the
/// first operand it runs by the configuration's aggregation-side
/// [`ShardPolicy`](crate::ShardPolicy) (or an explicit partitioner via
/// [`with_partitioner`](ShardedEngine::with_partitioner)); stored shards
/// are planned from a store's manifest by
/// [`stored`](ShardedEngine::stored). Each shard owns a timing-only
/// `FastEngine` whose auto-tuner converges on that shard's own density
/// profile. Freeze via [`freeze_plan`](ShardedEngine::freeze_plan) into a
/// shareable [`ShardedPlan`].
///
/// Unlike `FastEngine` (which only pins the row count), a sharded engine
/// is bound to the exact sparsity structure of its first operand: reusing
/// it with a structurally different operand is rejected, because the
/// shard cuts would no longer describe it.
///
/// [`GcnRunner`]: crate::GcnRunner
#[derive(Debug)]
pub struct ShardedEngine {
    config: AccelConfig,
    partitioner: ColumnPartitioner,
    source: ShardSource,
    /// Resident shards are cut on the first run; stored ones at build.
    shards: Vec<Shard<Mutex<FastEngine>>>,
    /// The bound operand (set on the first run).
    operand: Option<Operand>,
    /// Whether each run after the first re-hashes its operand to check it
    /// is the bound one (off only for [`trusted`](ShardedEngine::trusted)
    /// engines).
    verify_operand: bool,
    /// The last stored pass's statistics, handed to frozen plans.
    last_stream: Option<StreamStats>,
}

impl ShardedEngine {
    /// Creates an engine over resident shards cut from the first operand
    /// it runs, using the configuration's aggregation-side policy
    /// ([`AccelConfig::partitioner`]).
    pub fn new(config: AccelConfig) -> Self {
        let partitioner = config.partitioner();
        ShardedEngine::with_partitioner(config, partitioner)
    }

    /// Creates an engine that cuts resident shards with an explicit
    /// partitioner instead of the configuration's aggregation-side policy
    /// — e.g. [`AccelConfig::combination_partitioner`] for the `X × W`
    /// phase.
    pub fn with_partitioner(config: AccelConfig, partitioner: ColumnPartitioner) -> Self {
        ShardedEngine {
            config,
            partitioner,
            source: ShardSource::Resident,
            shards: Vec::new(),
            operand: None,
            verify_operand: true,
            last_stream: None,
        }
    }

    /// This engine, taking every operand after the one it binds on its
    /// first run on trust: no O(nnz) fingerprint re-hash per run or at
    /// freeze. For callers that pass the same `A` on every call for the
    /// engine's whole life, as `GcnRunner`'s warm-up does (the engine-side
    /// counterpart of [`ShardedPlan::session_trusted`]).
    pub(crate) fn trusted(mut self) -> Self {
        self.verify_operand = false;
        self
    }

    /// Creates an engine over stored shards: chunk-aligned column ranges
    /// of `store`, planned from the manifest's per-chunk nnz profiles
    /// alone — `O(chunks)`, no values loaded — such that two consecutive
    /// shard slices together stay within `host_budget` bytes (chunk
    /// granularity permitting: a single chunk larger than half the budget
    /// still becomes its own shard). The engine then only accepts the
    /// stored operand.
    ///
    /// # Errors
    ///
    /// Returns [`AccelError::InvalidConfig`] if `host_budget == 0`.
    pub fn stored(
        config: AccelConfig,
        store: Arc<SparseStore>,
        host_budget: usize,
    ) -> Result<Self, AccelError> {
        if host_budget == 0 {
            return Err(AccelError::InvalidConfig(
                "host memory budget must be >= 1 byte".into(),
            ));
        }
        let shards = plan_stream_shards(&store, host_budget)
            .into_iter()
            .map(|(cols, nnz)| Shard {
                cols,
                nnz,
                slice: None,
                device: Mutex::new(FastEngine::new(config.clone())),
            })
            .collect();
        let mut engine = ShardedEngine::new(config);
        engine.source = ShardSource::Stored(store);
        engine.shards = shards;
        Ok(engine)
    }

    /// Opens the store at `dir` (full ingest validation) and builds a
    /// [`stored`](ShardedEngine::stored) engine over it.
    ///
    /// # Errors
    ///
    /// [`AccelError::InvalidInput`] when the store is missing or corrupt;
    /// [`AccelError::InvalidConfig`] if `host_budget == 0`.
    pub fn open_stored(
        config: AccelConfig,
        dir: impl AsRef<std::path::Path>,
        host_budget: usize,
    ) -> Result<Self, AccelError> {
        let store = SparseStore::open(dir).map_err(store_err)?;
        ShardedEngine::stored(config, Arc::new(store), host_budget)
    }

    /// Number of shards (0 for a resident engine before its first run).
    pub fn shard_count(&self) -> usize {
        self.shards.len()
    }

    /// Rows exchanged by remote switching so far, summed over shard
    /// engines.
    pub fn total_switches(&self) -> u64 {
        self.shards
            .iter()
            .map(|s| lock(&s.device).total_switches())
            .sum()
    }

    /// Replay-cache hits summed over shard engines.
    pub fn replay_hits(&self) -> u64 {
        self.shards
            .iter()
            .map(|s| lock(&s.device).replay_hits())
            .sum()
    }

    /// Replay-cache misses summed over shard engines.
    pub fn replay_misses(&self) -> u64 {
        self.shards
            .iter()
            .map(|s| lock(&s.device).replay_misses())
            .sum()
    }

    /// Binds the engine to `a` on its first run — cutting resident shards,
    /// or checking `a` against the store — and rejects any other operand
    /// afterwards (unless the engine is [`trusted`](ShardedEngine::trusted)).
    fn bind(&mut self, a: &Csc) -> Result<(), AccelError> {
        if let Some(bound) = self.operand {
            if self.verify_operand && bound != Operand::of(a) {
                return Err(AccelError::InvalidConfig(
                    "sharded engine bound to a different operand structure \
                     (shards are valid for exactly one sparsity structure)"
                        .into(),
                ));
            }
            return Ok(());
        }
        match &self.source {
            ShardSource::Stored(store) => verify_operand(store, a)?,
            ShardSource::Resident => {
                let config = &self.config;
                self.shards =
                    resident_cut(self.partitioner, a.pattern(), 1, |cols, nnz, slice| Shard {
                        cols,
                        nnz,
                        slice: slice.map(Arc::new),
                        device: Mutex::new(FastEngine::new(config.clone())),
                    });
            }
        }
        self.operand = Some(Operand::of(a));
        Ok(())
    }

    /// Runs one sharded SPMM, returning the merged outcome plus per-shard
    /// statistics (and, for stored shards, the pass's [`StreamStats`]).
    ///
    /// # Errors
    ///
    /// Shape errors; [`AccelError::InvalidConfig`] when the engine is
    /// bound to a different operand; [`AccelError::InvalidInput`] when a
    /// stored shard fails to read.
    pub fn run_detailed(
        &mut self,
        a: &Csc,
        b: &DenseMatrix,
        label: &str,
    ) -> Result<ShardedOutcome, AccelError> {
        check_shapes(a.shape(), b)?;
        self.bind(a)?;
        let out = run_pass(
            &self.source,
            &self.shards,
            a,
            b,
            label,
            self.config.threads,
            &|engine, a, runs| lock(engine).time_runs(a, runs, label),
        )?;
        self.last_stream = out.stream;
        Ok(out)
    }

    /// Force-freezes every shard engine ([`FastEngine::freeze_plan`]) and
    /// shares a copy of each with a [`ShardedPlan`]; the engine itself runs
    /// frozen afterwards. Binding pins every member to one shard of `a`,
    /// so freezing reads nothing: resident slices are shared with the
    /// plan, not copied, and a stored engine reads no chunk.
    ///
    /// # Errors
    ///
    /// [`AccelError::InvalidConfig`] when `a` is not the operand the
    /// engine is bound to.
    pub fn freeze_plan(&mut self, a: &Csc) -> Result<ShardedPlan, AccelError> {
        self.bind(a)?;
        let shards = self
            .shards
            .iter()
            .map(|shard| {
                let mut engine = lock(&shard.device);
                engine.freeze_plan(a.rows())?;
                Ok(Shard {
                    cols: shard.cols.clone(),
                    nnz: shard.nnz,
                    slice: shard.slice.clone(),
                    device: engine.clone(),
                })
            })
            .collect::<Result<_, AccelError>>()?;
        Ok(ShardedPlan {
            config: self.config.clone(),
            operand: self.operand.expect("bound above"),
            source: self.source.clone(),
            shards,
            last_stream: LastPass(Mutex::new(self.last_stream)),
        })
    }
}

impl SpmmEngine for ShardedEngine {
    fn run(&mut self, a: &Csc, b: &DenseMatrix, label: &str) -> Result<SpmmOutcome, AccelError> {
        self.run_detailed(a, b, label).map(|s| s.outcome)
    }

    fn config(&self) -> &AccelConfig {
        &self.config
    }
}

/// Frozen sharded tuning state: one frozen [`FastEngine`] per column
/// shard, the shard source, and the full operand's fingerprint. Produced
/// by [`ShardedEngine::freeze_plan`], executed via
/// [`session`](ShardedPlan::session). `Sync` by the frozen engine's
/// concurrency contract: shard maps are immutable, shard replay caches
/// are monotone.
///
/// # Example
///
/// ```
/// use awb_accel::{AccelConfig, Design, ShardedEngine, SpmmEngine};
/// use awb_sparse::{Coo, DenseMatrix};
///
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// let mut a = Coo::new(4, 4);
/// a.push(0, 1, 2.0)?;
/// a.push(3, 0, 1.0)?;
/// let a = a.to_csc();
/// let warmup = DenseMatrix::from_rows(&[&[1.0], &[3.0], &[1.0], &[2.0]])?;
/// let config = Design::LocalPlusRemote { hop: 1 }.apply(AccelConfig::builder().n_pes(2).build()?);
///
/// // Pay tuning once (a single device is the one-shard case)…
/// let mut engine = ShardedEngine::new(config);
/// engine.run(&a, &warmup, "warmup")?;
/// let plan = engine.freeze_plan(&a)?;
/// assert_eq!(plan.shard_count(), 1);
/// let device = plan.shards()[0].plan(); // the shard's frozen FastEngine
/// assert!(!device.tuning_active());
/// assert_eq!(device.row_map().map(|m| m.n_rows()), Some(4));
/// // …then serve N requests against the shared plan.
/// let b = DenseMatrix::from_rows(&[&[2.0], &[5.0], &[0.5], &[1.0]])?;
/// let out = plan.session().run(&a, &b, "request")?;
/// assert_eq!(out.c.get(0, 0), 10.0);
/// assert_eq!(out.stats.tuning_rounds(), 0); // sessions never re-tune
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone)]
pub struct ShardedPlan {
    config: AccelConfig,
    operand: Operand,
    source: ShardSource,
    shards: Vec<PlanShard>,
    last_stream: LastPass,
}

impl ShardedPlan {
    /// The configuration the plan was tuned under.
    pub fn config(&self) -> &AccelConfig {
        &self.config
    }

    /// Number of shards.
    pub fn shard_count(&self) -> usize {
        self.shards.len()
    }

    /// The frozen shards, in ascending column order.
    pub fn shards(&self) -> &[PlanShard] {
        &self.shards
    }

    /// The store the shards are read from; `None` for resident shards.
    pub fn store(&self) -> Option<&SparseStore> {
        match &self.source {
            ShardSource::Stored(store) => Some(store),
            ShardSource::Resident => None,
        }
    }

    /// True when `a` has the structure this plan was frozen for.
    pub fn matches(&self, a: &Csc) -> bool {
        Operand::of(a) == self.operand
    }

    /// Auto-tuning rounds spent before freezing, summed over shards.
    pub fn tuning_rounds(&self) -> usize {
        self.shards.iter().map(|s| s.device.tuning_rounds()).sum()
    }

    /// Rows exchanged by remote switching during warm-up, summed over
    /// shards.
    pub fn total_switches(&self) -> u64 {
        self.shards.iter().map(|s| s.device.total_switches()).sum()
    }

    /// Replay hits summed over shard caches.
    pub fn replay_hits(&self) -> u64 {
        self.shards.iter().map(|s| s.device.replay_hits()).sum()
    }

    /// Replay misses summed over shard caches.
    pub fn replay_misses(&self) -> u64 {
        self.shards.iter().map(|s| s.device.replay_misses()).sum()
    }

    /// Estimated heap bytes the plan keeps between requests: each
    /// resident shard's column-slice pattern (none for a shard spanning
    /// the whole operand, and none for stored shards) plus every shard's
    /// frozen engine (row map + replay cache). So a one-shard plan costs
    /// exactly its [`FastEngine::memory_bytes`].
    pub fn memory_bytes(&self) -> u64 {
        self.shards
            .iter()
            .map(|s| {
                s.slice.as_ref().map_or(0, |p| p.heap_bytes() as u64) + s.device.memory_bytes()
            })
            .sum()
    }

    /// The most recent stored pass's statistics (the warm-up's until a
    /// session runs); `None` for resident shards.
    pub fn stream_stats(&self) -> Option<StreamStats> {
        *lock(&self.last_stream.0)
    }

    /// Opens a per-request execution session against this plan.
    pub fn session(&self) -> ShardedSession<'_> {
        ShardedSession {
            plan: self,
            verify_operand: true,
        }
    }

    /// A session that skips the per-run O(nnz) fingerprint re-hash (for
    /// callers that own the exact operand, e.g. `GcnPlan`).
    pub(crate) fn session_trusted(&self) -> ShardedSession<'_> {
        ShardedSession {
            plan: self,
            verify_operand: false,
        }
    }
}

/// A cheap per-request executor over a shared [`ShardedPlan`], and the
/// only one: every request runs against a frozen plan through a session,
/// a single device being the one-shard case. Every shard round runs under
/// its shard's frozen engine's map (no tuning, ever), repeated patterns
/// replay from its cache from the first request on, and the
/// merged output is pinned bit-identical to the single-device path.
/// Implements [`SpmmEngine`], so a session is a drop-in engine wherever
/// one is expected.
#[derive(Debug, Clone)]
pub struct ShardedSession<'p> {
    plan: &'p ShardedPlan,
    verify_operand: bool,
}

impl ShardedSession<'_> {
    /// The plan this session executes against.
    pub fn plan(&self) -> &ShardedPlan {
        self.plan
    }

    /// Runs one request, returning the merged outcome plus per-shard
    /// statistics and, for stored shards, this pass's own
    /// [`StreamStats`] (also recorded as the plan's most recent pass).
    ///
    /// # Errors
    ///
    /// Shape errors; [`AccelError::InvalidConfig`] when the operand's
    /// structure does not match the plan's fingerprint;
    /// [`AccelError::InvalidInput`] when a stored shard fails to read.
    pub fn run_detailed(
        &self,
        a: &Csc,
        b: &DenseMatrix,
        label: &str,
    ) -> Result<ShardedOutcome, AccelError> {
        check_shapes(a.shape(), b)?;
        let plan = self.plan;
        if a.rows() != plan.operand.rows {
            return Err(AccelError::InvalidConfig(format!(
                "sharded plan tuned for {} rows used with {} rows",
                plan.operand.rows,
                a.rows()
            )));
        }
        if self.verify_operand && !plan.matches(a) {
            return Err(AccelError::InvalidConfig(format!(
                "operand structure fingerprint {:#018x} does not match the sharded plan's \
                 {:#018x} (plans are valid for exactly one sparsity structure)",
                structure_fingerprint(a.pattern()),
                plan.operand.fingerprint
            )));
        }
        let out = run_pass(
            &plan.source,
            &plan.shards,
            a,
            b,
            label,
            plan.config.threads,
            // Timing-only frozen shards: the merged numerics follow the
            // shard source in `run_pass`.
            &|engine, a, runs| engine.time_steady(a, &runs, Vec::new(), label),
        )?;
        if out.stream.is_some() {
            *lock(&plan.last_stream.0) = out.stream;
        }
        Ok(out)
    }
}

impl SpmmEngine for ShardedSession<'_> {
    fn run(&mut self, a: &Csc, b: &DenseMatrix, label: &str) -> Result<SpmmOutcome, AccelError> {
        self.run_detailed(a, b, label).map(|s| s.outcome)
    }

    fn config(&self) -> &AccelConfig {
        &self.plan.config
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::{Design, ShardPolicy};
    use awb_sparse::{spmm, Coo};
    use std::ops::RangeInclusive;
    use std::path::PathBuf;

    fn skewed(n: usize, heavy_nnz: usize) -> Csc {
        let mut coo = Coo::new(n, n);
        for c in 0..heavy_nnz.min(n) {
            coo.push(0, c, 1.0).unwrap();
            coo.push(1, (c + 1) % n, 0.5).unwrap();
        }
        for r in 2..n {
            coo.push(r, (r * 7) % n, 1.0).unwrap();
        }
        coo.to_csc()
    }

    fn dense(rows: usize, cols: usize) -> DenseMatrix {
        let data: Vec<f32> = (0..rows * cols).map(|i| ((i % 7) as f32) - 3.0).collect();
        DenseMatrix::from_vec(rows, cols, data).unwrap()
    }

    fn config(n_pes: usize, shards: usize) -> AccelConfig {
        let mut builder = AccelConfig::builder();
        builder.n_pes(n_pes).shards(ShardPolicy::Fixed(shards));
        Design::LocalPlusRemote { hop: 1 }.apply(builder.build().unwrap())
    }

    fn bits(c: &DenseMatrix) -> Vec<u32> {
        c.as_slice().iter().map(|v| v.to_bits()).collect()
    }

    fn temp_dir(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!(
            "awb-shard-test-{tag}-{}-{:?}",
            std::process::id(),
            std::thread::current().id()
        ));
        let _ = std::fs::remove_dir_all(&dir);
        dir
    }

    /// An engine under one shard source and the shard counts it cuts; a
    /// stored one removes its store directory when dropped.
    struct Source {
        name: &'static str,
        engine: ShardedEngine,
        shards: RangeInclusive<usize>,
        store: Option<(PathBuf, Arc<SparseStore>)>,
    }

    impl Drop for Source {
        fn drop(&mut self) {
            if let Some((dir, _)) = &self.store {
                let _ = std::fs::remove_dir_all(dir);
            }
        }
    }

    fn single() -> Source {
        let mut cfg = config(8, 1);
        cfg.shards = ShardPolicy::Single;
        Source {
            name: "resident Single",
            engine: ShardedEngine::new(cfg),
            shards: 1..=1,
            store: None,
        }
    }

    fn resident() -> Source {
        Source {
            name: "resident Fixed(3)",
            engine: ShardedEngine::new(config(8, 3)),
            shards: 3..=3,
            store: None,
        }
    }

    fn stored(tag: &str, a: &Csc, budget: usize) -> Source {
        let dir = temp_dir(tag);
        let store = Arc::new(SparseStore::write_with_chunk_nnz(&dir, a, 16).expect("store write"));
        let engine =
            ShardedEngine::stored(config(8, 1), Arc::clone(&store), budget).expect("stored engine");
        Source {
            name: "stored",
            engine,
            shards: 2..=usize::MAX,
            store: Some((dir, store)),
        }
    }

    /// The three shard sources every shared test runs under: the
    /// one-shard resident plan (`ShardPolicy::Single`), resident
    /// `Fixed(3)`, and stored under a third of the adjacency.
    fn sources(tag: &str, a: &Csc) -> [Source; 3] {
        [single(), resident(), stored(tag, a, a.heap_bytes() / 3)]
    }

    #[test]
    fn sharded_output_matches_unsharded_bitwise() {
        let a = skewed(96, 60);
        let b = dense(96, 10);
        let mut unsharded = FastEngine::new(config(8, 1));
        let reference = unsharded.run(&a, &b, "t").unwrap();
        let expect = spmm::csc_times_dense(&a, &b).unwrap();
        let check = |name: &str, engine: &mut ShardedEngine| {
            let out = engine.run(&a, &b, "t").unwrap();
            assert_eq!(bits(&out.c), bits(&reference.c), "{name}");
            assert!(out.c.approx_eq(&expect, 1e-4));
            // Work is conserved across the shard merge.
            assert_eq!(out.stats.total_tasks(), reference.stats.total_tasks());
        };
        for shards in [1, 2, 3, 4, 7] {
            check(
                &format!("{shards} shards"),
                &mut ShardedEngine::new(config(8, shards)),
            );
        }
        let mut source = stored("bitident", &a, a.heap_bytes() / 3);
        assert!(source.engine.shard_count() > 1, "budget must force shards");
        check("stored", &mut source.engine);
    }

    #[test]
    fn single_shard_stats_match_unsharded() {
        // One shard = one device: the merged view degenerates to exactly
        // the unsharded engine's stats, and the shard holds no slice.
        let a = skewed(64, 40);
        let b = dense(64, 6);
        let mut unsharded = FastEngine::new(config(8, 1));
        let reference = unsharded.run(&a, &b, "t").unwrap();
        let mut engine = ShardedEngine::new(config(8, 1));
        let out = engine.run(&a, &b, "t").unwrap();
        assert_eq!(out.stats, reference.stats);
        assert_eq!(out.c, reference.c);
        let plan = engine.freeze_plan(&a).unwrap();
        assert!(plan.shards()[0].slice.is_none());
        assert_eq!(plan.memory_bytes(), plan.shards()[0].plan().memory_bytes());
    }

    #[test]
    fn stats_views_and_conservation() {
        let a = skewed(96, 60);
        let b = dense(96, 8);
        let mut engine = ShardedEngine::new(config(8, 4));
        let out = engine.run_detailed(&a, &b, "t").unwrap();
        assert_eq!(out.per_shard.len(), 4);
        assert_eq!(engine.shard_count(), 4);
        assert_eq!(out.stream, None, "resident passes carry no stream stats");
        // Total PEs across shard devices; tasks conserved across shards.
        assert_eq!(out.outcome.stats.n_pes, 4 * 8);
        assert_eq!(
            out.outcome.stats.total_tasks(),
            spmm::csc_times_dense_macs(&a, &b).unwrap() as u64
        );
        // Merged cycles are the critical path: the max over shards, per
        // round.
        for (r, merged) in out.outcome.stats.rounds.iter().enumerate() {
            let slowest = out.per_shard.iter().map(|s| s.rounds[r].cycles).max();
            assert_eq!(Some(merged.cycles), slowest, "round {r}");
        }
        assert_eq!(out.outcome.stats.rounds.len(), b.cols());
        let util = out.outcome.stats.utilization();
        assert!(util > 0.0 && util <= 1.0);
        assert_eq!(out.outcome.stats.queue_high_water.len(), 4 * 8);
    }

    #[test]
    fn frozen_plan_sessions_match_the_frozen_engine() {
        let a = skewed(128, 90);
        let warmup = dense(128, 8);
        let b = dense(128, 5);
        let resident_ref = {
            let mut reference = FastEngine::new(config(8, 1));
            reference.run(&a, &warmup, "warmup").unwrap();
            reference.run(&a, &b, "req").unwrap()
        };
        for mut source in sources("plan", &a) {
            let name = source.name;
            let engine = &mut source.engine;
            engine.run(&a, &warmup, "warmup").unwrap();
            let plan = engine.freeze_plan(&a).unwrap();
            assert!(plan.matches(&a), "{name}");
            assert!(source.shards.contains(&plan.shard_count()), "{name}");
            assert_eq!(plan.shard_count(), engine.shard_count());
            assert!(plan.tuning_rounds() > 0, "{name}");
            assert!(plan.total_switches() > 0, "{name}");
            assert!(plan.memory_bytes() > 0);
            assert_eq!(plan.store().is_some(), source.store.is_some());
            // The frozen engine's next run and a session agree exactly,
            // and never re-tune.
            let from_engine = engine.run_detailed(&a, &b, "req").unwrap();
            let served = plan.session().run_detailed(&a, &b, "req").unwrap();
            assert_eq!(from_engine.outcome.stats, served.outcome.stats, "{name}");
            assert_eq!(bits(&from_engine.outcome.c), bits(&served.outcome.c));
            assert_eq!(served.outcome.stats.rounds.len(), b.cols(), "{name}");
            for s in &served.per_shard {
                assert_eq!(s.tuning_rounds(), 0, "{name}");
            }
            // Both match the single-device reference bit for bit.
            assert_eq!(bits(&served.outcome.c), bits(&resident_ref.c), "{name}");
            // A stored session reports its own pass and records it on the
            // plan; a resident one reports none.
            assert_eq!(served.stream.is_some(), source.store.is_some(), "{name}");
            assert_eq!(plan.stream_stats(), served.stream, "{name}");
            // Replay counters aggregate over shard caches.
            let hits = plan.replay_hits();
            plan.session().run_detailed(&a, &b, "req").unwrap();
            assert!(plan.replay_hits() > hits, "{name}");
        }
    }

    #[test]
    fn engine_and_plan_reject_foreign_operands() {
        let a = skewed(64, 40);
        let b = dense(64, 4);
        let other = skewed(64, 20); // same shape, different structure
        let small = skewed(32, 10); // different row count
        let small_b = dense(32, 4);
        for mut source in sources("foreign", &a) {
            let name = source.name;
            let engine = &mut source.engine;
            if source.store.is_some() {
                // A stored engine rejects a foreign operand from its first
                // run: the store pins the operand.
                assert!(
                    matches!(
                        engine.run(&other, &b, "t"),
                        Err(AccelError::InvalidConfig(_))
                    ),
                    "{name}"
                );
            }
            engine.run(&a, &b, "t").unwrap();
            assert!(
                matches!(
                    engine.run(&other, &b, "t"),
                    Err(AccelError::InvalidConfig(_))
                ),
                "{name}"
            );
            let plan = engine.freeze_plan(&a).unwrap();
            assert!(source.shards.contains(&plan.shard_count()), "{name}");
            assert!(!plan.matches(&other), "{name}");
            assert!(
                matches!(
                    plan.session().run_detailed(&other, &b, "t"),
                    Err(AccelError::InvalidConfig(_))
                ),
                "{name}"
            );
            // A different row count is rejected before any shard runs.
            assert!(
                matches!(
                    plan.session().run_detailed(&small, &small_b, "t"),
                    Err(AccelError::InvalidConfig(msg)) if msg.contains("64 rows used with 32 rows")
                ),
                "{name}"
            );
        }
    }

    #[test]
    fn repeated_runs_keep_hitting_replay() {
        let a = skewed(96, 60);
        let b = dense(96, 6);
        for mut source in sources("replay", &a) {
            let name = source.name;
            let engine = &mut source.engine;
            let first = engine.run(&a, &b, "t").unwrap();
            assert!(source.shards.contains(&engine.shard_count()), "{name}");
            let second = engine.run(&a, &b, "t").unwrap();
            assert_eq!(bits(&first.c), bits(&second.c), "{name}");
            assert_eq!(first.stats.rounds.len(), second.stats.rounds.len());
            // Shard devices keep their tuned maps and replay caches across
            // passes (stored slices are re-read bit-identical), so they
            // keep serving hits.
            let hits_after_second = engine.replay_hits();
            let third = engine.run(&a, &b, "t").unwrap();
            assert_eq!(bits(&second.c), bits(&third.c), "{name}");
            assert!(engine.replay_hits() > hits_after_second, "{name}");
        }
    }

    #[test]
    fn memory_budget_policy_keeps_shards_on_chip() {
        let a = skewed(64, 48); // 2*48 + 62 = 158 nnz
        let b = dense(64, 4);
        let mut cfg = Design::Baseline.apply(
            AccelConfig::builder()
                .n_pes(8)
                .shards(ShardPolicy::MemoryBudget)
                .build()
                .unwrap(),
        );
        // Budget of 64 nnz per shard: the full operand would be off-chip,
        // every shard fits.
        cfg.memory = awb_hw::MemoryModel {
            on_chip_bytes: 64 * awb_hw::BYTES_PER_NNZ,
            off_chip_bytes_per_cycle: 64.0,
        };
        assert!(!cfg.memory.fits_on_chip(a.nnz()));
        let mut engine = ShardedEngine::new(cfg.clone());
        let out = engine.run_detailed(&a, &b, "t").unwrap();
        assert!(engine.shard_count() >= 3, "{} shards", engine.shard_count());
        // Every shard operand fits the budget, so shard replay caches are
        // live (an off-chip operand would bypass them).
        assert!(engine.replay_hits() + engine.replay_misses() > 0);
        // And the output still matches the unsharded reference bitwise.
        let mut unsharded_cfg = cfg;
        unsharded_cfg.shards = ShardPolicy::Single;
        let reference = FastEngine::new(unsharded_cfg).run(&a, &b, "t").unwrap();
        assert_eq!(out.outcome.c, reference.c);
    }

    #[test]
    fn resident_peak_stays_under_budget_and_io_is_counted() {
        let a = skewed(128, 90);
        let budget = a.heap_bytes() / 2;
        let mut source = stored("budget", &a, budget);
        let b = dense(128, 8);
        let stream = source.engine.run_detailed(&a, &b, "t").unwrap().stream;
        let stream = stream.expect("stored passes report stream stats");
        let store = &source.store.as_ref().unwrap().1;
        assert!(stream.shards > 1);
        assert!(
            stream.resident_peak_bytes < a.heap_bytes(),
            "peak {} vs whole matrix {}",
            stream.resident_peak_bytes,
            a.heap_bytes()
        );
        assert!(
            stream.resident_peak_bytes <= budget,
            "peak {} exceeds budget {budget}",
            stream.resident_peak_bytes
        );
        // One slice is resident at a time: the peak is the largest shard.
        let largest_slice = source
            .engine
            .shards
            .iter()
            .map(|s| store.read_col_range(s.cols.clone()).unwrap().heap_bytes())
            .max()
            .unwrap();
        assert_eq!(stream.resident_peak_bytes, largest_slice);
        assert_eq!(stream.io_bytes, store.column_disk_bytes());
        assert!(stream.compute_s > 0.0);
        assert!(stream.prefetch_s > 0.0);
        assert_eq!(stream.overlap_s, 0.0);
    }

    /// Binding pins every member to its shard, so freezing a stored engine
    /// reads no chunk: with the value chunks deleted after the warm-up,
    /// the freeze still succeeds with the warm-up's tuning record, and the
    /// first session pass — which must read them — is a typed error, not a
    /// panic.
    #[test]
    fn stored_freeze_reads_no_chunk() {
        let a = skewed(128, 90);
        let b = dense(128, 8);
        let mut source = stored("freeze", &a, a.heap_bytes() / 3);
        let warmup = source.engine.run_detailed(&a, &b, "warmup").unwrap();
        let tuning_rounds: usize = warmup.per_shard.iter().map(|s| s.tuning_rounds()).sum();
        let switches = source.engine.total_switches();
        assert!(tuning_rounds > 0 && switches > 0);
        let (dir, _) = source.store.as_ref().unwrap();
        for chunk in std::fs::read_dir(dir.join("by_column").join("data")).unwrap() {
            std::fs::remove_file(chunk.unwrap().path()).unwrap();
        }
        let plan = source.engine.freeze_plan(&a).unwrap();
        assert_eq!(plan.tuning_rounds(), tuning_rounds);
        assert_eq!(plan.total_switches(), switches);
        assert!(matches!(
            plan.session().run_detailed(&a, &b, "req"),
            Err(AccelError::InvalidInput(_))
        ));
    }

    #[test]
    fn zero_budget_and_missing_store_are_typed_errors() {
        let a = skewed(32, 10);
        let dir = temp_dir("zero");
        let store = Arc::new(SparseStore::write_with_chunk_nnz(&dir, &a, 8).unwrap());
        assert!(matches!(
            ShardedEngine::stored(config(4, 1), store, 0),
            Err(AccelError::InvalidConfig(_))
        ));
        std::fs::remove_dir_all(&dir).unwrap();
        assert!(matches!(
            ShardedEngine::open_stored(config(4, 1), &dir, 1 << 20),
            Err(AccelError::InvalidInput(_))
        ));
    }

    #[test]
    fn degenerate_empty_store_still_runs() {
        let a = Csc::empty(8, 0);
        let dir = temp_dir("empty");
        let store = Arc::new(SparseStore::write(&dir, &a).unwrap());
        let mut engine = ShardedEngine::stored(config(4, 1), store, 1024).unwrap();
        let b = DenseMatrix::zeros(0, 3);
        let out = engine.run(&a, &b, "t").unwrap();
        assert_eq!(out.c.shape(), (8, 3));
        assert!(out.c.as_slice().iter().all(|&v| v == 0.0));
        std::fs::remove_dir_all(&dir).unwrap();
    }

    /// Regression: `merge_stats` used to size the merged round vector from
    /// the *first* shard and index every other shard at that length —
    /// shards with more rounds panicked, shards with fewer were silently
    /// truncated. Deliberately unequal convergence (3/1/0 rounds) must
    /// merge over the max, padding exhausted shards with empty rounds.
    #[test]
    fn merge_stats_handles_unequal_per_shard_round_counts() {
        let round = |cycles: u64, tasks: u64| RoundStats {
            cycles,
            tasks,
            busy_cycles: tasks,
            max_pe_busy: tasks,
            min_pe_busy: 1,
            max_queue_depth: 2,
            raw_stalls: 0,
            tuning_active: false,
        };
        let stats = |rounds: Vec<RoundStats>| SpmmStats {
            label: "s".into(),
            n_pes: 4,
            rounds,
            queue_high_water: vec![2; 4],
        };
        let short_first = [
            stats(vec![round(10, 8)]),
            stats(vec![round(7, 4), round(9, 4), round(30, 4)]),
            stats(Vec::new()),
        ];
        let merged = merge_stats("m", &short_first);
        assert_eq!(merged.rounds.len(), 3, "max round count, not the first");
        assert_eq!(merged.n_pes, 12);
        // Round 0 merges all three shards; rounds 1/2 only the long one.
        assert_eq!(merged.rounds[0].cycles, 10);
        assert_eq!(merged.rounds[0].tasks, 12);
        assert_eq!(merged.rounds[1].cycles, 9);
        assert_eq!(merged.rounds[2].cycles, 30);
        assert_eq!(merged.rounds[2].tasks, 4);
        // Padded (idle) shard devices floor the min-busy at 0.
        assert_eq!(merged.rounds[1].min_pe_busy, 0);
        // No trailing round is dropped whichever shard comes first.
        let long_first = [short_first[1].clone(), short_first[0].clone()];
        let merged2 = merge_stats("m", &long_first);
        assert_eq!(merged2.rounds.len(), 3);
        assert_eq!(merged2.total_cycles(), 10 + 9 + 30);
        assert_eq!(merged2.total_tasks(), 8 + 12);
    }

    /// Shard members execute values-free; their timing must be exactly
    /// what a values-carrying engine reports on the same shard inputs.
    #[test]
    fn values_free_members_match_values_carrying_timing() {
        let a = skewed(96, 60);
        let b = dense(96, 8);
        let cfg = config(8, 3);
        let mut engine = ShardedEngine::new(cfg.clone());
        let out = engine.run_detailed(&a, &b, "t").unwrap();
        // Re-run every shard slice on a values-carrying FastEngine:
        // per-shard stats (ascending column order) must match bit for bit.
        for (i, shard) in cfg.partitioner().partition(&a).iter().enumerate() {
            let a_slice = shard.slice(&a);
            let b_slice = b.row_range(shard.cols.clone());
            let mut carrying = FastEngine::new(cfg.clone());
            let reference = carrying.run(&a_slice, &b_slice, "t").unwrap();
            assert_eq!(
                out.per_shard[i], reference.stats,
                "shard {i} (cols {:?}) timing diverged under values-free execution",
                shard.cols
            );
        }
    }

    #[test]
    fn with_partitioner_overrides_config_policy() {
        // Config says unsharded; an explicit partitioner still cuts 3
        // shards (the combination phase's construction path).
        let a = skewed(96, 60);
        let b = dense(96, 6);
        let cfg = config(8, 1);
        let mut engine =
            ShardedEngine::with_partitioner(cfg.clone(), ColumnPartitioner::by_shards(3));
        let out = engine.run_detailed(&a, &b, "t").unwrap();
        assert_eq!(engine.shard_count(), 3);
        assert_eq!(out.outcome.stats.n_pes, 3 * 8);
        let reference = FastEngine::new(cfg).run(&a, &b, "t").unwrap();
        assert_eq!(out.outcome.c, reference.c);
    }

    #[test]
    fn shard_timing_matches_sharded_engine() {
        // The GCN layers' transient X × W shard timing must report exactly
        // what a ShardedEngine reports on the same operand and cut — the
        // one-shard cut (timed on the whole pattern) included.
        let a = skewed(96, 60);
        let b = dense(96, 8);
        let cfg = config(8, 1);
        for shards in [1, 3] {
            let partitioner = ColumnPartitioner::by_shards(shards);
            let mut engine = ShardedEngine::with_partitioner(cfg.clone(), partitioner);
            let expect = engine.run(&a, &b, "t").unwrap().stats;
            let stats = shard_timing(&cfg, partitioner, a.pattern(), &b, "t").unwrap();
            assert_eq!(stats, expect, "{shards} shard(s)");
            assert_eq!(stats.n_pes, shards * 8);
        }
    }
}
