//! Column-sharded execution: one rebalanced PE array per shard, for
//! graphs whose adjacency does not fit a single device.
//!
//! `A × B = Σ_s A[:, lo_s..hi_s] × B[lo_s..hi_s, :]`: each contiguous
//! column shard of the sparse operand (cut nnz-balanced by
//! [`ColumnPartitioner`](awb_sparse::partition::ColumnPartitioner), see
//! `DESIGN.md` §7) is an independent sub-multiply that runs on its own
//! simulated accelerator — its own row→PE map, auto-tuner, and replay
//! cache, so a skewed shard converges to its own distribution instead of
//! inheriting a global compromise. Shards execute concurrently on the
//! [`exec`](crate::exec) substrate and their partial column blocks merge
//! into the output.
//!
//! # Merge determinism
//!
//! Merged *numerics* are computed through the same global-order column
//! kernel the unsharded engines use ([`compute_columns`], the one
//! numerics pass of every engine run), so sharded outputs are **bit-identical** to
//! unsharded runs by construction — summing collapsed f32 shard partials
//! would regroup the per-row addition chains and drift in the last ulp.
//! A physical multi-device merge unit achieves the same determinism by
//! accumulating shard partial products in stream order; the simulator
//! realizes that pinned order directly. Shard-member engines and
//! sessions therefore run **values-free** (timing-only — see
//! [`FastEngine::run_timing`]): the partial numerics the merge
//! would discard are never computed, so a sharded run pays the
//! accumulate work exactly once, in the merge kernel. Timing is a pure
//! function of each round's non-zero pattern, so shard statistics are
//! bit-identical to what a values-carrying shard run would report
//! (pinned by the stats-equality tests below).
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
//! truncation. [`ShardedOutcome`] keeps the per-shard stats alongside the
//! merged view and exposes the critical-path/sum cycle aggregates
//! directly; its statistics come from values-free shard execution, which
//! changes none of them.

use crate::config::AccelConfig;
use crate::engine::steady::{compute_columns, structure_fingerprint};
use crate::engine::{check_shapes, FastEngine, PlanOutcome, SpmmEngine, SpmmOutcome, TunedPlan};
use crate::error::AccelError;
use crate::exec;
use crate::stats::{RoundStats, SpmmStats};
use awb_sparse::partition::ColumnPartitioner;
use awb_sparse::{Csc, CscPattern, DenseMatrix};
use std::ops::Range;
use std::sync::{Arc, Mutex};

/// Result of one sharded SPMM: the merged (critical-path) outcome plus
/// each shard's own statistics.
#[derive(Debug, Clone)]
pub struct ShardedOutcome {
    /// Merged view: output `C` (bit-identical to an unsharded run) and
    /// critical-path statistics over the total PE count.
    pub outcome: SpmmOutcome,
    /// Per-shard statistics, in shard (ascending column) order.
    pub per_shard: Vec<SpmmStats>,
}

impl ShardedOutcome {
    /// End-to-end cycles on the critical path (per round, the slowest
    /// shard; rounds sequential). This is what the merged stats report.
    pub fn critical_path_cycles(&self) -> u64 {
        self.outcome.stats.total_cycles()
    }

    /// Total cycles summed over all shard devices — the aggregate machine
    /// time burned, the denominator that makes utilization honest.
    pub fn sum_cycles(&self) -> u64 {
        self.per_shard.iter().map(|s| s.total_cycles()).sum()
    }
}

/// Merges per-shard SPMM statistics into the critical-path view (see the
/// module docs for the exact semantics). Crate-internal: the streaming
/// executor merges its per-shard timing through the same rules.
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

/// Fans one request out over the shards (each executed by `run_one` on
/// its dense row slice), computes the merged numerics through the pinned
/// global-order kernel, and merges statistics — the one fan-out/merge
/// path both the tuning-live engine and the frozen sessions execute.
fn run_shards<S: Sync>(
    threads: usize,
    shards: &[S],
    a: &Csc,
    b: &DenseMatrix,
    label: &str,
    cols_of: impl Fn(&S) -> Range<usize> + Sync,
    run_one: impl Fn(&S, &DenseMatrix) -> Result<SpmmStats, AccelError> + Sync,
) -> Result<ShardedOutcome, AccelError> {
    let results = exec::par_map_threads(threads, shards, |shard| {
        let b_slice = b.row_range(cols_of(shard));
        run_one(shard, &b_slice)
    });
    let per_shard = results.into_iter().collect::<Result<Vec<_>, _>>()?;
    let mut c = DenseMatrix::zeros(a.rows(), b.cols());
    compute_columns(a, b, threads, &mut c);
    Ok(ShardedOutcome {
        outcome: SpmmOutcome {
            c,
            stats: merge_stats(label, &per_shard),
        },
        per_shard,
    })
}

/// Timing of one SPMM across the column shards `partitioner` cuts from
/// `a`'s structure: one fresh timing-only device per shard, stats merged
/// by [`merge_stats`]. The transient counterpart of [`ShardedEngine`] for
/// the GCN layers' `X × W`, whose numerics run row-major and whose devices
/// are never frozen into a plan — so shards are the pattern's column
/// slices and no slice of `X`'s values exists. Statistics equal a
/// [`ShardedEngine`] run on the same operand.
pub(crate) fn shard_timing(
    config: &AccelConfig,
    partitioner: ColumnPartitioner,
    a: &CscPattern,
    b: &DenseMatrix,
    label: &str,
) -> Result<SpmmStats, AccelError> {
    check_shapes(a, b)?;
    let mut cuts: Vec<Range<usize>> = partitioner
        .partition(a)
        .into_iter()
        .map(|shard| shard.cols)
        .collect();
    if cuts.is_empty() {
        // 0-column operand: one degenerate shard, as `ShardedEngine` keeps.
        cuts.push(0..a.cols());
    }
    let threads = config.threads.unwrap_or_else(exec::num_threads);
    let results = exec::par_map_threads(threads, &cuts, |cols| {
        FastEngine::new(config.clone()).run_timing(
            &a.col_range(cols.clone()),
            &b.row_range(cols.clone()),
            label,
        )
    });
    let per_shard = results.into_iter().collect::<Result<Vec<_>, _>>()?;
    Ok(merge_stats(label, &per_shard))
}

/// One shard of a tuning-live [`ShardedEngine`]. The slice is behind an
/// `Arc` so freezing shares it with the extracted plan instead of
/// re-copying the graph.
#[derive(Debug)]
struct EngineShard {
    cols: Range<usize>,
    a: Arc<Csc>,
    engine: Mutex<FastEngine>,
}

impl EngineShard {
    /// Poison-recovering lock on the member engine. Sound for the same
    /// reason as `ReplayCache`: a shard engine's replayable state (frozen
    /// map + memoized timings) is only ever mutated in complete,
    /// deterministic units, so the post-panic state a recovering lock
    /// observes is a consistent prefix of finished rounds — an isolated
    /// request's panic must not brick the other tenants' shard engines.
    fn lock_engine(&self) -> std::sync::MutexGuard<'_, FastEngine> {
        self.engine
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner)
    }
}

/// A tuning-live sharded engine: the multi-device analogue of
/// [`FastEngine`]. The first operand is partitioned by the
/// configuration's aggregation-side [`ShardPolicy`](crate::ShardPolicy)
/// (or an explicit partitioner via
/// [`with_partitioner`](ShardedEngine::with_partitioner) — how the
/// combination phase shards each layer's feature matrix); each shard then
/// owns a timing-only `FastEngine` whose auto-tuner converges on that
/// shard's own density profile. Freeze via
/// [`freeze_plan`](ShardedEngine::freeze_plan) into a shareable
/// [`ShardedPlan`].
///
/// Unlike `FastEngine` (which only pins the row count), a sharded engine
/// is bound to the exact sparsity structure it partitioned: reusing it
/// with a structurally different operand is rejected, because the stored
/// column slices would no longer describe it.
#[derive(Debug)]
pub struct ShardedEngine {
    config: AccelConfig,
    partitioner: ColumnPartitioner,
    shards: Vec<EngineShard>,
    /// Fingerprint/shape of the partitioned operand (set on first run).
    operand: Option<(u64, usize, usize, usize)>,
}

impl ShardedEngine {
    /// Creates an engine; shards are cut from the first operand it runs,
    /// using the configuration's aggregation-side policy
    /// ([`AccelConfig::partitioner`]).
    pub fn new(config: AccelConfig) -> Self {
        let partitioner = config.partitioner();
        ShardedEngine::with_partitioner(config, partitioner)
    }

    /// Creates an engine that cuts shards with an explicit partitioner
    /// instead of the configuration's aggregation-side policy — e.g.
    /// [`AccelConfig::combination_partitioner`] for the `X × W` phase.
    pub fn with_partitioner(config: AccelConfig, partitioner: ColumnPartitioner) -> Self {
        ShardedEngine {
            config,
            partitioner,
            shards: Vec::new(),
            operand: None,
        }
    }

    /// Number of shards (0 before the first run).
    pub fn shard_count(&self) -> usize {
        self.shards.len()
    }

    /// Rows exchanged by remote switching so far, summed over shard
    /// engines.
    pub fn total_switches(&self) -> u64 {
        self.shards
            .iter()
            .map(|s| s.lock_engine().total_switches())
            .sum()
    }

    /// Replay-cache hits summed over shard engines.
    pub fn replay_hits(&self) -> u64 {
        self.shards
            .iter()
            .map(|s| s.lock_engine().replay_hits())
            .sum()
    }

    /// Replay-cache misses summed over shard engines.
    pub fn replay_misses(&self) -> u64 {
        self.shards
            .iter()
            .map(|s| s.lock_engine().replay_misses())
            .sum()
    }

    fn ensure_shards(&mut self, a: &Csc) -> Result<(), AccelError> {
        let fp = structure_fingerprint(a.pattern());
        match self.operand {
            Some((have, rows, cols, nnz)) => {
                if (have, rows, cols, nnz) != (fp, a.rows(), a.cols(), a.nnz()) {
                    return Err(AccelError::InvalidConfig(
                        "sharded engine partitioned for a different operand structure \
                         (shard slices are valid for exactly one sparsity structure)"
                            .into(),
                    ));
                }
                Ok(())
            }
            None => {
                // Shard members run timing-only: the merge recomputes the
                // numerics through the pinned global-order kernel, so
                // per-shard partials would be discarded work (module docs).
                let member_engine = || Mutex::new(FastEngine::new(self.config.clone()));
                self.shards = self
                    .partitioner
                    .partition(a)
                    .iter()
                    .map(|shard| EngineShard {
                        cols: shard.cols.clone(),
                        a: Arc::new(shard.slice(a)),
                        engine: member_engine(),
                    })
                    .collect();
                if self.shards.is_empty() {
                    // 0-column operand (the partitioner returns no shards):
                    // keep one degenerate shard so round accounting still
                    // mirrors the unsharded engine.
                    self.shards.push(EngineShard {
                        cols: 0..a.cols(),
                        a: Arc::new(a.clone()),
                        engine: member_engine(),
                    });
                }
                self.operand = Some((fp, a.rows(), a.cols(), a.nnz()));
                Ok(())
            }
        }
    }

    /// Runs one sharded SPMM, returning the merged outcome plus per-shard
    /// statistics.
    ///
    /// # Errors
    ///
    /// Shape errors, or [`AccelError::InvalidConfig`] when the engine was
    /// partitioned for a different operand.
    pub fn run_detailed(
        &mut self,
        a: &Csc,
        b: &DenseMatrix,
        label: &str,
    ) -> Result<ShardedOutcome, AccelError> {
        check_shapes(a.pattern(), b)?;
        self.ensure_shards(a)?;
        let threads = self.config.threads.unwrap_or_else(exec::num_threads);
        run_shards(
            threads,
            &self.shards,
            a,
            b,
            label,
            |shard| shard.cols.clone(),
            |shard, b_slice| {
                shard
                    .lock_engine()
                    .run_timing(shard.a.pattern(), b_slice, label)
            },
        )
    }

    /// Freezes every shard engine's tuning state into a shareable
    /// [`ShardedPlan`] (the sharded analogue of
    /// [`FastEngine::freeze_plan`]).
    ///
    /// # Errors
    ///
    /// [`AccelError::InvalidConfig`] when `a` is not the operand the
    /// engine partitioned.
    pub fn freeze_plan(&mut self, a: &Csc) -> Result<ShardedPlan, AccelError> {
        self.ensure_shards(a)?;
        let mut shards = Vec::with_capacity(self.shards.len());
        for shard in &self.shards {
            let mut engine = shard.lock_engine();
            let plan = engine.freeze_plan(&shard.a)?;
            shards.push(PlanShard {
                cols: shard.cols.clone(),
                a: Arc::clone(&shard.a),
                plan,
            });
        }
        Ok(ShardedPlan {
            config: self.config.clone(),
            rows: a.rows(),
            cols: a.cols(),
            nnz: a.nnz(),
            fingerprint: structure_fingerprint(a.pattern()),
            shards,
        })
    }
}

impl SpmmEngine for ShardedEngine {
    fn run(&mut self, a: &Csc, b: &DenseMatrix, label: &str) -> Result<SpmmOutcome, AccelError> {
        self.run_detailed(a, b, label).map(|s| s.outcome)
    }

    fn plan(
        &mut self,
        _a: &Csc,
        _warmup: &DenseMatrix,
        _label: &str,
    ) -> Result<PlanOutcome, AccelError> {
        // A sharded warm-up freezes into a ShardedPlan, which is not a
        // single TunedPlan; use `ShardedEngine::freeze_plan` instead.
        Err(AccelError::InvalidConfig(
            "sharded engines freeze via ShardedEngine::freeze_plan (a ShardedPlan is not a \
             single TunedPlan)"
                .into(),
        ))
    }

    fn config(&self) -> &AccelConfig {
        &self.config
    }
}

/// One frozen shard of a [`ShardedPlan`].
#[derive(Debug, Clone)]
pub struct PlanShard {
    cols: Range<usize>,
    /// The shard's column slice, shared with the engine that froze it
    /// (and across plan clones) rather than re-copied.
    a: Arc<Csc>,
    plan: TunedPlan,
}

impl PlanShard {
    /// The shard's column range in the full operand.
    pub fn cols(&self) -> Range<usize> {
        self.cols.clone()
    }

    /// Non-zeros in the shard.
    pub fn nnz(&self) -> usize {
        self.a.nnz()
    }

    /// The shard's frozen per-operand plan.
    pub fn plan(&self) -> &TunedPlan {
        &self.plan
    }
}

/// Frozen sharded tuning state: one [`TunedPlan`] per column shard plus
/// the full operand's fingerprint. The sharded analogue of [`TunedPlan`];
/// produced by [`ShardedEngine::freeze_plan`], executed via
/// [`session`](ShardedPlan::session). `Sync` for the same reason plans
/// are: shard maps are immutable, shard replay caches are monotone.
#[derive(Debug, Clone)]
pub struct ShardedPlan {
    config: AccelConfig,
    rows: usize,
    cols: usize,
    nnz: usize,
    fingerprint: u64,
    shards: Vec<PlanShard>,
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

    /// Non-zeros of the full planned operand.
    pub fn nnz(&self) -> usize {
        self.nnz
    }

    /// FNV-1a fingerprint of the full operand structure.
    pub fn fingerprint(&self) -> u64 {
        self.fingerprint
    }

    /// True when `a` has the structure this plan was partitioned for.
    pub fn matches(&self, a: &Csc) -> bool {
        a.rows() == self.rows
            && a.cols() == self.cols
            && a.nnz() == self.nnz
            && structure_fingerprint(a.pattern()) == self.fingerprint
    }

    /// Auto-tuning rounds spent before freezing, summed over shards.
    pub fn tuning_rounds(&self) -> usize {
        self.shards.iter().map(|s| s.plan.tuning_rounds()).sum()
    }

    /// Rows exchanged by remote switching during warm-up, summed over
    /// shards.
    pub fn total_switches(&self) -> u64 {
        self.shards.iter().map(|s| s.plan.total_switches()).sum()
    }

    /// Replay hits summed over shard caches.
    pub fn replay_hits(&self) -> u64 {
        self.shards.iter().map(|s| s.plan.replay_hits()).sum()
    }

    /// Replay misses summed over shard caches.
    pub fn replay_misses(&self) -> u64 {
        self.shards.iter().map(|s| s.plan.replay_misses()).sum()
    }

    /// Estimated heap bytes resident across all shards: each shard's
    /// column-slice copy of the operand plus its frozen per-shard
    /// [`TunedPlan`] (row map + replay cache). The sharded analogue of
    /// [`TunedPlan::memory_bytes`].
    pub fn memory_bytes(&self) -> u64 {
        self.shards
            .iter()
            .map(|s| s.a.heap_bytes() as u64 + s.plan.memory_bytes())
            .sum()
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

/// A cheap per-request executor over a shared [`ShardedPlan`] — the
/// sharded analogue of [`SpmmSession`](crate::SpmmSession). Every shard
/// round runs under its frozen map (no tuning, ever), shard sessions fan
/// out on [`exec`], and the merged output is pinned bit-identical to the
/// unsharded path.
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
    /// statistics.
    ///
    /// # Errors
    ///
    /// Shape errors, or [`AccelError::InvalidConfig`] when the operand's
    /// structure does not match the plan's fingerprint.
    pub fn run_detailed(
        &self,
        a: &Csc,
        b: &DenseMatrix,
        label: &str,
    ) -> Result<ShardedOutcome, AccelError> {
        check_shapes(a.pattern(), b)?;
        let plan = self.plan;
        if a.rows() != plan.rows {
            return Err(AccelError::InvalidConfig(format!(
                "sharded plan tuned for {} rows used with {} rows",
                plan.rows,
                a.rows()
            )));
        }
        if self.verify_operand && !plan.matches(a) {
            return Err(AccelError::InvalidConfig(format!(
                "operand structure fingerprint {:#018x} does not match the sharded plan's \
                 {:#018x} (plans are valid for exactly one sparsity structure)",
                structure_fingerprint(a.pattern()),
                plan.fingerprint
            )));
        }
        let threads = plan.config.threads.unwrap_or_else(exec::num_threads);
        run_shards(
            threads,
            &plan.shards,
            a,
            b,
            label,
            |shard| shard.cols.clone(),
            |shard, b_slice| {
                // Timing-only member sessions: the merged numerics come
                // from the pinned global-order kernel in `run_shards`.
                shard
                    .plan
                    .session_trusted()
                    .run_timing(shard.a.pattern(), b_slice, label)
            },
        )
    }
}

impl SpmmEngine for ShardedSession<'_> {
    fn run(&mut self, a: &Csc, b: &DenseMatrix, label: &str) -> Result<SpmmOutcome, AccelError> {
        self.run_detailed(a, b, label).map(|s| s.outcome)
    }

    fn plan(
        &mut self,
        _a: &Csc,
        _warmup: &DenseMatrix,
        _label: &str,
    ) -> Result<PlanOutcome, AccelError> {
        Err(AccelError::InvalidConfig(
            "sharded sessions execute an existing ShardedPlan; they do not produce TunedPlans"
                .into(),
        ))
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

    #[test]
    fn sharded_output_matches_unsharded_bitwise() {
        let a = skewed(96, 60);
        let b = dense(96, 10);
        let mut unsharded = FastEngine::new(config(8, 1));
        let reference = unsharded.run(&a, &b, "t").unwrap();
        for shards in [1, 2, 3, 4, 7] {
            let mut engine = ShardedEngine::new(config(8, shards));
            let out = engine.run(&a, &b, "t").unwrap();
            assert_eq!(out.c, reference.c, "{shards} shards");
            let expect = spmm::csc_times_dense(&a, &b).unwrap();
            assert!(out.c.approx_eq(&expect, 1e-4));
        }
    }

    #[test]
    fn single_shard_stats_match_unsharded() {
        // One shard = one device: the merged view degenerates to exactly
        // the unsharded engine's stats.
        let a = skewed(64, 40);
        let b = dense(64, 6);
        let mut unsharded = FastEngine::new(config(8, 1));
        let reference = unsharded.run(&a, &b, "t").unwrap();
        let mut engine = ShardedEngine::new(config(8, 1));
        let out = engine.run(&a, &b, "t").unwrap();
        assert_eq!(out.stats, reference.stats);
        assert_eq!(out.c, reference.c);
    }

    #[test]
    fn stats_views_and_conservation() {
        let a = skewed(96, 60);
        let b = dense(96, 8);
        let mut engine = ShardedEngine::new(config(8, 4));
        let out = engine.run_detailed(&a, &b, "t").unwrap();
        assert_eq!(out.per_shard.len(), 4);
        assert_eq!(engine.shard_count(), 4);
        // Total PEs across shard devices; tasks conserved across shards.
        assert_eq!(out.outcome.stats.n_pes, 4 * 8);
        assert_eq!(
            out.outcome.stats.total_tasks(),
            spmm::csc_times_dense_macs(&a, &b).unwrap() as u64
        );
        // Critical path is the max per round; the sum view is over devices.
        assert!(out.critical_path_cycles() <= out.sum_cycles());
        let per_shard_max: u64 = (0..b.cols())
            .map(|r| {
                out.per_shard
                    .iter()
                    .map(|s| s.rounds[r].cycles)
                    .max()
                    .unwrap()
            })
            .sum();
        assert_eq!(out.critical_path_cycles(), per_shard_max);
        let util = out.outcome.stats.utilization();
        assert!(util > 0.0 && util <= 1.0);
        assert_eq!(out.outcome.stats.queue_high_water.len(), 4 * 8);
    }

    #[test]
    fn frozen_plan_requests_are_bit_identical_and_tune_free() {
        let a = skewed(128, 90);
        let warmup = dense(128, 8);
        let b = dense(128, 5);
        let mut engine = ShardedEngine::new(config(8, 3));
        let cold = engine.run(&a, &warmup, "warmup").unwrap();
        let plan = engine.freeze_plan(&a).unwrap();
        assert_eq!(plan.shard_count(), 3);
        assert!(plan.matches(&a));
        assert!(plan.tuning_rounds() > 0);
        let served = plan.session().run_detailed(&a, &b, "req").unwrap();
        for s in &served.per_shard {
            assert_eq!(s.tuning_rounds(), 0);
        }
        // Same request through the unsharded reference path: bit-identical.
        let mut reference = FastEngine::new(config(8, 1));
        reference.run(&a, &warmup, "warmup").unwrap();
        let expect = reference.run(&a, &b, "req").unwrap();
        assert_eq!(served.outcome.c, expect.c);
        let _ = cold;
        // Replay counters aggregate over shard caches.
        let hits = plan.replay_hits();
        plan.session().run_detailed(&a, &b, "req").unwrap();
        assert!(plan.replay_hits() > hits);
    }

    #[test]
    fn engine_and_plan_reject_foreign_operands() {
        let a = skewed(64, 40);
        let b = dense(64, 4);
        let mut engine = ShardedEngine::new(config(8, 2));
        engine.run(&a, &b, "t").unwrap();
        let other = skewed(64, 20); // same shape, different structure
        assert!(matches!(
            engine.run(&other, &b, "t"),
            Err(AccelError::InvalidConfig(_))
        ));
        let plan = engine.freeze_plan(&a).unwrap();
        assert!(!plan.matches(&other));
        assert!(matches!(
            plan.session().run_detailed(&other, &b, "t"),
            Err(AccelError::InvalidConfig(_))
        ));
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
        // what a ShardedEngine reports on the same operand and cut.
        let a = skewed(96, 60);
        let b = dense(96, 8);
        let cfg = config(8, 1);
        let partitioner = ColumnPartitioner::by_shards(3);
        let mut engine = ShardedEngine::with_partitioner(cfg.clone(), partitioner);
        let expect = engine.run(&a, &b, "t").unwrap().stats;
        let stats = shard_timing(&cfg, partitioner, a.pattern(), &b, "t").unwrap();
        assert_eq!(stats, expect);
        assert_eq!(stats.n_pes, 3 * 8);
    }

    #[test]
    fn spmm_engine_plan_is_rejected() {
        let a = skewed(32, 10);
        let b = dense(32, 2);
        let mut engine = ShardedEngine::new(config(4, 2));
        assert!(matches!(
            SpmmEngine::plan(&mut engine, &a, &b, "t"),
            Err(AccelError::InvalidConfig(_))
        ));
    }
}
