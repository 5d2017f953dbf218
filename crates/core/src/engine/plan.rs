//! The tuned-plan layer: frozen per-operand tuning state, shareable across
//! requests.
//!
//! AWB-GCN's auto-tuning converges in a few rounds and the frozen row map
//! is then "used for the remaining iterations" (paper §4.4). A
//! [`TunedPlan`] is that converged artifact made first-class: the frozen
//! row→PE map, the steady-state replay cache, the operand's sparsity
//! fingerprint, and the configuration — everything that is a function of
//! *the graph*, none of what is a function of *one request*. Plans are
//! frozen once per sparse operand after a warm-up run on either engine
//! ([`FastEngine::freeze_plan`](crate::FastEngine::freeze_plan),
//! [`DetailedEngine::freeze_plan`](crate::DetailedEngine::freeze_plan))
//! and then executed against any number of times through cheap
//! per-request [`SpmmSession`]s, which replay whenever the operand is on
//! chip.
//!
//! # Concurrency contract
//!
//! A plan is `Sync`: any number of sessions may execute against one
//! `&TunedPlan` concurrently (the serving front-end fans request batches
//! out on [`exec`](crate::exec)). The frozen map and fingerprint are
//! immutable; the replay cache is interior-mutable and *monotone* — all
//! sessions read and warm the same cache, and because a pattern's timing
//! is a pure function of (operand structure, frozen map, pattern),
//! concurrent insertion of the same key writes the same value. Outcomes
//! (stats and output matrices) are therefore bit-identical regardless of
//! scheduling; only the aggregate hit/miss counters can vary when two
//! sessions race on the same uncached pattern (both count a miss).

use crate::config::AccelConfig;
use crate::engine::steady::{
    column_runs, compute_columns, execute_steady, ColumnRun, MemoryParams, ReplayCache, SimParams,
    SteadySpan,
};
use crate::engine::{check_shapes, SpmmEngine, SpmmOutcome};
use crate::error::AccelError;
use crate::exec;
use crate::mapping::RowMap;
use crate::rebalance::local::LocalSharing;
use crate::stats::SpmmStats;
use awb_sparse::{Csc, CscPattern, DenseMatrix};

pub(crate) use crate::engine::steady::structure_fingerprint;

/// Frozen per-operand tuning state (see module docs): the reusable product
/// of a warm-up phase, executed against via [`SpmmSession`]s.
///
/// # Example
///
/// ```
/// use awb_accel::{AccelConfig, Design, FastEngine, SpmmEngine};
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
/// // Pay tuning once…
/// let mut engine = FastEngine::new(config);
/// engine.run(&a, &warmup, "warmup")?;
/// let plan = engine.freeze_plan(a.pattern())?;
/// // …then serve N requests against the shared plan.
/// let b = DenseMatrix::from_rows(&[&[2.0], &[5.0], &[0.5], &[1.0]])?;
/// let out = plan.session().run(&a, &b, "request")?;
/// assert_eq!(out.c.get(0, 0), 10.0);
/// assert_eq!(out.stats.tuning_rounds(), 0); // sessions never re-tune
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone)]
pub struct TunedPlan {
    config: AccelConfig,
    row_map: RowMap,
    fingerprint: u64,
    nnz: usize,
    memory: MemoryParams,
    tuning_rounds: usize,
    total_switches: u64,
    cache: ReplayCache,
}

impl TunedPlan {
    /// Assembles a plan from an engine's frozen state (crate-internal; use
    /// an engine's `freeze_plan`).
    pub(crate) fn from_frozen(
        config: AccelConfig,
        row_map: RowMap,
        a: &CscPattern,
        tuning_rounds: usize,
        total_switches: u64,
        cache: ReplayCache,
    ) -> Self {
        let fingerprint = structure_fingerprint(a);
        // The snapshot may hold timings for a *different* operand the
        // engine saw last; re-guard so the plan's cache only ever
        // describes its own operand.
        cache.guard(fingerprint);
        TunedPlan {
            memory: MemoryParams::for_operand(&config, a.nnz()),
            config,
            row_map,
            fingerprint,
            nnz: a.nnz(),
            tuning_rounds,
            total_switches,
            cache,
        }
    }

    /// The configuration the plan was tuned under.
    pub fn config(&self) -> &AccelConfig {
        &self.config
    }

    /// The frozen row→PE map.
    pub fn row_map(&self) -> &RowMap {
        &self.row_map
    }

    /// FNV-1a fingerprint of the operand structure the plan is valid for.
    pub fn fingerprint(&self) -> u64 {
        self.fingerprint
    }

    /// Non-zeros of the planned operand.
    pub fn nnz(&self) -> usize {
        self.nnz
    }

    /// Auto-tuning rounds the warm-up spent before freezing.
    pub fn tuning_rounds(&self) -> usize {
        self.tuning_rounds
    }

    /// Rows exchanged by remote switching during the warm-up.
    pub fn total_switches(&self) -> u64 {
        self.total_switches
    }

    /// True when `a` has the structure this plan was tuned for.
    pub fn matches(&self, a: &Csc) -> bool {
        a.nnz() == self.nnz && structure_fingerprint(a.pattern()) == self.fingerprint
    }

    /// Estimated heap bytes this plan holds: the frozen row→PE map (`u32`
    /// per row) plus the replay cache's memoized timings — everything the
    /// plan keeps between requests. The serving front-end's plan-cache
    /// budget is derived from these estimates (`DESIGN.md` §9); they track
    /// the dominant arrays, not allocator-exact overheads.
    pub fn memory_bytes(&self) -> u64 {
        (std::mem::size_of_val(self.row_map.pe_of_row()) + self.cache.approx_bytes()) as u64
    }

    /// Steady-state rounds served from the shared replay cache (summed
    /// over all sessions on this plan).
    pub fn replay_hits(&self) -> u64 {
        self.cache.hits()
    }

    /// Steady-state rounds that had to be simulated (and were memoized).
    pub fn replay_misses(&self) -> u64 {
        self.cache.misses()
    }

    /// Distinct memoized patterns currently held.
    pub fn cached_patterns(&self) -> usize {
        self.cache.len()
    }

    /// Opens a per-request execution session against this plan.
    pub fn session(&self) -> SpmmSession<'_> {
        SpmmSession {
            plan: self,
            verify_operand: true,
        }
    }

    /// A session that skips the per-run O(nnz) fingerprint re-hash.
    /// Crate-internal: only for callers that hold the exact operand the
    /// plan was built from (e.g. `GcnPlan`, which owns both the plan and
    /// its adjacency) — the shape/row-count checks still run.
    pub(crate) fn session_trusted(&self) -> SpmmSession<'_> {
        SpmmSession {
            plan: self,
            verify_operand: false,
        }
    }

    fn sim_params(&self) -> SimParams {
        SimParams {
            n_pes: self.config.n_pes,
            lat: self.config.mac_latency as u64,
            bandwidth: self.memory.bandwidth,
            stall_mode: self.config.stall_mode,
            sharing: (self.config.local_hop > 0)
                .then(|| LocalSharing::new(self.config.local_hop, self.config.n_pes)),
        }
    }
}

/// A cheap per-request executor over a shared [`TunedPlan`].
///
/// Every round runs under the frozen map (no tuning, ever), so repeated
/// patterns replay from the plan's cache starting with the very first
/// request. Implements [`SpmmEngine`], so a session is a drop-in engine
/// wherever one is expected.
#[derive(Debug, Clone)]
pub struct SpmmSession<'p> {
    plan: &'p TunedPlan,
    /// Whether `run` re-hashes the operand's structure against the plan's
    /// fingerprint (false only via `TunedPlan::session_trusted`).
    verify_operand: bool,
}

impl SpmmSession<'_> {
    /// The plan this session executes against.
    pub fn plan(&self) -> &TunedPlan {
        self.plan
    }

    /// The timing half of [`run`](SpmmEngine::run), from `A`'s structure
    /// alone — the session analogue of
    /// [`FastEngine::run_timing`](crate::FastEngine::run_timing). Every
    /// statistic (and the shared replay cache's behaviour) is exactly what
    /// a full run reports. Shard-member sessions run this because the
    /// sharded merge recomputes the output through the pinned
    /// global-order kernel.
    ///
    /// # Errors
    ///
    /// Same conditions as [`run`](SpmmEngine::run).
    pub fn run_timing(
        &self,
        a: &CscPattern,
        b: &DenseMatrix,
        label: &str,
    ) -> Result<SpmmStats, AccelError> {
        check_shapes(a, b)?;
        self.time_runs(a, &column_runs(b, 0..b.rows()), label)
    }

    /// [`run_timing`](SpmmSession::run_timing) over the dense operand's
    /// column runs for `a`'s columns (shapes checked by the caller).
    pub(crate) fn time_runs(
        &self,
        a: &CscPattern,
        runs: &[ColumnRun],
        label: &str,
    ) -> Result<SpmmStats, AccelError> {
        let plan = self.plan;
        if a.rows() != plan.row_map.n_rows() {
            return Err(AccelError::InvalidConfig(format!(
                "plan tuned for {} rows used with {} rows",
                plan.row_map.n_rows(),
                a.rows()
            )));
        }
        if self.verify_operand {
            let fingerprint = structure_fingerprint(a);
            if a.nnz() != plan.nnz || fingerprint != plan.fingerprint {
                return Err(AccelError::InvalidConfig(format!(
                    "operand structure fingerprint {:#018x} does not match the plan's {:#018x} \
                     (plans are valid for exactly one sparsity structure)",
                    fingerprint, plan.fingerprint
                )));
            }
        }
        let n_pes = plan.config.n_pes;
        let mut rounds = Vec::with_capacity(runs.last().map_or(0, |run| run.cols.end));
        let mut queue_high_water = vec![0u32; n_pes];
        // The cache is shared only when the operand is resident on chip
        // (the same validity condition as the engine's replay path).
        let cache = plan.memory.on_chip.then_some(&plan.cache);
        let threads = plan.config.threads.unwrap_or_else(exec::num_threads);
        execute_steady(
            SteadySpan {
                a,
                runs,
                pe_of_row: plan.row_map.pe_of_row(),
                params: plan.sim_params(),
                memory: plan.memory,
                threads,
                cache,
            },
            &mut rounds,
            &mut queue_high_water,
        );
        Ok(SpmmStats {
            label: label.to_owned(),
            n_pes,
            rounds,
            queue_high_water,
        })
    }
}

impl SpmmEngine for SpmmSession<'_> {
    fn run(&mut self, a: &Csc, b: &DenseMatrix, label: &str) -> Result<SpmmOutcome, AccelError> {
        let stats = self.run_timing(a.pattern(), b, label)?;
        let threads = self.plan.config.threads.unwrap_or_else(exec::num_threads);
        let c = compute_columns(a, b, threads);
        Ok(SpmmOutcome { c, stats })
    }

    fn config(&self) -> &AccelConfig {
        &self.plan.config
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::Design;
    use crate::engine::FastEngine;
    use awb_sparse::Coo;

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

    /// A zero-free dense operand: every column shares the all-rows
    /// pattern, so a plan warmed with it has the pattern of any other
    /// zero-free request already cached.
    fn dense_full(rows: usize, cols: usize) -> DenseMatrix {
        let data: Vec<f32> = (0..rows * cols).map(|i| ((i % 7) as f32) + 1.0).collect();
        DenseMatrix::from_vec(rows, cols, data).unwrap()
    }

    fn planned(n: usize, heavy: usize, n_pes: usize) -> (Csc, TunedPlan) {
        let a = skewed(n, heavy);
        let warmup = dense_full(n, 8);
        let config = Design::LocalPlusRemote { hop: 1 }
            .apply(AccelConfig::builder().n_pes(n_pes).build().unwrap());
        let mut engine = FastEngine::new(config);
        engine.run(&a, &warmup, "warmup").unwrap();
        let plan = engine.freeze_plan(a.pattern()).unwrap();
        (a, plan)
    }

    #[test]
    fn plan_freezes_tuning_and_sessions_never_tune() {
        let (a, plan) = planned(128, 100, 16);
        assert!(plan.tuning_rounds() > 0);
        assert!(plan.total_switches() > 0);
        let out = plan.session().run(&a, &dense(128, 6), "req").unwrap();
        assert_eq!(out.stats.tuning_rounds(), 0);
        assert_eq!(out.stats.rounds.len(), 6);
    }

    #[test]
    fn session_matches_warm_engine_bitwise() {
        // A session over a frozen plan must reproduce exactly what the
        // engine that built the plan produces on its next (fully frozen)
        // run.
        let a = skewed(96, 60);
        let b = dense(96, 10);
        let config = Design::LocalPlusRemote { hop: 2 }
            .apply(AccelConfig::builder().n_pes(8).build().unwrap());
        let mut engine = FastEngine::new(config);
        engine.run(&a, &b, "warmup").unwrap();
        let plan = engine.freeze_plan(a.pattern()).unwrap();
        let from_engine = engine.run(&a, &b, "req").unwrap();
        let from_session = plan.session().run(&a, &b, "req").unwrap();
        assert_eq!(from_engine.stats, from_session.stats);
        assert_eq!(from_engine.c, from_session.c);
    }

    #[test]
    fn shared_cache_warms_across_sessions() {
        let (a, plan) = planned(64, 40, 8);
        let b = DenseMatrix::from_vec(64, 4, vec![1.0; 256]).unwrap();
        let before = plan.replay_hits();
        plan.session().run(&a, &b, "r1").unwrap();
        let after_first = plan.replay_hits();
        plan.session().run(&a, &b, "r2").unwrap();
        let after_second = plan.replay_hits();
        // All four columns share one (fully dense) pattern; the warm-up
        // already cached it, so hits strictly increase from request 1 on.
        assert!(after_first > before, "{before} -> {after_first}");
        assert!(after_second > after_first);
        assert_eq!(plan.replay_misses(), 0);
    }

    #[test]
    fn plan_rejects_mismatched_structure() {
        let (_, plan) = planned(64, 40, 8);
        // Same shape and row count, different sparsity structure.
        let other = skewed(64, 20);
        let err = plan.session().run(&other, &dense(64, 2), "req");
        assert!(matches!(err, Err(AccelError::InvalidConfig(_))));
        assert!(!plan.matches(&other));
        // Different row count is also rejected.
        let small = skewed(32, 10);
        assert!(matches!(
            plan.session().run(&small, &dense(32, 2), "req"),
            Err(AccelError::InvalidConfig(_))
        ));
    }

    #[test]
    fn concurrent_sessions_agree_with_sequential() {
        let (a, plan) = planned(96, 60, 8);
        let requests: Vec<DenseMatrix> = (0..6)
            .map(|i| {
                DenseMatrix::from_vec(
                    96,
                    5,
                    (0..96 * 5).map(|j| ((i + j) % 5) as f32 - 1.0).collect(),
                )
                .unwrap()
            })
            .collect();
        let sequential: Vec<SpmmOutcome> = requests
            .iter()
            .map(|b| plan.session().run(&a, b, "req").unwrap())
            .collect();
        let concurrent =
            exec::par_map_threads(4, &requests, |b| plan.session().run(&a, b, "req").unwrap());
        for (s, p) in sequential.iter().zip(&concurrent) {
            assert_eq!(s.stats, p.stats);
            assert_eq!(s.c, p.c);
        }
    }
}
