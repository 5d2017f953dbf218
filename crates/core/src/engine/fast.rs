//! The fast SPMM engine: O(1) work per MAC task — and O(1) work per
//! *round* once the configuration has frozen and the round's structure has
//! been seen before.
//!
//! Models the architecture at queue-dynamics granularity:
//!
//! * the distributor delivers `n_pes` non-zero tasks per cycle in stream
//!   order (TDQ-1's rate-matched fetch and TDQ-2's CSC stream both sustain
//!   this in the paper's design),
//! * every PE issues at most one MAC per cycle and drains its queue in
//!   FIFO order,
//! * local sharing compares (lazily drained) pending-task counters within
//!   the hop window at enqueue time,
//! * the RaW scoreboard extends per-row completion times (optionally
//!   blocking the issue slot, see [`StallMode`](crate::StallMode)),
//! * remote switching and auto-tuning run between rounds on the per-round
//!   PE-busy profile.
//!
//! # Steady-state round replay
//!
//! Once the auto-tuner freezes the row map, a round's queue dynamics are a
//! pure function of *which* dense-operand entries `b(j, k)` are non-zero —
//! the values only scale the products, never the schedule. The engine
//! therefore memoizes the per-round timing keyed by the round's non-zero
//! column pattern and replays it for every later round with the same
//! pattern (in GCN layers most rounds are fully dense in `b[:, k]` and
//! share one pattern — including across the layer-2 reuse of `A`'s
//! engine). Rounds are grouped into runs of consecutive columns with
//! identical patterns first, so a pattern is extracted and looked up
//! once per run, not once per round. The round the tuner freezes on
//! seeds the cache when it exchanged no rows: the frozen map is then the
//! map it ran under, so its timing is its pattern's steady timing, and the
//! steady phase replays it instead of simulating the same (pattern, map)
//! pair again. The round model and the replay cache live in the
//! crate-internal `steady` module. See `DESIGN.md` §5/§6 for the validity
//! argument and the plan/execute split.
//!
//! Frozen-phase rounds are independent (each owns one output column of
//! `C`), so they execute on the [`exec`](crate::exec) substrate —
//! deterministic order, bit-identical to the sequential path at any
//! `AWB_THREADS` setting.
//!
//! The model is validated against [`DetailedEngine`](super::DetailedEngine)
//! in the crate's integration tests.
//!
//! # A frozen engine is a plan shard
//!
//! AWB-GCN reuses the frozen row map "for the remaining iterations"
//! (paper §4.4). [`FastEngine::freeze_plan`] force-freezes the tuner, and
//! [`ShardedEngine::freeze_plan`](super::ShardedEngine::freeze_plan)
//! shares its frozen members, one per column shard, as a
//! [`ShardedPlan`](super::ShardedPlan): every request then runs through a
//! [`ShardedSession`](super::ShardedSession), which times each shard
//! through the same steady phase this engine's own runs end with — by
//! `&self`, never tuning.
//!
//! Concurrency contract: a frozen engine is `Sync`, and any number of
//! sessions may time against it at once (the serving front-end fans
//! request batches out on [`exec`](crate::exec)). The frozen map is
//! immutable; the replay cache is interior-mutable and *monotone* — all
//! sessions read and warm the same cache, and because a pattern's timing
//! is a pure function of (operand structure, frozen map, pattern),
//! concurrent insertion of the same key writes the same value. Statistics
//! are therefore bit-identical regardless of scheduling; only the
//! aggregate hit/miss counters can vary when two sessions race on the
//! same uncached pattern (both count a miss).

use crate::config::AccelConfig;
use crate::engine::steady::{
    column_runs, simulate_round, structure_fingerprint, ColumnRun, MemoryParams, ReplayCache,
    RoundTiming, SimParams,
};
use crate::engine::tuning::TuningState;
use crate::engine::{check_shapes, pinned_outcome, SpmmEngine, SpmmOutcome};
use crate::error::AccelError;
use crate::exec;
use crate::mapping::RowMap;
use crate::stats::{RoundStats, SpmmStats};
use awb_sparse::{Csc, CscPattern, DenseMatrix};
use std::ops::Range;

/// Fast queue-dynamics engine (see module docs).
///
/// # Example
///
/// ```
/// use awb_accel::{AccelConfig, FastEngine, SpmmEngine};
/// use awb_sparse::{Coo, DenseMatrix};
///
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// let mut a = Coo::new(4, 4);
/// a.push(0, 1, 2.0)?;
/// a.push(3, 0, 1.0)?;
/// let b = DenseMatrix::from_rows(&[&[1.0], &[3.0], &[0.0], &[0.0]])?;
/// let config = AccelConfig::builder().n_pes(2).build()?;
/// let mut engine = FastEngine::new(config);
/// let out = engine.run(&a.to_csc(), &b, "demo")?;
/// assert_eq!(out.c.get(0, 0), 6.0);
/// assert!(out.stats.total_cycles() > 0);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone)]
pub struct FastEngine {
    config: AccelConfig,
    tuning: Option<TuningState>,
    replay_enabled: bool,
    cache: ReplayCache,
    /// Structure fingerprint of the operand the replay cache describes,
    /// kept by [`run_timing`](FastEngine::run_timing) only.
    fingerprint: Option<u64>,
}

impl FastEngine {
    /// Creates an engine; the row map is initialized lazily from the first
    /// sparse operand. Frozen-phase rounds run on
    /// [`AccelConfig::threads`] workers, and the replay cache starts
    /// enabled (see [`set_replay_enabled`](FastEngine::set_replay_enabled)).
    pub fn new(config: AccelConfig) -> Self {
        FastEngine {
            replay_enabled: true,
            config,
            tuning: None,
            cache: ReplayCache::new(),
            fingerprint: None,
        }
    }

    /// The current row→PE map (None before the first run).
    pub fn row_map(&self) -> Option<&RowMap> {
        self.tuning.as_ref().map(|t| &t.map)
    }

    /// Rows exchanged by remote switching so far.
    pub fn total_switches(&self) -> u64 {
        self.tuning.as_ref().map_or(0, |t| t.tuner.total_switches())
    }

    /// Auto-tuning rounds observed before the tuner froze (0 before the
    /// first run).
    pub fn tuning_rounds(&self) -> usize {
        self.tuning.as_ref().map_or(0, |t| t.tuner.rounds_done())
    }

    /// Whether the auto-tuner is still adjusting.
    pub fn tuning_active(&self) -> bool {
        self.tuning.as_ref().is_some_and(|t| t.tuner.is_active())
    }

    /// Estimated heap bytes the engine keeps between runs: the row→PE map
    /// (`u32` per row) plus the replay cache's memoized timings — all a
    /// frozen plan shard holds. The serving front-end's plan-cache budget
    /// is derived from these estimates (`DESIGN.md` §9); they track the
    /// dominant arrays, not allocator-exact overheads.
    pub fn memory_bytes(&self) -> u64 {
        let map = self
            .row_map()
            .map_or(0, |m| std::mem::size_of_val(m.pe_of_row()));
        (map + self.cache.approx_bytes()) as u64
    }

    /// Enables or disables the steady-state replay cache (enabled by
    /// default). Disabling forces every round through the full queue
    /// simulation — the straight-simulated reference the replay path is
    /// tested against.
    pub fn set_replay_enabled(&mut self, on: bool) {
        self.replay_enabled = on;
        if !on {
            self.cache.clear();
        }
    }

    /// Steady-state rounds whose timing was served from the replay cache.
    pub fn replay_hits(&self) -> u64 {
        self.cache.hits()
    }

    /// Steady-state rounds whose non-zero pattern had to be simulated and
    /// was then memoized.
    pub fn replay_misses(&self) -> u64 {
        self.cache.misses()
    }

    /// Force-freezes the auto-tuner (the paper freezes at the round budget
    /// regardless): the row map as converged so far is the map every later
    /// round runs under, replaying from the warm cache. A frozen engine is
    /// a plan shard (see module docs). `n_rows` sizes the map of an engine
    /// that has not run yet.
    ///
    /// # Errors
    ///
    /// Returns [`AccelError::InvalidConfig`] when the engine was tuned for
    /// a different row count.
    pub fn freeze_plan(&mut self, n_rows: usize) -> Result<(), AccelError> {
        TuningState::ensure(&mut self.tuning, &self.config, n_rows)?
            .tuner
            .freeze();
        Ok(())
    }

    /// The timing half of [`run`](SpmmEngine::run): simulates `C = A × B`
    /// from `A`'s structure alone and returns the statistics — rounds,
    /// cycles, queue depths, auto-tuning and replay state all advance
    /// exactly as in a full run, because round timing is a pure function
    /// of the non-zero pattern, never the values. Callers that compute
    /// the numerics another way use this: shard members (the sharded
    /// merge recomputes the output through the pinned global-order
    /// kernel) and the GCN layers' `X × W` (row-major numerics, see
    /// `DESIGN.md` §8).
    ///
    /// # Errors
    ///
    /// Same conditions as [`run`](SpmmEngine::run).
    pub fn run_timing(
        &mut self,
        a: &CscPattern,
        b: &DenseMatrix,
        label: &str,
    ) -> Result<SpmmStats, AccelError> {
        check_shapes(a.shape(), b)?;
        // Replayed timings describe the structure of the operand the cache
        // was warmed on; a structurally different operand invalidates them.
        // (Shard members skip this hash: their `ShardedEngine` binds each
        // to one shard of one operand.)
        TuningState::ensure(&mut self.tuning, &self.config, a.rows())?;
        if self.replay_enabled && MemoryParams::for_operand(&self.config, a.nnz()).on_chip {
            let fingerprint = structure_fingerprint(a);
            if self.fingerprint.replace(fingerprint) != Some(fingerprint) {
                self.cache.clear();
            }
        }
        self.time_runs(a, column_runs(b, 0..b.rows()), label)
    }

    /// [`run_timing`](FastEngine::run_timing) over the dense operand's
    /// column runs: the tuning rounds, then
    /// [`time_steady`](FastEngine::time_steady) for the rest.
    pub(crate) fn time_runs(
        &mut self,
        a: &CscPattern,
        mut runs: Vec<ColumnRun>,
        label: &str,
    ) -> Result<SpmmStats, AccelError> {
        let state = TuningState::ensure(&mut self.tuning, &self.config, a.rows())?;
        // The distributor's delivery rate: full speed when SPMMeM holds
        // the operand on chip, bandwidth-bound when it must stream.
        let memory = MemoryParams::for_operand(&self.config, a.nnz());
        let params = SimParams::new(&self.config, memory);
        let use_replay = self.replay_enabled && memory.on_chip;

        let mut rounds = Vec::with_capacity(runs.last().map_or(0, |run| run.cols.end));

        // ---- Phase 1: tuning rounds, inherently sequential ----
        // Each round observes the map the previous round's switching
        // produced, so these cannot replay or run concurrently. They are
        // timing only: the numerics of every column run once, in one pass,
        // after the steady phase.
        // The last tuning round — its run, the `total_exchanged()` it ran
        // under, its timing and owner-attributed load — kept for reuse: a
        // round of the same run (so the same pattern) whose map has not
        // changed since (no row exchanged) would simulate to exactly the
        // same result.
        // Eq. 5 makes this the common case — a tuple's first observation
        // only profiles, so the round after a tuner's first observation
        // runs the same map.
        let mut previous: Option<(usize, u64, RoundTiming, Vec<u64>)> = None;
        for (i, run) in runs.iter_mut().enumerate() {
            if !state.tuner.is_active() {
                break;
            }
            while !run.cols.is_empty() && state.tuner.is_active() {
                let k = run.cols.start;
                let exchanged = state.map.total_exchanged();
                let (timing, owner_busy) = match previous.take() {
                    Some((prev_run, prev_exchanged, timing, owner_busy))
                        if prev_run == i && prev_exchanged == exchanged =>
                    {
                        (timing, owner_busy)
                    }
                    _ => {
                        let sim = simulate_round(a, &run.pattern, state.map.pe_of_row(), params);
                        (sim.timing, sim.owner_busy)
                    }
                };

                let cycles = timing.cycles + memory.fill_charge(k, timing.tasks);
                rounds.push(timing.to_stats(cycles, true));
                state.observe_round(&owner_busy, timing.tasks, cycles);
                previous = Some((i, exchanged, timing, owner_busy));
                run.cols.start += 1;
            }
        }
        // The round the tuner froze on ran under the frozen map when it
        // exchanged no rows, so its timing is the steady timing of its
        // pattern: memoized without counting a miss, it is replayed by
        // every steady round of that pattern instead of being simulated
        // again. Only a pattern the steady phase meets is seeded, so the
        // cache (and a plan frozen from it) holds the patterns it would
        // hold without the seed.
        if let Some((i, exchanged, timing, _)) = previous {
            let pattern = &runs[i].pattern;
            if use_replay
                && !state.tuner.is_active()
                && state.map.total_exchanged() == exchanged
                && runs[i..]
                    .iter()
                    .any(|run| !run.cols.is_empty() && run.pattern == *pattern)
            {
                self.cache.memoize([(pattern.as_slice(), &timing)]);
            }
        }
        // The tuned rounds are consumed from the front of the runs.
        runs.retain(|run| !run.cols.is_empty());

        // ---- Phase 2: steady-state rounds under the frozen map ----
        self.time_steady(a, &runs, rounds, label)
    }

    /// Times `runs` under the frozen row map, after the already timed
    /// `rounds`: the steady phase of [`time_runs`](FastEngine::time_runs),
    /// and all a plan session does on a frozen shard (`&self`, so sessions
    /// share the engine). Rounds are independent; timing is a pure
    /// function of the round's non-zero pattern, so each run of identical
    /// columns replays from the cache or simulates once, and fresh work
    /// runs on `exec`. With replay off, or an operand off chip, every
    /// round is simulated. Timing only — the output columns come from the
    /// pinned kernel.
    ///
    /// # Errors
    ///
    /// [`AccelError::InvalidConfig`] when the engine holds no map for
    /// `a`'s row count.
    pub(crate) fn time_steady(
        &self,
        a: &CscPattern,
        runs: &[ColumnRun],
        mut rounds: Vec<RoundStats>,
        label: &str,
    ) -> Result<SpmmStats, AccelError> {
        let Some(map) = self.row_map().filter(|map| map.n_rows() == a.rows()) else {
            return Err(AccelError::InvalidConfig(format!(
                "frozen engine used with {} rows it holds no map for",
                a.rows()
            )));
        };
        let pe_of_row = map.pe_of_row();
        let memory = MemoryParams::for_operand(&self.config, a.nnz());
        let params = SimParams::new(&self.config, memory);
        let threads = self.config.threads.unwrap_or_else(exec::num_threads);
        let timed: Vec<(Range<usize>, RoundTiming)> = if self.replay_enabled && memory.on_chip {
            let timings = self.cache.replay(a, runs, pe_of_row, params, threads);
            runs.iter()
                .map(|run| run.cols.clone())
                .zip(timings)
                .collect()
        } else {
            // Straight simulation: every round goes through the round model.
            let per_round: Vec<(usize, &[u32])> = runs
                .iter()
                .flat_map(|run| run.cols.clone().map(|k| (k, run.pattern.as_slice())))
                .collect();
            exec::par_map_threads(threads, &per_round, |&(k, pattern)| {
                (
                    k..k + 1,
                    simulate_round(a, pattern, pe_of_row, params).timing,
                )
            })
        };
        let mut queue_high_water = vec![0u32; self.config.n_pes];
        rounds.reserve(runs.iter().map(|run| run.cols.len()).sum());
        for (cols, timing) in &timed {
            // TQ sizing (the area model's input) uses steady-state rounds
            // only: the converged configuration is what production TQs are
            // provisioned for, exactly as the paper's §5.2 depth figures
            // (tuning-phase overflow is absorbed by backpressure).
            for (hw, &q) in queue_high_water.iter_mut().zip(&timing.queue_high_water) {
                *hw = (*hw).max(q);
            }
            for k in cols.clone() {
                let fill = memory.fill_charge(k, timing.tasks);
                rounds.push(timing.to_stats(timing.cycles + fill, false));
            }
        }
        Ok(SpmmStats {
            label: label.to_owned(),
            n_pes: self.config.n_pes,
            rounds,
            queue_high_water,
        })
    }
}

impl SpmmEngine for FastEngine {
    fn run(&mut self, a: &Csc, b: &DenseMatrix, label: &str) -> Result<SpmmOutcome, AccelError> {
        let stats = self.run_timing(a.pattern(), b, label)?;
        Ok(pinned_outcome(&self.config, a, b, stats))
    }

    fn config(&self) -> &AccelConfig {
        &self.config
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::{Design, MappingKind, StallMode};
    use crate::engine::steady::column_pattern;
    use crate::engine::ShardedEngine;
    use awb_sparse::{spmm, Coo};

    fn config(n_pes: usize) -> AccelConfig {
        AccelConfig::builder().n_pes(n_pes).build().unwrap()
    }

    /// A matrix with one very heavy row block (rows 0..2) and light rest.
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

    /// A dense operand with no zero entries: every column shares the
    /// all-columns pattern, the replay cache's best case.
    fn dense_full(rows: usize, cols: usize) -> DenseMatrix {
        let data: Vec<f32> = (0..rows * cols).map(|i| ((i % 7) as f32) + 1.0).collect();
        DenseMatrix::from_vec(rows, cols, data).unwrap()
    }

    #[test]
    fn functional_output_matches_reference() {
        let a = skewed(64, 40);
        let b = dense(64, 8);
        for design in [
            Design::Baseline,
            Design::LocalSharing { hop: 2 },
            Design::LocalPlusRemote { hop: 2 },
        ] {
            let mut engine = FastEngine::new(design.apply(config(8)));
            let out = engine.run(&a, &b, "t").unwrap();
            let expect = spmm::csc_times_dense(&a, &b).unwrap();
            assert!(
                out.c.approx_eq(&expect, 1e-4),
                "{design:?}: max diff {}",
                out.c.max_abs_diff(&expect).unwrap()
            );
        }
    }

    #[test]
    fn task_conservation() {
        let a = skewed(64, 40);
        let b = dense(64, 8);
        let mut engine = FastEngine::new(config(8));
        let out = engine.run(&a, &b, "t").unwrap();
        assert_eq!(
            out.stats.total_tasks(),
            spmm::csc_times_dense_macs(&a, &b).unwrap() as u64
        );
    }

    #[test]
    fn steady_state_rounds_hit_replay_cache() {
        let a = skewed(64, 40);
        let b = dense_full(64, 8);
        // Baseline has no remote switching: the tuner is born frozen and
        // every round is steady-state. All 8 columns share one pattern.
        let mut engine = FastEngine::new(Design::Baseline.apply(config(8)));
        engine.run(&a, &b, "t").unwrap();
        assert_eq!(engine.replay_misses(), 1);
        assert_eq!(engine.replay_hits(), 7);
        // The cache persists across runs on the same operand (the paper's
        // layer-2 reuse): the second run replays every round.
        engine.run(&a, &b, "t").unwrap();
        assert_eq!(engine.replay_misses(), 1);
        assert_eq!(engine.replay_hits(), 15);
    }

    #[test]
    fn non_consecutive_repeats_miss_once_per_distinct_pattern() {
        // Column patterns [P, P, Q, P, Q, Q]: P is all-dense, Q zeroes
        // every third row. Four runs of identical columns, two distinct
        // patterns — a pattern that reappears after another one is still
        // a single miss.
        let a = skewed(64, 40);
        let mut b = dense_full(64, 6);
        for k in [2, 4, 5] {
            for j in (0..64).step_by(3) {
                b.set(j, k, 0.0);
            }
        }
        let mut engine = FastEngine::new(Design::Baseline.apply(config(8)));
        engine.run(&a, &b, "t").unwrap();
        assert_eq!((engine.replay_misses(), engine.replay_hits()), (2, 4));
        engine.run(&a, &b, "t").unwrap();
        assert_eq!((engine.replay_misses(), engine.replay_hits()), (2, 10));

        // A session on a cold frozen one-shard plan counts the same way.
        let plan = ShardedEngine::new(Design::Baseline.apply(config(8)))
            .freeze_plan(&a)
            .unwrap();
        assert_eq!(plan.shard_count(), 1);
        plan.session().run(&a, &b, "t").unwrap();
        assert_eq!((plan.replay_misses(), plan.replay_hits()), (2, 4));
        plan.session().run(&a, &b, "t").unwrap();
        assert_eq!((plan.replay_misses(), plan.replay_hits()), (2, 10));
    }

    #[test]
    fn tuning_rounds_never_touch_replay_cache() {
        let a = skewed(128, 100);
        let b = dense_full(128, 16);
        let mut engine = FastEngine::new(Design::LocalPlusRemote { hop: 1 }.apply(config(16)));
        let out = engine.run(&a, &b, "t").unwrap();
        let tuning = out.stats.tuning_rounds() as u64;
        assert!(tuning > 0);
        assert_eq!(
            engine.replay_hits() + engine.replay_misses(),
            out.stats.rounds.len() as u64 - tuning,
            "exactly the steady-state rounds consult the cache"
        );
    }

    /// Whether the round the tuner froze on exchanged rows. That round ran
    /// under the map a tuner with one round less of budget freezes on, so
    /// it exchanged rows exactly when the two maps' switch counts differ.
    fn freeze_round_exchanged(cfg: &AccelConfig, a: &Csc, b: &DenseMatrix) -> bool {
        let mut engine = FastEngine::new(cfg.clone());
        let tuning = engine.run(a, b, "t").unwrap().stats.tuning_rounds();
        assert!(tuning >= 2 && !engine.tuning_active());
        let mut shorter = cfg.clone();
        shorter.max_tuning_rounds = tuning - 1;
        let mut before = FastEngine::new(shorter);
        before.run(a, b, "t").unwrap();
        engine.total_switches() != before.total_switches()
    }

    /// Runs `cfg` on a fresh engine with replay on and off; checks that
    /// the two agree bit for bit and that exactly the steady rounds
    /// consulted the cache. Returns the replaying engine's misses.
    fn steady_misses_against_straight(cfg: &AccelConfig, a: &Csc, b: &DenseMatrix) -> u64 {
        let mut engine = FastEngine::new(cfg.clone());
        let out = engine.run(a, b, "t").unwrap();
        let mut straight = FastEngine::new(cfg.clone());
        straight.set_replay_enabled(false);
        let reference = straight.run(a, b, "t").unwrap();
        assert_eq!(out.stats, reference.stats);
        assert_eq!(out.c, reference.c);
        let steady = (out.stats.rounds.len() - out.stats.tuning_rounds()) as u64;
        assert!(steady > 0);
        assert_eq!(engine.replay_hits() + engine.replay_misses(), steady);
        engine.replay_misses()
    }

    #[test]
    fn steady_phase_reuses_freeze_round_simulation() {
        // Rows move early, but the round the tuner freezes on exchanges
        // none: the frozen map is the one that round ran under, so every
        // steady round of its (all-dense) pattern replays its timing.
        let a = skewed(128, 10);
        let b = dense_full(128, 16);
        let cfg = Design::LocalPlusRemote { hop: 2 }.apply(config(16));
        assert!(!freeze_round_exchanged(&cfg, &a, &b));
        let mut engine = FastEngine::new(cfg.clone());
        engine.run(&a, &b, "t").unwrap();
        assert!(engine.total_switches() > 0);
        assert_eq!(steady_misses_against_straight(&cfg, &a, &b), 0);
    }

    #[test]
    fn freeze_round_with_exchange_simulates_steady_round() {
        // The freezing round moved rows, so its timing describes a map
        // that is no longer current: the steady phase simulates the
        // pattern once under the frozen map.
        let a = skewed(128, 100);
        let b = dense_full(128, 16);
        let cfg = Design::LocalPlusRemote { hop: 1 }.apply(config(16));
        assert!(freeze_round_exchanged(&cfg, &a, &b));
        assert_eq!(steady_misses_against_straight(&cfg, &a, &b), 1);
    }

    #[test]
    fn replay_matches_straight_simulation_bitwise() {
        let a = skewed(96, 60);
        let b = dense(96, 10);
        for design in [
            Design::Baseline,
            Design::LocalSharing { hop: 2 },
            Design::LocalPlusRemote { hop: 2 },
        ] {
            let cfg = design.apply(config(8));
            let mut cached = FastEngine::new(cfg.clone());
            let mut straight = FastEngine::new(cfg);
            straight.set_replay_enabled(false);
            let o1 = cached.run(&a, &b, "t").unwrap();
            let o2 = straight.run(&a, &b, "t").unwrap();
            assert_eq!(o1.stats, o2.stats, "{design:?}");
            assert_eq!(o1.c, o2.c, "{design:?}");
            assert_eq!(straight.replay_hits() + straight.replay_misses(), 0);
        }
    }

    #[test]
    fn reused_profiling_round_matches_straight_simulation() {
        // Every column of an all-dense B shares one pattern, and Eq. 5's
        // first observation only profiles (N₁ = 0), so round 1 runs on
        // round 0's map and reuses its simulation instead of repeating it.
        let a = skewed(128, 100);
        let b = dense_full(128, 16);
        let cfg = Design::LocalPlusRemote { hop: 1 }.apply(config(16));
        let mut engine = FastEngine::new(cfg.clone());
        let out = engine.run(&a, &b, "t").unwrap();
        assert!(out.stats.tuning_rounds() >= 2);

        // The reused round is exactly a fresh simulation of column 1 under
        // the initial map.
        let params = SimParams::new(&cfg, MemoryParams::for_operand(&cfg, a.nnz()));
        let initial = RowMap::new(a.rows(), cfg.n_pes, cfg.mapping);
        let fresh = simulate_round(
            a.pattern(),
            &column_pattern(&b, 1, 0..b.rows()),
            initial.pe_of_row(),
            params,
        );
        assert_eq!(
            out.stats.rounds[1],
            fresh.timing.to_stats(fresh.timing.cycles, true)
        );

        // And the whole run still equals straight simulation with replay
        // off.
        let mut straight = FastEngine::new(cfg);
        straight.set_replay_enabled(false);
        let reference = straight.run(&a, &b, "t").unwrap();
        assert_eq!(out.stats, reference.stats);
        assert_eq!(out.c, reference.c);
    }

    #[test]
    fn structure_only_timing_matches_full_run() {
        // Timing-only execution (used by shard members and the GCN
        // layers' X × W) must report statistics and replay behaviour
        // bit-identical to a values-carrying run, from the structure alone.
        let a = skewed(96, 60);
        let b = dense(96, 8);
        let cfg = Design::LocalPlusRemote { hop: 1 }.apply(config(8));
        let mut carrying = FastEngine::new(cfg.clone());
        let with_values = carrying.run(&a, &b, "t").unwrap();
        let mut timing_only = FastEngine::new(cfg);
        let stats = timing_only.run_timing(a.pattern(), &b, "t").unwrap();
        assert_eq!(stats, with_values.stats);
        assert_eq!(timing_only.replay_hits(), carrying.replay_hits());
        assert_eq!(timing_only.replay_misses(), carrying.replay_misses());
        assert_eq!(timing_only.total_switches(), carrying.total_switches());
    }

    #[test]
    fn thread_count_does_not_change_results() {
        let a = skewed(96, 60);
        let b = dense(96, 12);
        let mut cfg = Design::LocalPlusRemote { hop: 2 }.apply(config(8));
        cfg.threads = Some(1);
        let mut seq = FastEngine::new(cfg.clone());
        cfg.threads = Some(4);
        let mut par = FastEngine::new(cfg);
        let o1 = seq.run(&a, &b, "t").unwrap();
        let o2 = par.run(&a, &b, "t").unwrap();
        assert_eq!(o1.stats, o2.stats);
        assert_eq!(o1.c, o2.c);
    }

    #[test]
    fn config_seeds_threads_and_replay() {
        // `AccelConfig.threads` reaches the engine without a setter, and
        // replay is on from construction: it is not a configuration
        // choice, only `set_replay_enabled` (the straight-simulation
        // reference) turns it off.
        let a = skewed(64, 40);
        let b = dense_full(64, 8);
        let mut cfg = Design::Baseline.apply(config(8));
        cfg.threads = Some(1);
        let mut engine = FastEngine::new(cfg.clone());
        engine.run(&a, &b, "t").unwrap();
        assert_eq!(engine.replay_misses(), 1);
        assert_eq!(engine.replay_hits(), 7);
        let mut straight = FastEngine::new(cfg);
        straight.set_replay_enabled(false);
        straight.run(&a, &b, "t").unwrap();
        assert_eq!(straight.replay_hits() + straight.replay_misses(), 0);
    }

    #[test]
    fn off_chip_operand_bypasses_replay_cache() {
        let a = skewed(64, 40);
        let b = dense_full(64, 8);
        let mut cfg = Design::Baseline.apply(config(8));
        cfg.memory = awb_hw::MemoryModel {
            on_chip_bytes: 16,
            off_chip_bytes_per_cycle: 16.0,
        };
        let mut engine = FastEngine::new(cfg);
        engine.run(&a, &b, "t").unwrap();
        assert_eq!(engine.replay_hits() + engine.replay_misses(), 0);
    }

    #[test]
    fn replay_cache_invalidated_by_different_operand_structure() {
        let b = dense_full(64, 4);
        let mut engine = FastEngine::new(Design::Baseline.apply(config(8)));
        engine.run(&skewed(64, 40), &b, "t").unwrap();
        assert_eq!(engine.replay_misses(), 1);
        // Same shape, different sparsity structure: the memoized timing
        // would be wrong, so the fingerprint guard must force a re-miss.
        engine.run(&skewed(64, 20), &b, "t").unwrap();
        assert_eq!(engine.replay_misses(), 2);
    }

    #[test]
    fn local_sharing_improves_utilization_on_local_imbalance() {
        // Adjacent heavy rows: exactly the "local imbalance" case.
        let a = skewed(64, 48);
        let b = dense(64, 6);
        let mut base = FastEngine::new(Design::Baseline.apply(config(16)));
        let u_base = base.run(&a, &b, "t").unwrap().stats.utilization();
        let mut ls = FastEngine::new(Design::LocalSharing { hop: 2 }.apply(config(16)));
        let u_ls = ls.run(&a, &b, "t").unwrap().stats.utilization();
        assert!(u_ls > u_base, "base {u_base} ls {u_ls}");
    }

    #[test]
    fn remote_switching_moves_rows_and_freezes() {
        let a = skewed(128, 100);
        let b = dense(128, 16);
        let mut engine = FastEngine::new(Design::LocalPlusRemote { hop: 1 }.apply(config(16)));
        let out = engine.run(&a, &b, "t").unwrap();
        assert!(engine.total_switches() > 0, "no rows switched");
        assert!(
            !engine.tuning_active(),
            "tuner should freeze within 16 rounds"
        );
        assert!(out.stats.tuning_rounds() > 0);
        assert!(out.stats.tuning_rounds() < out.stats.rounds.len());
        assert!(engine.row_map().unwrap().is_consistent());
    }

    #[test]
    fn engine_reuse_keeps_tuned_map() {
        let a = skewed(128, 100);
        let b = dense(128, 16);
        let mut engine = FastEngine::new(Design::LocalPlusRemote { hop: 1 }.apply(config(16)));
        engine.run(&a, &b, "first").unwrap();
        let switches_after_first = engine.total_switches();
        let out2 = engine.run(&a, &b, "second").unwrap();
        // Second run reuses the frozen configuration: no further switching.
        assert_eq!(engine.total_switches(), switches_after_first);
        assert_eq!(out2.stats.tuning_rounds(), 0);
    }

    #[test]
    fn engine_rejects_different_matrix() {
        let a = skewed(64, 10);
        let b = dense(64, 2);
        let mut engine = FastEngine::new(config(8));
        engine.run(&a, &b, "t").unwrap();
        let a2 = skewed(32, 10);
        let b2 = dense(32, 2);
        assert!(matches!(
            engine.run(&a2, &b2, "t"),
            Err(AccelError::InvalidConfig(_))
        ));
    }

    #[test]
    fn shape_mismatch_rejected() {
        let a = skewed(16, 4);
        let b = dense(8, 2);
        let mut engine = FastEngine::new(config(4));
        assert!(matches!(engine.run(&a, &b, "t"), Err(AccelError::Shape(_))));
    }

    #[test]
    fn sync_plus_ideal_consistent() {
        let a = skewed(64, 30);
        let b = dense(64, 4);
        let mut engine = FastEngine::new(config(8));
        let stats = engine.run(&a, &b, "t").unwrap().stats;
        assert_eq!(
            stats.total_cycles(),
            stats.ideal_cycles() + stats.sync_cycles()
        );
        assert!(stats.utilization() > 0.0 && stats.utilization() <= 1.0);
    }

    #[test]
    fn raw_hazard_stalls_counted_on_hot_row() {
        // Single row receives every task: maximal RaW pressure.
        let n = 32;
        let mut coo = Coo::new(n, n);
        for c in 0..n {
            coo.push(0, c, 1.0).unwrap();
        }
        let a = coo.to_csc();
        let b = dense(n, 2);
        let mut engine = FastEngine::new(config(4));
        let stats = engine.run(&a, &b, "t").unwrap().stats;
        assert!(stats.raw_stalls() > 0);
    }

    #[test]
    fn block_mode_slower_than_park_under_hazards() {
        let n = 32;
        let mut coo = Coo::new(n, n);
        for c in 0..n {
            coo.push(0, c, 1.0).unwrap();
            coo.push(5, c, 1.0).unwrap();
        }
        let a = coo.to_csc();
        let b = dense(n, 2);
        let mut park_cfg = config(4);
        park_cfg.stall_mode = StallMode::Park;
        let mut block_cfg = config(4);
        block_cfg.stall_mode = StallMode::Block;
        let park = FastEngine::new(park_cfg).run(&a, &b, "t").unwrap().stats;
        let block = FastEngine::new(block_cfg).run(&a, &b, "t").unwrap().stats;
        assert!(block.total_cycles() >= park.total_cycles());
    }

    #[test]
    fn config_moved_out_of_domain_is_typed_error() {
        // `Design::apply` after `build()` can set a hop the PE array
        // cannot hold; both engines reject it instead of panicking.
        let cfg = Design::LocalPlusRemote { hop: 2 }.apply(config(2));
        let a = skewed(8, 4);
        let b = dense(8, 2);
        let fast = FastEngine::new(cfg.clone()).run(&a, &b, "t");
        let detailed =
            crate::engine::DetailedEngine::new(cfg, crate::engine::TdqMode::Tdq1).run(&a, &b, "t");
        for res in [fast, detailed] {
            match res {
                Err(AccelError::InvalidConfig(msg)) => {
                    assert!(msg.contains("local_hop") && msg.contains("n_pes"), "{msg}")
                }
                other => panic!("expected InvalidConfig, got {:?}", other.map(|o| o.stats)),
            }
        }
    }

    #[test]
    fn cyclic_mapping_works() {
        let a = skewed(64, 20);
        let b = dense(64, 4);
        let mut cfg = config(8);
        cfg.mapping = MappingKind::Cyclic;
        let out = FastEngine::new(cfg).run(&a, &b, "t").unwrap();
        let expect = spmm::csc_times_dense(&a, &b).unwrap();
        assert!(out.c.approx_eq(&expect, 1e-4));
    }

    #[test]
    fn empty_operands() {
        let a = Coo::new(8, 8).to_csc();
        let b = DenseMatrix::zeros(8, 0);
        let mut engine = FastEngine::new(config(4));
        let out = engine.run(&a, &b, "t").unwrap();
        assert_eq!(out.c.shape(), (8, 0));
        assert_eq!(out.stats.total_cycles(), 0);
    }

    #[test]
    fn queue_depth_shrinks_with_rebalancing() {
        let a = skewed(256, 200);
        let b = dense(256, 16);
        let base = FastEngine::new(Design::Baseline.apply(config(32)))
            .run(&a, &b, "t")
            .unwrap()
            .stats;
        let tuned = FastEngine::new(Design::LocalPlusRemote { hop: 2 }.apply(config(32)))
            .run(&a, &b, "t")
            .unwrap()
            .stats;
        assert!(
            tuned.max_queue_depth() < base.max_queue_depth(),
            "base {} tuned {}",
            base.max_queue_depth(),
            tuned.max_queue_depth()
        );
    }
}

#[cfg(test)]
mod memory_tests {
    use super::*;
    use crate::config::Design;
    use awb_hw::MemoryModel;
    use awb_sparse::Coo;

    fn operand(n: usize) -> (Csc, DenseMatrix) {
        let mut coo = Coo::new(n, n);
        for r in 0..n {
            coo.push(r, (r * 3 + 1) % n, 1.0).unwrap();
            coo.push(r, (r * 7 + 2) % n, 1.0).unwrap();
        }
        let b = DenseMatrix::from_vec(n, 4, vec![1.0; n * 4]).unwrap();
        (coo.to_csc(), b)
    }

    #[test]
    fn off_chip_streaming_throttles_delivery() {
        let (a, b) = operand(256);
        let mut fast_cfg =
            Design::Baseline.apply(AccelConfig::builder().n_pes(64).build().unwrap());
        fast_cfg.memory = MemoryModel::unbounded();
        let mut slow_cfg = fast_cfg.clone();
        // Tiny on-chip budget + 16 B/cycle: 2 nnz per cycle.
        slow_cfg.memory = MemoryModel {
            on_chip_bytes: 16,
            off_chip_bytes_per_cycle: 16.0,
        };
        let fast = FastEngine::new(fast_cfg).run(&a, &b, "t").unwrap().stats;
        let slow = FastEngine::new(slow_cfg).run(&a, &b, "t").unwrap().stats;
        assert!(
            slow.total_cycles() > fast.total_cycles() * 4,
            "fast {} slow {}",
            fast.total_cycles(),
            slow.total_cycles()
        );
    }

    #[test]
    fn on_chip_fill_charged_once() {
        let (a, b) = operand(128);
        let mut cfg = Design::Baseline.apply(AccelConfig::builder().n_pes(32).build().unwrap());
        cfg.memory = MemoryModel {
            on_chip_bytes: 1 << 20,
            off_chip_bytes_per_cycle: 8.0, // 1 nnz/cycle fill rate
        };
        let stats = FastEngine::new(cfg.clone()).run(&a, &b, "t").unwrap().stats;
        let fill = cfg.memory.fill_cycles(a.nnz());
        assert!(fill > 0);
        // Round 0 pays the fill; later rounds do not.
        assert!(stats.rounds[0].cycles > stats.rounds[1].cycles + fill / 2);
    }

    #[test]
    fn functional_output_unaffected_by_memory_model() {
        let (a, b) = operand(64);
        let mut cfg = Design::Baseline.apply(AccelConfig::builder().n_pes(16).build().unwrap());
        cfg.memory = MemoryModel {
            on_chip_bytes: 8,
            off_chip_bytes_per_cycle: 24.0,
        };
        let out = FastEngine::new(cfg).run(&a, &b, "t").unwrap();
        let expect = awb_sparse::spmm::csc_times_dense(&a, &b).unwrap();
        assert!(out.c.approx_eq(&expect, 1e-4));
    }
}
