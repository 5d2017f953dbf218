//! The detailed, cycle-stepped SPMM engine.
//!
//! Wires the actual `awb-hw` components exactly as the paper's Fig. 7/12
//! block diagrams do: a distributor (TDQ-1's rate-matched direct delivery
//! or TDQ-2's Omega network), per-PE task queues, a round-robin arbiter,
//! a MAC pipeline with RaW scoreboard and stall buffer, and per-round
//! barrier synchronization. Costs O(cycles × PEs), so it is used for
//! component-level studies, the Fig. 9 toy demo, and validating the fast
//! engine — not for full-dataset sweeps.

use crate::config::{AccelConfig, StallMode};
use crate::engine::steady::ReplayCache;
use crate::engine::{check_shapes, SpmmEngine, SpmmOutcome, TunedPlan};
use crate::error::AccelError;
use crate::mapping::RowMap;
use crate::rebalance::autotuner::AutoTuner;
use crate::rebalance::local::LocalSharing;
use crate::rebalance::remote::RoundProfile;
use crate::stats::{RoundStats, SpmmStats};
use awb_hw::{
    MacOp, MacPipeline, OmegaNetwork, Packet, RawScoreboard, RoundRobinArbiter, TaskQueue,
};
use awb_sparse::{Csc, CscPattern, DenseMatrix};

/// Which task-distributor the engine instantiates (paper §3.3).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum TdqMode {
    /// Pick by sparsity: ultra-sparse operands (density < 1%) use the CSC
    /// stream + Omega network (TDQ-2), general-sparse ones use direct
    /// delivery into per-PE queues (TDQ-1).
    #[default]
    Auto,
    /// Force TDQ-1 (dense-format streaming, multiple queues per PE).
    Tdq1,
    /// Force TDQ-2 (CSC streaming through the Omega network).
    Tdq2,
}

impl TdqMode {
    /// Resolves `Auto` for a given sparse operand.
    pub fn resolve(self, a: &Csc) -> TdqMode {
        match self {
            TdqMode::Auto => {
                if a.density() < 0.01 {
                    TdqMode::Tdq2
                } else {
                    TdqMode::Tdq1
                }
            }
            other => other,
        }
    }
}

/// Cycle-stepped engine (see module docs).
///
/// # Example
///
/// ```
/// use awb_accel::{AccelConfig, DetailedEngine, SpmmEngine, TdqMode};
/// use awb_sparse::{Coo, DenseMatrix};
///
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// let mut a = Coo::new(4, 4);
/// a.push(2, 1, 4.0)?;
/// let b = DenseMatrix::from_rows(&[&[1.0], &[2.0], &[0.0], &[0.0]])?;
/// let config = AccelConfig::builder().n_pes(2).build()?;
/// let mut engine = DetailedEngine::new(config, TdqMode::Tdq2);
/// let out = engine.run(&a.to_csc(), &b, "demo")?;
/// assert_eq!(out.c.get(2, 0), 8.0);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone)]
pub struct DetailedEngine {
    config: AccelConfig,
    tdq: TdqMode,
    map: Option<RowMap>,
    tuner: Option<AutoTuner>,
    sharing: Option<LocalSharing>,
}

impl DetailedEngine {
    /// Creates an engine with the given distributor mode.
    pub fn new(config: AccelConfig, tdq: TdqMode) -> Self {
        DetailedEngine {
            config,
            tdq,
            map: None,
            tuner: None,
            sharing: None,
        }
    }

    /// The current row→PE map (None before the first run).
    pub fn row_map(&self) -> Option<&RowMap> {
        self.map.as_ref()
    }

    /// Extracts the cycle-stepped model's tuned map into a [`TunedPlan`]
    /// (force-frozen if the tuner is still active). The plan's replay
    /// cache starts empty (the detailed engine does not memoize) and is
    /// warmed by the sessions themselves; sessions always execute with
    /// the fast queue-dynamics model — only the *map* carries over the
    /// detailed engine's tuning. The engine runs frozen afterwards.
    ///
    /// # Errors
    ///
    /// Returns [`AccelError::InvalidConfig`] when the engine was tuned for
    /// a different row count than `a`.
    pub fn freeze_plan(&mut self, a: &CscPattern) -> Result<TunedPlan, AccelError> {
        self.ensure_state(a.rows())?;
        let tuner = self.tuner.as_mut().expect("initialized in ensure_state");
        tuner.freeze();
        Ok(TunedPlan::from_frozen(
            self.config.clone(),
            self.map.clone().expect("initialized in ensure_state"),
            a,
            tuner.rounds_done(),
            tuner.total_switches(),
            ReplayCache::new(),
        ))
    }

    fn ensure_state(&mut self, n_rows: usize) -> Result<(), AccelError> {
        match &self.map {
            Some(map) if map.n_rows() != n_rows => Err(AccelError::InvalidConfig(format!(
                "engine tuned for {} rows reused with {} rows",
                map.n_rows(),
                n_rows
            ))),
            Some(_) => Ok(()),
            None => {
                self.map = Some(RowMap::new(n_rows, self.config.n_pes, self.config.mapping));
                self.tuner = Some(AutoTuner::new(&self.config, n_rows));
                self.sharing = Some(LocalSharing::new(self.config.local_hop, self.config.n_pes));
                Ok(())
            }
        }
    }

    /// Simulates one round (one column of `B`) at cycle granularity.
    #[allow(clippy::too_many_arguments)]
    fn simulate_round(
        &self,
        tasks: &[(u32, f32)],
        tdq: TdqMode,
        pe_of_row: &[u32],
        sharing: LocalSharing,
        col_acc: &mut [f32],
        per_pe_busy: &mut [u64],
        owner_busy: &mut [u64],
        per_row_tasks: Option<&mut [u32]>,
    ) -> DetailedRound {
        let n_pes = self.config.n_pes;
        let qpp = match tdq {
            TdqMode::Tdq1 => self.config.queues_per_pe,
            _ => 1,
        };
        let use_sharing = self.config.local_hop > 0;
        let mut queues: Vec<Vec<TaskQueue<MacOp>>> = (0..n_pes)
            .map(|_| (0..qpp).map(|_| TaskQueue::unbounded()).collect())
            .collect();
        let mut arbiters: Vec<RoundRobinArbiter> =
            (0..n_pes).map(|_| RoundRobinArbiter::new(qpp)).collect();
        let mut pipes: Vec<MacPipeline> = (0..n_pes)
            .map(|_| MacPipeline::new(self.config.mac_latency as usize))
            .collect();
        let mut scoreboard = RawScoreboard::new(self.config.mac_latency as u64);
        let mut network = match tdq {
            TdqMode::Tdq2 => Some(OmegaNetwork::new(n_pes, self.config.net_buffer)),
            _ => None,
        };

        if let Some(counts) = per_row_tasks {
            for &(row, _) in tasks {
                counts[row as usize] += 1;
            }
        }
        // Owner-attributed load for the PESM (see the fast engine).
        for &(row, _) in tasks {
            owner_busy[pe_of_row[row as usize] as usize] += 1;
        }

        let mut stream = tasks.iter().copied();
        let mut stream_head: Option<(u32, f32)> = stream.next();
        // Pending-task view the sharing comparators read: queued at the PE
        // plus already committed to it inside the network.
        let mut pending = vec![0usize; n_pes];
        let mut cycle: u64 = 0;
        let mut raw_stall_events: u64 = 0;
        let mut max_q_depth = 0usize;
        let mut per_pe_high_water = vec![0u32; n_pes];

        loop {
            cycle += 1;
            // --- Distribution ---
            match &mut network {
                Some(net) => {
                    // TDQ-2: inject up to one packet per input port. Local
                    // sharing "adjusts the address tag of the task before
                    // it is pushed into the TQs of the final layer"
                    // (paper §4.1) — we apply the adjustment at injection,
                    // which both re-routes the packet to the neighbour's
                    // port (the boundary links of Fig. 11-D) and relieves
                    // the hotspot's single output port.
                    for port in 0..n_pes {
                        let Some((row, product)) = stream_head else {
                            break;
                        };
                        let owner = pe_of_row[row as usize];
                        let dest = if use_sharing {
                            sharing.choose(owner, |p| pending[p as usize])
                        } else {
                            owner
                        };
                        let pkt = Packet { dest, row, product };
                        if net.inject(port, pkt).is_ok() {
                            pending[dest as usize] += 1;
                            stream_head = stream.next();
                        }
                    }
                    for (port, pkt) in net.tick() {
                        let q = (pkt.row as usize) % qpp;
                        queues[port][q]
                            .push(MacOp {
                                row: pkt.row,
                                product: pkt.product,
                            })
                            .expect("PE queues are unbounded");
                    }
                }
                None => {
                    // TDQ-1: deliver up to n_pes tasks directly; the sharing
                    // comparison happens before the push (Fig. 11-A).
                    for _ in 0..n_pes {
                        let Some((row, product)) = stream_head else {
                            break;
                        };
                        let owner = pe_of_row[row as usize];
                        let dest = if use_sharing {
                            sharing.choose(owner, |p| {
                                queues[p as usize].iter().map(|q| q.len()).sum::<usize>()
                            }) as usize
                        } else {
                            owner as usize
                        };
                        let q = (row as usize) % qpp;
                        queues[dest][q]
                            .push(MacOp { row, product })
                            .expect("PE queues are unbounded");
                        stream_head = stream.next();
                    }
                }
            }

            // --- PE issue + MAC pipelines ---
            for pe in 0..n_pes {
                let mut issue: Option<MacOp> = None;
                let requests: Vec<bool> = queues[pe].iter().map(|q| !q.is_empty()).collect();
                if let Some(qi) = arbiters[pe].grant(&requests) {
                    let head = *queues[pe][qi].peek().expect("granted queue is non-empty");
                    let ready_at = scoreboard.earliest_issue(head.row, cycle);
                    match self.config.stall_mode {
                        // Park: the stall buffer + accumulator forwarding
                        // hide the hazard — the op issues, the event is
                        // counted (mirrors the fast engine's model).
                        StallMode::Park => {
                            if ready_at > cycle {
                                raw_stall_events += ready_at - cycle;
                            }
                            issue = queues[pe][qi].pop();
                        }
                        // Block: naive head-of-line serialization.
                        StallMode::Block => {
                            if ready_at <= cycle {
                                issue = queues[pe][qi].pop();
                            } else {
                                raw_stall_events += 1;
                            }
                        }
                    }
                }
                if let Some(op) = issue {
                    scoreboard.record_issue(op.row, cycle);
                    per_pe_busy[pe] += 1;
                    pending[pe] = pending[pe].saturating_sub(1);
                }
                if let Some(done) = pipes[pe].tick(issue) {
                    col_acc[done.row as usize] += done.product;
                }
            }

            // --- occupancy census ---
            for pe in 0..n_pes {
                let depth: usize = queues[pe].iter().map(|q| q.len()).sum::<usize>();
                max_q_depth = max_q_depth.max(depth);
                per_pe_high_water[pe] = per_pe_high_water[pe].max(depth as u32);
            }

            // --- barrier check ---
            let drained = stream_head.is_none()
                && network.as_ref().map_or(true, |n| n.is_drained())
                && queues.iter().flatten().all(|q| q.is_empty())
                && pipes.iter().all(|p| !p.busy());
            if drained {
                break;
            }
            assert!(
                cycle < 10_000_000,
                "detailed engine failed to drain a round"
            );
        }

        DetailedRound {
            cycles: cycle,
            max_q_depth,
            raw_stalls: raw_stall_events,
            per_pe_high_water,
        }
    }
}

struct DetailedRound {
    cycles: u64,
    max_q_depth: usize,
    raw_stalls: u64,
    per_pe_high_water: Vec<u32>,
}

impl SpmmEngine for DetailedEngine {
    fn run(&mut self, a: &Csc, b: &DenseMatrix, label: &str) -> Result<SpmmOutcome, AccelError> {
        check_shapes(a.pattern(), b)?;
        self.ensure_state(a.rows())?;
        let tdq = self.tdq.resolve(a);
        if tdq == TdqMode::Tdq2 && !self.config.n_pes.is_power_of_two() {
            return Err(AccelError::InvalidConfig(format!(
                "TDQ-2's Omega network requires a power-of-two PE count, got {}",
                self.config.n_pes
            )));
        }
        let n_pes = self.config.n_pes;
        let n_rows = a.rows();
        let sharing = self.sharing.expect("initialized in ensure_state");

        let mut c = DenseMatrix::zeros(n_rows, b.cols());
        let mut rounds = Vec::with_capacity(b.cols());
        let mut col_acc = vec![0f32; n_rows];
        let mut per_pe_busy = vec![0u64; n_pes];
        let mut owner_busy = vec![0u64; n_pes];
        let mut row_tasks: Vec<u32> = Vec::new();
        let mut queue_high_water = vec![0u32; n_pes];

        for k in 0..b.cols() {
            // Materialize the round's task stream (CSC column order).
            let mut tasks: Vec<(u32, f32)> = Vec::new();
            for j in 0..a.cols() {
                let bjk = b.get(j, k);
                if bjk == 0.0 {
                    continue;
                }
                for (i, av) in a.col_entries(j) {
                    tasks.push((i as u32, av * bjk));
                }
            }
            per_pe_busy.fill(0);
            owner_busy.fill(0);
            let tuner = self.tuner.as_ref().expect("initialized");
            let tuning = tuner.is_active();
            let collect_rows = tuner.needs_row_counts();
            if collect_rows {
                row_tasks.clear();
                row_tasks.resize(n_rows, 0);
            }
            let map = self.map.as_ref().expect("initialized");
            let round = self.simulate_round(
                &tasks,
                tdq,
                map.pe_of_row(),
                sharing,
                &mut col_acc,
                &mut per_pe_busy,
                &mut owner_busy,
                collect_rows.then_some(row_tasks.as_mut_slice()),
            );

            for (hw, &d) in queue_high_water.iter_mut().zip(&round.per_pe_high_water) {
                *hw = (*hw).max(d);
            }
            rounds.push(RoundStats {
                cycles: if tasks.is_empty() { 0 } else { round.cycles },
                tasks: tasks.len() as u64,
                busy_cycles: tasks.len() as u64,
                max_pe_busy: per_pe_busy.iter().copied().max().unwrap_or(0),
                min_pe_busy: per_pe_busy.iter().copied().min().unwrap_or(0),
                max_queue_depth: round.max_q_depth,
                raw_stalls: round.raw_stalls,
                tuning_active: tuning,
            });

            if tuning && !tasks.is_empty() {
                let util = tasks.len() as f64 / (round.cycles.max(1) as f64 * n_pes as f64);
                let profile = RoundProfile {
                    per_pe_busy: owner_busy.clone(),
                    per_row_tasks: collect_rows.then(|| row_tasks.clone()),
                };
                let map = self.map.as_mut().expect("initialized");
                self.tuner
                    .as_mut()
                    .expect("initialized")
                    .observe_round(&profile, util, map);
            }

            for (row, acc) in col_acc.iter_mut().enumerate() {
                if *acc != 0.0 {
                    c.set(row, k, *acc);
                    *acc = 0.0;
                }
            }
        }

        Ok(SpmmOutcome {
            c,
            stats: SpmmStats {
                label: label.to_owned(),
                n_pes,
                rounds,
                queue_high_water,
            },
        })
    }

    fn config(&self) -> &AccelConfig {
        &self.config
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::Design;
    use awb_sparse::{spmm, Coo};

    fn config(n_pes: usize) -> AccelConfig {
        AccelConfig::builder().n_pes(n_pes).build().unwrap()
    }

    fn random_sparse(n: usize, nnz_per_row: usize) -> Csc {
        let mut coo = Coo::new(n, n);
        let mut x = 1u64;
        for r in 0..n {
            for _ in 0..nnz_per_row {
                x = x
                    .wrapping_mul(6364136223846793005)
                    .wrapping_add(1442695040888963407);
                let c = (x >> 33) as usize % n;
                coo.push(r, c, ((x >> 40) % 5) as f32 - 2.0).unwrap();
            }
        }
        coo.to_csc()
    }

    fn dense(rows: usize, cols: usize) -> DenseMatrix {
        let data: Vec<f32> = (0..rows * cols).map(|i| ((i % 5) as f32) - 2.0).collect();
        DenseMatrix::from_vec(rows, cols, data).unwrap()
    }

    #[test]
    fn tdq_auto_resolution() {
        let sparse = random_sparse(64, 1); // ~1.5% -> still above 1%? nnz/row=1 of 64 cols: 1/64 ~ 1.6%
        assert_eq!(TdqMode::Tdq1.resolve(&sparse), TdqMode::Tdq1);
        assert_eq!(TdqMode::Tdq2.resolve(&sparse), TdqMode::Tdq2);
        let ultra = {
            let mut coo = Coo::new(1000, 1000);
            coo.push(1, 1, 1.0).unwrap();
            coo.to_csc()
        };
        assert_eq!(TdqMode::Auto.resolve(&ultra), TdqMode::Tdq2);
        let dense_ish = {
            let mut coo = Coo::new(4, 4);
            for r in 0..4 {
                for c in 0..4 {
                    coo.push(r, c, 1.0).unwrap();
                }
            }
            coo.to_csc()
        };
        assert_eq!(TdqMode::Auto.resolve(&dense_ish), TdqMode::Tdq1);
    }

    #[test]
    fn functional_match_tdq2() {
        let a = random_sparse(32, 2);
        let b = dense(32, 3);
        let mut engine = DetailedEngine::new(config(8), TdqMode::Tdq2);
        let out = engine.run(&a, &b, "t").unwrap();
        let expect = spmm::csc_times_dense(&a, &b).unwrap();
        assert!(
            out.c.approx_eq(&expect, 1e-4),
            "max diff {}",
            out.c.max_abs_diff(&expect).unwrap()
        );
    }

    #[test]
    fn functional_match_tdq1() {
        let a = random_sparse(32, 3);
        let b = dense(32, 3);
        let mut engine = DetailedEngine::new(config(8), TdqMode::Tdq1);
        let out = engine.run(&a, &b, "t").unwrap();
        let expect = spmm::csc_times_dense(&a, &b).unwrap();
        assert!(out.c.approx_eq(&expect, 1e-4));
    }

    #[test]
    fn functional_match_with_rebalancing() {
        let a = random_sparse(64, 4);
        let b = dense(64, 6);
        for design in [
            Design::LocalSharing { hop: 1 },
            Design::LocalPlusRemote { hop: 2 },
        ] {
            let mut engine = DetailedEngine::new(design.apply(config(8)), TdqMode::Tdq2);
            let out = engine.run(&a, &b, "t").unwrap();
            let expect = spmm::csc_times_dense(&a, &b).unwrap();
            assert!(out.c.approx_eq(&expect, 1e-4), "{design:?}");
        }
    }

    #[test]
    fn task_conservation() {
        let a = random_sparse(48, 3);
        let b = dense(48, 4);
        let mut engine = DetailedEngine::new(config(8), TdqMode::Tdq2);
        let out = engine.run(&a, &b, "t").unwrap();
        assert_eq!(
            out.stats.total_tasks(),
            spmm::csc_times_dense_macs(&a, &b).unwrap() as u64
        );
    }

    #[test]
    fn local_sharing_reduces_cycles_under_skew() {
        // Rows 0..2 hold almost all work: PE 0 is the hotspot under block
        // mapping with 8 PEs over 32 rows.
        let n = 32;
        let mut coo = Coo::new(n, n);
        for c in 0..n {
            coo.push(0, c, 1.0).unwrap();
            coo.push(1, c, 1.0).unwrap();
            coo.push(2, c, 1.0).unwrap();
        }
        for r in 3..n {
            coo.push(r, r, 1.0).unwrap();
        }
        let a = coo.to_csc();
        let b = dense(n, 4);
        let base = DetailedEngine::new(Design::Baseline.apply(config(8)), TdqMode::Tdq2)
            .run(&a, &b, "t")
            .unwrap()
            .stats;
        let shared = DetailedEngine::new(
            Design::LocalSharing { hop: 2 }.apply(config(8)),
            TdqMode::Tdq2,
        )
        .run(&a, &b, "t")
        .unwrap()
        .stats;
        assert!(
            shared.total_cycles() < base.total_cycles(),
            "base {} shared {}",
            base.total_cycles(),
            shared.total_cycles()
        );
    }

    #[test]
    fn plan_extracts_detailed_tuned_map() {
        let a = random_sparse(64, 4);
        let b = dense(64, 6);
        let mut engine = DetailedEngine::new(
            Design::LocalPlusRemote { hop: 2 }.apply(config(8)),
            TdqMode::Tdq2,
        );
        engine.run(&a, &b, "warmup").unwrap();
        let plan = engine.freeze_plan(a.pattern()).unwrap();
        // The plan carries the detailed engine's frozen map and executes
        // requests with correct numerics on the fast session model.
        assert_eq!(
            plan.row_map().pe_of_row(),
            engine.row_map().unwrap().pe_of_row()
        );
        let out = plan.session().run(&a, &b, "req").unwrap();
        let expect = spmm::csc_times_dense(&a, &b).unwrap();
        assert!(out.c.approx_eq(&expect, 1e-4));
        assert_eq!(out.stats.tuning_rounds(), 0);
    }

    #[test]
    fn utilization_bounded() {
        let a = random_sparse(32, 2);
        let b = dense(32, 2);
        let mut engine = DetailedEngine::new(config(4), TdqMode::Tdq2);
        let stats = engine.run(&a, &b, "t").unwrap().stats;
        let u = stats.utilization();
        assert!(u > 0.0 && u <= 1.0, "utilization {u}");
    }

    #[test]
    fn empty_column_costs_nothing() {
        let a = random_sparse(16, 1);
        let mut b = DenseMatrix::zeros(16, 2);
        b.set(0, 1, 1.0); // column 0 is all zero
        let mut engine = DetailedEngine::new(config(4), TdqMode::Tdq2);
        let stats = engine.run(&a, &b, "t").unwrap().stats;
        assert_eq!(stats.rounds[0].cycles, 0);
        assert!(stats.rounds[1].cycles > 0);
    }
}
