//! The detailed, cycle-stepped SPMM engine.
//!
//! Wires the actual `awb-hw` components exactly as the paper's Fig. 7/12
//! block diagrams do: a distributor (TDQ-1's rate-matched direct delivery
//! or TDQ-2's Omega network), per-PE task queues, a round-robin arbiter,
//! a MAC pipeline with RaW scoreboard and stall buffer, and per-round
//! barrier synchronization. Costs O(cycles × PEs), so it is used for
//! component-level studies, the Fig. 9 toy demo, and validating the fast
//! engine — not for full-dataset sweeps.
//!
//! It differs from [`FastEngine`](super::FastEngine) only in its round
//! model. A round's tasks are row ids, built from `B`'s column patterns
//! as the fast engine builds them; the tuning state, the per-round
//! auto-tuning step and the `RoundStats` assembly are the fast engine's;
//! and `C` comes from the same pinned kernel, so the two engines' outputs
//! are bit-identical. Two statistics rules stay the detailed engine's
//! own: an empty round reports 0 cycles, and every round's queue depths
//! (tuning rounds included) count toward the high-water marks.

use crate::config::{AccelConfig, StallMode};
use crate::engine::steady::{column_runs, RoundTiming, SimRound};
use crate::engine::tuning::TuningState;
use crate::engine::{check_shapes, pinned_outcome, SpmmEngine, SpmmOutcome};
use crate::error::AccelError;
use crate::mapping::RowMap;
use crate::rebalance::local::LocalSharing;
use crate::stats::SpmmStats;
use awb_hw::{
    MacOp, MacPipeline, OmegaNetwork, Packet, RawScoreboard, RoundRobinArbiter, TaskQueue,
};
use awb_sparse::{Csc, DenseMatrix};

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
    tuning: Option<TuningState>,
}

impl DetailedEngine {
    /// Creates an engine with the given distributor mode.
    pub fn new(config: AccelConfig, tdq: TdqMode) -> Self {
        DetailedEngine {
            config,
            tdq,
            tuning: None,
        }
    }

    /// The current row→PE map (None before the first run).
    pub fn row_map(&self) -> Option<&RowMap> {
        self.tuning.as_ref().map(|t| &t.map)
    }

    /// The timing half of [`run`](SpmmEngine::run): every round
    /// cycle-stepped in column order, the auto-tuner observing each.
    fn run_timing(
        &mut self,
        a: &Csc,
        b: &DenseMatrix,
        label: &str,
    ) -> Result<SpmmStats, AccelError> {
        check_shapes(a.shape(), b)?;
        let state = TuningState::ensure(&mut self.tuning, &self.config, a.rows())?;
        let tdq = self.tdq.resolve(a);
        let n_pes = self.config.n_pes;
        if tdq == TdqMode::Tdq2 && !n_pes.is_power_of_two() {
            return Err(AccelError::InvalidConfig(format!(
                "TDQ-2's Omega network requires a power-of-two PE count, got {n_pes}"
            )));
        }

        let (row_idx, col_ptr) = (a.pattern().row_idx(), a.pattern().col_ptr());
        let runs = column_runs(b, 0..b.rows());
        let mut rounds = Vec::with_capacity(b.cols());
        let mut queue_high_water = vec![0u32; n_pes];
        for run in &runs {
            // The round's task stream: the rows of its columns of `A`, in
            // CSC order.
            let tasks: Vec<u32> = run
                .pattern
                .iter()
                .flat_map(|&j| &row_idx[col_ptr[j as usize]..col_ptr[j as usize + 1]])
                .copied()
                .collect();
            for _ in run.cols.clone() {
                let tuning = state.tuner.is_active();
                let SimRound { timing, owner_busy } =
                    simulate_round(&self.config, &tasks, tdq, state.map.pe_of_row());
                // Unlike the fast engine, every round's queue depths count
                // toward the high-water marks, tuning rounds included.
                for (hw, &q) in queue_high_water.iter_mut().zip(&timing.queue_high_water) {
                    *hw = (*hw).max(q);
                }
                // An empty round costs nothing.
                let cycles = if timing.tasks == 0 { 0 } else { timing.cycles };
                rounds.push(timing.to_stats(cycles, tuning));
                state.observe_round(&owner_busy, timing.tasks, timing.cycles);
            }
        }

        Ok(SpmmStats {
            label: label.to_owned(),
            n_pes,
            rounds,
            queue_high_water,
        })
    }
}

/// Simulates one round (one column of `B`) at cycle granularity: `tasks`
/// are the output rows of the round's MAC tasks in stream order. Timing
/// only — `C` comes from the pinned kernel, as in every engine.
fn simulate_round(
    config: &AccelConfig,
    tasks: &[u32],
    tdq: TdqMode,
    pe_of_row: &[u32],
) -> SimRound {
    let n_pes = config.n_pes;
    let qpp = match tdq {
        TdqMode::Tdq1 => config.queues_per_pe,
        _ => 1,
    };
    let sharing = (config.local_hop > 0).then(|| LocalSharing::new(config.local_hop, n_pes));
    let mut queues: Vec<Vec<TaskQueue<MacOp>>> = (0..n_pes)
        .map(|_| (0..qpp).map(|_| TaskQueue::unbounded()).collect())
        .collect();
    let mut arbiters: Vec<RoundRobinArbiter> =
        (0..n_pes).map(|_| RoundRobinArbiter::new(qpp)).collect();
    let mut pipes: Vec<MacPipeline> = (0..n_pes)
        .map(|_| MacPipeline::new(config.mac_latency as usize))
        .collect();
    let mut scoreboard = RawScoreboard::new(config.mac_latency as u64);
    let mut network = match tdq {
        TdqMode::Tdq2 => Some(OmegaNetwork::new(n_pes, config.net_buffer)),
        _ => None,
    };

    // Owner-attributed load for the PESM (see the fast engine).
    let mut owner_busy = vec![0u64; n_pes];
    for &row in tasks {
        owner_busy[pe_of_row[row as usize] as usize] += 1;
    }

    let mut stream = tasks.iter().copied();
    let mut stream_head: Option<u32> = stream.next();
    // Pending-task view the sharing comparators read: queued at the PE
    // plus already committed to it inside the network.
    let mut pending = vec![0usize; n_pes];
    let mut busy = vec![0u64; n_pes];
    let mut cycle: u64 = 0;
    let mut raw_stalls: u64 = 0;
    let mut queue_high_water = vec![0u32; n_pes];
    // The arbiter's request lines, refilled for each PE every cycle: the
    // round allocates nothing per cycle.
    let mut requests = vec![false; qpp];

    loop {
        cycle += 1;
        // --- Distribution ---
        match &mut network {
            Some(net) => {
                // TDQ-2: inject up to one packet per input port. Local
                // sharing "adjusts the address tag of the task before it is
                // pushed into the TQs of the final layer" (paper §4.1) — we
                // apply the adjustment at injection, which both re-routes
                // the packet to the neighbour's port (the boundary links of
                // Fig. 11-D) and relieves the hotspot's single output port.
                for port in 0..n_pes {
                    let Some(row) = stream_head else {
                        break;
                    };
                    let owner = pe_of_row[row as usize];
                    let dest = match sharing {
                        Some(sharing) => sharing.choose(owner, |p| pending[p as usize]),
                        None => owner,
                    };
                    if net.inject(port, Packet { dest, row }).is_ok() {
                        pending[dest as usize] += 1;
                        stream_head = stream.next();
                    }
                }
                net.tick(|port, pkt| {
                    queues[port][(pkt.row as usize) % qpp].push(MacOp { row: pkt.row });
                });
            }
            None => {
                // TDQ-1: deliver up to n_pes tasks directly; the sharing
                // comparison happens before the push (Fig. 11-A).
                for _ in 0..n_pes {
                    let Some(row) = stream_head else {
                        break;
                    };
                    let owner = pe_of_row[row as usize];
                    let dest = match sharing {
                        Some(sharing) => sharing.choose(owner, |p| {
                            queues[p as usize].iter().map(|q| q.len()).sum::<usize>()
                        }),
                        None => owner,
                    } as usize;
                    queues[dest][(row as usize) % qpp].push(MacOp { row });
                    stream_head = stream.next();
                }
            }
        }

        // --- PE issue + MAC pipelines ---
        for pe in 0..n_pes {
            let mut issue: Option<MacOp> = None;
            for (request, queue) in requests.iter_mut().zip(&queues[pe]) {
                *request = !queue.is_empty();
            }
            if let Some(qi) = arbiters[pe].grant(&requests) {
                let head = *queues[pe][qi].peek().expect("granted queue is non-empty");
                let ready_at = scoreboard.earliest_issue(head.row, cycle);
                match config.stall_mode {
                    // Park: the stall buffer + accumulator forwarding hide
                    // the hazard — the op issues, the event is counted
                    // (mirrors the fast engine's model).
                    StallMode::Park => {
                        if ready_at > cycle {
                            raw_stalls += ready_at - cycle;
                        }
                        issue = queues[pe][qi].pop();
                    }
                    // Block: naive head-of-line serialization.
                    StallMode::Block => {
                        if ready_at <= cycle {
                            issue = queues[pe][qi].pop();
                        } else {
                            raw_stalls += 1;
                        }
                    }
                }
            }
            if let Some(op) = issue {
                scoreboard.record_issue(op.row, cycle);
                busy[pe] += 1;
                pending[pe] = pending[pe].saturating_sub(1);
            }
            pipes[pe].tick(issue);
        }

        // --- occupancy census ---
        for (pe, high_water) in queue_high_water.iter_mut().enumerate() {
            let depth = queues[pe].iter().map(|q| q.len()).sum::<usize>();
            *high_water = (*high_water).max(depth as u32);
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

    // Every task of the stream went through a MAC pipe exactly once: a
    // dropped or duplicated packet fails here instead of shifting a
    // statistic.
    let completed: u64 = pipes.iter().map(|p| p.completed()).sum();
    assert_eq!(
        completed,
        tasks.len() as u64,
        "detailed round completed {completed} of {} tasks",
        tasks.len()
    );

    SimRound {
        timing: RoundTiming {
            cycles: cycle,
            tasks: tasks.len() as u64,
            max_pe_busy: busy.iter().copied().max().unwrap_or(0),
            min_pe_busy: busy.iter().copied().min().unwrap_or(0),
            max_queue_depth: queue_high_water.iter().copied().max().unwrap_or(0) as usize,
            raw_stalls,
            queue_high_water,
        },
        owner_busy,
    }
}

impl SpmmEngine for DetailedEngine {
    fn run(&mut self, a: &Csc, b: &DenseMatrix, label: &str) -> Result<SpmmOutcome, AccelError> {
        let stats = self.run_timing(a, b, label)?;
        Ok(pinned_outcome(&self.config, a, b, stats))
    }

    fn config(&self) -> &AccelConfig {
        &self.config
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::Design;
    use crate::engine::FastEngine;
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

    /// Values whose sums round, so a change of summation order shows in
    /// the output bits.
    fn dense(rows: usize, cols: usize) -> DenseMatrix {
        let data: Vec<f32> = (0..rows * cols)
            .map(|i| ((i % 5) as f32 - 2.0) * 0.1)
            .collect();
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

    /// Output bits of `DetailedEngine::run` and `FastEngine::run` under
    /// `cfg` on the same operands.
    fn output_bits(cfg: AccelConfig, tdq: TdqMode, a: &Csc, b: &DenseMatrix) -> [Vec<u32>; 2] {
        let detailed = DetailedEngine::new(cfg.clone(), tdq)
            .run(a, b, "t")
            .unwrap();
        let fast = FastEngine::new(cfg).run(a, b, "t").unwrap();
        [&detailed.c, &fast.c].map(|c| c.as_slice().iter().map(|v| v.to_bits()).collect())
    }

    #[test]
    fn functional_match_tdq2() {
        let a = random_sparse(32, 2);
        let b = dense(32, 3);
        let [detailed, fast] = output_bits(config(8), TdqMode::Tdq2, &a, &b);
        assert_eq!(detailed, fast);
    }

    #[test]
    fn functional_match_tdq1() {
        let a = random_sparse(32, 3);
        let b = dense(32, 3);
        let [detailed, fast] = output_bits(config(8), TdqMode::Tdq1, &a, &b);
        assert_eq!(detailed, fast);
    }

    #[test]
    fn functional_match_with_rebalancing() {
        let a = random_sparse(64, 4);
        let b = dense(64, 6);
        for design in [
            Design::LocalSharing { hop: 1 },
            Design::LocalPlusRemote { hop: 2 },
        ] {
            let [detailed, fast] = output_bits(design.apply(config(8)), TdqMode::Tdq2, &a, &b);
            assert_eq!(detailed, fast, "{design:?}");
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
