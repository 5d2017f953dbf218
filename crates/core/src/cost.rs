//! Analytical cost model behind [`StrategyPolicy::Auto`].
//!
//! The paper's thesis is that the hardware rebalances at run time: local
//! sharing plus remote switching autotunes to each graph, so nobody has to
//! pick a design point for it. Auto therefore resolves the design by rule
//! — the largest LS+RS of [`Design::paper_lineup`] that fits the PE count,
//! `LocalPlusRemote { hop: min(2, n_pes − 1) }` — and spends the model on
//! what the input's size does decide: the *layout*, i.e. how many column
//! shards `A` is split into and whether each layer's `X` is sharded.
//! [`select`] scores every layout candidate with [`predict_config_cycles`]
//! against the input's sparsity profile and freezes the predicted-fastest
//! one into the plan that `GcnRunner::prepare` builds. On every honesty
//! input and every tenant the rule matched or beat a search over all five
//! designs (EXPERIMENTS.md §20).
//!
//! The cycle terms are architectural and host-independent. A round of one
//! SPMM costs the busiest PE's task count after the design point's
//! rebalancing smooths it — the raw per-PE maximum for `Base`, the busiest
//! hop-window average under local sharing, and near the mean (a small
//! residual above it) once remote switching converges — or the off-chip
//! delivery floor `nnz / bandwidth` when the operand does not fit the
//! [`MemoryModel`]'s on-chip budget, whichever is larger. Column-sharding
//! an operand `s` ways divides both the per-PE load and the per-shard nnz
//! by `s` (the shard critical path), which is exactly why sharding only
//! wins when it lifts the delivery floor: candidates on each shard axis
//! are the *memory-feasible* counts, so a graph that fits one device is
//! never split across phantom devices for a free predicted speedup.
//!
//! Auto only *selects among existing kernels*: the execution order is the
//! implemented `A × (X × W)` schedule, and the pinned ascending-`j`
//! reduction order is untouched, so an Auto run is bit-identical to
//! hand-specifying the same configuration.

use crate::config::{AccelConfig, Design, ShardPolicy, StrategyPolicy};
use awb_gcn_model::GcnInput;
use awb_hw::{MemoryModel, BYTES_PER_NNZ};

/// Fixed per-round launch/sync overhead in cycles (distributor restart +
/// column broadcast). Keeps every prediction strictly positive.
const ROUND_OVERHEAD: f64 = 8.0;

/// Fraction of the post-local-sharing imbalance that survives remote
/// switching once the auto-tuner converges (switching chases the residual
/// but never fully erases it within the tracking window).
const RS_RESIDUAL: f64 = 0.15;

/// Per-phase cycle penalty for remote switching on operands that re-tune
/// every request (the per-layer `X × W` engines are fresh each request, so
/// their tuning rounds land on the warm path, unlike the frozen `A` plan).
const RS_TUNE_CYCLES: f64 = 16.0;

/// Relative margin a later layout candidate must beat the best so far by;
/// within it the earlier candidate (fewer shards) keeps the pick.
const CYCLE_TIE_EPS: f64 = 1e-6;

/// The sparsity-structure inputs the model scores against, computed once
/// per graph (an `O(n)` row-count scan) and shared across every candidate
/// — and, via `GcnRunner::prepare_profiled`, across every `DesignSweep`
/// point on the same input.
#[derive(Debug, Clone)]
pub struct CostProfile {
    n: usize,
    a_nnz: usize,
    a_row_nnz: Vec<usize>,
    x1_nnz: usize,
    x1_cols: usize,
    x1_row_nnz: Vec<usize>,
    /// `(f_in, f_out)` per layer, from the weight shapes.
    layer_dims: Vec<(usize, usize)>,
}

impl CostProfile {
    /// Profiles `input`: row-nnz counts of `A` and `X1`, and layer
    /// dimensions.
    pub fn of_input(input: &GcnInput) -> Self {
        CostProfile {
            n: input.a_norm.rows(),
            a_nnz: input.a_norm.nnz(),
            a_row_nnz: input.a_norm.row_nnz_counts(),
            x1_nnz: input.x1.nnz(),
            x1_cols: input.x1.cols(),
            x1_row_nnz: input.x1.row_nnz_counts(),
            layer_dims: input.weights.iter().map(|w| w.shape()).collect(),
        }
    }
}

/// The frozen outcome of Auto selection: the design the rule resolved,
/// the winning layout, and the model's prediction for it. `apply` turns
/// it into the concrete `Manual` configuration the plan executes.
#[derive(Debug, Clone, PartialEq)]
pub struct AutoDecision {
    /// Design point: the largest LS+RS that fits the PE count.
    pub design: Design,
    /// Winning aggregation-side shard policy (resolved to a concrete
    /// count; `Single` when the adjacency fits one device).
    pub shards: ShardPolicy,
    /// Winning combination-side shard policy (`MemoryBudget` when some
    /// layer's feature matrix overflows on-chip memory, else `Single`).
    pub combination_shards: ShardPolicy,
    /// Predicted end-to-end warm-path cycles for the winner.
    pub predicted_cycles: f64,
    /// How many layout candidates were scored (1 when the graph fits on
    /// chip).
    pub candidates_scored: usize,
    /// True when this decision was re-scored against the unsharded
    /// candidate set after a degraded sharded prepare (DESIGN.md §10's
    /// fallback rung) — the sharded predictions above would be stale.
    pub rescored_unsharded: bool,
}

impl AutoDecision {
    /// One-line human label of the chosen configuration, e.g.
    /// `"LS2+RS | A unsharded | X unsharded"`.
    pub fn label(&self) -> String {
        format!(
            "{} | A {} | X {}",
            self.design.label(),
            self.shards.label(),
            self.combination_shards.label(),
        )
    }

    /// The concrete configuration the decision resolves to: `base` with
    /// the winning design and shards applied and the strategy set back
    /// to [`StrategyPolicy::Manual`] — running it hand-specified is
    /// bit-identical to the Auto run (and re-preparing it never
    /// re-resolves).
    pub fn apply(&self, base: &AccelConfig) -> AccelConfig {
        let mut config = self.design.apply(base.clone());
        config.shards = self.shards;
        config.combination_shards = self.combination_shards;
        config.strategy = StrategyPolicy::Manual;
        config
    }

    /// Stable FNV-1a hash of the resolved choice, mixed into the serving
    /// plan-cache key so plans prepared under different Auto resolutions
    /// (e.g. before/after a memory-model change) never alias.
    pub fn choice_hash(&self) -> u64 {
        let mut h: u64 = 0xcbf2_9ce4_8422_2325;
        for byte in self.label().bytes() {
            h = (h ^ u64::from(byte)).wrapping_mul(0x0000_0100_0000_01b3);
        }
        h
    }
}

/// `(local_hop, remote_switching)` a design point resolves to.
fn design_knobs(design: Design) -> (usize, bool) {
    match design {
        Design::Baseline | Design::EieLike => (0, false),
        Design::LocalSharing { hop } => (hop, false),
        Design::LocalPlusRemote { hop } => (hop, true),
    }
}

/// Folds per-row workloads into per-PE loads under the block mapping
/// (row `r` belongs to PE `r * n_pes / n`).
fn pe_loads(row_loads: &[usize], n_pes: usize) -> Vec<f64> {
    let n_pes = n_pes.max(1);
    let n = row_loads.len().max(1);
    let mut loads = vec![0.0f64; n_pes];
    for (r, &c) in row_loads.iter().enumerate() {
        loads[r * n_pes / n] += c as f64;
    }
    loads
}

/// The busiest PE's effective load after the design point's rebalancing:
/// raw max for `Base`, busiest hop-window average under local sharing
/// (work can only spread within the window), and mean plus a small
/// residual once remote switching converges.
fn effective_max(loads: &[f64], hop: usize, remote: bool) -> f64 {
    if loads.is_empty() {
        return 0.0;
    }
    let mean = loads.iter().sum::<f64>() / loads.len() as f64;
    let smoothed = if hop == 0 {
        loads.iter().copied().fold(0.0, f64::max)
    } else {
        let mut busiest = 0.0f64;
        for p in 0..loads.len() {
            let lo = p.saturating_sub(hop);
            let hi = (p + hop).min(loads.len() - 1);
            let window = loads[lo..=hi].iter().sum::<f64>() / (hi - lo + 1) as f64;
            busiest = busiest.max(window);
        }
        busiest.max(mean)
    };
    if remote {
        mean + (smoothed - mean) * RS_RESIDUAL
    } else {
        smoothed
    }
}

/// Predicted cycles for one SPMM phase: `rounds` rounds of the larger of
/// the busiest-PE load and the memory delivery floor, plus the one-time
/// operand fill. `shards` divides both the per-PE load and the per-shard
/// nnz (shard devices run in parallel; the prediction is their critical
/// path, matching how `ShardedEngine` accounts cycles).
fn phase_cycles(
    eff_max: f64,
    nnz: usize,
    rounds: usize,
    shards: usize,
    n_pes: usize,
    memory: &MemoryModel,
) -> f64 {
    let s = shards.max(1) as f64;
    let shard_nnz = (nnz as f64 / s).ceil() as usize;
    let bandwidth = memory.delivery_rate_limit(shard_nnz, n_pes.max(1)).max(1) as f64;
    let round = (eff_max / s).max(shard_nnz as f64 / bandwidth) + ROUND_OVERHEAD;
    rounds.max(1) as f64 * round + memory.fill_cycles(shard_nnz) as f64
}

/// Predicted cycles for one unsharded SPMM on an idealized (unbounded)
/// memory: the model's public single-phase form, exposed for property
/// tests and exploration. Finite, strictly positive, and monotone
/// non-decreasing in any row's nnz at fixed shape.
///
/// # Example
///
/// ```
/// use awb_accel::cost::predict_spmm_cycles;
/// use awb_accel::Design;
///
/// let skewed = predict_spmm_cycles(&[100, 1, 1, 1], 4, 16, Design::Baseline);
/// let balanced = predict_spmm_cycles(&[26, 26, 26, 26], 4, 16, Design::Baseline);
/// assert!(skewed > balanced);
/// let rebalanced = predict_spmm_cycles(&[100, 1, 1, 1], 4, 16, Design::LocalPlusRemote { hop: 1 });
/// assert!(rebalanced < skewed);
/// ```
pub fn predict_spmm_cycles(
    row_loads: &[usize],
    n_pes: usize,
    rounds: usize,
    design: Design,
) -> f64 {
    let (hop, remote) = design_knobs(design);
    let loads = pe_loads(row_loads, n_pes);
    let eff = effective_max(&loads, hop, remote);
    let nnz: usize = row_loads.iter().sum();
    phase_cycles(eff, nnz, rounds, 1, n_pes, &MemoryModel::unbounded())
}

/// Combines the two phase predictions of one layer under the configured
/// inter-SPMM pipelining (overlap bounded below by the longer stage plus
/// one round of the shorter, matching `pipeline_two_stage`'s bounds).
fn combine_layer(xw: f64, a_xw: f64, rounds: usize, pipelined: bool) -> f64 {
    if pipelined {
        xw.max(a_xw) + xw.min(a_xw) / rounds.max(1) as f64
    } else {
        xw + a_xw
    }
}

/// Memory-feasible shard counts for an operand of `nnz` non-zeros over
/// `cols` columns: just `[1]` when it fits on chip (sharding is a
/// capacity mechanism — splitting a resident operand across phantom
/// devices is never a real speedup), else the unsharded fallback plus the
/// minimal fitting count and one finer cut for the model to arbitrate.
fn shard_candidates(memory: &MemoryModel, nnz: usize, cols: usize) -> Vec<usize> {
    if memory.fits_on_chip(nnz) {
        return vec![1];
    }
    let budget = (memory.on_chip_bytes / BYTES_PER_NNZ).max(1);
    let need = nnz.div_ceil(budget).clamp(1, cols.max(1));
    let mut candidates = vec![1, need, (need + 1).min(cols.max(1))];
    candidates.sort_unstable();
    candidates.dedup();
    candidates
}

/// Predicted warm-path cycles for one *concrete* configuration — the
/// score [`select`] assigns a layout candidate. Lets sweeps and tools put
/// the model's prediction next to each measured point.
pub fn predict_config_cycles(config: &AccelConfig, profile: &CostProfile) -> f64 {
    let n_pes = config.n_pes;
    let memory = &config.memory;
    let remote = config.remote_switching;
    let eff_a = effective_max(
        &pe_loads(&profile.a_row_nnz, n_pes),
        config.local_hop,
        remote,
    );
    let eff_x1 = effective_max(
        &pe_loads(&profile.x1_row_nnz, n_pes),
        config.local_hop,
        remote,
    );
    let budget_nnz = (memory.on_chip_bytes / BYTES_PER_NNZ).max(1);
    let a_shards = match config.shards {
        ShardPolicy::Single => 1,
        ShardPolicy::Fixed(s) => s.max(1),
        ShardPolicy::MemoryBudget => profile
            .a_nnz
            .div_ceil(budget_nnz)
            .clamp(1, profile.n.max(1)),
    };
    let mut total_cycles = 0.0;
    for (l, &(f_in, f_out)) in profile.layer_dims.iter().enumerate() {
        // X operand: the sparse X1 on layer 1, ReLU-dense features after.
        let (x_nnz, x_cols, x_eff) = if l == 0 {
            (profile.x1_nnz, profile.x1_cols, eff_x1)
        } else {
            let nnz = profile.n * f_in;
            // Uniform rows: every design's effective max is the mean.
            (nnz, f_in, nnz as f64 / n_pes.max(1) as f64)
        };
        let x_shards = match config.combination_shards {
            ShardPolicy::MemoryBudget => x_nnz.div_ceil(budget_nnz).clamp(1, x_cols.max(1)),
            ShardPolicy::Fixed(s) => s.max(1),
            ShardPolicy::Single => 1,
        };
        let mut xw_cycles = phase_cycles(x_eff, x_nnz, f_out, x_shards, n_pes, memory);
        if remote {
            // Per-layer X engines are fresh each request: their remote
            // switching re-tunes on the warm path, unlike the frozen A plan.
            xw_cycles += RS_TUNE_CYCLES;
        }
        let a_xw_cycles = phase_cycles(eff_a, profile.a_nnz, f_out, a_shards, n_pes, memory);
        total_cycles += combine_layer(xw_cycles, a_xw_cycles, f_out, config.pipeline_spmms);
    }
    total_cycles
}

/// Resolves Auto for `config` against `profile`: the rule's design and the
/// layout candidate with the lowest [`predict_config_cycles`].
/// Deterministic for a given profile and config, and infallible: the
/// candidate space always contains the unsharded layout.
pub fn select(config: &AccelConfig, profile: &CostProfile) -> AutoDecision {
    select_constrained(config, profile, true)
}

/// [`select`] restricted to the unsharded layout — the re-scoring path
/// after a degraded sharded prepare (the sharded candidates' plans can no
/// longer be built, so keeping their predictions would be stale). The
/// returned decision has
/// [`rescored_unsharded`](AutoDecision::rescored_unsharded) set.
pub fn select_unsharded(config: &AccelConfig, profile: &CostProfile) -> AutoDecision {
    let mut decision = select_constrained(config, profile, false);
    decision.rescored_unsharded = true;
    decision
}

fn select_constrained(
    config: &AccelConfig,
    profile: &CostProfile,
    allow_sharded: bool,
) -> AutoDecision {
    // The largest LS+RS of the paper lineup whose hop fits the PE count.
    let design = Design::LocalPlusRemote {
        hop: config.n_pes.saturating_sub(1).min(2),
    };
    let a_shard_options: Vec<usize> = if allow_sharded {
        shard_candidates(&config.memory, profile.a_nnz, profile.n)
    } else {
        vec![1]
    };
    // Combination axis: binary — unsharded, or the per-layer memory-derived
    // split when some layer's feature matrix overflows on-chip memory.
    let x_overflows = allow_sharded
        && profile
            .layer_dims
            .iter()
            .enumerate()
            .any(|(l, &(f_in, _))| {
                let nnz = if l == 0 {
                    profile.x1_nnz
                } else {
                    profile.n * f_in
                };
                !config.memory.fits_on_chip(nnz)
            });
    let x_options: Vec<ShardPolicy> = if x_overflows {
        vec![ShardPolicy::Single, ShardPolicy::MemoryBudget]
    } else {
        vec![ShardPolicy::Single]
    };

    let mut best: Option<AutoDecision> = None;
    let mut candidates_scored = 0usize;
    for &a_shards in &a_shard_options {
        for &x_policy in &x_options {
            let mut candidate = AutoDecision {
                design,
                shards: if a_shards == 1 {
                    ShardPolicy::Single
                } else {
                    ShardPolicy::Fixed(a_shards)
                },
                combination_shards: x_policy,
                predicted_cycles: 0.0,
                candidates_scored: 0,
                rescored_unsharded: false,
            };
            candidate.predicted_cycles = predict_config_cycles(&candidate.apply(config), profile);
            candidates_scored += 1;
            let wins = match &best {
                None => true,
                Some(b) => {
                    b.predicted_cycles - candidate.predicted_cycles
                        > CYCLE_TIE_EPS * b.predicted_cycles.max(1.0)
                }
            };
            if wins {
                best = Some(candidate);
            }
        }
    }
    let mut decision = best.expect("candidate space is never empty");
    decision.candidates_scored = candidates_scored;
    decision
}

#[cfg(test)]
mod tests {
    use super::*;
    use awb_datasets::{DatasetSpec, GeneratedDataset};

    fn profile_for(nodes: usize, seed: u64) -> CostProfile {
        let data =
            GeneratedDataset::generate(&DatasetSpec::cora().with_nodes(nodes), seed).unwrap();
        CostProfile::of_input(&GcnInput::from_dataset(&data).unwrap())
    }

    #[test]
    fn predictions_finite_positive_and_design_ordered() {
        let loads = vec![40usize, 1, 1, 1, 1, 1, 1, 1];
        let base = predict_spmm_cycles(&loads, 8, 16, Design::Baseline);
        let ls = predict_spmm_cycles(&loads, 8, 16, Design::LocalSharing { hop: 1 });
        let rs = predict_spmm_cycles(&loads, 8, 16, Design::LocalPlusRemote { hop: 1 });
        for v in [base, ls, rs] {
            assert!(v.is_finite() && v > 0.0);
        }
        // Rebalancing can only help a skewed workload, and more of it more.
        assert!(ls < base);
        assert!(rs < ls);
    }

    #[test]
    fn prediction_monotone_in_nnz() {
        let mut loads = vec![3usize; 32];
        let before = predict_spmm_cycles(&loads, 8, 8, Design::LocalPlusRemote { hop: 2 });
        loads[5] += 10;
        let after = predict_spmm_cycles(&loads, 8, 8, Design::LocalPlusRemote { hop: 2 });
        assert!(after >= before);
    }

    #[test]
    fn select_prefers_rebalancing_on_skewed_graph() {
        // Nell-like clustering: heavy hub rows on a few PEs.
        let data = GeneratedDataset::generate(&DatasetSpec::nell().with_nodes(256), 8).unwrap();
        let profile = CostProfile::of_input(&GcnInput::from_dataset(&data).unwrap());
        let config = AccelConfig::builder().n_pes(64).build().unwrap();
        let decision = select(&config, &profile);
        assert!(
            decision.design != Design::Baseline,
            "skewed graph must not pick Base: {}",
            decision.label()
        );
        assert!(decision.predicted_cycles > 0.0);
        assert_eq!(decision.candidates_scored, 1);
        // Fits on chip: no phantom shard devices.
        assert_eq!(decision.shards, ShardPolicy::Single);
        assert_eq!(decision.combination_shards, ShardPolicy::Single);
    }

    #[test]
    fn select_shards_only_when_memory_bound() {
        let profile = profile_for(256, 9);
        let mut config = AccelConfig::builder().n_pes(32).build().unwrap();
        config.memory = awb_hw::MemoryModel {
            // A tiny on-chip budget: the adjacency cannot fit one device.
            on_chip_bytes: 64 * awb_hw::BYTES_PER_NNZ,
            off_chip_bytes_per_cycle: 16.0,
        };
        let decision = select(&config, &profile);
        assert!(
            matches!(decision.shards, ShardPolicy::Fixed(s) if s > 1),
            "memory-bound adjacency must shard: {}",
            decision.label()
        );
        // The unsharded re-score is forced back onto one device and must
        // predict slower (the delivery floor binds).
        let rescored = select_unsharded(&config, &profile);
        assert!(rescored.rescored_unsharded);
        assert_eq!(rescored.shards, ShardPolicy::Single);
        assert_eq!(rescored.combination_shards, ShardPolicy::Single);
        assert!(rescored.predicted_cycles > decision.predicted_cycles);
    }

    #[test]
    fn sharded_pick_predicts_what_its_config_predicts() {
        let profile = profile_for(256, 9);
        let mut config = AccelConfig::builder().n_pes(32).build().unwrap();
        config.memory = awb_hw::MemoryModel {
            on_chip_bytes: 64 * awb_hw::BYTES_PER_NNZ,
            off_chip_bytes_per_cycle: 16.0,
        };
        let decision = select(&config, &profile);
        assert!(decision.candidates_scored > 1, "{}", decision.label());
        assert_ne!(decision.shards, ShardPolicy::Single);
        assert_eq!(
            decision.predicted_cycles.to_bits(),
            predict_config_cycles(&decision.apply(&config), &profile).to_bits()
        );
    }

    #[test]
    fn apply_freezes_choice_into_manual_config() {
        let profile = profile_for(192, 4);
        let base = AccelConfig::builder()
            .n_pes(32)
            .strategy(StrategyPolicy::Auto)
            .build()
            .unwrap();
        let decision = select(&base, &profile);
        let resolved = decision.apply(&base);
        assert_eq!(resolved.strategy, StrategyPolicy::Manual);
        assert_eq!(resolved.shards, decision.shards);
        assert_eq!(resolved.combination_shards, decision.combination_shards);
        let (hop, remote) = design_knobs(decision.design);
        assert_eq!(resolved.local_hop, hop);
        assert_eq!(resolved.remote_switching, remote);
    }

    #[test]
    fn choice_hash_distinguishes_choices() {
        let profile = profile_for(192, 4);
        let config = AccelConfig::builder().n_pes(32).build().unwrap();
        let d = select(&config, &profile);
        let mut other = d.clone();
        other.design = if d.design == Design::Baseline {
            Design::LocalSharing { hop: 1 }
        } else {
            Design::Baseline
        };
        assert_ne!(d.choice_hash(), other.choice_hash());
        assert_eq!(d.choice_hash(), select(&config, &profile).choice_hash());
    }

    #[test]
    fn empty_pe_load_fold_is_safe() {
        assert_eq!(pe_loads(&[], 4), vec![0.0; 4]);
        assert_eq!(effective_max(&[], 2, true), 0.0);
        let cycles = predict_spmm_cycles(&[], 4, 4, Design::Baseline);
        assert!(cycles > 0.0, "round overhead keeps predictions positive");
    }
}
