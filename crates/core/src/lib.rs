//! # AWB-GCN accelerator simulator
//!
//! The core crate of the reproduction of *AWB-GCN: A Graph Convolutional
//! Network Accelerator with Runtime Workload Rebalancing* (Geng et al.,
//! MICRO 2020): a cycle-level model of the paper's SPMM architecture with
//! its two runtime rebalancing techniques —
//!
//! * **dynamic local sharing** ([`LocalSharing`]): per-task diversion to
//!   under-loaded neighbour PEs within a configurable hop radius, and
//! * **dynamic remote switching** ([`RemoteSwitcher`]): per-round exchange
//!   of row ownership between the hotspot and coldspot PEs, sized by the
//!   paper's Eq. 5 and auto-tuned to convergence ([`AutoTuner`]), after
//!   which the configuration is frozen and reused.
//!
//! Two engines implement the same architecture ([`FastEngine`] for
//! dataset-scale sweeps, [`DetailedEngine`] for component-accurate
//! validation), and [`GcnRunner`] chains them into full GCN inference with
//! inter-SPMM pipelining (paper Fig. 8). [`AreaModel`] and [`EnergyModel`]
//! reproduce the paper's CLB and inferences-per-kJ reporting.
//!
//! The converged tuning state is a first-class artifact: a warm-up phase
//! ([`FastEngine::freeze_plan`] / [`GcnRunner::prepare`]) produces a frozen,
//! shareable [`TunedPlan`]/[`GcnPlan`], and per-request
//! [`SpmmSession`]s/[`GcnPlan::run`] execute against it without re-paying
//! tuning. [`GcnService`] builds the batched multi-request serving
//! front-end on top (prepared per-graph plans, deterministic batch
//! fan-out, per-request latency + aggregate throughput reporting).
//!
//! The adjacency side runs one shard pipeline ([`ShardedEngine`] →
//! [`ShardedPlan`] → [`ShardedSession`]): `A` is split into column shards,
//! each with its own auto-tuned PE array, and partial products merge in an
//! order pinned bit-identical to a single device, which is the one-shard
//! case. A shard is *resident* — cut nnz-balanced under a [`ShardPolicy`]
//! for graphs bigger than one device (`DESIGN.md` §7) — or *stored*: a
//! chunk range read from an on-disk store one shard at a time, so peak
//! host memory stays under a budget (`DESIGN.md` §13).
//!
//! Layout selection can be delegated to the per-layer cost model
//! ([`StrategyPolicy::Auto`] / [`cost`]): prepare takes the largest LS+RS
//! design that fits the PE count, profiles the input, scores the candidate
//! shard layouts, and freezes the predicted-fastest configuration —
//! bit-identical to hand-specifying it.
//!
//! # Quickstart
//!
//! ```
//! use awb_accel::{AccelConfig, Design, GcnRunner};
//! use awb_datasets::{DatasetSpec, GeneratedDataset};
//! use awb_gcn_model::GcnInput;
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let data = GeneratedDataset::generate(&DatasetSpec::cora().with_nodes(256), 1)?;
//! let input = GcnInput::from_dataset(&data)?;
//! let base = AccelConfig::builder().n_pes(64).build()?;
//!
//! let baseline = GcnRunner::new(Design::Baseline.apply(base.clone())).run(&input)?;
//! let awb = GcnRunner::new(Design::LocalPlusRemote { hop: 2 }.apply(base)).run(&input)?;
//! assert!(awb.stats.avg_utilization() >= baseline.stats.avg_utilization());
//! # Ok(())
//! # }
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod area;
mod config;
pub mod cost;
mod energy;
mod engine;
mod error;
pub mod exec;
pub mod fault;
mod gcn_run;
mod mapping;
pub mod pipeline;
mod rebalance;
mod serve;
mod stats;
mod sweep;
pub mod trace;

pub use area::{AreaBreakdown, AreaModel};
pub use config::{
    AccelConfig, AccelConfigBuilder, Design, MappingKind, RetryPolicy, ServeOptions, ShardPolicy,
    SltPolicy, StallMode, StrategyPolicy, DEFAULT_HOST_MEM_BUDGET,
};
pub use cost::{AutoDecision, CostProfile};
pub use energy::{cycles_to_ms, EnergyModel};
pub use engine::{
    DetailedEngine, FastEngine, PlanShard, ShardedEngine, ShardedOutcome, ShardedPlan,
    ShardedSession, SpmmEngine, SpmmOutcome, SpmmSession, StreamStats, TdqMode, TunedPlan,
};
pub use error::AccelError;
pub use exec::{num_threads, par_map, par_map_isolated, par_map_threads};
pub use fault::{FaultKind, FaultPlan};
pub use gcn_run::{verify_against_reference, GcnPlan, GcnRunOutcome, GcnRunner};
pub use mapping::RowMap;
pub use rebalance::{AutoTuner, LocalSharing, RemoteSwitcher, RoundProfile, SwitchPlan};
pub use serve::{
    validate_ingest, AdmissionOutcome, AutoReport, BatchOutcome, CacheStats, GcnService,
    IsolatedBatch, LatencyPercentiles, PrepareReport, RequestOutcome,
};
pub use stats::{LayerStats, RoundStats, RunStats, SpmmStats};
pub use sweep::{sweep_csv, DesignSweep, SweepPoint};
