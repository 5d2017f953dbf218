use crate::error::AccelError;
use awb_hw::{MemoryModel, BYTES_PER_NNZ};
use awb_sparse::partition::ColumnPartitioner;

/// How matrix rows are initially partitioned across PEs (paper Fig. 6 uses
/// contiguous blocks).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum MappingKind {
    /// Row `r` belongs to PE `r * n_pes / n_rows` — contiguous blocks, the
    /// paper's layout. Clustered hub rows land on the same PE, which is
    /// what makes *remote* imbalance visible.
    #[default]
    Block,
    /// Row `r` belongs to PE `r % n_pes` — an ablation that spreads
    /// adjacent rows across PEs.
    Cyclic,
}

/// Which rows the Shuffling LUT exchanges during remote switching
/// (paper §4.2 leaves the selection unspecified; see DESIGN.md).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum SltPolicy {
    /// Exchange the next `N_i` rows of each PE in index order —
    /// hardware-cheap, no per-row state.
    #[default]
    Sequential,
    /// Exchange the hotspot's heaviest rows against the coldspot's lightest
    /// ones, using per-row task counters from the previous round — the
    /// idealized upper bound.
    DegreeAware,
}

/// How a Read-after-Write hazard interacts with the PE's issue slot.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum StallMode {
    /// The hazard job parks in the stall buffer while younger jobs issue
    /// (the paper's design: "we buffer that job and delay for a few
    /// cycles"). No throughput loss unless the queue is otherwise empty.
    #[default]
    Park,
    /// Head-of-line blocking: the PE stalls until the hazard resolves
    /// (ablation).
    Block,
}

/// How a sparse operand is split across devices (column sharding; see
/// `awb_sparse::partition` and `DESIGN.md` §7/§8). The paper's accelerator
/// is a single device; sharding opens operands that do not fit one SPMMeM
/// by running one rebalanced PE array per column shard and merging partial
/// products. [`AccelConfig`] carries one policy per phase: `shards` for
/// the aggregation operand `A` and `combination_shards` for the per-layer
/// feature matrix `X`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum ShardPolicy {
    /// Unsharded single-device execution — the paper's setup (default).
    #[default]
    Single,
    /// Exactly this many nnz-balanced column shards (clamped to the
    /// operand's column count; must be ≥ 1).
    Fixed(usize),
    /// As few shards as possible such that each shard's non-zeros fit the
    /// on-chip budget of [`AccelConfig::memory`] — the memory-derived
    /// policy (an unbounded memory model yields one shard). This is a
    /// *device* budget: it sizes shards to the simulated accelerator's
    /// SPMMeM capacity. The orthogonal *host* budget
    /// ([`AccelConfig::host_mem_budget`]) instead bounds how many bytes
    /// of sparse slices the simulating host keeps resident when streaming
    /// from an on-disk [`store`](AccelConfig::store).
    MemoryBudget,
}

impl ShardPolicy {
    /// Short human-readable label (`"unsharded"`, `"4 shards"`, `"mem"`).
    pub fn label(&self) -> String {
        match self {
            ShardPolicy::Single => "unsharded".into(),
            ShardPolicy::Fixed(n) => format!("{n} shards"),
            ShardPolicy::MemoryBudget => "mem-budget".into(),
        }
    }
}

/// Who picks the execution strategy (design point and shard counts):
/// the caller, or the calibrated cost model in [`cost`](crate::cost).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum StrategyPolicy {
    /// Execute exactly the knobs set on the configuration (default).
    #[default]
    Manual,
    /// At [`GcnRunner::prepare`](crate::GcnRunner::prepare), profile the
    /// input's sparsity structure, score the candidate configurations with
    /// the calibrated cost model, and execute the predicted-fastest one.
    /// The design and shard fields on the configuration then serve only
    /// as the scoring base; the resolved choice is recorded in
    /// [`AutoDecision`](crate::cost::AutoDecision) and outputs stay
    /// bit-identical to hand-specifying the same knobs under `Manual`.
    Auto,
}

impl StrategyPolicy {
    /// Short human-readable label (`"manual"` / `"auto"`).
    pub fn label(&self) -> &'static str {
        match self {
            StrategyPolicy::Manual => "manual",
            StrategyPolicy::Auto => "auto",
        }
    }
}

/// Named design points evaluated in the paper (§5.2).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Design {
    /// §3 baseline: static equal partition, no rebalancing.
    Baseline,
    /// Dynamic local sharing only, with the given hop distance
    /// (paper Designs A/B are 1-hop/2-hop; Nell uses 2/3-hop).
    LocalSharing {
        /// Sharing radius in PEs.
        hop: usize,
    },
    /// Local sharing plus dynamic remote switching (paper Designs C/D).
    LocalPlusRemote {
        /// Sharing radius in PEs.
        hop: usize,
    },
    /// The EIE-derived reference of Table 3: the baseline datapath without
    /// rebalancing, clocked at 285 MHz.
    EieLike,
}

impl Design {
    /// Short label as used in the paper's legends.
    pub fn label(&self) -> String {
        match self {
            Design::Baseline => "Base".into(),
            Design::LocalSharing { hop } => format!("LS{hop}"),
            Design::LocalPlusRemote { hop } => format!("LS{hop}+RS"),
            Design::EieLike => "EIE-like".into(),
        }
    }

    /// The paper's five-way comparison for a dataset: Base, two local-only
    /// hops, and the same two hops with remote switching. Nell uses 2/3-hop
    /// instead of 1/2-hop (§5.2).
    pub fn paper_lineup(small_hop: usize) -> [Design; 5] {
        [
            Design::Baseline,
            Design::LocalSharing { hop: small_hop },
            Design::LocalSharing { hop: small_hop + 1 },
            Design::LocalPlusRemote { hop: small_hop },
            Design::LocalPlusRemote { hop: small_hop + 1 },
        ]
    }

    /// Applies this design point to a base configuration.
    pub fn apply(&self, mut config: AccelConfig) -> AccelConfig {
        match *self {
            Design::Baseline => {
                config.local_hop = 0;
                config.remote_switching = false;
            }
            Design::LocalSharing { hop } => {
                config.local_hop = hop;
                config.remote_switching = false;
            }
            Design::LocalPlusRemote { hop } => {
                config.local_hop = hop;
                config.remote_switching = true;
            }
            Design::EieLike => {
                config.local_hop = 0;
                config.remote_switching = false;
                config.queues_per_pe = 1;
                config.freq_mhz = 285.0;
            }
        }
        config
    }
}

/// Full accelerator configuration.
///
/// Construct via [`AccelConfig::builder`]; defaults follow the paper's
/// evaluation setup (1024 PEs, 275 MHz, 6-cycle MAC, block mapping,
/// 2-entry hotspot tracking window).
///
/// # Example
///
/// ```
/// use awb_accel::{AccelConfig, Design};
///
/// # fn main() -> Result<(), awb_accel::AccelError> {
/// let base = AccelConfig::builder().n_pes(256).build()?;
/// let tuned = Design::LocalPlusRemote { hop: 2 }.apply(base);
/// assert_eq!(tuned.local_hop, 2);
/// assert!(tuned.remote_switching);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct AccelConfig {
    /// Number of processing elements (≥ 2; the detailed TDQ-2 engine's
    /// Omega network additionally requires a power of two).
    pub n_pes: usize,
    /// Floating-point MAC pipeline depth in cycles (RaW hazard window).
    pub mac_latency: u32,
    /// Local-sharing radius in PEs (0 disables local sharing).
    pub local_hop: usize,
    /// Whether dynamic remote switching is active.
    pub remote_switching: bool,
    /// Row-selection policy of the Shuffling LUT.
    pub slt_policy: SltPolicy,
    /// How many hotspot/coldspot tuples the PE Status Monitor tracks
    /// concurrently (paper: 2).
    pub tracking_window: usize,
    /// Initial row→PE partition.
    pub mapping: MappingKind,
    /// Task queues per PE for TDQ-1 (paper Fig. 6: 4).
    pub queues_per_pe: usize,
    /// Omega-network per-port buffer depth (TDQ-2, detailed engine).
    pub net_buffer: usize,
    /// Hazard handling mode.
    pub stall_mode: StallMode,
    /// Clock frequency in MHz (for latency/energy conversion).
    pub freq_mhz: f64,
    /// Overlap consecutive SPMMs column-by-column (paper Fig. 8).
    pub pipeline_spmms: bool,
    /// Upper bound on auto-tuning rounds before the configuration freezes.
    pub max_tuning_rounds: usize,
    /// SPMMeM/DCM buffering model: bounds the distributor's delivery rate
    /// when the sparse operand does not fit on chip (paper Fig. 7).
    pub memory: MemoryModel,
    /// Host worker-thread override for the simulator's parallel phases
    /// (`None` = the [`exec`](crate::exec) default, i.e. `AWB_THREADS` /
    /// available parallelism). Purely a host wall-clock knob: results are
    /// bit-identical at any setting.
    pub threads: Option<usize>,
    /// How the sparse adjacency is partitioned across devices (default
    /// [`ShardPolicy::Single`], the paper's one-accelerator setup).
    pub shards: ShardPolicy,
    /// How each layer's feature matrix `X` is partitioned across devices
    /// for the combination phase `X × W` (default [`ShardPolicy::Single`]).
    /// Orthogonal to [`shards`](AccelConfig::shards): the aggregation and
    /// combination phases shard independently, and either axis alone (or
    /// both) keeps layer outputs bit-identical to the unsharded run.
    pub combination_shards: ShardPolicy,
    /// Deterministic fault-injection plan for the chaos harness (default
    /// `None` = injection off; every hook site is then a single
    /// `Option` test, so disabled injection is zero-cost). See
    /// [`FaultPlan`](crate::fault::FaultPlan).
    pub faults: Option<crate::fault::FaultPlan>,
    /// Who picks the execution strategy: the caller (default
    /// [`StrategyPolicy::Manual`]) or the calibrated per-layer cost model
    /// ([`StrategyPolicy::Auto`], resolved once per graph at prepare time).
    pub strategy: StrategyPolicy,
    /// Directory of a chunked on-disk sparse store
    /// ([`awb_sparse::store::SparseStore`]) to stream the adjacency from
    /// (default `None` = fully resident). When set, aggregation runs
    /// out-of-core: `A`'s shards are stored ones
    /// ([`ShardedEngine::stored`](crate::ShardedEngine::stored)), sized to
    /// [`host_mem_budget`](AccelConfig::host_mem_budget).
    pub store: Option<std::path::PathBuf>,
    /// *Host*-memory budget in bytes for streamed sparse slices (default
    /// `None` = [`DEFAULT_HOST_MEM_BUDGET`] when a
    /// [`store`](AccelConfig::store) is configured, unused otherwise).
    /// Deliberately distinct from the *on-chip* capacity
    /// ([`memory`](AccelConfig::memory)`.on_chip_bytes`), which sizes the
    /// simulated device's SPMMeM/DCM buffers and drives
    /// [`ShardPolicy::MemoryBudget`]: one knob bounds what the simulated
    /// accelerator holds, the other bounds what the simulating host holds.
    pub host_mem_budget: Option<usize>,
}

/// Default [`AccelConfig::host_mem_budget`] when a store is configured
/// without an explicit budget: 256 MiB of resident sparse slices.
pub const DEFAULT_HOST_MEM_BUDGET: usize = 256 << 20;

impl AccelConfig {
    /// Starts a builder with the paper's defaults.
    pub fn builder() -> AccelConfigBuilder {
        AccelConfigBuilder::default()
    }

    /// The paper's Table 3 setup: 1024 PEs at 275 MHz.
    ///
    /// # Panics
    ///
    /// Never panics (the defaults are valid).
    pub fn paper_default() -> Self {
        AccelConfig::builder()
            .build()
            .expect("paper defaults are valid")
    }

    /// Rows initially assigned to each PE under equal partition — the `R`
    /// of the paper's Eq. 5.
    pub fn rows_per_pe(&self, n_rows: usize) -> usize {
        n_rows.div_ceil(self.n_pes)
    }

    /// The column partitioner the aggregation-side policy
    /// ([`shards`](AccelConfig::shards)) resolves to
    /// ([`ShardPolicy::Single`] behaves as one shard;
    /// [`ShardPolicy::MemoryBudget`] derives its nnz budget from
    /// [`memory`](AccelConfig::memory)'s on-chip capacity).
    pub fn partitioner(&self) -> ColumnPartitioner {
        Self::resolve_partitioner(self.shards, &self.memory)
    }

    /// The column partitioner the combination-side policy
    /// ([`combination_shards`](AccelConfig::combination_shards)) resolves
    /// to — same resolution rules as [`partitioner`](AccelConfig::partitioner),
    /// applied to each layer's feature matrix `X`.
    pub fn combination_partitioner(&self) -> ColumnPartitioner {
        Self::resolve_partitioner(self.combination_shards, &self.memory)
    }

    fn resolve_partitioner(policy: ShardPolicy, memory: &MemoryModel) -> ColumnPartitioner {
        match policy {
            ShardPolicy::Single => ColumnPartitioner::by_shards(1),
            ShardPolicy::Fixed(n) => ColumnPartitioner::by_shards(n),
            ShardPolicy::MemoryBudget => {
                ColumnPartitioner::by_max_nnz((memory.on_chip_bytes / BYTES_PER_NNZ).max(1))
            }
        }
    }
}

impl Default for AccelConfig {
    fn default() -> Self {
        AccelConfig::paper_default()
    }
}

/// Multi-tenant serving options for
/// [`GcnService`](crate::serve::GcnService): the admission-queue depth and
/// the plan-cache memory budget. Validated by
/// [`GcnService::with_options`](crate::serve::GcnService::with_options)
/// with the same zero-rejected rules as the shard policies.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ServeOptions {
    /// Maximum queued (admitted but not yet drained) requests. Admission
    /// past this depth is rejected with
    /// [`AccelError::QueueFull`](crate::AccelError::QueueFull) — explicit
    /// backpressure instead of unbounded growth. Must be ≥ 1.
    pub queue_depth: usize,
    /// Plan-registry memory budget in bytes, over
    /// [`GcnPlan::memory_bytes`](crate::GcnPlan::memory_bytes) estimates
    /// of every resident plan, pinned names included. Least-recently-used
    /// unpinned plans are evicted while the resident total exceeds the
    /// budget; pinned plans and the most recent plan always stay
    /// resident, even oversized — a budget smaller than one plan must not
    /// deadlock serving. `None` disables eviction. `Some(0)` is rejected:
    /// use `None` for "no budget".
    pub cache_budget_bytes: Option<u64>,
    /// Per-request deadline budget on *queue wait*: a request whose wait
    /// exceeds this duration — admission to drain pickup, or batch start
    /// to pickup for a named or fingerprint batch — is shed with
    /// [`AccelError::DeadlineExceeded`](crate::AccelError::DeadlineExceeded)
    /// instead of executing stale work. `None` disables shedding;
    /// `Some(Duration::ZERO)` is rejected (it would shed everything).
    pub deadline: Option<std::time::Duration>,
}

impl ServeOptions {
    /// Checks the zero-rejected rules (queue depth ≥ 1, budget ≥ 1 byte).
    ///
    /// # Errors
    ///
    /// Returns [`AccelError`] describing the offending field.
    pub fn validate(&self) -> Result<(), AccelError> {
        if self.queue_depth == 0 {
            return Err(AccelError::InvalidConfig(
                "serve queue depth must be >= 1 (a zero-depth queue can never admit)".into(),
            ));
        }
        if self.cache_budget_bytes == Some(0) {
            return Err(AccelError::InvalidConfig(
                "plan-cache budget must be >= 1 byte (use None for an unbounded cache)".into(),
            ));
        }
        if self.deadline == Some(std::time::Duration::ZERO) {
            return Err(AccelError::InvalidConfig(
                "deadline must be > 0 when set (a zero budget sheds every request; use None to \
                 disable shedding)"
                    .into(),
            ));
        }
        Ok(())
    }
}

impl Default for ServeOptions {
    /// Depth 64 (explicit backpressure well before memory pressure),
    /// unbounded plan cache.
    fn default() -> Self {
        ServeOptions {
            queue_depth: 64,
            cache_budget_bytes: None,
            deadline: None,
        }
    }
}

/// Bounded retry-with-backoff policy for transient
/// [`AccelError::QueueFull`](crate::AccelError::QueueFull) rejections
/// (see [`GcnService::enqueue_with_backoff`](crate::GcnService::enqueue_with_backoff)).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RetryPolicy {
    /// Maximum re-admission attempts after the first rejection (≥ 1).
    pub max_retries: usize,
    /// Backoff slept before the first retry; doubles per attempt, capped
    /// at 64× (must be > 0).
    pub backoff: std::time::Duration,
}

impl RetryPolicy {
    /// Checks the zero-rejected rules (retries ≥ 1, backoff > 0).
    ///
    /// # Errors
    ///
    /// Returns [`AccelError::InvalidConfig`] describing the offending
    /// field.
    pub fn validate(&self) -> Result<(), AccelError> {
        if self.max_retries == 0 {
            return Err(AccelError::InvalidConfig(
                "retry count must be >= 1 (skip the retry helper for fail-fast admission)".into(),
            ));
        }
        if self.backoff.is_zero() {
            return Err(AccelError::InvalidConfig(
                "retry backoff must be > 0".into(),
            ));
        }
        Ok(())
    }

    /// The backoff before retry `attempt` (0-based): exponential doubling
    /// capped at 64× the base.
    pub fn backoff_for(&self, attempt: usize) -> std::time::Duration {
        self.backoff * (1u32 << attempt.min(6))
    }
}

impl Default for RetryPolicy {
    /// 3 retries starting at a 1 ms backoff.
    fn default() -> Self {
        RetryPolicy {
            max_retries: 3,
            backoff: std::time::Duration::from_millis(1),
        }
    }
}

/// Builder for [`AccelConfig`].
#[derive(Debug, Clone)]
pub struct AccelConfigBuilder {
    config: AccelConfig,
}

impl Default for AccelConfigBuilder {
    fn default() -> Self {
        AccelConfigBuilder {
            config: AccelConfig {
                n_pes: 1024,
                mac_latency: 6,
                local_hop: 1,
                remote_switching: true,
                slt_policy: SltPolicy::default(),
                tracking_window: 2,
                mapping: MappingKind::default(),
                queues_per_pe: 4,
                net_buffer: 4,
                stall_mode: StallMode::default(),
                freq_mhz: 275.0,
                pipeline_spmms: true,
                max_tuning_rounds: 32,
                memory: MemoryModel::unbounded(),
                threads: None,
                shards: ShardPolicy::Single,
                combination_shards: ShardPolicy::Single,
                faults: None,
                strategy: StrategyPolicy::Manual,
                store: None,
                host_mem_budget: None,
            },
        }
    }
}

impl AccelConfigBuilder {
    /// Sets the PE count (must be a power of two ≥ 2).
    pub fn n_pes(&mut self, n: usize) -> &mut Self {
        self.config.n_pes = n;
        self
    }

    /// Sets the MAC pipeline latency in cycles (≥ 1).
    pub fn mac_latency(&mut self, cycles: u32) -> &mut Self {
        self.config.mac_latency = cycles;
        self
    }

    /// Sets the local-sharing hop distance (0 disables).
    pub fn local_hop(&mut self, hop: usize) -> &mut Self {
        self.config.local_hop = hop;
        self
    }

    /// Enables or disables remote switching.
    pub fn remote_switching(&mut self, on: bool) -> &mut Self {
        self.config.remote_switching = on;
        self
    }

    /// Sets the Shuffling-LUT policy.
    pub fn slt_policy(&mut self, policy: SltPolicy) -> &mut Self {
        self.config.slt_policy = policy;
        self
    }

    /// Sets the PESM tracking window (≥ 1).
    pub fn tracking_window(&mut self, tuples: usize) -> &mut Self {
        self.config.tracking_window = tuples;
        self
    }

    /// Sets the initial row mapping.
    pub fn mapping(&mut self, mapping: MappingKind) -> &mut Self {
        self.config.mapping = mapping;
        self
    }

    /// Sets TDQ-1 queues per PE (≥ 1).
    pub fn queues_per_pe(&mut self, n: usize) -> &mut Self {
        self.config.queues_per_pe = n;
        self
    }

    /// Sets the Omega-network buffer depth (≥ 1).
    pub fn net_buffer(&mut self, depth: usize) -> &mut Self {
        self.config.net_buffer = depth;
        self
    }

    /// Sets hazard handling.
    pub fn stall_mode(&mut self, mode: StallMode) -> &mut Self {
        self.config.stall_mode = mode;
        self
    }

    /// Sets the clock frequency in MHz (> 0).
    pub fn freq_mhz(&mut self, mhz: f64) -> &mut Self {
        self.config.freq_mhz = mhz;
        self
    }

    /// Enables or disables inter-SPMM pipelining.
    pub fn pipeline_spmms(&mut self, on: bool) -> &mut Self {
        self.config.pipeline_spmms = on;
        self
    }

    /// Sets the auto-tuning round budget (≥ 1).
    pub fn max_tuning_rounds(&mut self, rounds: usize) -> &mut Self {
        self.config.max_tuning_rounds = rounds;
        self
    }

    /// Sets the SPMMeM/DCM memory model.
    pub fn memory(&mut self, memory: MemoryModel) -> &mut Self {
        self.config.memory = memory;
        self
    }

    /// Sets the host worker-thread override (`None` restores the
    /// [`exec`](crate::exec) default; `Some(n)` requires `n >= 1`).
    pub fn threads(&mut self, threads: Option<usize>) -> &mut Self {
        self.config.threads = threads;
        self
    }

    /// Sets the adjacency (aggregation-phase) shard policy
    /// ([`ShardPolicy::Fixed`] requires a count ≥ 1).
    pub fn shards(&mut self, policy: ShardPolicy) -> &mut Self {
        self.config.shards = policy;
        self
    }

    /// Sets the feature-matrix (combination-phase `X × W`) shard policy
    /// ([`ShardPolicy::Fixed`] requires a count ≥ 1).
    pub fn combination_shards(&mut self, policy: ShardPolicy) -> &mut Self {
        self.config.combination_shards = policy;
        self
    }

    /// Arms (or with `None`, disarms) deterministic fault injection for
    /// the chaos harness.
    pub fn faults(&mut self, plan: Option<crate::fault::FaultPlan>) -> &mut Self {
        self.config.faults = plan;
        self
    }

    /// Sets the strategy policy (manual knobs vs cost-model `Auto`).
    pub fn strategy(&mut self, policy: StrategyPolicy) -> &mut Self {
        self.config.strategy = policy;
        self
    }

    /// Sets (or with `None`, clears) the on-disk sparse store directory
    /// the adjacency streams from (see [`AccelConfig::store`]).
    pub fn store(&mut self, dir: Option<std::path::PathBuf>) -> &mut Self {
        self.config.store = dir;
        self
    }

    /// Sets the host-memory budget in bytes for streamed sparse slices
    /// (`Some(n)` requires `n >= 1` and a configured
    /// [`store`](AccelConfigBuilder::store); `None` restores the default).
    pub fn host_mem_budget(&mut self, bytes: Option<usize>) -> &mut Self {
        self.config.host_mem_budget = bytes;
        self
    }

    /// Validates and produces the configuration.
    ///
    /// # Errors
    ///
    /// Returns [`AccelError::InvalidConfig`] when any field is out of its
    /// documented domain.
    pub fn build(&self) -> Result<AccelConfig, AccelError> {
        let c = &self.config;
        // Any PE count >= 2 is valid for the fast engine; the Omega network
        // of the detailed TDQ-2 engine additionally requires a power of two
        // (checked there). The paper's Fig. 15 sweeps 512/768/1024.
        if c.n_pes < 2 {
            return Err(AccelError::InvalidConfig(format!(
                "n_pes must be >= 2, got {}",
                c.n_pes
            )));
        }
        if c.mac_latency == 0 {
            return Err(AccelError::InvalidConfig("mac_latency must be >= 1".into()));
        }
        if c.local_hop >= c.n_pes {
            return Err(AccelError::InvalidConfig(format!(
                "local_hop {} must be < n_pes {}",
                c.local_hop, c.n_pes
            )));
        }
        if c.tracking_window == 0 {
            return Err(AccelError::InvalidConfig(
                "tracking_window must be >= 1".into(),
            ));
        }
        if c.queues_per_pe == 0 {
            return Err(AccelError::InvalidConfig(
                "queues_per_pe must be >= 1".into(),
            ));
        }
        if c.net_buffer == 0 {
            return Err(AccelError::InvalidConfig("net_buffer must be >= 1".into()));
        }
        if !(c.freq_mhz.is_finite() && c.freq_mhz > 0.0) {
            return Err(AccelError::InvalidConfig(format!(
                "freq_mhz must be positive, got {}",
                c.freq_mhz
            )));
        }
        if c.max_tuning_rounds == 0 {
            return Err(AccelError::InvalidConfig(
                "max_tuning_rounds must be >= 1".into(),
            ));
        }
        if c.threads == Some(0) {
            return Err(AccelError::InvalidConfig(
                "threads must be >= 1 when set (use None for the default)".into(),
            ));
        }
        if c.shards == ShardPolicy::Fixed(0) {
            return Err(AccelError::InvalidConfig(
                "shard count must be >= 1 (use ShardPolicy::Single for no sharding)".into(),
            ));
        }
        if c.combination_shards == ShardPolicy::Fixed(0) {
            return Err(AccelError::InvalidConfig(
                "combination shard count must be >= 1 (use ShardPolicy::Single for no sharding)"
                    .into(),
            ));
        }
        if c.store.is_some() && c.shards != ShardPolicy::Single {
            return Err(AccelError::InvalidConfig(
                "a sparse store streams the aggregation operand out of core; it conflicts \
                 with an aggregation shard policy (leave shards at ShardPolicy::Single)"
                    .into(),
            ));
        }
        if c.host_mem_budget == Some(0) {
            return Err(AccelError::InvalidConfig(
                "host_mem_budget must be >= 1 byte when set (use None for the default)".into(),
            ));
        }
        if c.host_mem_budget.is_some() && c.store.is_none() {
            return Err(AccelError::InvalidConfig(
                "host_mem_budget only applies to out-of-core runs; configure a store directory"
                    .into(),
            ));
        }
        Ok(c.clone())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defaults_match_paper() {
        let c = AccelConfig::paper_default();
        assert_eq!(c.n_pes, 1024);
        assert_eq!(c.freq_mhz, 275.0);
        assert_eq!(c.mac_latency, 6);
        assert_eq!(c.tracking_window, 2);
        assert_eq!(c.mapping, MappingKind::Block);
        assert_eq!(c.threads, None);
        assert_eq!(c.shards, ShardPolicy::Single);
        assert_eq!(c.combination_shards, ShardPolicy::Single);
        assert_eq!(c.strategy, StrategyPolicy::Manual);
    }

    #[test]
    fn strategy_policy_labels_and_builder() {
        assert_eq!(StrategyPolicy::Manual.label(), "manual");
        assert_eq!(StrategyPolicy::Auto.label(), "auto");
        let c = AccelConfig::builder()
            .strategy(StrategyPolicy::Auto)
            .build()
            .unwrap();
        assert_eq!(c.strategy, StrategyPolicy::Auto);
    }

    #[test]
    fn shard_policy_validation_and_partitioner() {
        assert!(AccelConfig::builder()
            .shards(ShardPolicy::Fixed(0))
            .build()
            .is_err());
        assert!(AccelConfig::builder()
            .shards(ShardPolicy::Fixed(4))
            .build()
            .is_ok());
        assert!(AccelConfig::builder()
            .shards(ShardPolicy::MemoryBudget)
            .build()
            .is_ok());
        // Single and Fixed(1) resolve to a one-shard partitioner; a tight
        // memory budget resolves to the budgeted split.
        let a = {
            let mut coo = awb_sparse::Coo::new(8, 8);
            for c in 0..8 {
                coo.push(0, c, 1.0).unwrap();
            }
            coo.to_csc()
        };
        let single = AccelConfig::paper_default();
        assert_eq!(single.partitioner().partition(&a).len(), 1);
        let mut budgeted = AccelConfig::builder()
            .shards(ShardPolicy::MemoryBudget)
            .build()
            .unwrap();
        budgeted.memory = awb_hw::MemoryModel {
            on_chip_bytes: 2 * awb_hw::BYTES_PER_NNZ,
            off_chip_bytes_per_cycle: 64.0,
        };
        assert_eq!(budgeted.partitioner().partition(&a).len(), 4);
        assert_eq!(ShardPolicy::Fixed(4).label(), "4 shards");
        assert_eq!(ShardPolicy::Single.label(), "unsharded");
        assert_eq!(ShardPolicy::MemoryBudget.label(), "mem-budget");
    }

    #[test]
    fn combination_shard_policy_validation_and_partitioner() {
        assert!(AccelConfig::builder()
            .combination_shards(ShardPolicy::Fixed(0))
            .build()
            .is_err());
        assert!(AccelConfig::builder()
            .combination_shards(ShardPolicy::Fixed(3))
            .build()
            .is_ok());
        // The two axes resolve independently: A sharded 4-way, X 2-way.
        let a = {
            let mut coo = awb_sparse::Coo::new(8, 8);
            for c in 0..8 {
                coo.push(0, c, 1.0).unwrap();
            }
            coo.to_csc()
        };
        let cfg = AccelConfig::builder()
            .shards(ShardPolicy::Fixed(4))
            .combination_shards(ShardPolicy::Fixed(2))
            .build()
            .unwrap();
        assert_eq!(cfg.partitioner().partition(&a).len(), 4);
        assert_eq!(cfg.combination_partitioner().partition(&a).len(), 2);
        // MemoryBudget on the combination axis derives from the same
        // on-chip capacity as the aggregation axis.
        let mut budgeted = AccelConfig::builder()
            .combination_shards(ShardPolicy::MemoryBudget)
            .build()
            .unwrap();
        budgeted.memory = awb_hw::MemoryModel {
            on_chip_bytes: 2 * awb_hw::BYTES_PER_NNZ,
            off_chip_bytes_per_cycle: 64.0,
        };
        assert_eq!(budgeted.combination_partitioner().partition(&a).len(), 4);
        assert_eq!(budgeted.partitioner().partition(&a).len(), 1);
    }

    #[test]
    fn store_and_host_budget_validation() {
        // Defaults: fully resident, no budget.
        let c = AccelConfig::paper_default();
        assert_eq!(c.store, None);
        assert_eq!(c.host_mem_budget, None);
        // A store alone is fine (budget defaults downstream).
        assert!(AccelConfig::builder()
            .store(Some("graphs/pubmed.store".into()))
            .build()
            .is_ok());
        // Budget with a store is fine; zero budget is rejected; a budget
        // without a store is a typed error, not silently ignored.
        assert!(AccelConfig::builder()
            .store(Some("graphs/pubmed.store".into()))
            .host_mem_budget(Some(64 << 20))
            .build()
            .is_ok());
        assert!(matches!(
            AccelConfig::builder()
                .store(Some("graphs/pubmed.store".into()))
                .host_mem_budget(Some(0))
                .build(),
            Err(AccelError::InvalidConfig(_))
        ));
        assert!(matches!(
            AccelConfig::builder()
                .host_mem_budget(Some(64 << 20))
                .build(),
            Err(AccelError::InvalidConfig(_))
        ));
        // Streaming replaces device-sharding of A: combining them is a
        // conflict, not a silent precedence rule.
        assert!(matches!(
            AccelConfig::builder()
                .store(Some("graphs/pubmed.store".into()))
                .shards(ShardPolicy::Fixed(2))
                .build(),
            Err(AccelError::InvalidConfig(_))
        ));
        // The combination axis is orthogonal (X is never streamed).
        assert!(AccelConfig::builder()
            .store(Some("graphs/pubmed.store".into()))
            .combination_shards(ShardPolicy::Fixed(2))
            .build()
            .is_ok());
    }

    #[test]
    fn builder_validates_n_pes() {
        assert!(AccelConfig::builder().n_pes(0).build().is_err());
        assert!(AccelConfig::builder().n_pes(1).build().is_err());
        assert!(AccelConfig::builder().n_pes(512).build().is_ok());
        // Non-power-of-two is allowed (paper Fig. 15 uses 768 PEs); only
        // the detailed TDQ-2 engine restricts it.
        assert!(AccelConfig::builder().n_pes(768).build().is_ok());
    }

    #[test]
    fn builder_validates_other_fields() {
        assert!(AccelConfig::builder().mac_latency(0).build().is_err());
        assert!(AccelConfig::builder().tracking_window(0).build().is_err());
        assert!(AccelConfig::builder().queues_per_pe(0).build().is_err());
        assert!(AccelConfig::builder().net_buffer(0).build().is_err());
        assert!(AccelConfig::builder().freq_mhz(0.0).build().is_err());
        assert!(AccelConfig::builder().freq_mhz(f64::NAN).build().is_err());
        assert!(AccelConfig::builder().max_tuning_rounds(0).build().is_err());
        assert!(AccelConfig::builder().threads(Some(0)).build().is_err());
        assert!(AccelConfig::builder().threads(Some(4)).build().is_ok());
        assert!(AccelConfig::builder().threads(None).build().is_ok());
        assert!(AccelConfig::builder()
            .n_pes(4)
            .local_hop(4)
            .build()
            .is_err());
    }

    #[test]
    fn design_apply_baseline_disables_rebalancing() {
        let c = Design::Baseline.apply(AccelConfig::paper_default());
        assert_eq!(c.local_hop, 0);
        assert!(!c.remote_switching);
    }

    #[test]
    fn design_apply_variants() {
        let base = AccelConfig::paper_default();
        let a = Design::LocalSharing { hop: 1 }.apply(base.clone());
        assert_eq!((a.local_hop, a.remote_switching), (1, false));
        let d = Design::LocalPlusRemote { hop: 2 }.apply(base.clone());
        assert_eq!((d.local_hop, d.remote_switching), (2, true));
        let e = Design::EieLike.apply(base);
        assert_eq!(e.freq_mhz, 285.0);
        assert_eq!(e.queues_per_pe, 1);
    }

    #[test]
    fn paper_lineup_shapes() {
        let lineup = Design::paper_lineup(1);
        assert_eq!(lineup[0], Design::Baseline);
        assert_eq!(lineup[1], Design::LocalSharing { hop: 1 });
        assert_eq!(lineup[2], Design::LocalSharing { hop: 2 });
        assert_eq!(lineup[3], Design::LocalPlusRemote { hop: 1 });
        assert_eq!(lineup[4], Design::LocalPlusRemote { hop: 2 });
        let nell = Design::paper_lineup(2);
        assert_eq!(nell[1], Design::LocalSharing { hop: 2 });
        assert_eq!(nell[4], Design::LocalPlusRemote { hop: 3 });
    }

    #[test]
    fn labels() {
        assert_eq!(Design::Baseline.label(), "Base");
        assert_eq!(Design::LocalSharing { hop: 2 }.label(), "LS2");
        assert_eq!(Design::LocalPlusRemote { hop: 3 }.label(), "LS3+RS");
        assert_eq!(Design::EieLike.label(), "EIE-like");
    }

    #[test]
    fn rows_per_pe_rounds_up() {
        let c = AccelConfig::builder().n_pes(8).build().unwrap();
        assert_eq!(c.rows_per_pe(17), 3);
        assert_eq!(c.rows_per_pe(16), 2);
    }
}
