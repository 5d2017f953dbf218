//! Shared round machinery: the queue-dynamics round model, the replay
//! cache, the dense operand's column runs, and the pinned numerics
//! kernels.
//!
//! Everything here is the *per-round* half of the engines, factored out
//! so that every caller shares it byte-for-byte: the
//! [`FastEngine`](super::FastEngine) times its tuning rounds through
//! [`simulate_round`] and, once its auto-tuner freezes, replays its steady
//! rounds from a [`ReplayCache`]. A frozen engine is one shard of a shared
//! [`ShardedPlan`](super::ShardedPlan), which every
//! [`ShardedSession`](super::ShardedSession) times requests against;
//! there *every* round is steady-state.
//!
//! [`ReplayCache`] is interior-mutable (`RwLock` + atomic counters) so a
//! plan can be shared (`&ShardedPlan`) across concurrently executing
//! sessions: all sessions read and warm one cache per shard. Timings are pure
//! functions of the round's non-zero pattern under the frozen map, so
//! concurrent insertion of the same key writes the same value and results
//! stay bit-identical regardless of interleaving (only the hit/miss
//! *counters* can differ between schedules, since two sessions racing on
//! an uncached pattern both count a miss).

use crate::config::{AccelConfig, StallMode};
use crate::exec;
use crate::rebalance::local::{rank_bits, rank_offset, tie_rank, LocalSharing};
use crate::stats::RoundStats;
use awb_sparse::spmm::{
    csc_accumulate_into, row_major_times_dense_into, RowOperand, ZeroBlocks, ACC_BLOCK_LANES,
};
use awb_sparse::{Csc, CscPattern, DenseMatrix};
use std::collections::HashMap;
use std::ops::Range;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Mutex, PoisonError, RwLock, RwLockReadGuard, RwLockWriteGuard};

/// Replay-cache entry cap. GCN workloads need a handful of patterns (most
/// rounds are fully dense in `b[:, k]`); an operand producing thousands of
/// distinct patterns gains nothing from memoization, so past the cap fresh
/// timings are kept for the current call only instead of growing the
/// cache's footprint without bound.
pub(crate) const REPLAY_CACHE_CAP: usize = 1024;

/// Memoized timing of one simulated round (cycles exclude the round-0
/// SPMMeM fill, which is charged at use).
#[derive(Debug, Clone, PartialEq)]
pub(crate) struct RoundTiming {
    /// Barrier cycles (`max_completion`), without any fill charge.
    pub cycles: u64,
    /// MAC tasks executed.
    pub tasks: u64,
    /// Busiest PE's executed-task count.
    pub max_pe_busy: u64,
    /// Least-busy PE's executed-task count.
    pub min_pe_busy: u64,
    /// Largest queue occupancy on any PE.
    pub max_queue_depth: usize,
    /// RaW-hazard stall cycles.
    pub raw_stalls: u64,
    /// Per-PE queue high-water marks (merged into the SPMM-level vector
    /// for steady-state rounds).
    pub queue_high_water: Vec<u32>,
}

impl RoundTiming {
    pub(crate) fn to_stats(&self, cycles: u64, tuning_active: bool) -> RoundStats {
        RoundStats {
            cycles,
            tasks: self.tasks,
            busy_cycles: self.tasks,
            max_pe_busy: self.max_pe_busy,
            min_pe_busy: self.min_pe_busy,
            max_queue_depth: self.max_queue_depth,
            raw_stalls: self.raw_stalls,
            tuning_active,
        }
    }
}

/// Result of simulating one round: the memoizable timing plus the
/// owner-attributed load profile the auto-tuner consumes.
pub(crate) struct SimRound {
    pub timing: RoundTiming,
    pub owner_busy: Vec<u64>,
}

/// Fixed per-run simulation parameters shared by every round.
#[derive(Clone, Copy)]
pub(crate) struct SimParams {
    pub n_pes: usize,
    pub lat: u64,
    pub bandwidth: u64,
    pub stall_mode: StallMode,
    pub sharing: Option<LocalSharing>,
}

impl SimParams {
    /// The parameters of a validated `config` delivering at the operand's
    /// `memory` rate.
    pub(crate) fn new(config: &AccelConfig, memory: MemoryParams) -> Self {
        SimParams {
            n_pes: config.n_pes,
            lat: config.mac_latency as u64,
            bandwidth: memory.bandwidth,
            stall_mode: config.stall_mode,
            sharing: (config.local_hop > 0)
                .then(|| LocalSharing::new(config.local_hop, config.n_pes)),
        }
    }
}

/// The memory-model quantities of one sparse operand under one config.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct MemoryParams {
    /// Distributor delivery rate (tasks advance `1/bandwidth` per cycle).
    pub bandwidth: u64,
    /// Whether SPMMeM holds the operand on chip.
    pub on_chip: bool,
    /// One-time fill charge for an on-chip operand (charged to round 0).
    pub fill_cycles: u64,
}

impl MemoryParams {
    pub(crate) fn for_operand(config: &AccelConfig, nnz: usize) -> MemoryParams {
        MemoryParams {
            bandwidth: config.memory.delivery_rate_limit(nnz, config.n_pes).max(1) as u64,
            on_chip: config.memory.fits_on_chip(nnz),
            fill_cycles: config.memory.fill_cycles(nnz),
        }
    }

    /// The SPMMeM fill charged to round `k` of `tasks` tasks: an on-chip
    /// operand pays its fill once, charged to round 0; an off-chip
    /// operand's per-round streaming cost is already captured by the
    /// throttled arrival rate.
    pub(crate) fn fill_charge(&self, k: usize, tasks: u64) -> u64 {
        if k == 0 && self.on_chip && tasks > 0 {
            self.fill_cycles
        } else {
            0
        }
    }
}

/// Simulates the queue dynamics of one round: the tasks of sparse columns
/// `pattern` (ascending, the non-zero `b(j, k)` positions) streamed in CSC
/// order against the given frozen-or-current row map. Timing only — the
/// numerics are handled by the column-accumulate kernel.
///
/// Each PE's queue is one number, `drain_at[pe]`: the cycle its last
/// queued task leaves the queue (one per cycle, FIFO). Its length at a
/// task's arrival is `drain_at − arrival` (0 once drained), and an enqueue
/// sets `drain_at = max(drain_at, arrival) + 1`. The distributor delivers
/// `bandwidth` tasks per cycle, so task `t` arrives in cycle
/// `t / bandwidth`.
///
/// Local sharing is the distributor's fixed-width comparator (paper
/// §4.1): the loop body is monomorphised over the hop radius for the
/// widths every design uses (0–3), so the window scan unrolls into a
/// straight chain of minimums; wider radii run the same body with the
/// width read at runtime (see [`simulate_round_hop`]).
pub(crate) fn simulate_round(
    a: &CscPattern,
    pattern: &[u32],
    pe_of_row: &[u32],
    p: SimParams,
) -> SimRound {
    match p.sharing.map_or(0, |s| s.hop()) {
        0 => simulate_round_hop::<0>(a, pattern, pe_of_row, p),
        1 => simulate_round_hop::<1>(a, pattern, pe_of_row, p),
        2 => simulate_round_hop::<2>(a, pattern, pe_of_row, p),
        3 => simulate_round_hop::<3>(a, pattern, pe_of_row, p),
        _ => simulate_round_hop::<RUNTIME_HOP>(a, pattern, pe_of_row, p),
    }
}

/// The `HOP` of [`simulate_round_hop`] that reads the radius from
/// [`SimParams::sharing`] at runtime instead of fixing it at compile time.
const RUNTIME_HOP: usize = usize::MAX;

/// The round model for a window of radius `HOP` (or the runtime radius,
/// for [`RUNTIME_HOP`]).
///
/// `drain_at` is padded with `hop` sentinel slots on each side — PE `pe`
/// lives at slot `pe + hop` — so the window of owner `o` is always the
/// full slice `drain_at[o .. o + 2·hop + 1]`, never clamped at the array
/// borders. Each lane's key is `max(drain_at, arrival) << k | rank`: the
/// queue length shifted by the constant `arrival`, so the minimum picks
/// the shortest queue, with the lane's [`tie_rank`] (owner first, then
/// nearer, then lower PE) in the low `k` bits breaking ties. Sentinels
/// hold the largest drain time whose shifted key still fits, so they lose
/// to every real lane. An owner whose queue is empty has the smallest key
/// possible (`arrival << k | 0`) and wins without a scan.
///
/// Each pattern column is walked in pieces that never cross an arrival
/// boundary: a piece is at most the `bandwidth − tasks % bandwidth` tasks
/// left in the current arrival cycle, so `arrival = tasks / bandwidth` is
/// a constant of the piece and the per-task loop keeps no delivery count.
///
/// The width has to be a compile-time constant for the scan to pay: with
/// a runtime width the loop neither unrolls nor keeps the lanes in
/// registers, and measures no faster than the unpadded clamped scan.
#[inline(always)]
fn simulate_round_hop<const HOP: usize>(
    a: &CscPattern,
    pattern: &[u32],
    pe_of_row: &[u32],
    p: SimParams,
) -> SimRound {
    let n_pes = p.n_pes;
    let lat = p.lat;
    let hop = if HOP == RUNTIME_HOP {
        p.sharing.map_or(0, |s| s.hop())
    } else {
        HOP
    };
    let width = 2 * hop + 1;
    let rank_shift = rank_bits(hop);
    let sentinel = u64::MAX >> rank_shift;

    // Per-PE and per-row queue state in one zeroed allocation.
    let mut sim_u64 = vec![0u64; 3 * n_pes + 2 * hop + a.rows()];
    let (drain_at, rest) = sim_u64.split_at_mut(n_pes + 2 * hop);
    drain_at[..hop].fill(sentinel);
    drain_at[hop + n_pes..].fill(sentinel);
    let (issue_until, rest) = rest.split_at_mut(n_pes);
    // `ready` is the per-row half (the big one on graph-sized operands).
    let (busy, ready) = rest.split_at_mut(n_pes);
    // Owner-attributed load: the distributor counts every task against
    // the PE that *owns* its row, before any local-sharing diversion.
    // The PESM profiles on this view — under sharing, executed-load
    // plateaus across a hot neighbourhood and would hide which PE's
    // rows cause the overload (see DESIGN.md, remote switching).
    let mut owner_busy = vec![0u64; n_pes];
    let mut max_q = vec![0u32; n_pes];

    let a_row_idx = a.row_idx();
    let a_col_ptr = a.col_ptr();

    let mut tasks: u64 = 0;
    // Arrival cycle of the current piece, and the tasks left in it.
    let mut arrival: u64 = 0;
    let mut room: u64 = p.bandwidth;
    let mut max_completion: u64 = 0;
    let mut raw_stalls: u64 = 0;

    for &j in pattern {
        let j = j as usize;
        let mut column = &a_row_idx[a_col_ptr[j]..a_col_ptr[j + 1]];
        while !column.is_empty() {
            let (piece, rest) = column.split_at(column.len().min(room as usize));
            column = rest;
            for &row_id in piece {
                let row = row_id as usize;
                let owner = pe_of_row[row] as usize;
                owner_busy[owner] += 1;
                // The window of `owner` is `drain_at[owner..owner + width]`
                // (slot `owner + hop` is the owner itself).
                let slot = if hop == 0 || drain_at[owner + hop] <= arrival {
                    owner + hop
                } else {
                    let window = &drain_at[owner..owner + width];
                    let mut best = u64::MAX;
                    for (lane, &d) in window.iter().enumerate() {
                        let rank = tie_rank(lane as isize - hop as isize);
                        best = best.min((d.max(arrival) << rank_shift) | rank);
                    }
                    let rank = best & ((1u64 << rank_shift) - 1);
                    (owner as isize + hop as isize + rank_offset(rank)) as usize
                };
                let dest = slot - hop;

                // Commit the enqueue.
                let drains = drain_at[slot].max(arrival) + 1;
                drain_at[slot] = drains;
                max_q[dest] = max_q[dest].max((drains - arrival) as u32);

                // Serial issue with RaW scoreboard. In `Park` mode the
                // stall buffer + accumulator forwarding hide the hazard
                // (the PE keeps issuing; we only count the event) — the
                // paper's design, without which a Nell hub row would
                // serialize at T cycles per non-zero and dwarf the
                // reported latencies. `Block` models the naive
                // head-of-line serialization as an ablation.
                let start = (issue_until[dest] + 1).max(arrival);
                let r_ready = ready[row];
                let (issue_cycle, complete) = if r_ready > start {
                    raw_stalls += r_ready - start;
                    match p.stall_mode {
                        StallMode::Block => (r_ready, r_ready + lat),
                        StallMode::Park => (start, start + lat),
                    }
                } else {
                    (start, start + lat)
                };
                issue_until[dest] = issue_cycle;
                ready[row] = complete;
                busy[dest] += 1;
                max_completion = max_completion.max(complete);
            }
            tasks += piece.len() as u64;
            room -= piece.len() as u64;
            if room == 0 {
                room = p.bandwidth;
                arrival += 1;
            }
        }
    }

    SimRound {
        timing: RoundTiming {
            cycles: max_completion,
            tasks,
            max_pe_busy: busy.iter().copied().max().unwrap_or(0),
            min_pe_busy: busy.iter().copied().min().unwrap_or(0),
            max_queue_depth: max_q.iter().copied().max().unwrap_or(0) as usize,
            raw_stalls,
            queue_high_water: max_q,
        },
        owner_busy,
    }
}

/// The non-zero positions of `b[rows, k]`, ascending and relative to
/// `rows.start` — one round's worth of dense-operand input as the round
/// model of a column shard `A[:, rows]` sees it (timing is a pure
/// function of the pattern, never of the values).
pub(crate) fn column_pattern(b: &DenseMatrix, k: usize, rows: Range<usize>) -> Vec<u32> {
    let start = rows.start;
    rows.filter(|&j| b.get(j, k) != 0.0)
        .map(|j| (j - start) as u32)
        .collect()
}

/// A maximal span of consecutive `b`-columns whose non-zero patterns are
/// identical: to the round model, every round of the span is the same
/// round.
#[derive(Debug, PartialEq)]
pub(crate) struct ColumnRun {
    /// The columns (rounds) of the run.
    pub cols: Range<usize>,
    /// Their shared [`column_pattern`].
    pub pattern: Vec<u32>,
}

/// Splits the columns of `b[rows, :]` into [`ColumnRun`]s, in column
/// order, reading `b` in place (a column shard's rows need no copy). One
/// row-major pass marks each column whose pattern differs from its left
/// neighbour's in some row; [`column_pattern`] then runs once per run.
pub(crate) fn column_runs(b: &DenseMatrix, rows: Range<usize>) -> Vec<ColumnRun> {
    let n_cols = b.cols();
    // `differs[k]`: columns `k` and `k + 1` differ in some row's pattern.
    let mut differs = vec![false; n_cols.saturating_sub(1)];
    for j in rows.clone() {
        for (d, pair) in differs.iter_mut().zip(b.row(j).windows(2)) {
            *d |= (pair[0] != 0.0) != (pair[1] != 0.0);
        }
    }
    let mut runs = Vec::new();
    let mut start = 0;
    for end in 1..=n_cols {
        if end == n_cols || differs[end - 1] {
            runs.push(ColumnRun {
                cols: start..end,
                pattern: column_pattern(b, start, rows.clone()),
            });
            start = end;
        }
    }
    runs
}

/// Splits `width` output lanes into at most `groups` contiguous ranges
/// of whole [`ACC_BLOCK_LANES`] blocks (one range when there is nothing
/// to split).
fn lane_groups(width: usize, groups: usize) -> Vec<Range<usize>> {
    let n_blocks = width.div_ceil(ACC_BLOCK_LANES);
    let groups = groups.min(n_blocks).max(1);
    (0..groups)
        .map(|g| {
            let lo = g * n_blocks / groups * ACC_BLOCK_LANES;
            let hi = ((g + 1) * n_blocks / groups * ACC_BLOCK_LANES).min(width);
            lo..hi
        })
        .collect()
}

/// Computes `C = A × B` through the one-pass accumulate kernel
/// ([`csc_accumulate_into`]). This is the numerics half of every engine
/// run — the timing half (the round model, on tuning and steady rounds
/// alike) never reads the values. The kernel's pinned reduction order
/// keeps it bit-identical to the per-column scalar path, so the sharded
/// executor pins its merged output bit-identical to the unsharded engines
/// through it while simulating timing per shard.
///
/// The output lanes are split into at most `threads` block-aligned groups
/// on the [`exec`] substrate. One group (always the case on a worker
/// thread, e.g. a request served inside a batch) accumulates straight
/// into `C`; several each fill their own buffer, copied into `C` in one
/// row-major pass.
pub(crate) fn compute_columns(a: &Csc, b: &DenseMatrix, threads: usize) -> DenseMatrix {
    let (n_rows, width) = (a.rows(), b.cols());
    let zero = ZeroBlocks::of(b);
    let groups = lane_groups(width, exec::workers(threads));
    let mut data = vec![0f32; n_rows * width];
    if let [lanes] = &groups[..] {
        csc_accumulate_into(a, b, 0, &zero, lanes.clone(), &mut data);
    } else {
        let parts = exec::par_map_threads(threads, &groups, |lanes| {
            let mut part = vec![0f32; n_rows * lanes.len()];
            csc_accumulate_into(a, b, 0, &zero, lanes.clone(), &mut part);
            part
        });
        for (i, row) in data.chunks_exact_mut(width).enumerate() {
            for (lanes, part) in groups.iter().zip(&parts) {
                let w = lanes.len();
                row[lanes.clone()].copy_from_slice(&part[i * w..(i + 1) * w]);
            }
        }
    }
    DenseMatrix::from_vec(n_rows, width, data).expect("buffer sized to the output matrix")
}

/// Computes `C = X × W` for an operand read row by row — the numerics of
/// a GCN layer's `X × W`, whose timing runs on `X`'s pattern alone. Rows
/// are split into one contiguous chunk per worker on the [`exec`]
/// substrate; every chunk writes its own disjoint slice of the output.
/// The row kernel's pinned order makes the result bit-identical to
/// [`compute_columns`] on `X`'s CSC form (see
/// [`row_major_times_dense_into`]).
pub(crate) fn compute_rows(x: RowOperand<'_>, w: &DenseMatrix, threads: usize) -> DenseMatrix {
    let (n_rows, width) = (x.rows(), w.cols());
    let mut data = vec![0f32; n_rows * width];
    if width > 0 {
        let zero = ZeroBlocks::of(w);
        let chunk_rows = n_rows.div_ceil(exec::workers(threads)).max(1);
        // One uncontended lock per chunk: it only lets `par_map` hand each
        // worker a `&mut` slice through a shared item list.
        let chunks: Vec<(usize, Mutex<&mut [f32]>)> = data
            .chunks_mut(chunk_rows * width)
            .enumerate()
            .map(|(c, out)| (c * chunk_rows, Mutex::new(out)))
            .collect();
        exec::par_map_threads(threads, &chunks, |(lo, out)| {
            let mut out = out.lock().unwrap_or_else(PoisonError::into_inner);
            let rows = *lo..lo + out.len() / width;
            row_major_times_dense_into(x, w, &zero, rows, &mut out);
        });
    }
    DenseMatrix::from_vec(n_rows, width, data).expect("buffer sized to the output matrix")
}

/// FNV-1a over the operand's sparsity structure (shape, column pointers,
/// row indices). Values are excluded on purpose: timing never depends on
/// them, only the numerics — which are recomputed every round.
pub(crate) fn structure_fingerprint(a: &CscPattern) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    let mut mix = |x: u64| {
        h ^= x;
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    };
    mix(a.rows() as u64);
    mix(a.cols() as u64);
    mix(a.nnz() as u64);
    for &p in a.col_ptr() {
        mix(p as u64);
    }
    for &i in a.row_idx() {
        mix(i as u64);
    }
    h
}

/// The steady-state replay cache: memoized round timings keyed by the
/// round's non-zero column pattern, for one operand structure under one
/// frozen map (see module docs for the sharing model). The engine that
/// owns it keeps it on one operand: a shard member is bound to its shard
/// by its `ShardedEngine`, and a standalone engine clears it when
/// `run_timing` meets a new structure fingerprint.
#[derive(Debug, Default)]
pub(crate) struct ReplayCache {
    timings: RwLock<HashMap<Vec<u32>, RoundTiming>>,
    hits: AtomicU64,
    misses: AtomicU64,
}

impl Clone for ReplayCache {
    /// Snapshots the cache contents; the hit/miss counters restart at zero
    /// (they count activity *on this instance*, e.g. a freshly extracted
    /// plan's serving traffic).
    fn clone(&self) -> Self {
        ReplayCache {
            timings: RwLock::new(self.read_timings().clone()),
            hits: AtomicU64::new(0),
            misses: AtomicU64::new(0),
        }
    }
}

impl ReplayCache {
    pub(crate) fn new() -> Self {
        ReplayCache::default()
    }

    /// Poison-recovering read lock on the timing map.
    ///
    /// A worker that panics while holding a guard (e.g. a fault-injected
    /// request on a shared cached plan) poisons the `RwLock`; recovering
    /// via `into_inner` is sound here because the map only ever holds
    /// *complete* key→value pairs of deterministic timings — inserts are
    /// single `HashMap::insert` calls, and timings are pure functions of
    /// their key — so the post-panic state is always a consistent prefix
    /// of completed work, never a torn entry.
    fn read_timings(&self) -> RwLockReadGuard<'_, HashMap<Vec<u32>, RoundTiming>> {
        self.timings.read().unwrap_or_else(PoisonError::into_inner)
    }

    /// Poison-recovering write lock (see [`ReplayCache::read_timings`]).
    fn write_timings(&self) -> RwLockWriteGuard<'_, HashMap<Vec<u32>, RoundTiming>> {
        self.timings.write().unwrap_or_else(PoisonError::into_inner)
    }

    /// Drops all cached timings.
    pub(crate) fn clear(&self) {
        self.write_timings().clear();
    }

    /// Rounds served from the cache.
    pub(crate) fn hits(&self) -> u64 {
        self.hits.load(Ordering::Relaxed)
    }

    /// Rounds that had to be simulated and were then memoized.
    pub(crate) fn misses(&self) -> u64 {
        self.misses.load(Ordering::Relaxed)
    }

    /// Memoizes each `(pattern, timing)` whose pattern is not cached yet,
    /// up to [`REPLAY_CACHE_CAP`] entries; past the cap (an
    /// all-distinct-patterns operand that would never replay anyway) fresh
    /// timings only serve their own call, bounding the cache's memory.
    /// Timings are deterministic per key, so a concurrent session
    /// inserting the same key writes the same value. Counts neither a hit
    /// nor a miss.
    pub(crate) fn memoize<'t>(
        &self,
        entries: impl IntoIterator<Item = (&'t [u32], &'t RoundTiming)>,
    ) {
        let mut cached = self.write_timings();
        for (key, timing) in entries {
            if cached.len() < REPLAY_CACHE_CAP && !cached.contains_key(key) {
                cached.insert(key.to_vec(), timing.clone());
            }
        }
    }

    /// Approximate heap bytes held by the memoized timings: per entry, the
    /// key's pattern (`u32` per non-zero position), the per-PE queue
    /// high-water vector (`u32` per PE), and the fixed `RoundTiming`
    /// scalars. An estimate for plan-cache memory budgeting, not an
    /// allocator-exact figure.
    pub(crate) fn approx_bytes(&self) -> usize {
        let timings = self.read_timings();
        timings
            .iter()
            .map(|(key, timing)| {
                (key.len() + timing.queue_high_water.len()) * std::mem::size_of::<u32>()
                    + std::mem::size_of::<RoundTiming>()
            })
            .sum()
    }

    /// One timing per run of `runs` under the frozen map `pe_of_row`: a
    /// cached pattern replays, and the distinct uncached patterns are
    /// simulated once each (in parallel on the [`exec`] substrate) and
    /// memoized. Each simulated pattern counts one miss; every other round
    /// of the runs counts a hit.
    pub(crate) fn replay(
        &self,
        a: &CscPattern,
        runs: &[ColumnRun],
        pe_of_row: &[u32],
        params: SimParams,
        threads: usize,
    ) -> Vec<RoundTiming> {
        let mut to_sim: Vec<&[u32]> = Vec::new();
        // Per run: `Ok` holds its cached timing, `Err(i)` points at `to_sim[i]`.
        let sources: Vec<Result<RoundTiming, usize>> = {
            let cached = self.read_timings();
            let mut queued: HashMap<&[u32], usize> = HashMap::new();
            runs.iter()
                .map(|run| {
                    let key = run.pattern.as_slice();
                    match cached.get(key) {
                        Some(timing) => Ok(timing.clone()),
                        None => Err(*queued.entry(key).or_insert_with(|| {
                            to_sim.push(key);
                            to_sim.len() - 1
                        })),
                    }
                })
                .collect()
        };
        let n_rounds: usize = runs.iter().map(|run| run.cols.len()).sum();
        self.misses
            .fetch_add(to_sim.len() as u64, Ordering::Relaxed);
        self.hits
            .fetch_add((n_rounds - to_sim.len()) as u64, Ordering::Relaxed);
        let fresh = exec::par_map_threads(threads, &to_sim, |cols| {
            simulate_round(a, cols, pe_of_row, params).timing
        });
        self.memoize(to_sim.iter().copied().zip(&fresh));
        sources
            .into_iter()
            .map(|source| source.unwrap_or_else(|i| fresh[i].clone()))
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::StallMode;
    use crate::rebalance::local::reference_choose;
    use awb_sparse::Coo;
    use proptest::prelude::*;

    /// The round model as first written — `pending` + `last_seen` queue
    /// state, a `t / bandwidth` division per task, the branching
    /// comparator loop — kept verbatim as the oracle the optimised
    /// [`simulate_round`] must match bit for bit.
    fn reference_simulate_round(
        a: &CscPattern,
        pattern: &[u32],
        pe_of_row: &[u32],
        p: SimParams,
    ) -> SimRound {
        let n_pes = p.n_pes;
        let lat = p.lat;
        let bandwidth = p.bandwidth;

        let mut pending = vec![0u32; n_pes];
        let mut sim_u64 = vec![0u64; 3 * n_pes + a.rows()];
        let (last_seen, rest) = sim_u64.split_at_mut(n_pes);
        let (issue_until, rest) = rest.split_at_mut(n_pes);
        // `ready` is the per-row half (the big one on graph-sized operands).
        let (busy, ready) = rest.split_at_mut(n_pes);
        // Owner-attributed load: the distributor counts every task against
        // the PE that *owns* its row, before any local-sharing diversion.
        // The PESM profiles on this view — under sharing, executed-load
        // plateaus across a hot neighbourhood and would hide which PE's
        // rows cause the overload (see DESIGN.md, remote switching).
        let mut owner_busy = vec![0u64; n_pes];
        let mut max_q = vec![0u32; n_pes];

        let a_row_idx = a.row_idx();
        let a_col_ptr = a.col_ptr();

        let mut t: u64 = 0;
        let mut max_completion: u64 = 0;
        let mut raw_stalls: u64 = 0;

        for &j in pattern {
            let j = j as usize;
            for &row_id in &a_row_idx[a_col_ptr[j]..a_col_ptr[j + 1]] {
                let row = row_id as usize;
                let arrival = t / bandwidth;
                let owner = pe_of_row[row];
                owner_busy[owner as usize] += 1;
                let dest = match p.sharing {
                    Some(sharing) => reference_choose(sharing, owner, |q| {
                        let pe = q as usize;
                        (pending[pe] as u64).saturating_sub(arrival - last_seen[pe]) as usize
                    }),
                    None => owner,
                } as usize;

                // Commit the enqueue: lazily drain, then push.
                let drained = arrival - last_seen[dest];
                pending[dest] = (pending[dest] as u64).saturating_sub(drained) as u32 + 1;
                last_seen[dest] = arrival;
                if pending[dest] > max_q[dest] {
                    max_q[dest] = pending[dest];
                }

                // Serial issue with RaW scoreboard. In `Park` mode the
                // stall buffer + accumulator forwarding hide the hazard
                // (the PE keeps issuing; we only count the event) — the
                // paper's design, without which a Nell hub row would
                // serialize at T cycles per non-zero and dwarf the
                // reported latencies. `Block` models the naive
                // head-of-line serialization as an ablation.
                let start = (issue_until[dest] + 1).max(arrival);
                let r_ready = ready[row];
                let (issue_cycle, complete) = if r_ready > start {
                    raw_stalls += r_ready - start;
                    match p.stall_mode {
                        StallMode::Block => (r_ready, r_ready + lat),
                        StallMode::Park => (start, start + lat),
                    }
                } else {
                    (start, start + lat)
                };
                issue_until[dest] = issue_cycle;
                ready[row] = complete;
                busy[dest] += 1;
                if complete > max_completion {
                    max_completion = complete;
                }

                t += 1;
            }
        }

        SimRound {
            timing: RoundTiming {
                cycles: max_completion,
                tasks: t,
                max_pe_busy: busy.iter().copied().max().unwrap_or(0),
                min_pe_busy: busy.iter().copied().min().unwrap_or(0),
                max_queue_depth: max_q.iter().copied().max().unwrap_or(0) as usize,
                raw_stalls,
                queue_high_water: max_q,
            },
            owner_busy,
        }
    }

    /// A border-biased owner draw: `0` (PE 0), `usize::MAX` (PE
    /// `n_pes − 1`) or any value (taken modulo `n_pes`).
    fn border_biased() -> impl Strategy<Value = usize> {
        prop_oneof![Just(0usize), Just(usize::MAX), 0usize..1024]
    }

    proptest! {
        // Small operands run in microseconds, so the default is generous;
        // CI re-runs this test by name with the global case cap raised.
        #![proptest_config(ProptestConfig::with_cases(4096))]

        /// The optimised round model (`drain_at` queue state, columns
        /// walked in pieces of one arrival cycle, packed comparator)
        /// returns exactly what the reference model does: the same
        /// `RoundTiming` (cycles, tasks, busy extrema, queue depths, RaW
        /// stalls, per-PE high-water marks) and the same owner-attributed
        /// load — over random operands, patterns and remapped row maps,
        /// hop 0–5 (the
        /// compile-time windows 0–3 and the runtime-width window above
        /// them) with owners at both array
        /// borders, both stall modes, and bandwidths of 1, `n_pes` and a
        /// non-divisor of the round's task count.
        #[test]
        fn round_model_matches_reference(
            shape in (1usize..48, 1usize..24),
            entries in proptest::collection::vec((0usize..48, 0usize..24), 0..400),
            pattern_mask in proptest::collection::vec(0u32..4, 24),
            n_pes in 2usize..40,
            hop in 0usize..6,
            owners in proptest::collection::vec(border_biased(), 48),
            park in prop_oneof![Just(true), Just(false)],
            bandwidth_kind in 0usize..3,
            lat in 1u64..6,
        ) {
            let (n_rows, n_cols) = shape;
            let mut coo = Coo::new(n_rows, n_cols);
            for (r, c) in entries {
                coo.push(r % n_rows, c % n_cols, 1.0).unwrap();
            }
            let a = coo.to_csc();
            // Three quarters of the columns take part, in ascending order.
            let pattern: Vec<u32> = (0..n_cols as u32)
                .filter(|&j| pattern_mask[j as usize] != 0)
                .collect();
            let pe_of_row: Vec<u32> = owners[..n_rows]
                .iter()
                .map(|&o| if o == usize::MAX { n_pes - 1 } else { o % n_pes } as u32)
                .collect();
            let tasks: usize = pattern
                .iter()
                .map(|&j| a.col_ptr()[j as usize + 1] - a.col_ptr()[j as usize])
                .sum();
            let bandwidth = match bandwidth_kind {
                0 => 1,
                1 => n_pes,
                // Any bandwidth divides an empty round.
                _ => (2..=tasks + 2).find(|b| tasks % b != 0).unwrap_or(2),
            } as u64;
            let hop = hop.min(n_pes - 1);
            let params = SimParams {
                n_pes,
                lat,
                bandwidth,
                stall_mode: if park { StallMode::Park } else { StallMode::Block },
                sharing: (hop > 0).then(|| LocalSharing::new(hop, n_pes)),
            };
            let a = a.pattern();
            let new = simulate_round(a, &pattern, &pe_of_row, params);
            let reference = reference_simulate_round(a, &pattern, &pe_of_row, params);
            prop_assert_eq!(new.timing, reference.timing);
            prop_assert_eq!(new.owner_busy, reference.owner_busy);
        }
    }

    /// Run detection as the definition reads: walk the columns from
    /// `start` and extend the last run while [`column_pattern`] repeats.
    fn reference_runs(b: &DenseMatrix, start: usize) -> Vec<ColumnRun> {
        let mut runs: Vec<ColumnRun> = Vec::new();
        for k in start..b.cols() {
            let pattern = column_pattern(b, k, 0..b.rows());
            match runs.last_mut() {
                Some(run) if run.pattern == pattern => run.cols.end = k + 1,
                _ => runs.push(ColumnRun {
                    cols: k..k + 1,
                    pattern,
                }),
            }
        }
        runs
    }

    /// The runs of columns `start..`, cut from the runs of all columns the
    /// way the fast engine's tuning loop hands its remainder to the
    /// steady phase.
    fn runs_from(runs: &[ColumnRun], start: usize) -> Vec<ColumnRun> {
        runs.iter()
            .filter(|run| run.cols.end > start)
            .map(|run| ColumnRun {
                cols: run.cols.start.max(start)..run.cols.end,
                pattern: run.pattern.clone(),
            })
            .collect()
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(4096))]

        /// [`column_runs`] groups exactly the consecutive columns whose
        /// [`column_pattern`]s are equal, from column 0 and, cut at any
        /// later column, from there. Columns copy one of three row masks
        /// (the first all-zero) or are drawn cell by cell; zero cells are
        /// `0.0` or `-0.0` (both zero) and non-zero cells may be NaN
        /// (non-zero), so runs longer than one mix with repeats. A row
        /// sub-range gives the runs of its copied rows.
        #[test]
        fn column_runs_match_consecutive_pattern_grouping(
            rows in 0usize..7,
            cols in 0usize..12,
            masks in proptest::collection::vec(proptest::collection::vec(0u32..2, 7), 2),
            sources in proptest::collection::vec(0usize..4, 12),
            cells in proptest::collection::vec((0u32..2, 0usize..3), 84),
            cut in 0usize..64,
        ) {
            const ZERO: [f32; 2] = [0.0, -0.0];
            const NONZERO: [f32; 3] = [1.5, f32::NAN, -2.0];
            let mut b = DenseMatrix::zeros(rows, cols);
            for k in 0..cols {
                for j in 0..rows {
                    let (random_nz, pick) = cells[k * 7 + j];
                    let nz = match sources[k] {
                        0 => false,
                        m @ 1..=2 => masks[m - 1][j] != 0,
                        _ => random_nz != 0,
                    };
                    b.set(j, k, if nz { NONZERO[pick] } else { ZERO[pick % 2] });
                }
            }
            let runs = column_runs(&b, 0..rows);
            for start in 0..=cols {
                prop_assert_eq!(runs_from(&runs, start), reference_runs(&b, start));
            }
            // A row range is read in place exactly as its copy would be.
            let (lo, hi) = (cut % (rows + 1), (cut / 8) % (rows + 1));
            let (lo, hi) = (lo.min(hi), lo.max(hi));
            prop_assert_eq!(column_runs(&b, lo..hi), column_runs(&b.row_range(lo..hi), 0..hi - lo));
        }
    }

    /// The per-`(j, 8-lane block)` skip rule as the definition reads: for
    /// each row `j` of `b` and each lane block not all `±0.0`, add
    /// `a(i, j) · b(j, k)` for every lane `k` of the block, in CSC order.
    /// Returns the output's bits.
    fn block_skip_reference(a: &Csc, b: &DenseMatrix) -> Vec<u32> {
        let width = b.cols();
        let mut c = vec![0f32; a.rows() * width];
        for j in 0..a.cols() {
            for k0 in (0..width).step_by(ACC_BLOCK_LANES) {
                let lanes = k0..(k0 + ACC_BLOCK_LANES).min(width);
                if b.row(j)[lanes.clone()].iter().all(|&s| s == 0.0) {
                    continue;
                }
                for (i, v) in a.col_entries(j) {
                    for k in lanes.clone() {
                        c[i * width + k] += v * b.get(j, k);
                    }
                }
            }
        }
        bits(&c)
    }

    /// Output bits, every NaN mapped to one pattern: Rust leaves NaN
    /// payloads and signs unspecified (codegen may commute an addition's
    /// operands), so NaNs compare by position.
    fn bits(m: &[f32]) -> Vec<u32> {
        m.iter()
            .map(|v| if v.is_nan() { f32::NAN } else { *v }.to_bits())
            .collect()
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(1024))]

        /// The one-pass accumulate equals the scalar column kernel bit for
        /// bit on finite operands, and the per-`(j, block)` skip reference
        /// on operands with `±inf`/NaN in `b` and in `A` (where skipping a
        /// zero block or not shows: `inf × 0.0` is NaN) — through `compute_columns`
        /// at 1, 2 and 3 lane groups, and through three or more column
        /// shards accumulated in turn into one output, each reading `b`'s
        /// global rows at its non-zero offset (the streamed pass). `b` mixes
        /// `±0.0` cells, all-zero rows, all-zero lane blocks and rows
        /// repeating their predecessor; `A`'s values mix exact quarters
        /// with values whose sums round, and some entries get a negated
        /// twin in the next column, which cancels exactly to `+0.0` where
        /// that `b` row repeats; widths cover 0–20 and above 128.
        #[test]
        fn one_pass_accumulate_matches_scalar_and_block_skip(
            shape in (1usize..24, 1usize..24),
            entries in proptest::collection::vec((0usize..24, 0usize..24, 0u64..1000), 0..160),
            width in prop_oneof![0usize..21, 129usize..140],
            row_modes in proptest::collection::vec(0u32..6, 24),
            seed in 0u64..1000,
            cuts in proptest::collection::vec(0usize..24, 2..5),
            non_finite in prop_oneof![Just(false), Just(true)],
        ) {
            let (n_rows, n_cols) = shape;
            let mut coo = Coo::new(n_rows, n_cols);
            for &(r, c, h) in &entries {
                let v = if non_finite && h % 7 == 0 {
                    [f32::INFINITY, f32::NEG_INFINITY, f32::NAN][(h % 3) as usize]
                } else if h % 3 == 0 {
                    (h % 9) as f32 * 0.25 - 1.0
                } else {
                    (h % 17) as f32 * 0.1 - 0.85
                };
                coo.push(r % n_rows, c % n_cols, v).unwrap();
                if h % 4 == 0 {
                    coo.push(r % n_rows, (c + 1) % n_cols, -v).unwrap();
                }
            }
            let a = coo.to_csc();
            let data: Vec<f32> = (0..n_cols * width)
                .map(|i| {
                    let (j, k) = (i / width, i % width);
                    let h = (i as u64).wrapping_mul(2_654_435_761).wrapping_add(seed) >> 7;
                    let zero = if h % 2 == 0 { 0.0 } else { -0.0 };
                    match row_modes[j] {
                        0 => zero,
                        1 if k < ACC_BLOCK_LANES => zero,
                        _ => match h % 11 {
                            0 | 1 => zero,
                            2 if non_finite => [f32::INFINITY, f32::NEG_INFINITY, f32::NAN][(h % 3) as usize],
                            v => (v as f32 - 5.5) * 0.5,
                        },
                    }
                })
                .collect();
            let mut b = DenseMatrix::from_vec(n_cols, width, data).unwrap();
            let repeats = row_modes[..n_cols].iter().enumerate().skip(1);
            for (j, _) in repeats.filter(|&(_, &mode)| mode == 5) {
                let previous = b.row(j - 1).to_vec();
                b.row_mut(j).copy_from_slice(&previous);
            }
            let reference = block_skip_reference(&a, &b);
            if !non_finite {
                let scalar = awb_sparse::spmm::csc_times_dense(&a, &b).unwrap();
                prop_assert_eq!(&bits(scalar.as_slice()), &reference);
            }
            for threads in 1..=3 {
                let c = compute_columns(&a, &b, threads);
                prop_assert_eq!(&bits(c.as_slice()), &reference, "threads {}", threads);
            }
            let mut bounds: Vec<usize> = cuts.iter().map(|&c| c % (n_cols + 1)).collect();
            bounds.sort_unstable();
            let zero = ZeroBlocks::of(&b);
            let mut out = vec![0f32; n_rows * width];
            let mut lo = 0;
            for hi in bounds.into_iter().chain([n_cols]) {
                csc_accumulate_into(&a.col_range(lo..hi), &b, lo, &zero, 0..width, &mut out);
                lo = hi;
            }
            prop_assert_eq!(&bits(&out), &reference);
        }
    }

    #[test]
    fn compute_rows_inside_a_worker_matches_outside() {
        // On a `par_map` worker the rows run as one chunk (one worker),
        // outside as one chunk per thread; both are the same pinned row
        // kernel, so the output bits agree for sparse and dense operands.
        let mut coo = Coo::new(37, 19);
        for i in 0..37 {
            for j in [i % 19, (i * 5 + 3) % 19, (i * 11 + 7) % 19] {
                coo.push(i, j, (i + 2 * j) as f32 * 0.1 - 1.3).unwrap();
            }
        }
        let x_sparse = coo.to_csr();
        let x_dense = coo.to_dense();
        let w_data: Vec<f32> = (0..19 * 21).map(|i| ((i % 9) as f32 - 4.0) * 0.3).collect();
        let w = DenseMatrix::from_vec(19, 21, w_data).unwrap();
        for x in [RowOperand::Sparse(&x_sparse), RowOperand::Dense(&x_dense)] {
            let outside = bits(compute_rows(x, &w, 3).as_slice());
            assert_eq!(bits(compute_rows(x, &w, 1).as_slice()), outside);
            for inside in exec::par_map_threads(2, &[0, 1], |_| compute_rows(x, &w, 3)) {
                assert_eq!(bits(inside.as_slice()), outside);
            }
        }
    }

    #[test]
    fn column_runs_of_empty_operands() {
        // No rows: every column has the empty pattern, one run.
        let runs = column_runs(&DenseMatrix::zeros(0, 5), 0..0);
        assert_eq!(
            runs,
            vec![ColumnRun {
                cols: 0..5,
                pattern: vec![]
            }]
        );
        // No columns: no rounds, no runs.
        assert!(column_runs(&DenseMatrix::zeros(3, 0), 0..3).is_empty());
        assert!(column_runs(&DenseMatrix::zeros(0, 0), 0..0).is_empty());
    }

    fn timing(cycles: u64) -> RoundTiming {
        RoundTiming {
            cycles,
            tasks: 3,
            max_pe_busy: 2,
            min_pe_busy: 1,
            max_queue_depth: 4,
            raw_stalls: 0,
            queue_high_water: vec![1, 2],
        }
    }

    /// Poison the ReplayCache lock with a deliberate mid-write panic and
    /// prove every operation still works afterwards — a panicked session
    /// must never brick a shared cached plan.
    #[test]
    fn poisoned_locks_recover_with_contents_intact() {
        let cache = ReplayCache::new();
        cache.write_timings().insert(vec![0, 1, 2], timing(42));

        std::thread::scope(|scope| {
            let h = scope.spawn(|| {
                let _write = cache.timings.write().unwrap();
                panic!("deliberate poison");
            });
            assert!(h.join().is_err());
        });
        assert!(cache.timings.is_poisoned());

        // Reads recover and see the pre-panic entry (inserts are atomic:
        // complete key→value pairs only).
        assert_eq!(cache.read_timings().len(), 1);
        assert_eq!(
            cache.read_timings().get([0, 1, 2].as_slice()),
            Some(&timing(42))
        );
        assert!(cache.approx_bytes() > 0);

        // The clone snapshots the entry.
        assert_eq!(cache.clone().read_timings().len(), 1);

        // Writes recover too: insert, then clear.
        cache.write_timings().insert(vec![5], timing(9));
        assert_eq!(cache.read_timings().len(), 2);
        cache.clear();
        assert_eq!(cache.read_timings().len(), 0);
    }
}
