//! Property-based tests on the accelerator: functional equivalence, task
//! conservation, partition invariants under remote switching, and bounds
//! on the pipeline model.

use awb_gcn_repro::accel::pipeline::{pipeline_chain, pipeline_two_stage};
use awb_gcn_repro::accel::{
    AccelConfig, Design, FastEngine, GcnRunner, LocalSharing, MappingKind, RemoteSwitcher,
    RoundProfile, RowMap, ShardPolicy, SltPolicy, SpmmEngine,
};
use awb_gcn_repro::gcn::GcnInput;
use awb_gcn_repro::sparse::{spmm, Coo, Csc, DenseMatrix};
use proptest::prelude::*;

/// Random sparse square matrix with quantized values.
fn sparse_strategy(max_n: usize, max_nnz: usize) -> impl Strategy<Value = Csc> {
    (4..max_n).prop_flat_map(move |n| {
        proptest::collection::vec((0..n, 0..n, -4i32..5), 1..max_nnz).prop_map(move |entries| {
            let mut coo = Coo::new(n, n);
            for (r, c, v) in entries {
                coo.push(r, c, v as f32).unwrap();
            }
            coo.to_csc()
        })
    })
}

fn dense_for(rows: usize, cols: usize, seed: u64) -> DenseMatrix {
    let data: Vec<f32> = (0..rows * cols)
        .map(|i| (((i as u64).wrapping_mul(0x9e3779b97f4a7c15) ^ seed) % 9) as f32 - 4.0)
        .collect();
    DenseMatrix::from_vec(rows, cols, data).unwrap()
}

/// A dense operand whose columns are laid out as `(mask, run length)`
/// pieces: every column of a piece is non-zero exactly where
/// `masks[mask % masks.len()]` is (a `0` entry marks a zero), with values
/// varying column to column. Pieces repeat masks, so runs of identical
/// column patterns longer than one mix with non-consecutive repeats.
fn masked_dense(rows: usize, masks: &[Vec<u32>], pieces: &[(usize, usize)]) -> DenseMatrix {
    let columns: Vec<&[u32]> = pieces
        .iter()
        .flat_map(|&(mask, len)| std::iter::repeat(masks[mask % masks.len()].as_slice()).take(len))
        .collect();
    let mut b = DenseMatrix::zeros(rows, columns.len());
    for (k, mask) in columns.iter().enumerate() {
        for (j, &bit) in mask[..rows].iter().enumerate() {
            if bit != 0 {
                b.set(j, k, ((j + 3 * k) % 7) as f32 - 3.5);
            }
        }
    }
    b
}

fn design_strategy() -> impl Strategy<Value = Design> {
    prop_oneof![
        Just(Design::Baseline),
        (1usize..3).prop_map(|hop| Design::LocalSharing { hop }),
        (1usize..3).prop_map(|hop| Design::LocalPlusRemote { hop }),
        Just(Design::EieLike),
    ]
}

proptest! {
    // Engine runs dominate this suite's cost; 48 cases keeps it well under
    // a second while still covering every design point. CI additionally
    // caps every proptest suite via the PROPTEST_CASES environment
    // variable (a cap, never a raise — see vendor/proptest). Known-tricky
    // seeds are pinned in proptest-regressions/tests/.
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Whatever the design point, the engine computes exactly A×B and
    /// executes exactly one MAC task per (nnz, non-zero b) pair.
    #[test]
    fn engine_functional_and_conserving(
        a in sparse_strategy(48, 160),
        cols in 1usize..5,
        seed in 0u64..50,
        design in design_strategy(),
        n_pes_log in 2u32..5,
    ) {
        let b = dense_for(a.cols(), cols, seed);
        let config = design.apply(
            AccelConfig::builder().n_pes(1 << n_pes_log).build().unwrap(),
        );
        let mut engine = FastEngine::new(config);
        let out = engine.run(&a, &b, "prop").unwrap();
        let expect = spmm::csc_times_dense(&a, &b).unwrap();
        prop_assert!(out.c.approx_eq(&expect, 1e-3));
        prop_assert_eq!(
            out.stats.total_tasks(),
            spmm::csc_times_dense_macs(&a, &b).unwrap() as u64
        );
        // Accounting identities.
        prop_assert_eq!(
            out.stats.total_cycles(),
            out.stats.ideal_cycles() + out.stats.sync_cycles()
        );
        let util = out.stats.utilization();
        prop_assert!((0.0..=1.0).contains(&util));
    }

    /// The steady-state replay cache and the parallel frozen-phase path
    /// are pure wall-clock optimisations: whatever the design, thread
    /// count, or duplicate-pattern structure of `B`, stats (including
    /// per-PE queue high-water marks) and outputs must be *identical* —
    /// not approximately equal — to a straight single-threaded simulation
    /// of every round.
    #[test]
    fn replay_and_parallel_match_straight_simulation(
        a in sparse_strategy(48, 160),
        cols in 1usize..6,
        seed in 0u64..50,
        design in design_strategy(),
        threads in prop_oneof![Just(1usize), Just(4usize)],
        n_pes_log in 2u32..5,
    ) {
        let b = dense_for(a.cols(), cols, seed);
        let mut config = design.apply(
            AccelConfig::builder().n_pes(1 << n_pes_log).build().unwrap(),
        );
        config.threads = Some(1);
        let mut straight = FastEngine::new(config.clone());
        straight.set_replay_enabled(false);
        let reference = straight.run(&a, &b, "prop").unwrap();

        config.threads = Some(threads);
        let mut replayed = FastEngine::new(config);
        let out = replayed.run(&a, &b, "prop").unwrap();

        prop_assert_eq!(&out.stats, &reference.stats);
        prop_assert_eq!(
            &out.stats.queue_high_water,
            &reference.stats.queue_high_water
        );
        prop_assert_eq!(&out.c, &reference.c);
        // A second run on the same operand (the paper's layer-2 engine
        // reuse: tuner now frozen, cache warm) replays everything it can
        // and must still match a second straight run exactly.
        let reference2 = straight.run(&a, &b, "prop").unwrap();
        let again = replayed.run(&a, &b, "prop").unwrap();
        prop_assert_eq!(&again.stats, &reference2.stats);
        prop_assert_eq!(&again.c, &reference2.c);
    }

    /// Replay by runs of identical columns is exact: on operands whose
    /// columns draw from at most three zero masks — runs longer than one,
    /// repeats after other patterns, tuning phases that end mid-run and
    /// cross run boundaries — every round executes its column's tasks, and
    /// stats, per-PE queue high-water marks and outputs equal a straight
    /// simulation of every round, on a cold and on a warm engine, and
    /// through a session on the plan frozen from the replaying engine
    /// (sessions always replay an on-chip operand).
    #[test]
    fn multi_run_replay_matches_straight_simulation(
        a in sparse_strategy(48, 160),
        masks in proptest::collection::vec(proptest::collection::vec(0u32..4, 48), 1..4),
        pieces in proptest::collection::vec((0usize..3, 1usize..5), 1..10),
        design in design_strategy(),
        threads in prop_oneof![Just(1usize), Just(4usize)],
        n_pes_log in 2u32..5,
    ) {
        let b = masked_dense(a.cols(), &masks, &pieces);
        let mut config = design.apply(
            AccelConfig::builder().n_pes(1 << n_pes_log).build().unwrap(),
        );
        config.threads = Some(1);
        let mut straight = FastEngine::new(config.clone());
        straight.set_replay_enabled(false);
        config.threads = Some(threads);
        let mut replayed = FastEngine::new(config);
        // Each round executes one task per (non-zero of `A`'s column j,
        // non-zero b(j, k)): an oracle independent of run detection and
        // of the tuning loop's round reuse, which both engines share.
        let round_tasks: Vec<u64> = (0..b.cols())
            .map(|k| {
                (0..b.rows())
                    .filter(|&j| b.get(j, k) != 0.0)
                    .map(|j| a.col_nnz(j) as u64)
                    .sum()
            })
            .collect();
        for _ in 0..2 {
            let reference = straight.run(&a, &b, "prop").unwrap();
            let out = replayed.run(&a, &b, "prop").unwrap();
            let tasks: Vec<u64> = out.stats.rounds.iter().map(|r| r.tasks).collect();
            prop_assert_eq!(&tasks, &round_tasks);
            prop_assert_eq!(&out.stats, &reference.stats);
            prop_assert_eq!(
                &out.stats.queue_high_water,
                &reference.stats.queue_high_water
            );
            prop_assert_eq!(&out.c, &reference.c);
        }

        // Freeze both engines the same way (the tuner may still be active
        // after two short runs); the session on the replaying engine's
        // plan must equal the straight engine's next, frozen, run.
        let plan = replayed.freeze_plan(a.pattern()).unwrap();
        straight.freeze_plan(a.pattern()).unwrap();
        let consulted = plan.replay_hits() + plan.replay_misses();
        let reference = straight.run(&a, &b, "prop").unwrap();
        let served = plan.session().run(&a, &b, "prop").unwrap();
        prop_assert_eq!(&served.stats, &reference.stats);
        prop_assert_eq!(&served.c, &reference.c);
        prop_assert_eq!(
            plan.replay_hits() + plan.replay_misses() - consulted,
            b.cols() as u64
        );
        prop_assert_eq!(straight.replay_hits() + straight.replay_misses(), 0);
    }

    /// Column-sharded execution is a pure execution-layer change: for any
    /// random graph, shard count, and design point, the sharded GCN run
    /// (cold and plan-served) produces output *bit-identical* to the
    /// unsharded `GcnRunner::run`/`GcnPlan::run` — the merge order is
    /// pinned, not approximately right.
    #[test]
    fn sharded_gcn_bit_identical_to_unsharded(
        a in sparse_strategy(40, 120),
        shards in 1usize..6,
        seed in 0u64..50,
        design in design_strategy(),
        n_pes_log in 2u32..4,
    ) {
        let n = a.rows();
        // Random sparse features and quantized two-layer weights.
        let x1 = {
            let mut coo = Coo::new(n, 5);
            for v in 0..n {
                coo.push(v, (v as u64 ^ seed) as usize % 5, ((v % 3) as f32) + 1.0).unwrap();
            }
            coo.to_csr()
        };
        let w1 = dense_for(5, 4, seed);
        let w2 = dense_for(4, 3, seed ^ 0xabcd);
        let input = GcnInput::from_parts(a.to_csr(), x1, vec![w1, w2]).unwrap();

        let base = design.apply(
            AccelConfig::builder().n_pes(1 << n_pes_log).build().unwrap(),
        );
        let reference = GcnRunner::new(base.clone()).run(&input).unwrap();

        let mut cfg = base;
        cfg.shards = ShardPolicy::Fixed(shards);
        let runner = GcnRunner::new(cfg);
        let cold = runner.run(&input).unwrap();
        prop_assert_eq!(&cold.output, &reference.output);
        // Work conservation per layer across the shard split.
        prop_assert_eq!(cold.stats.total_tasks(), reference.stats.total_tasks());

        let (plan, warmup) = runner.prepare(&input).unwrap();
        prop_assert_eq!(&warmup.output, &reference.output);
        prop_assert!(plan.shard_count() >= 1 && plan.shard_count() <= shards);
        let served = plan.run_input(&input).unwrap();
        prop_assert_eq!(&served.output, &reference.output);
        for layer in &served.stats.layers {
            prop_assert_eq!(layer.a_xw.tuning_rounds(), 0);
        }
    }

    /// The combination axis composes with the aggregation axis: for any
    /// random graph, shard counts on *both* phases, and design point, the
    /// 2-layer GCN run (cold and plan-served) is bit-identical to the
    /// unsharded run — both merges are pinned, not approximately right.
    #[test]
    fn combination_and_aggregation_sharded_gcn_bit_identical(
        a in sparse_strategy(40, 120),
        a_shards in 1usize..4,
        xw_shards in 1usize..6,
        seed in 0u64..50,
        design in design_strategy(),
        n_pes_log in 2u32..4,
    ) {
        let n = a.rows();
        let x1 = {
            let mut coo = Coo::new(n, 5);
            for v in 0..n {
                coo.push(v, (v as u64 ^ seed) as usize % 5, ((v % 3) as f32) + 1.0).unwrap();
            }
            coo.to_csr()
        };
        let w1 = dense_for(5, 4, seed);
        let w2 = dense_for(4, 3, seed ^ 0xabcd);
        let input = GcnInput::from_parts(a.to_csr(), x1, vec![w1, w2]).unwrap();

        let base = design.apply(
            AccelConfig::builder().n_pes(1 << n_pes_log).build().unwrap(),
        );
        let reference = GcnRunner::new(base.clone()).run(&input).unwrap();

        let mut cfg = base;
        cfg.shards = ShardPolicy::Fixed(a_shards);
        cfg.combination_shards = ShardPolicy::Fixed(xw_shards);
        let runner = GcnRunner::new(cfg);
        let cold = runner.run(&input).unwrap();
        prop_assert_eq!(&cold.output, &reference.output);
        prop_assert_eq!(cold.stats.total_tasks(), reference.stats.total_tasks());

        let (plan, warmup) = runner.prepare(&input).unwrap();
        prop_assert_eq!(&warmup.output, &reference.output);
        let served = plan.run_input(&input).unwrap();
        prop_assert_eq!(&served.output, &reference.output);
        for layer in &served.stats.layers {
            prop_assert_eq!(layer.a_xw.tuning_rounds(), 0);
        }
    }

    /// Values-free (timing-only) execution — what shard members and the
    /// GCN layers' X × W run — reads the operand's structure alone:
    /// whatever the operand, design, and thread count, stats (rounds,
    /// queue high-water marks, replay counters) are *identical* to a
    /// values-carrying run.
    #[test]
    fn values_free_timing_matches_values_carrying(
        a in sparse_strategy(48, 160),
        cols in 1usize..5,
        seed in 0u64..50,
        design in design_strategy(),
        n_pes_log in 2u32..5,
    ) {
        let b = dense_for(a.cols(), cols, seed);
        let config = design.apply(
            AccelConfig::builder().n_pes(1 << n_pes_log).build().unwrap(),
        );
        let mut carrying = FastEngine::new(config.clone());
        let reference = carrying.run(&a, &b, "prop").unwrap();
        let mut timing_only = FastEngine::new(config);
        let stats = timing_only.run_timing(a.pattern(), &b, "prop").unwrap();
        prop_assert_eq!(&stats, &reference.stats);
        prop_assert_eq!(
            &stats.queue_high_water,
            &reference.stats.queue_high_water
        );
        prop_assert_eq!(timing_only.replay_hits(), carrying.replay_hits());
        prop_assert_eq!(timing_only.replay_misses(), carrying.replay_misses());
    }

    /// Remote switching may permute row ownership arbitrarily but must
    /// keep the map a partition.
    #[test]
    fn row_map_stays_partition_under_random_switching(
        n_rows in 8usize..128,
        n_pes in 2usize..16,
        profiles in proptest::collection::vec(
            proptest::collection::vec(0u64..1000, 16),
            1..12,
        ),
    ) {
        let mut map = RowMap::new(n_rows, n_pes, MappingKind::Block);
        let mut switcher =
            RemoteSwitcher::new(2, SltPolicy::Sequential, n_rows.div_ceil(n_pes).max(1));
        for busy in profiles {
            let profile = RoundProfile {
                per_pe_busy: busy[..n_pes.min(16)].to_vec(),
                per_row_tasks: None,
            };
            for plan in switcher.plan(&profile, &map) {
                plan.apply(&mut map);
            }
            prop_assert!(map.is_consistent());
        }
    }

    /// Local sharing always picks inside the hop window and never picks a
    /// strictly more loaded PE than the owner.
    #[test]
    fn local_sharing_window_and_greed(
        n_pes in 2usize..64,
        hop in 0usize..4,
        owner_raw in 0usize..64,
        lens in proptest::collection::vec(0usize..100, 64),
    ) {
        prop_assume!(hop < n_pes);
        let owner = (owner_raw % n_pes) as u32;
        let sharing = LocalSharing::new(hop, n_pes);
        let chosen = sharing.choose(owner, |p| lens[p as usize]);
        prop_assert!(sharing.window(owner).contains(&chosen));
        prop_assert!(lens[chosen as usize] <= lens[owner as usize]);
    }

    /// The pipelined latency of two stages is bounded below by each stage
    /// alone (plus the first producer column for the consumer) and above
    /// by the sequential sum.
    #[test]
    fn pipeline_bounds(
        s1 in proptest::collection::vec(0u64..50, 1..20),
        s2 in proptest::collection::vec(0u64..50, 1..20),
    ) {
        let total = pipeline_two_stage(&s1, &s2);
        let sum1: u64 = s1.iter().sum();
        let sum2: u64 = s2.iter().sum();
        prop_assert!(total >= sum1.max(sum2));
        prop_assert!(total <= sum1 + sum2);
        // Chain of one stage is its sum.
        prop_assert_eq!(pipeline_chain(&[&s1]), sum1);
    }

    /// Adding pipeline stages never reduces total latency below the
    /// heaviest stage, and permuting a single stage's rounds never changes
    /// its own sum.
    #[test]
    fn pipeline_chain_monotone(
        stages in proptest::collection::vec(
            proptest::collection::vec(0u64..30, 1..10),
            1..5,
        ),
    ) {
        let refs: Vec<&[u64]> = stages.iter().map(|s| s.as_slice()).collect();
        let total = pipeline_chain(&refs);
        let heaviest: u64 = stages.iter().map(|s| s.iter().sum()).max().unwrap_or(0);
        let sum_all: u64 = stages.iter().map(|s| s.iter().sum::<u64>()).sum();
        prop_assert!(total >= heaviest);
        prop_assert!(total <= sum_all);
    }

    /// Utilization can only improve (or stay) when the hop radius grows,
    /// for a fixed workload — monotonicity of local sharing.
    #[test]
    fn wider_hop_never_hurts_much(
        a in sparse_strategy(48, 120),
        seed in 0u64..20,
    ) {
        let b = dense_for(a.cols(), 3, seed);
        let cycles_for = |hop: usize| {
            let design = if hop == 0 {
                Design::Baseline
            } else {
                Design::LocalSharing { hop }
            };
            let config = design.apply(AccelConfig::builder().n_pes(8).build().unwrap());
            FastEngine::new(config)
                .run(&a, &b, "prop")
                .unwrap()
                .stats
                .total_cycles()
        };
        let c0 = cycles_for(0);
        let c2 = cycles_for(2);
        // Sharing decisions are greedy/heuristic so tiny regressions are
        // possible; forbid meaningful ones.
        prop_assert!(c2 as f64 <= c0 as f64 * 1.10, "hop0 {c0}, hop2 {c2}");
    }
}
