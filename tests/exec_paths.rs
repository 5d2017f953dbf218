//! One bit-identity oracle over every execution path (`DESIGN.md` §14).
//!
//! The reference is the software forward pass, `GcnModel::forward`, which
//! shares no code with the engines. For every input the oracle runs every
//! entry point × `A` source (one device, `k` shards, stored) × `X` layout
//! (one device, `k` shards) × strategy (Manual, Auto, Auto forced to
//! shard), skipping only what `AccelConfig::build` rejects (a store with
//! `A`-shards). Every cell must match the reference bit for bit and keep
//! the stats invariants of [`check_outcome`] and the path identities of
//! [`run_layout`]; each test asserts it ran exactly the cells it declares.

mod common;

use awb_gcn_repro::accel::{
    AccelConfig, Design, GcnPlan, GcnRunOutcome, GcnRunner, GcnService, IsolatedBatch,
    RequestOutcome, ShardPolicy, StrategyPolicy,
};
use awb_gcn_repro::datasets::PaperDataset::{self, Citeseer, Cora, Nell, Pubmed, Reddit};
use awb_gcn_repro::datasets::{DatasetSpec, GeneratedDataset};
use awb_gcn_repro::gcn::{GcnInput, GcnModel};
use awb_gcn_repro::hw::{MemoryModel, BYTES_PER_NNZ};
use awb_gcn_repro::sparse::{spmm, Csc, Csr, DenseMatrix};
use common::{bits, with_features, ScratchDir};
use proptest::prelude::*;
use std::collections::HashSet;
use std::path::Path;

/// The entry points, in the order [`run_layout`] checks them.
const ENTRY_POINTS: [&str; 5] = ["run", "plan", "serve", "serve_isolated", "drain"];

/// Manual; Auto under the default memory model; Auto under a memory model
/// holding a quarter of `A`'s non-zeros, which must make it shard `A`.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
enum Strategy {
    Manual,
    Auto,
    AutoSharding,
}

/// One point of the non-entry axes.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
struct Layout {
    stored: bool,
    a_sharded: bool,
    x_sharded: bool,
    strategy: Strategy,
}

/// Every layout, the rejected ones included.
fn layouts() -> impl Iterator<Item = Layout> {
    let strategies = [Strategy::Manual, Strategy::Auto, Strategy::AutoSharding];
    (0..8 * strategies.len()).map(move |i| Layout {
        stored: i & 1 != 0,
        a_sharded: i & 2 != 0,
        x_sharded: i & 4 != 0,
        strategy: strategies[i / 8],
    })
}

/// Cells per input: every entry point on three `A` sources (resident
/// `Single`, resident `Fixed(k)`, stored) × two `X` layouts × three
/// strategies.
const CELLS_PER_INPUT: usize = ENTRY_POINTS.len() * 3 * 2 * 3;

/// One oracle input: a graph and model, the feature matrices served on it
/// (the first is `input.x1`), and the hardware it runs on.
struct Case {
    name: String,
    input: GcnInput,
    requests: Vec<Csr>,
    n_pes: usize,
    design: Design,
    /// Shard counts of the sharded `A` and `X` layouts.
    a_shards: usize,
    x_shards: usize,
    /// Host worker threads (results must not depend on them).
    threads: usize,
}

impl Case {
    /// 16 PEs, LS1+RS, 3 `A`-shards × 2 `X`-shards, two host threads, one
    /// request.
    fn new(name: &str, input: GcnInput) -> Self {
        Case {
            name: name.to_string(),
            requests: vec![input.x1.clone()],
            input,
            n_pes: 16,
            design: Design::LocalPlusRemote { hop: 1 },
            a_shards: 3,
            x_shards: 2,
            threads: 2,
        }
    }

    /// The configuration of `layout` (a stored one streams from `store`
    /// under half of `A`'s resident bytes), or `None` when
    /// `AccelConfig::build` rejects it.
    fn config(&self, layout: Layout, store: &Path) -> Option<AccelConfig> {
        let policy = |sharded, k| match sharded {
            true => ShardPolicy::Fixed(k),
            false => ShardPolicy::Single,
        };
        let a = &self.input.a_norm_csc;
        let mut builder = AccelConfig::builder();
        builder
            .n_pes(self.n_pes)
            .threads(Some(self.threads))
            .shards(policy(layout.a_sharded, self.a_shards))
            .combination_shards(policy(layout.x_sharded, self.x_shards));
        if layout.stored {
            builder
                .store(Some(store.to_path_buf()))
                .host_mem_budget(Some(a.heap_bytes() / 2));
        }
        if layout.strategy != Strategy::Manual {
            builder.strategy(StrategyPolicy::Auto);
        }
        if layout.strategy == Strategy::AutoSharding {
            let on_chip_bytes = a.nnz() * BYTES_PER_NNZ / 4;
            builder.memory(MemoryModel {
                on_chip_bytes,
                ..MemoryModel::vcu118()
            });
        }
        match builder.build() {
            Ok(config) => Some(self.design.apply(config)),
            Err(e) => {
                assert!(layout.stored && layout.a_sharded, "{layout:?}: {e}");
                None
            }
        }
    }
}

/// What the reference says one request must produce.
struct Expected {
    output: Vec<u32>,
    x_density: Vec<f64>,
    /// Each layer's input `X`, column-major (its column shards are the
    /// layer's `X × W` devices).
    x: Vec<Csc>,
    /// MAC tasks of every SPMM, in `RunStats::spmms` order.
    tasks: Vec<u64>,
}

/// The reference's answer for `input`.
fn expected(input: &GcnInput) -> Expected {
    let model = GcnModel::with_layers(input.layers());
    let forward = model.forward(input).unwrap();
    let macs = |a: &Csc, b: &DenseMatrix| spmm::csc_times_dense_macs(a, b).unwrap() as u64;
    let (mut x, mut tasks) = (Vec::new(), Vec::new());
    for (l, w) in input.weights.iter().enumerate() {
        let xw = if l == 0 {
            x.push(input.x1.to_csc());
            spmm::csr_times_dense(&input.x1, w).unwrap()
        } else {
            let hidden = &forward.hidden_inputs[l - 1];
            x.push(hidden.to_csc());
            hidden.matmul(w).unwrap()
        };
        tasks.push(macs(&x[l], w));
        tasks.push(macs(&input.a_norm_csc, &xw));
    }
    Expected {
        output: bits(&forward.output),
        x_density: forward.x_density,
        x,
        tasks,
    }
}

/// The concrete (Manual) configuration `runner` executes `input` under.
fn concrete(runner: &GcnRunner, input: &GcnInput) -> AccelConfig {
    match runner.resolve_strategy(input) {
        Some(decision) => decision.apply(runner.config()),
        None => runner.config().clone(),
    }
}

/// The per-outcome checks, under the concrete `config` the run executed:
/// output bits and layer densities equal the reference's, and every
/// SPMM's stats conserve its tasks, respect the `⌈tasks / PEs⌉` cycle
/// floor, keep utilisation in [0, 1] and count the PEs of all its shard
/// devices.
fn check_outcome(out: &GcnRunOutcome, exp: &Expected, config: &AccelConfig, a: &Csc, what: &str) {
    let got = bits(&out.output);
    let first_diff = got.iter().zip(&exp.output).position(|(g, e)| g != e);
    assert!(
        got.len() == exp.output.len() && first_diff.is_none(),
        "{what}: output bits differ from the reference (first at {first_diff:?})"
    );
    assert_eq!(out.x_density, exp.x_density, "{what}: x densities");
    let a_devices = match &out.stream {
        Some(stream) => stream.shards,
        None => config.partitioner().partition(a).len(),
    };
    // SPMMs alternate X × W and A × (XW), layer by layer.
    for (i, stats) in out.stats.spmms().into_iter().enumerate() {
        let devices = [x_devices(config, &exp.x[i / 2]), a_devices][i % 2];
        let (tasks, what) = (exp.tasks[i], format!("{what} {}", stats.label));
        assert_eq!(stats.total_tasks(), tasks, "{what}: tasks");
        assert_eq!(stats.n_pes, devices * config.n_pes, "{what}: PEs");
        let (cycles, floor) = (stats.total_cycles(), tasks.div_ceil(stats.n_pes as u64));
        assert!(cycles >= floor, "{what}: {cycles} cycles < {floor}");
        let util = stats.utilization();
        assert!((0.0..=1.0).contains(&util), "{what}: utilisation {util}");
    }
}

/// Devices of `x`'s column cut under `config`'s combination policy.
fn x_devices(config: &AccelConfig, x: &Csc) -> usize {
    config.combination_partitioner().partition(x).len()
}

/// Warm and served `A × (XW)` runs execute on the frozen plan.
fn assert_tune_free(out: &GcnRunOutcome, what: &str) {
    for a_xw in out.stats.layers.iter().map(|l| &l.a_xw) {
        assert_eq!(a_xw.tuning_rounds(), 0, "{what}: {}", a_xw.label);
    }
}

/// The results of an isolated batch in which no request may fail.
fn completed(batch: &IsolatedBatch) -> Vec<&RequestOutcome> {
    batch.results.iter().map(|r| r.as_ref().unwrap()).collect()
}

/// The plan's view of its `A` source — one device, resident shards, or
/// stored shards (at least two, streamed under the budget) — and the
/// non-zeros of each shard.
fn check_plan(plan: &GcnPlan, input: &GcnInput) -> Vec<usize> {
    assert!(plan.matches(input));
    assert_eq!(plan.layers(), input.layers());
    let (config, a) = (plan.config(), &input.a_norm_csc);
    let single = config.shards == ShardPolicy::Single;
    assert_eq!(plan.plan_a().is_some(), single && config.store.is_none());
    // Any sharded policy, even one resolving to one shard, takes the
    // sharded path.
    assert_eq!(plan.sharded_plan().is_some(), !single);
    assert_eq!(plan.streamed_plan().is_some(), config.store.is_some());
    if let ShardPolicy::Fixed(k) = config.shards {
        assert!((1..=k).contains(&plan.shard_count()));
    }
    let Some(stored) = plan.streamed_plan() else {
        let resident = config.partitioner().partition(a);
        assert_eq!(plan.shard_count(), resident.len());
        return resident.iter().map(|s| s.nnz).collect();
    };
    assert!(plan.shard_count() > 1, "budget must force stored shards");
    let stream = plan.stream_stats().expect("a stored plan streams");
    assert_eq!(stream.shards, plan.shard_count());
    assert!(stream.io_bytes > 0 && stream.resident_peak_bytes < a.heap_bytes());
    stored.shards().iter().map(|s| s.nnz()).collect()
}

/// A hand-specified run of an Auto decision's configuration: its cold
/// run and one request on its plan.
struct ByHand {
    config: AccelConfig,
    cold: GcnRunOutcome,
    warm: GcnRunOutcome,
}

/// Runs every entry point on one layout of `case`, checking each cell,
/// and returns the entry points it checked. `by_hand` memoizes the
/// hand-specified runs of the Auto decisions seen so far on this case.
fn run_layout(
    case: &Case,
    config: &AccelConfig,
    expected: &[Expected],
    by_hand: &mut Vec<ByHand>,
) -> Vec<&'static str> {
    let (input, a) = (&case.input, &case.input.a_norm_csc);
    let runner = GcnRunner::new(config.clone());
    let mut checked = Vec::new();

    // `GcnRunner::run`: one cold run per request, each under the
    // configuration Auto resolves for its own input.
    let mut cold = Vec::new();
    for (r, (x1, exp)) in case.requests.iter().zip(expected).enumerate() {
        let request = with_features(input, x1);
        let out = runner.run(&request).unwrap();
        let what = format!("run[{r}]");
        check_outcome(&out, exp, &concrete(&runner, &request), a, &what);
        cold.push(out);
    }
    checked.push("run");

    // `prepare`, then serial requests on the plan. The warm-up is the
    // cold run, stats included; requests never tune, and on a plan whose
    // shards all fit on chip each one consults the replay caches once per
    // `A × (XW)` round on every shard.
    let (plan, warmup) = runner.prepare(input).unwrap();
    let resolved = plan.config();
    assert_eq!(resolved, &concrete(&runner, input));
    assert_eq!(warmup.stats, cold[0].stats, "warm-up stats");
    check_outcome(&warmup, &expected[0], resolved, a, "warm-up");
    let fits = |nnz| resolved.memory.fits_on_chip(nnz);
    let on_chip = check_plan(&plan, input).into_iter().all(fits);
    let mut warm = Vec::new();
    for (r, (x1, exp)) in case.requests.iter().zip(expected).enumerate() {
        let lookups = || plan.replay_hits() + plan.replay_misses();
        let before = lookups();
        let out = plan.run(x1).unwrap();
        let what = format!("plan[{r}]");
        check_outcome(&out, exp, resolved, a, &what);
        assert_tune_free(&out, &what);
        if on_chip {
            let rounds: usize = out.stats.layers.iter().map(|l| l.a_xw.rounds.len()).sum();
            let expect = (rounds * plan.shard_count()) as u64;
            assert_eq!(lookups() - before, expect, "{what}: replay lookups");
        }
        warm.push(out);
    }
    checked.push("plan");

    // Auto is a pure selector: the plan carries the decision, and running
    // its configuration hand-specified gives the same bits and stats.
    match runner.resolve_strategy(input) {
        None => assert!(plan.auto_decision().is_none()),
        Some(decision) => {
            assert_eq!(plan.auto_decision(), Some(&decision));
            let manual = decision.apply(config);
            assert_eq!(manual.strategy, StrategyPolicy::Manual);
            if !by_hand.iter().any(|h| h.config == manual) {
                let runner = GcnRunner::new(manual.clone());
                by_hand.push(ByHand {
                    cold: runner.run(input).unwrap(),
                    warm: runner.prepare(input).unwrap().0.run(&input.x1).unwrap(),
                    config: manual.clone(),
                });
            }
            let hand = by_hand.iter().find(|h| h.config == manual).unwrap();
            for (auto, hand) in [(&cold[0], &hand.cold), (&warm[0], &hand.warm)] {
                let same_bits = bits(&auto.output) == bits(&hand.output);
                assert!(same_bits, "Auto vs hand: bits");
                assert_eq!(auto.stats, hand.stats, "Auto vs hand: stats");
            }
        }
    }

    // The serving entry points, on one service: `enqueue` resolves to the
    // plan `prepare` pinned. Every served request equals the plan request
    // for the same features, stats included, and results keep request
    // order.
    let mut service = GcnService::new(config.clone());
    let report = service.prepare("g", input).unwrap();
    assert_eq!(report.warmup.stats, cold[0].stats);
    assert_eq!(report.shards, plan.shard_count());
    let x_cuts = expected[0].x.iter().map(|x| x_devices(resolved, x));
    assert_eq!(report.combination_shards, x_cuts.max().unwrap());
    let mut check_served = |entry, served: Vec<&RequestOutcome>| {
        assert_eq!(served.len(), case.requests.len(), "{entry}");
        for (r, s) in served.into_iter().enumerate() {
            let what = format!("{entry}[{r}]");
            assert_eq!(s.index, r, "{what}");
            check_outcome(&s.outcome, &expected[r], resolved, a, &what);
            assert_tune_free(&s.outcome, &what);
            assert_eq!(s.outcome.stats, warm[r].stats, "{what}: stats");
        }
        checked.push(entry);
    };

    let batch = service.serve("g", &case.requests).unwrap();
    assert!(batch.mean_cycles() > 0.0 && batch.throughput_rps() > 0.0);
    assert!(batch.avg_utilization() > 0.0 && batch.avg_utilization() <= 1.0);
    check_served("serve", batch.requests.iter().collect());

    let isolated = service.serve_isolated("g", &case.requests).unwrap();
    check_served("serve_isolated", completed(&isolated));

    for x1 in &case.requests {
        service.enqueue(input, x1.clone()).unwrap();
    }
    let drained = service.drain_isolated();
    check_served("drain", completed(&drained));
    assert_eq!(service.cache_stats().hits, case.requests.len() as u64);
    checked
}

/// Runs the matrix on every case and asserts that exactly the declared
/// (input, cell) pairs ran.
fn oracle(cases: &[Case]) {
    let mut ran = HashSet::new();
    for case in cases {
        let expected: Vec<Expected> = (case.requests.iter())
            .map(|x1| expected(&with_features(&case.input, x1)))
            .collect();
        let store = ScratchDir::new("exec-paths");
        let mut by_hand = Vec::new();
        for layout in layouts() {
            let Some(config) = case.config(layout, store.path()) else {
                continue;
            };
            if layout.strategy == Strategy::AutoSharding && !layout.stored {
                let runner = GcnRunner::new(config.clone());
                let decision = runner.resolve_strategy(&case.input).unwrap();
                assert_ne!(decision.shards, ShardPolicy::Single, "{}", case.name);
            }
            let checked = run_layout(case, &config, &expected, &mut by_hand);
            assert_eq!(checked, ENTRY_POINTS, "{} {layout:?}", case.name);
            for entry in checked {
                assert!(ran.insert((case.name.clone(), layout, entry)));
            }
        }
    }
    assert_eq!(ran.len(), cases.len() * CELLS_PER_INPUT);
}

/// The plan/serve traffic shape: a Cora-shaped graph of 192 nodes on 32
/// PEs, serving the warm-up's features and four fresh draws on the same
/// adjacency.
#[test]
fn served_requests() {
    let spec = DatasetSpec::cora().with_nodes(192);
    let data = GeneratedDataset::generate(&spec, 31).unwrap();
    let input = GcnInput::from_dataset(&data).unwrap();
    let mut case = Case {
        n_pes: 32,
        ..Case::new("Cora-192", input)
    };
    for seed in 401..=404 {
        let fresh = GeneratedDataset::with_adjacency(&spec, data.adjacency.clone(), seed);
        case.requests.push(fresh.unwrap().features);
    }
    oracle(&[case]);
}

/// A paper dataset at the suites' scale, on the default hardware.
fn paper_case(dataset: PaperDataset) -> Case {
    Case::new(dataset.name(), common::paper_input(dataset, 11))
}

/// The two citation graphs small enough for a debug build.
#[test]
fn citation_graphs() {
    oracle(&[Cora, Citeseer].map(paper_case));
}

/// Pubmed, Nell and Reddit: their feature widths make a debug build take
/// minutes, so these run in release builds only (CI's oracle step).
#[test]
#[cfg_attr(debug_assertions, ignore = "too slow unoptimized")]
fn large_paper_graphs() {
    oracle(&[Pubmed, Nell, Reddit].map(paper_case));
}

/// The two adversarial synthetics of the Auto honesty suite, with `X1` and
/// `W` in thirds on the same patterns (see [`common::in_thirds`]).
#[test]
fn adversarial_synthetics() {
    oracle(&[
        Case::new(
            "power-law tail",
            common::in_thirds(common::power_law_input()),
        ),
        Case::new(
            "near-dense block",
            common::in_thirds(common::near_dense_block_input()),
        ),
    ]);
}

/// Auto on Nell's clustered hubs: 256 nodes on 32 PEs (release builds
/// only, like [`large_paper_graphs`]).
#[test]
#[cfg_attr(debug_assertions, ignore = "too slow unoptimized")]
fn auto_on_nell() {
    let input = common::spec_input(&DatasetSpec::nell().with_nodes(256), 23);
    oracle(&[Case {
        n_pes: 32,
        ..Case::new("Nell-256", input)
    }]);
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// Random graphs, designs, PE counts, shard counts on both axes and
    /// host thread counts.
    #[test]
    fn random_graphs(
        a in common::sparse_strategy(40, 120),
        a_shards in 1usize..6,
        x_shards in 1usize..6,
        seed in 0u64..50,
        design in common::design_strategy(),
        n_pes_log in 2u32..4,
        threads in 1usize..3,
    ) {
        let case = Case {
            n_pes: 1 << n_pes_log,
            design,
            a_shards,
            x_shards,
            threads,
            ..Case::new(&format!("random (seed {seed})"), common::random_input(&a, seed))
        };
        let ran = std::panic::catch_unwind(|| oracle(&[case]));
        prop_assert!(ran.is_ok(), "the oracle failed on this draw (panic above)");
    }
}
