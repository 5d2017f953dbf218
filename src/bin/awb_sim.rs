//! `awb-sim` — command-line front end to the AWB-GCN simulator.
//!
//! ```text
//! awb-sim profile <dataset> [--scale F] [--seed N]
//! awb-sim run     <dataset> [--design D | --auto] [--pes N] [--scale F] [--seed N]
//!                 [--csv] [--shards S] [--xw-shards S] [--mem-budget MB]
//!                 [--store DIR] [--host-mem-budget MB]
//! awb-sim compare <dataset> [--pes N] [--scale F] [--seed N]
//! awb-sim sweep   <dataset> [--pes N] [--scale F] [--seed N] [--auto]
//! awb-sim serve   <dataset> [--requests N] [--batch B] [--design D | --auto]
//!                 [--pes N] [--shards S] [--xw-shards S] [--mem-budget MB]
//!                 [--store DIR] [--host-mem-budget MB]
//!                 [--faults SEED] [--compare-cold]
//! awb-sim serve   <dataset> --trace [--queue-depth D] [--cache-plans MB]
//!                 [--deadline-ms MS] [--retries N] [--faults SEED]
//!                 [--compare-cold]
//! awb-sim export  <dataset> <path.mtx> [--scale F] [--seed N]
//! ```
//!
//! `<dataset>` is one of `cora|citeseer|pubmed|nell|reddit`; `--design`
//! accepts `base`, `eie`, `ls<H>` (local sharing, hop H) or `ls<H>+rs`
//! (plus remote switching), default `ls2+rs`. `serve` prepares the graph
//! once (paying auto-tuning) and then serves batches of feature-matrix
//! requests against the shared plan. `--shards S` partitions the graph
//! into S nnz-balanced column shards (one rebalanced PE array each) for
//! the aggregation phase `A × (XW)`; `--xw-shards S` does the same for
//! each layer's feature matrix in the combination phase `X × W`;
//! `--mem-budget MB` instead derives *both* shard counts from an on-chip
//! memory budget of MB megabytes per device (mutually exclusive with the
//! fixed counts). Outputs are bit-identical in every combination.
//!
//! `--auto` delegates the whole choice to `StrategyPolicy::Auto`: the
//! design is LS2+RS (LS1+RS on 2 PEs, where hop 2 does not fit), and the
//! per-layer cost model picks the shard layout — prepare profiles the
//! input, scores the layout candidates, and freezes the predicted-fastest
//! one. It therefore rejects `--design`, `--shards`, and `--xw-shards`
//! (Auto owns those knobs), while `--mem-budget` still applies (it shapes
//! the memory model the layouts are scored against). `sweep` runs the
//! paper's design lineup at one PE count and prints per-point CSV
//! (cold/warm measurements next to the cost model's prediction); with
//! `--auto` it additionally reports Auto's pick against the post-hoc best
//! point.
//!
//! Out-of-core streaming (DESIGN.md §13): `--store DIR` keeps the
//! normalized adjacency in a chunked on-disk sparse store (written on first
//! use, revalidated and reused afterwards) and streams it shard by shard —
//! each shard read, computed and dropped before the next is read — instead
//! of holding the whole matrix resident. `--host-mem-budget MB` bounds the
//! streaming pipeline's peak resident sparse bytes (default 256 MB) and
//! requires `--store`. Streaming replaces device-sharding of `A`, so
//! `--store` is mutually exclusive with `--shards`/`--mem-budget`
//! (`--xw-shards` still applies). Outputs stay bit-identical to the
//! resident run.
//!
//! Fault tolerance (DESIGN.md §10): `--faults SEED` arms the deterministic
//! fault-injection plan (seeded panics / NaN payloads / delays); faulted
//! requests surface as typed `FAULTED` lines while the rest of the batch
//! completes bit-identically. Under `--trace`, `--deadline-ms` sheds
//! requests whose queue wait blows the budget and `--retries` retries
//! `QueueFull` admissions with exponential backoff.

use std::error::Error;
use std::process::ExitCode;

use awb_gcn_repro::accel::{
    sweep_csv, trace, AccelConfig, AccelError, Design, DesignSweep, FaultPlan, GcnRunner,
    GcnService, IsolatedBatch, LatencyPercentiles, RequestOutcome, RetryPolicy, ServeOptions,
    ShardPolicy, StrategyPolicy,
};
use awb_gcn_repro::datasets::rng::Pcg64;
use awb_gcn_repro::datasets::{DatasetSpec, GeneratedDataset, PaperDataset};
use awb_gcn_repro::gcn::GcnInput;
use awb_gcn_repro::sparse::io::write_matrix_market;
use awb_gcn_repro::sparse::profile::row_nnz_stats;

const USAGE: &str = "usage:
  awb-sim profile <dataset> [--scale F] [--seed N]
  awb-sim run     <dataset> [--design D | --auto] [--pes N] [--scale F] [--seed N]
                  [--csv] [--shards S] [--xw-shards S] [--mem-budget MB]
                  [--store DIR] [--host-mem-budget MB]
  awb-sim compare <dataset> [--pes N] [--scale F] [--seed N]
  awb-sim sweep   <dataset> [--pes N] [--scale F] [--seed N] [--auto]
  awb-sim serve   <dataset> [--requests N] [--batch B] [--design D | --auto]
                  [--pes N] [--scale F] [--seed N] [--shards S] [--xw-shards S]
                  [--mem-budget MB] [--store DIR] [--host-mem-budget MB]
                  [--faults SEED] [--compare-cold]
  awb-sim serve   <dataset> --trace [--queue-depth D] [--cache-plans MB]
                  [--deadline-ms MS] [--retries N] [--faults SEED]
                  [--compare-cold]
  awb-sim export  <dataset> <path.mtx> [--scale F] [--seed N]

  <dataset>: cora | citeseer | pubmed | nell | reddit
  --design:   base | eie | ls<H> | ls<H>+rs      (default ls2+rs)
  --pes:      PE count                           (default 1024 x scale)
  --scale:    node-scale factor                  (default 1.0)
  --seed:     generator seed                     (default 42)
  --threads:  host worker threads                (default AWB_THREADS/auto)
  --shards:   nnz-balanced column shards of A (>= 1) for the aggregation
              phase A*(XW)                       (default unsharded)
  --xw-shards: nnz-balanced column shards of each layer's X (>= 1) for
              the combination phase X*W          (default unsharded)
  --mem-budget: on-chip budget in MB per shard device; derives BOTH shard
                counts (mutually exclusive with --shards/--xw-shards)
  --store:    directory of the chunked on-disk sparse store for A (written
              on first use, revalidated on reuse); streams the aggregation
              operand out of core instead of device-sharding it, so it is
              mutually exclusive with --shards/--mem-budget
  --host-mem-budget: peak resident sparse bytes of the streaming pipeline
              in MB (>= 1; default 256); requires --store
  --auto:     run LS2+RS (LS1+RS on 2 PEs) and let the cost model pick
              the shard layout at prepare time; rejects --design,
              --shards and --xw-shards (--mem-budget still applies: it
              shapes the memory model layouts are scored against)
  sweep: runs the paper design lineup at one PE count and prints per-point
         CSV (cold/warm cycles next to the cost model prediction); with
         --auto also reports the model's pick vs the post-hoc best point
  serve options:
  --requests: feature-matrix requests to serve   (default 8)
  --batch:    batch size per serve() call        (default all requests)
  --compare-cold: also run each request on a fresh cold runner and
                  verify outputs are bit-identical
  --trace:    replay a multi-tenant heavy-tailed arrival schedule (many
              small ego-graph tenants plus a few giants) through the
              admission queue and the fingerprint-keyed plan cache;
              mutually exclusive with --requests/--batch
  --queue-depth: admission-queue depth under --trace (>= 1; default 8 so
              the schedule exercises backpressure)
  --cache-plans: plan-cache memory budget in MB under --trace (>= 1;
              default unbounded)
  --deadline-ms: per-request queue-wait budget in ms under --trace (>= 1);
              requests that wait longer are shed with a typed
              DeadlineExceeded error instead of executing stale
  --retries:  retry QueueFull admissions up to N times under --trace
              (>= 1), with exponential backoff and a forced drain per
              retry (smaller batches traded for admission)
  --faults:   arm the deterministic fault-injection plan with this seed
              (>= 1): seeded worker panics, NaN payloads, and synthetic
              delays; faulted requests yield typed errors, the rest of
              the batch completes bit-identically";

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match dispatch(&args) {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("error: {e}\n\n{USAGE}");
            ExitCode::from(2)
        }
    }
}

fn dispatch(args: &[String]) -> Result<(), Box<dyn Error>> {
    let Some(command) = args.first() else {
        return Err("missing command".into());
    };
    match command.as_str() {
        "profile" => profile(&args[1..]),
        "run" => run(&args[1..]),
        "compare" => compare(&args[1..]),
        "sweep" => sweep(&args[1..]),
        "serve" => serve(&args[1..]),
        "export" => export(&args[1..]),
        "--help" | "-h" | "help" => {
            println!("{USAGE}");
            Ok(())
        }
        other => Err(format!("unknown command `{other}`").into()),
    }
}

/// Parsed common options.
struct Options {
    dataset: PaperDataset,
    scale: f64,
    seed: u64,
    pes: Option<usize>,
    design: Design,
    auto: bool,
    csv: bool,
    threads: Option<usize>,
    shards: Option<usize>,
    xw_shards: Option<usize>,
    mem_budget_mb: Option<usize>,
    store: Option<std::path::PathBuf>,
    host_mem_budget_mb: Option<usize>,
    requests: usize,
    batch: Option<usize>,
    compare_cold: bool,
    trace: bool,
    queue_depth: Option<usize>,
    cache_plans_mb: Option<usize>,
    deadline_ms: Option<u64>,
    retries: Option<usize>,
    faults: Option<u64>,
    extra_positional: Option<String>,
}

fn parse_options(args: &[String]) -> Result<Options, Box<dyn Error>> {
    let mut dataset = None;
    let mut extra_positional = None;
    let mut scale = 1.0f64;
    let mut seed = 42u64;
    let mut pes = None;
    let mut design = Design::LocalPlusRemote { hop: 2 };
    let mut design_set = false;
    let mut auto = false;
    let mut csv = false;
    let mut threads = None;
    let mut shards = None;
    let mut xw_shards = None;
    let mut mem_budget_mb = None;
    let mut store: Option<std::path::PathBuf> = None;
    let mut host_mem_budget_mb = None;
    let mut requests: Option<usize> = None;
    let mut batch = None;
    let mut compare_cold = false;
    let mut trace = false;
    let mut queue_depth = None;
    let mut cache_plans_mb = None;
    let mut deadline_ms = None;
    let mut retries = None;
    let mut faults = None;
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--scale" => scale = next_value(&mut it, "--scale")?.parse()?,
            "--seed" => seed = next_value(&mut it, "--seed")?.parse()?,
            "--pes" => pes = Some(next_value(&mut it, "--pes")?.parse()?),
            "--design" => {
                design = parse_design(next_value(&mut it, "--design")?)?;
                design_set = true;
            }
            "--auto" => auto = true,
            "--csv" => csv = true,
            "--threads" => threads = Some(next_value(&mut it, "--threads")?.parse()?),
            "--shards" => shards = Some(next_value(&mut it, "--shards")?.parse()?),
            "--xw-shards" => xw_shards = Some(next_value(&mut it, "--xw-shards")?.parse()?),
            "--mem-budget" => mem_budget_mb = Some(next_value(&mut it, "--mem-budget")?.parse()?),
            "--store" => store = Some(next_value(&mut it, "--store")?.into()),
            "--host-mem-budget" => {
                host_mem_budget_mb = Some(next_value(&mut it, "--host-mem-budget")?.parse()?)
            }
            "--requests" => requests = Some(next_value(&mut it, "--requests")?.parse()?),
            "--batch" => batch = Some(next_value(&mut it, "--batch")?.parse()?),
            "--compare-cold" => compare_cold = true,
            "--trace" => trace = true,
            "--queue-depth" => queue_depth = Some(next_value(&mut it, "--queue-depth")?.parse()?),
            "--cache-plans" => {
                cache_plans_mb = Some(next_value(&mut it, "--cache-plans")?.parse()?)
            }
            "--deadline-ms" => deadline_ms = Some(next_value(&mut it, "--deadline-ms")?.parse()?),
            "--retries" => retries = Some(next_value(&mut it, "--retries")?.parse()?),
            "--faults" => faults = Some(next_value(&mut it, "--faults")?.parse()?),
            other if other.starts_with("--") => {
                return Err(format!("unknown flag `{other}`").into())
            }
            positional if dataset.is_none() => dataset = Some(parse_dataset(positional)?),
            positional => extra_positional = Some(positional.to_string()),
        }
    }
    if !(scale.is_finite() && scale > 0.0) {
        return Err("--scale must be positive".into());
    }
    if requests == Some(0) {
        return Err("--requests must be >= 1".into());
    }
    if batch == Some(0) {
        return Err("--batch must be >= 1".into());
    }
    if queue_depth == Some(0) {
        return Err("--queue-depth must be >= 1".into());
    }
    if cache_plans_mb == Some(0) {
        return Err("--cache-plans must be >= 1 MB".into());
    }
    if trace && (requests.is_some() || batch.is_some()) {
        return Err(
            "--trace replays its own arrival schedule and is mutually exclusive with \
             --requests/--batch"
                .into(),
        );
    }
    if !trace && (queue_depth.is_some() || cache_plans_mb.is_some()) {
        return Err("--queue-depth/--cache-plans only apply under --trace".into());
    }
    if deadline_ms == Some(0) {
        return Err("--deadline-ms must be >= 1".into());
    }
    if retries == Some(0) {
        return Err("--retries must be >= 1".into());
    }
    if faults == Some(0) {
        return Err("--faults seed must be >= 1".into());
    }
    if !trace && (deadline_ms.is_some() || retries.is_some()) {
        return Err("--deadline-ms/--retries only apply under --trace".into());
    }
    if shards == Some(0) {
        return Err("--shards must be >= 1".into());
    }
    if xw_shards == Some(0) {
        return Err("--xw-shards must be >= 1".into());
    }
    if mem_budget_mb == Some(0) {
        return Err("--mem-budget must be >= 1 MB".into());
    }
    if (shards.is_some() || xw_shards.is_some()) && mem_budget_mb.is_some() {
        return Err("--shards/--xw-shards and --mem-budget are mutually exclusive".into());
    }
    if host_mem_budget_mb == Some(0) {
        return Err("--host-mem-budget must be >= 1 MB".into());
    }
    if host_mem_budget_mb.is_some() && store.is_none() {
        return Err("--host-mem-budget bounds the streaming pipeline and requires --store".into());
    }
    if store.is_some() && (shards.is_some() || mem_budget_mb.is_some()) {
        // Streaming replaces device-sharding of A outright; a store plus a
        // shard policy for the same operand is a contradiction, rejected
        // here with the same typed-conflict shape the other flag pairs get.
        return Err(
            "--store streams A out of core and is mutually exclusive with \
             --shards/--mem-budget (--xw-shards still applies)"
                .into(),
        );
    }
    if store.is_some() && trace {
        return Err(
            "--trace serves many tenant graphs; a single-graph --store does not apply".into(),
        );
    }
    if auto && (design_set || shards.is_some() || xw_shards.is_some()) {
        // Same typed rejection the service gives malformed ingest: Auto
        // owns these knobs under --auto.
        return Err(Box::new(AccelError::InvalidInput(
            "--auto derives the design and shard counts itself; drop \
             --design/--shards/--xw-shards"
                .into(),
        )));
    }
    Ok(Options {
        dataset: dataset.ok_or("missing <dataset>")?,
        scale,
        seed,
        pes,
        design,
        auto,
        csv,
        threads,
        shards,
        xw_shards,
        mem_budget_mb,
        store,
        host_mem_budget_mb,
        requests: requests.unwrap_or(8),
        batch,
        compare_cold,
        trace,
        queue_depth,
        cache_plans_mb,
        deadline_ms,
        retries,
        faults,
        extra_positional,
    })
}

/// Adaptive byte formatting for the streaming report lines (small test
/// graphs read KBs, paper-scale stores read MBs).
fn fmt_bytes(bytes: u64) -> String {
    if bytes >= 10 << 20 {
        format!("{:.1} MB", bytes as f64 / (1u64 << 20) as f64)
    } else {
        format!("{:.1} KB", bytes as f64 / 1024.0)
    }
}

fn next_value<'a>(
    it: &mut std::slice::Iter<'a, String>,
    flag: &str,
) -> Result<&'a String, Box<dyn Error>> {
    it.next()
        .ok_or_else(|| format!("{flag} needs a value").into())
}

fn parse_dataset(name: &str) -> Result<PaperDataset, Box<dyn Error>> {
    PaperDataset::all()
        .into_iter()
        .find(|d| d.name().eq_ignore_ascii_case(name))
        .ok_or_else(|| format!("unknown dataset `{name}`").into())
}

fn parse_design(text: &str) -> Result<Design, Box<dyn Error>> {
    let lower = text.to_lowercase();
    match lower.as_str() {
        "base" | "baseline" => return Ok(Design::Baseline),
        "eie" | "eie-like" => return Ok(Design::EieLike),
        _ => {}
    }
    if let Some(rest) = lower.strip_prefix("ls") {
        let (hop_text, remote) = match rest.strip_suffix("+rs") {
            Some(h) => (h, true),
            None => (rest, false),
        };
        let hop: usize = hop_text
            .parse()
            .map_err(|_| format!("bad hop in design `{text}`"))?;
        return Ok(if remote {
            Design::LocalPlusRemote { hop }
        } else {
            Design::LocalSharing { hop }
        });
    }
    Err(format!("unknown design `{text}`").into())
}

fn load(opts: &Options) -> Result<(DatasetSpec, GeneratedDataset, GcnInput), Box<dyn Error>> {
    let spec = opts.dataset.spec().scaled(opts.scale);
    let data = GeneratedDataset::generate(&spec, opts.seed)?;
    let input = GcnInput::from_dataset(&data)?;
    Ok((spec, data, input))
}

fn config_for(opts: &Options) -> Result<AccelConfig, Box<dyn Error>> {
    let pes = opts
        .pes
        .unwrap_or_else(|| ((1024.0 * opts.scale).round() as usize).max(32));
    let mut builder = AccelConfig::builder();
    builder.n_pes(pes).threads(opts.threads);
    builder
        .store(opts.store.clone())
        .host_mem_budget(opts.host_mem_budget_mb.map(|mb| mb << 20));
    if let Some(shards) = opts.shards {
        builder.shards(ShardPolicy::Fixed(shards));
    }
    if let Some(xw_shards) = opts.xw_shards {
        builder.combination_shards(ShardPolicy::Fixed(xw_shards));
    }
    let mut config = opts.design.apply(builder.build()?);
    if let Some(mb) = opts.mem_budget_mb {
        // A finite per-device SPMMeM: shards are cut so each operand slice
        // fits it — on both phases' axes — and the memory model throttles
        // anything that still does not.
        config.memory = awb_gcn_repro::hw::MemoryModel {
            on_chip_bytes: mb << 20,
            off_chip_bytes_per_cycle: awb_gcn_repro::hw::MemoryModel::vcu118()
                .off_chip_bytes_per_cycle,
        };
        config.shards = ShardPolicy::MemoryBudget;
        config.combination_shards = ShardPolicy::MemoryBudget;
    }
    if let Some(seed) = opts.faults {
        config.faults = Some(FaultPlan::new(seed));
    }
    if opts.auto {
        config.strategy = StrategyPolicy::Auto;
    }
    Ok(config)
}

fn profile(args: &[String]) -> Result<(), Box<dyn Error>> {
    let opts = parse_options(args)?;
    let (spec, data, _input) = load(&opts)?;
    let stats = row_nnz_stats(&data.adjacency);
    println!(
        "dataset   : {} (scale {:.3}, seed {})",
        spec.name, opts.scale, opts.seed
    );
    println!("nodes     : {}", spec.nodes);
    println!("features  : {} -> {} -> {}", spec.f1, spec.f2, spec.f3);
    println!(
        "A         : {} nnz, density {:.4}% (target {:.4}%)",
        data.adjacency.nnz(),
        data.a_density() * 100.0,
        spec.a_density * 100.0
    );
    println!(
        "X1        : {} nnz, density {:.3}%",
        data.features.nnz(),
        data.x1_density() * 100.0
    );
    println!(
        "row nnz   : min {} max {} mean {:.1} CV {:.2} Gini {:.2} imbalance {:.0}x",
        stats.min, stats.max, stats.mean, stats.cv, stats.gini, stats.imbalance_factor
    );
    Ok(())
}

fn run(args: &[String]) -> Result<(), Box<dyn Error>> {
    let opts = parse_options(args)?;
    let (_, _, input) = load(&opts)?;
    let mut config = config_for(&opts)?;
    let mut design_label = opts.design.label();
    if opts.auto {
        // Resolve the decision up front so the run below executes the
        // frozen Manual configuration (identical to hand-specifying it)
        // and the choice can be surfaced before the cycle report.
        let decision = GcnRunner::new(config.clone())
            .resolve_strategy(&input)
            .ok_or("--auto produced no decision")?;
        if !opts.csv {
            println!(
                "auto      : chose {} (predicted {:.0} cycles, {} candidates scored)",
                decision.label(),
                decision.predicted_cycles,
                decision.candidates_scored,
            );
        }
        config = decision.apply(&config);
        design_label = decision.design.label();
    }
    let outcome = GcnRunner::new(config.clone()).run(&input)?;
    if opts.csv {
        print!("{}", trace::run_spmm_csv(&outcome.stats));
        return Ok(());
    }
    println!(
        "design {} on {} PEs: {} cycles ({:.4} ms @{} MHz), utilization {:.1}%",
        design_label,
        config.n_pes,
        outcome.stats.total_cycles(),
        outcome.latency_ms(config.freq_mhz),
        config.freq_mhz,
        outcome.stats.avg_utilization() * 100.0
    );
    if config.shards != ShardPolicy::Single {
        let shards = config.partitioner().partition(&input.a_norm_csc);
        let nnz: Vec<usize> = shards.iter().map(|s| s.nnz).collect();
        println!(
            "sharding  : {} column shards ({}), per-shard nnz {:?}, A*(XW) cycles are the \
             critical path over shard devices",
            shards.len(),
            config.shards.label(),
            nnz,
        );
    }
    if config.combination_shards != ShardPolicy::Single {
        // Layer 1's X cut; later layers re-derive their own from each X.
        // Mirror run_layers' dispatch: a 1-resolved policy executes on the
        // plain engine, so report that instead of a sharded critical path.
        let x1_csc = input.x1.to_csc();
        let partitioner = config.combination_partitioner();
        if partitioner.is_single(&x1_csc) {
            println!(
                "xw-sharding: {} resolves to a single device for X1 ({} nnz) — plain engine",
                config.combination_shards.label(),
                x1_csc.nnz(),
            );
        } else {
            let shards = partitioner.partition(&x1_csc);
            let nnz: Vec<usize> = shards.iter().map(|s| s.nnz).collect();
            println!(
                "xw-sharding: {} column shards of X1 ({}), per-shard nnz {:?}, X*W cycles are \
                 the critical path over shard devices",
                shards.len(),
                config.combination_shards.label(),
                nnz,
            );
        }
    }
    if let Some(stream) = &outcome.stream {
        println!(
            "streaming : {} shard(s) from {}, resident peak {}, {} read in {:.1} ms",
            stream.shards,
            config
                .store
                .as_deref()
                .map_or_else(|| "store".to_string(), |d| d.display().to_string()),
            fmt_bytes(stream.resident_peak_bytes as u64),
            fmt_bytes(stream.io_bytes),
            stream.prefetch_s * 1e3,
        );
    }
    for spmm in outcome.stats.spmms() {
        println!(
            "  {:<10} {:>10} cycles (ideal {:>9}) util {:>5.1}% TQ depth {}",
            spmm.label,
            spmm.total_cycles(),
            spmm.ideal_cycles(),
            spmm.utilization() * 100.0,
            spmm.max_queue_depth()
        );
    }
    Ok(())
}

fn compare(args: &[String]) -> Result<(), Box<dyn Error>> {
    let mut opts = parse_options(args)?;
    let (_, _, input) = load(&opts)?;
    let designs = [
        Design::Baseline,
        Design::LocalSharing { hop: 1 },
        Design::LocalSharing { hop: 2 },
        Design::LocalPlusRemote { hop: 1 },
        Design::LocalPlusRemote { hop: 2 },
    ];
    let mut base_cycles = None;
    println!(
        "{:<10} {:>12} {:>8} {:>9}",
        "design", "cycles", "util", "speedup"
    );
    for design in designs {
        opts.design = design;
        let config = config_for(&opts)?;
        let outcome = GcnRunner::new(config).run(&input)?;
        let cycles = outcome.stats.total_cycles();
        let base = *base_cycles.get_or_insert(cycles);
        println!(
            "{:<10} {:>12} {:>7.1}% {:>8.2}x",
            design.label(),
            cycles,
            outcome.stats.avg_utilization() * 100.0,
            base as f64 / cycles as f64
        );
    }
    Ok(())
}

/// `sweep`: the paper's design lineup at one PE count, each point measured
/// cold and warm with the cost model's prediction alongside; `--auto`
/// additionally pits the model's pick against the post-hoc best point.
fn sweep(args: &[String]) -> Result<(), Box<dyn Error>> {
    let opts = parse_options(args)?;
    let (_, _, input) = load(&opts)?;
    let mut base = config_for(&opts)?;
    // The grid explores the design axis itself, so points always execute
    // their own configuration; Auto is evaluated against the measured
    // points afterwards, not inside them.
    base.strategy = StrategyPolicy::Manual;
    let points = DesignSweep::new()
        .pe_counts(vec![base.n_pes])
        .base_config(base.clone())
        .run(&input)?;
    print!("{}", sweep_csv(&points));
    if opts.auto {
        let mut auto_config = base;
        auto_config.strategy = StrategyPolicy::Auto;
        let decision = GcnRunner::new(auto_config.clone())
            .resolve_strategy(&input)
            .ok_or("--auto produced no decision")?;
        let (plan, _) = GcnRunner::new(auto_config).prepare(&input)?;
        let auto_warm = plan.run_input(&input)?.stats.total_cycles();
        let best = points
            .iter()
            .min_by_key(|p| p.warm_cycles)
            .ok_or("empty sweep")?;
        println!(
            "auto: chose {} — warm {} cycles vs post-hoc best {} ({}), ratio {:.3}",
            decision.label(),
            auto_warm,
            best.warm_cycles,
            best.design.label(),
            auto_warm as f64 / best.warm_cycles.max(1) as f64,
        );
    }
    Ok(())
}

/// `serve`: prepare the graph once, then serve batches of feature-matrix
/// requests against the shared plan — the plan/execute split end to end.
fn serve(args: &[String]) -> Result<(), Box<dyn Error>> {
    let opts = parse_options(args)?;
    let (spec, data, input) = load(&opts)?;
    let config = config_for(&opts)?;
    if opts.faults.is_some() {
        // Injected panics are caught at the isolation boundary and
        // reported as typed FAULTED lines; the default hook's backtrace
        // spam would bury them.
        std::panic::set_hook(Box::new(|_| {}));
    }
    if opts.trace {
        return serve_trace(&opts, &spec, config);
    }
    let batch_size = opts.batch.unwrap_or(opts.requests);

    // Request stream: feature matrices regenerated per request on the
    // *fixed* graph (request 0 reuses the warm-up features; later ones
    // draw fresh seeds), the fixed-graph/variable-features traffic shape
    // the service is built for.
    let requests: Vec<_> = (0..opts.requests)
        .map(|i| {
            if i == 0 {
                Ok(input.x1.clone())
            } else {
                GeneratedDataset::with_adjacency(
                    &spec,
                    data.adjacency.clone(),
                    opts.seed.wrapping_add(i as u64),
                )
                .map(|d| d.features)
            }
        })
        .collect::<Result<_, _>>()?;

    let mut service = GcnService::new(config.clone());
    let report = service.prepare(spec.name.clone(), &input)?;
    println!(
        "prepared {} ({} nodes, {} PEs, design {}, {} shard(s), {} X*W shard(s)): \
         {} tuning rounds, {} rows switched, warm-up {} cycles ({:.3}s wall)",
        spec.name,
        spec.nodes,
        config.n_pes,
        if opts.auto {
            "auto".to_string()
        } else {
            opts.design.label()
        },
        report.shards,
        report.combination_shards,
        report.tuning_rounds,
        report.total_switches,
        report.warmup.stats.total_cycles(),
        report.wall_s,
    );
    if let Some(auto) = &report.auto {
        println!(
            "auto      : chose {} — predicted {:.0} cycles vs {} measured warm-up \
             (tuning-inclusive), {} candidates scored{}",
            auto.chosen,
            auto.predicted_cycles,
            auto.measured_cycles,
            auto.candidates_scored,
            if auto.rescored_unsharded {
                ", re-scored unsharded after degraded prepare"
            } else {
                ""
            },
        );
    }
    if let Some(stream) = &report.stream {
        println!(
            "streaming : {} shard(s) from {}, warm-up resident peak {}, {} read in {:.1} ms",
            stream.shards,
            config
                .store
                .as_deref()
                .map_or_else(|| "store".to_string(), |d| d.display().to_string()),
            fmt_bytes(stream.resident_peak_bytes as u64),
            fmt_bytes(stream.io_bytes),
            stream.prefetch_s * 1e3,
        );
    }

    let serve_start = std::time::Instant::now();
    // Isolated serving: a faulted request surfaces as its slot's typed
    // error while the rest of the batch completes (with --faults off
    // every slot is Ok and this is the same fail-safe path).
    let mut served: Vec<Result<RequestOutcome, AccelError>> = Vec::with_capacity(opts.requests);
    for chunk in requests.chunks(batch_size) {
        let batch = service.serve_isolated(&spec.name, chunk)?;
        // Per-batch indices restart at 0; rebase them so `index` stays
        // the request's position in the whole stream.
        let base = served.len();
        served.extend(batch.results.into_iter().map(|slot| {
            slot.map(|mut r| {
                r.index += base;
                r
            })
        }));
    }
    let serve_wall = serve_start.elapsed().as_secs_f64();

    println!(
        "served {} requests in {} batch(es) of <= {batch_size}:",
        served.len(),
        opts.requests.div_ceil(batch_size),
    );
    for (i, slot) in served.iter().enumerate() {
        match slot {
            Ok(r) => println!(
                "  request {i:>3}: {:>10} cycles ({:.4} ms @{} MHz) util {:>5.1}%",
                r.outcome.stats.total_cycles(),
                r.outcome.latency_ms(config.freq_mhz),
                config.freq_mhz,
                r.outcome.stats.avg_utilization() * 100.0,
            ),
            Err(e) => println!("  request {i:>3}: FAULTED — {e}"),
        }
    }
    let completed: Vec<&RequestOutcome> = served.iter().filter_map(|s| s.as_ref().ok()).collect();
    let faulted = served.len() - completed.len();
    if opts.faults.is_some() || faulted > 0 {
        println!(
            "faults: {faulted} of {} requests faulted (typed errors), {} completed — service \
             survived",
            served.len(),
            completed.len(),
        );
    }
    let total_cycles: u64 = completed
        .iter()
        .map(|r| r.outcome.stats.total_cycles())
        .sum();
    let mean_cycles = total_cycles as f64 / completed.len().max(1) as f64;
    let plan = service
        .plan(&spec.name)
        .ok_or("plan missing after prepare")?;
    println!(
        "aggregate: mean {:.0} cycles/request ({:.4} ms), throughput {:.1} req/s, \
         replay {} hits / {} misses",
        mean_cycles,
        mean_cycles / (config.freq_mhz * 1e3),
        served.len() as f64 / serve_wall.max(1e-9),
        plan.replay_hits(),
        plan.replay_misses(),
    );

    if opts.compare_cold {
        // The cold reference never injects faults: non-faulted served
        // outputs must match a clean run bit for bit (faulted slots have
        // no output to compare).
        let mut cold_config = config.clone();
        cold_config.faults = None;
        let runner = GcnRunner::new(cold_config);
        // Build the cold inputs outside the timed region: only the
        // simulation cost (fresh engines, tuning re-paid per request) is
        // compared against the warm path.
        let cold_inputs: Vec<GcnInput> = requests
            .iter()
            .map(|x1| GcnInput::from_parts(input.a_norm.clone(), x1.clone(), input.weights.clone()))
            .collect::<Result<_, _>>()?;
        let cold_start = std::time::Instant::now();
        let mut identical = true;
        let mut compared = 0usize;
        for (i, cold_input) in cold_inputs.iter().enumerate() {
            let Ok(warm) = &served[i] else { continue };
            compared += 1;
            let cold = runner.run(cold_input)?;
            if cold.output != warm.outcome.output {
                identical = false;
                eprintln!("request {i}: served output differs from cold run!");
            }
        }
        let cold_wall = cold_start.elapsed().as_secs_f64();
        let warm_wall: f64 = completed.iter().map(|r| r.wall_s).sum();
        println!(
            "cold comparison: {compared} independent runs took {:.3}s wall vs {:.3}s warm \
             ({:.2}x mean per-request speedup), outputs {}",
            cold_wall,
            warm_wall,
            cold_wall / warm_wall.max(1e-9),
            if identical {
                "bit-identical"
            } else {
                "DIFFERENT"
            },
        );
        if !identical {
            return Err("served outputs differ from cold runs".into());
        }
    }
    Ok(())
}

/// One tenant of the `--trace` schedule: a fixed graph plus its request
/// stream (fresh feature matrices on that graph).
struct Tenant {
    label: String,
    input: GcnInput,
    requests: Vec<awb_gcn_repro::sparse::Csr>,
}

fn make_tenant(
    label: String,
    spec: &DatasetSpec,
    seed: u64,
    requests_per_tenant: usize,
) -> Result<Tenant, Box<dyn Error>> {
    let data = GeneratedDataset::generate(spec, seed)?;
    let input = GcnInput::from_dataset(&data)?;
    let requests = (0..requests_per_tenant)
        .map(|r| {
            if r == 0 {
                Ok(input.x1.clone())
            } else {
                GeneratedDataset::with_adjacency(
                    spec,
                    data.adjacency.clone(),
                    seed.wrapping_add(r as u64).wrapping_mul(0x9e37),
                )
                .map(|d| d.features)
            }
        })
        .collect::<Result<_, _>>()?;
    Ok(Tenant {
        label,
        input,
        requests,
    })
}

/// Files an isolated drain batch under the arrivals it was admitted for
/// (drain keeps admission order); faulted slots keep their typed error.
fn file_drained(
    batch: IsolatedBatch,
    admitted: &mut Vec<usize>,
    completed: &mut [Option<Result<RequestOutcome, AccelError>>],
) -> Result<(), Box<dyn Error>> {
    if batch.results.len() != admitted.len() {
        return Err(format!(
            "drained {} results for {} admitted arrivals",
            batch.results.len(),
            admitted.len()
        )
        .into());
    }
    for (slot, result) in batch.results.into_iter().enumerate() {
        completed[admitted[slot]] = Some(result);
    }
    admitted.clear();
    Ok(())
}

/// `serve --trace`: replay a heavy-tailed multi-tenant arrival schedule —
/// many small ego-graph tenants plus a few giants, interleaved — through
/// the admission queue (explicit backpressure) and the fingerprint-keyed
/// plan cache (prepare-on-miss, LRU eviction under `--cache-plans`).
fn serve_trace(
    opts: &Options,
    spec: &DatasetSpec,
    config: AccelConfig,
) -> Result<(), Box<dyn Error>> {
    const EGO_TENANTS: usize = 6;
    const GIANT_TENANTS: usize = 2;
    const REQUESTS_PER_TENANT: usize = 2;

    // The heavy tail: most tenants are small ego-graphs, a few are the
    // full-size graph. Distinct seeds give each tenant a distinct
    // structure (its own fingerprint and plan).
    let ego_spec = spec.clone().with_nodes((spec.nodes / 8).max(32));
    let mut tenants = Vec::with_capacity(EGO_TENANTS + GIANT_TENANTS);
    for t in 0..EGO_TENANTS {
        tenants.push(make_tenant(
            format!("ego{t}"),
            &ego_spec,
            opts.seed.wrapping_add(1000 + t as u64),
            REQUESTS_PER_TENANT,
        )?);
    }
    for g in 0..GIANT_TENANTS {
        tenants.push(make_tenant(
            format!("giant{g}"),
            spec,
            opts.seed.wrapping_add(g as u64),
            REQUESTS_PER_TENANT,
        )?);
    }

    // Arrival schedule: every tenant's requests, deterministically
    // shuffled so tenants interleave (giants land between ego bursts).
    let mut schedule: Vec<(usize, usize)> = (0..tenants.len())
        .flat_map(|t| (0..REQUESTS_PER_TENANT).map(move |r| (t, r)))
        .collect();
    Pcg64::seed_from_u64(opts.seed ^ 0x7472_6163).shuffle(&mut schedule);

    let options = ServeOptions {
        queue_depth: opts.queue_depth.unwrap_or(8),
        cache_budget_bytes: opts.cache_plans_mb.map(|mb| (mb as u64) << 20),
        deadline: opts.deadline_ms.map(std::time::Duration::from_millis),
    };
    let mut service = GcnService::with_options(config.clone(), options)?;
    println!(
        "trace: {} tenants ({EGO_TENANTS} ego x {} nodes + {GIANT_TENANTS} giant x {} nodes), \
         {} arrivals, queue depth {}, cache budget {}",
        tenants.len(),
        ego_spec.nodes,
        spec.nodes,
        schedule.len(),
        options.queue_depth,
        opts.cache_plans_mb
            .map_or("unbounded".to_string(), |mb| format!("{mb} MB")),
    );
    if opts.deadline_ms.is_some() || opts.retries.is_some() || opts.faults.is_some() {
        println!(
            "fault tolerance: deadline {}, retries {}, fault seed {}",
            opts.deadline_ms
                .map_or("off".to_string(), |ms| format!("{ms} ms")),
            opts.retries.map_or("off".to_string(), |n| n.to_string()),
            opts.faults.map_or("off".to_string(), |s| s.to_string()),
        );
    }

    let retry_policy = opts.retries.map(|max_retries| RetryPolicy {
        max_retries,
        ..RetryPolicy::default()
    });
    let trace_start = std::time::Instant::now();
    let mut admitted: Vec<usize> = Vec::new();
    let mut completed: Vec<Option<Result<RequestOutcome, AccelError>>> = vec![None; schedule.len()];
    let mut drains = 0usize;
    let mut backpressure_drains = 0usize;
    for (arrival, &(tenant, request)) in schedule.iter().enumerate() {
        if let Some(policy) = &retry_policy {
            // Bounded retry-with-backoff: each retry sleeps, then
            // force-drains the queue to free capacity for this arrival.
            let x1 = tenants[tenant].requests[request].clone();
            let admission = service.enqueue_with_backoff(&tenants[tenant].input, &x1, policy)?;
            backpressure_drains += admission.retries;
            for batch in admission.drained {
                drains += 1;
                file_drained(batch, &mut admitted, &mut completed)?;
            }
            admitted.push(arrival);
            continue;
        }
        loop {
            let x1 = tenants[tenant].requests[request].clone();
            match service.enqueue(&tenants[tenant].input, x1) {
                Ok(_) => {
                    admitted.push(arrival);
                    break;
                }
                Err(AccelError::QueueFull { .. }) => {
                    // Explicit backpressure: drain everything admitted so
                    // far, then retry the rejected arrival.
                    backpressure_drains += 1;
                    drains += 1;
                    file_drained(service.drain_isolated(), &mut admitted, &mut completed)?;
                }
                Err(e) => return Err(e.into()),
            }
        }
    }
    if !admitted.is_empty() {
        drains += 1;
        file_drained(service.drain_isolated(), &mut admitted, &mut completed)?;
    }
    let trace_wall = trace_start.elapsed().as_secs_f64();

    let outcomes: Vec<Result<RequestOutcome, AccelError>> = completed
        .into_iter()
        .enumerate()
        .map(|(arrival, o)| o.ok_or_else(|| format!("arrival {arrival} was never drained")))
        .collect::<Result<_, _>>()?;
    let succeeded: Vec<&RequestOutcome> = outcomes.iter().filter_map(|o| o.as_ref().ok()).collect();
    let wait = LatencyPercentiles::from_samples(succeeded.iter().map(|r| r.queue_wait_s));
    let exec = LatencyPercentiles::from_samples(succeeded.iter().map(|r| r.wall_s));
    let stats = service.cache_stats();
    println!(
        "drained {drains} batch(es) ({backpressure_drains} on backpressure): {} requests in \
         {:.3}s wall ({:.1} req/s)",
        outcomes.len(),
        trace_wall,
        outcomes.len() as f64 / trace_wall.max(1e-9),
    );
    let mut panics = 0usize;
    let mut non_finite = 0usize;
    let mut shed = 0usize;
    let mut other = 0usize;
    for (arrival, result) in outcomes.iter().enumerate() {
        let Err(e) = result else { continue };
        match e {
            AccelError::WorkerPanicked { .. } => panics += 1,
            AccelError::NonFiniteOutput { .. } => non_finite += 1,
            AccelError::DeadlineExceeded { .. } => shed += 1,
            _ => other += 1,
        }
        let (tenant, _) = schedule[arrival];
        println!(
            "  arrival {arrival:>3} ({}): FAULTED — {e}",
            tenants[tenant].label
        );
    }
    let faulted = panics + non_finite + shed + other;
    if opts.deadline_ms.is_some() || opts.faults.is_some() || faulted > 0 {
        println!(
            "faults: {faulted} of {} arrivals failed ({panics} panicked, {non_finite} \
             non-finite suppressed, {shed} deadline-shed, {other} other) — {} completed, \
             service survived",
            outcomes.len(),
            succeeded.len(),
        );
    }
    println!(
        "latency (ms): queue-wait p50 {:.3} p95 {:.3} p99 {:.3} | execute p50 {:.3} p95 {:.3} \
         p99 {:.3}",
        wait.p50 * 1e3,
        wait.p95 * 1e3,
        wait.p99 * 1e3,
        exec.p50 * 1e3,
        exec.p95 * 1e3,
        exec.p99 * 1e3,
    );
    println!(
        "plan cache: {} hits / {} misses / {} evictions, resident {} bytes ({} plans)",
        stats.hits, stats.misses, stats.evictions, stats.resident_bytes, stats.resident_plans,
    );

    if opts.compare_cold {
        // Every non-faulted response must be bit-identical to an
        // independent cold prepare + run on the same tenant graph and
        // features (the cold reference never injects faults).
        let mut cold_config = config;
        cold_config.faults = None;
        let runner = GcnRunner::new(cold_config);
        let mut identical = true;
        let mut compared = 0usize;
        for (arrival, &(tenant, request)) in schedule.iter().enumerate() {
            let Ok(warm) = &outcomes[arrival] else {
                continue;
            };
            compared += 1;
            let t = &tenants[tenant];
            let cold_input = GcnInput::from_parts(
                t.input.a_norm.clone(),
                t.requests[request].clone(),
                t.input.weights.clone(),
            )?;
            let cold = runner.run(&cold_input)?;
            if cold.output != warm.outcome.output {
                identical = false;
                eprintln!(
                    "arrival {arrival} (tenant {}): served output differs from cold run!",
                    t.label
                );
            }
        }
        println!(
            "cold comparison: {compared} of {} arrivals over {} tenants, outputs {}",
            schedule.len(),
            tenants.len(),
            if identical {
                "bit-identical"
            } else {
                "DIFFERENT"
            },
        );
        if !identical {
            return Err("served outputs differ from cold runs".into());
        }
    }
    Ok(())
}

fn export(args: &[String]) -> Result<(), Box<dyn Error>> {
    let opts = parse_options(args)?;
    let path = opts
        .extra_positional
        .as_deref()
        .ok_or("export needs an output path")?;
    let (spec, data, _) = load(&opts)?;
    let coo = data.adjacency.to_coo();
    let mut file = std::io::BufWriter::new(std::fs::File::create(path)?);
    write_matrix_market(&mut file, &coo)?;
    println!(
        "wrote {} ({} nodes, {} nnz) to {path}",
        spec.name,
        spec.nodes,
        data.adjacency.nnz()
    );
    Ok(())
}
