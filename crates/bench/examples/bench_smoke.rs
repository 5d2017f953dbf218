//! Bench smoke: a quick, CI-friendly engine-throughput measurement that
//! writes a machine-readable `BENCH_engine.json`, seeding the repository's
//! perf trajectory (each PR's CI run leaves a comparable record).
//!
//! Runs the fast engine on the Cora adjacency (the `kernels` bench's
//! `fast_engine` workload) for the baseline and Design-D points, both with
//! the steady-state replay cache and with it disabled, and records tasks,
//! wall-clock, and tasks/second. A shard axis (schema 3) additionally
//! records the Design-D point executed across 2/4/8 nnz-balanced column
//! shards (`ShardedEngine`), so the trajectory tracks multi-device
//! throughput alongside the single-device records (which carry
//! `"shards": 1`). A combination-shard axis (schema 4) records the
//! Design-D point on the `X × W` workload (the Cora feature matrix times
//! a dense weight block) across 2/4/8 shards; every record carries both
//! `"shards"` and `"xw_shards"`. Schema 7 adds the raw-kernel axis:
//! two `"workload": "kernel"` records time the scalar vs blocked
//! (`csc_times_dense_blocked`) accumulate kernels on the Pubmed-shaped
//! operand and report a `"gflops"` MAC rate (2 FLOPs per MAC over
//! `csc_times_dense_macs`). Schema 8 stamps a `"policy"` field on every
//! record (`"manual"`: every record hand-specifies its configuration).
//! Schema 10 changes only the timing protocol: every record's `wall_s` is
//! its median seconds per call over 31 blocks of ≥ 50 ms of repeated
//! calls, timed in rounds that visit every record (`measure`), not the
//! best of three single calls.
//! Every record carries `"workload"` (`"spmm"` for the engine records)
//! and the compare gate matches on (workload, design, replay, shards,
//! xw_shards); every matched record gates (`"kernel"` records normalize
//! by their own run's scalar rate, so the gated quantity is the
//! blocked/scalar speedup ratio). End-to-end serving, streaming and
//! Auto-strategy measurements live in `perfbench` and
//! `tests/auto_strategy.rs`, not here.
//!
//! Usage:
//!   cargo run --release -p awb_bench --example bench_smoke [-- --out PATH]
//!   cargo run --release -p awb_bench --example bench_smoke -- --check PATH
//!   cargo run --release -p awb_bench --example bench_smoke -- --compare FRESH BASELINE
//!
//! `--check` re-reads a previously written file and fails (non-zero exit)
//! if it is malformed: not syntactically valid JSON, or missing the
//! required record fields. `--compare` diffs a freshly written record
//! against the committed baseline, failing on a > 20% throughput
//! regression in any matched (design, replay) record and warning (only)
//! on replay hit-rate drift. CI runs write-then-check-then-compare.

use awb_accel::{exec, AccelConfig, Design, FastEngine, ShardPolicy, ShardedEngine, SpmmEngine};
use awb_bench::BENCH_SEED;
use awb_datasets::{DatasetSpec, GeneratedDataset};
use awb_sparse::{spmm, Csc, DenseMatrix};
use std::time::Instant;

const DEFAULT_PATH: &str = "BENCH_engine.json";

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match args.first().map(String::as_str) {
        Some("--check") => {
            let path = args.get(1).map(String::as_str).unwrap_or(DEFAULT_PATH);
            check(path);
        }
        Some("--compare") => {
            let fresh = args.get(1).map(String::as_str).unwrap_or(DEFAULT_PATH);
            let baseline = args.get(2).map(String::as_str).unwrap_or(DEFAULT_PATH);
            compare(fresh, baseline);
        }
        Some("--out") => {
            let path = args.get(1).map(String::as_str).unwrap_or(DEFAULT_PATH);
            write_bench(path);
        }
        None => write_bench(DEFAULT_PATH),
        Some(other) => {
            eprintln!("unknown argument {other}; use --out PATH or --check PATH");
            std::process::exit(2);
        }
    }
}

/// Engines the smoke protocol can measure: any [`SpmmEngine`] exposing
/// its replay counters.
trait SmokeEngine: SpmmEngine {
    fn counters(&self) -> (u64, u64);
}

impl SmokeEngine for FastEngine {
    fn counters(&self) -> (u64, u64) {
        (self.replay_hits(), self.replay_misses())
    }
}

impl SmokeEngine for ShardedEngine {
    fn counters(&self) -> (u64, u64) {
        (self.replay_hits(), self.replay_misses())
    }
}

/// One record under measurement: `call` times one call and returns its
/// seconds (set-up outside its clock, such as a fresh engine, is free);
/// `emit` writes the record for a seconds-per-call figure.
struct Probe<'a> {
    call: Box<dyn FnMut() -> f64 + 'a>,
    emit: Box<dyn Fn(f64) -> String + 'a>,
}

/// Timed wall each block of repeated calls reaches, and rounds of blocks.
const BLOCK_S: f64 = 0.05;
const ROUNDS: usize = 31;

/// The protocol every record shares: one untimed warm-up call each, then
/// [`ROUNDS`] rounds that time one block per record in turn, each block
/// repeating `call` until [`BLOCK_S`]; a record's figure is its median
/// block's seconds per call. On a shared host the speed moves by 2×
/// within seconds, so one ms-scale call (even the best of three) failed
/// the compare gate on unchanged code; interleaved rounds expose every
/// record to the same host phases, which the gate's median then cancels.
fn measure(mut probes: Vec<Probe<'_>>) -> Vec<String> {
    for probe in &mut probes {
        (probe.call)();
    }
    let mut blocks = vec![Vec::new(); probes.len()];
    for _ in 0..ROUNDS {
        for (probe, blocks) in probes.iter_mut().zip(&mut blocks) {
            let (mut wall, mut calls) = (0.0, 0.0);
            while wall < BLOCK_S {
                wall += (probe.call)().max(1e-9);
                calls += 1.0;
            }
            blocks.push(wall / calls);
        }
    }
    probes
        .iter()
        .zip(blocks)
        .map(|(p, b)| (p.emit)(median(b)))
        .collect()
}

/// An engine record's probe: fresh-engine runs of `a × b`. One untimed
/// run fixes the tasks and replay counters, which every run repeats. The
/// record template (schema 5) carries both shard axes and the workload
/// discriminator; schema 8 stamps the strategy policy (these records all
/// hand-specify their configuration).
fn engine_probe<'a, E: SmokeEngine + 'a>(
    make: impl Fn() -> E + 'a,
    (a, b): (&'a Csc, &'a DenseMatrix),
    (design, replay, shards, xw_shards): (Design, bool, usize, usize),
) -> Probe<'a> {
    let mut engine = make();
    let tasks = engine.run(a, b, "count").unwrap().stats.total_tasks();
    let (hits, misses) = engine.counters();
    Probe {
        call: Box::new(move || {
            let mut engine = make();
            let start = Instant::now();
            engine.run(a, b, "smoke").unwrap();
            start.elapsed().as_secs_f64()
        }),
        emit: Box::new(move |wall_s| {
            format!(
                "    {{\"dataset\": \"cora\", \"design\": \"{}\", \"replay\": {replay}, \
                 \"shards\": {shards}, \"xw_shards\": {xw_shards}, \"workload\": \"spmm\", \
                 \"policy\": \"manual\", \"n_pes\": 1024, \"tasks\": {tasks}, \
                 \"wall_s\": {wall_s:.6}, \"tasks_per_s\": {:.1}, \"replay_hits\": {hits}, \
                 \"replay_misses\": {misses}}}",
                design.label(),
                tasks as f64 / wall_s,
            )
        }),
    }
}

/// The raw-kernel probes (schema 7): scalar vs blocked accumulate on the
/// Pubmed-shaped operand `a × b` — the tentpole speedup the trajectory
/// tracks. `tasks` is the MAC count, `"gflops"` the MAC rate at 2 FLOPs
/// per MAC (multiply + accumulate); the `"design"` field names the kernel.
fn kernel_probes<'a>(a: &'a Csc, b: &'a DenseMatrix) -> Vec<Probe<'a>> {
    let macs = spmm::csc_times_dense_macs(a, b).expect("mac count") as u64;
    let probe =
        |kernel: &'static str, run: fn(&Csc, &DenseMatrix) -> awb_sparse::Result<_>| Probe {
            call: Box::new(move || {
                let start = Instant::now();
                std::hint::black_box(run(a, b).expect("kernel"));
                start.elapsed().as_secs_f64()
            }),
            emit: Box::new(move |wall_s| {
                format!(
                    "    {{\"dataset\": \"pubmed\", \"design\": \"{kernel}\", \"replay\": false, \
                     \"shards\": 1, \"xw_shards\": 1, \"workload\": \"kernel\", \
                     \"policy\": \"manual\", \"n_pes\": 1, \
                     \"tasks\": {macs}, \"wall_s\": {wall_s:.6}, \"tasks_per_s\": {:.1}, \
                     \"gflops\": {:.3}}}",
                    macs as f64 / wall_s,
                    2.0 * macs as f64 / wall_s / 1e9,
                )
            }),
        };
    vec![
        probe("scalar", spmm::csc_times_dense),
        probe("blocked", spmm::csc_times_dense_blocked),
    ]
}

fn write_bench(path: &str) {
    let data = GeneratedDataset::generate(&DatasetSpec::cora(), BENCH_SEED).expect("dataset");
    let a = data.adjacency.to_csc();
    let b = DenseMatrix::from_vec(
        a.cols(),
        16,
        (0..a.cols() * 16).map(|i| (i % 7) as f32 + 1.0).collect(),
    )
    .expect("dense B");
    // The X×W operands (Cora's features, a dense weight block) and the
    // Pubmed-shaped kernel operands, for the axes below.
    let x1 = data.features.to_csc();
    let w = DenseMatrix::from_vec(
        x1.cols(),
        16,
        (0..x1.cols() * 16).map(|i| (i % 5) as f32 + 1.0).collect(),
    )
    .expect("dense W");
    let pubmed = GeneratedDataset::generate(&DatasetSpec::pubmed(), BENCH_SEED).expect("dataset");
    let pa = pubmed.adjacency.to_csc();
    let pb = DenseMatrix::from_vec(
        pa.cols(),
        16,
        (0..pa.cols() * 16)
            .map(|i| ((i % 11) as f32) - 5.0)
            .collect(),
    )
    .expect("dense B");

    let mut probes = Vec::new();
    for design in [Design::Baseline, Design::LocalPlusRemote { hop: 2 }] {
        for replay in [true, false] {
            let config = design.apply(AccelConfig::builder().n_pes(1024).build().unwrap());
            let make = move || {
                let mut engine = FastEngine::new(config.clone());
                engine.set_replay_enabled(replay);
                engine
            };
            probes.push(engine_probe(make, (&a, &b), (design, replay, 1, 1)));
        }
    }

    // Shard-scalability axis: the Design-D point across 2/4/8 nnz-balanced
    // column shards, one ShardedEngine device set per record (the 1-shard
    // point is the single-device Design-D record above).
    let design = Design::LocalPlusRemote { hop: 2 };
    for shards in [2usize, 4, 8] {
        let mut builder = AccelConfig::builder();
        builder.n_pes(1024).shards(ShardPolicy::Fixed(shards));
        let config = design.apply(builder.build().expect("valid config"));
        let make = move || ShardedEngine::new(config.clone());
        probes.push(engine_probe(make, (&a, &b), (design, true, shards, 1)));
    }

    // Combination-shard axis (schema 4): the Design-D point on the X×W
    // workload — the Cora feature matrix times a dense weight block —
    // across 2/4/8 nnz-balanced column shards of X. No 1-shard X×W record
    // is written: its key (shards=1, xw_shards=1) already names the A×B
    // single-device records, and unsharded X×W runs the same FastEngine
    // path those records gate — so these records track the *sharded*
    // X×W trajectory, not a speedup ratio within the file.
    for xw_shards in [2usize, 4, 8] {
        let mut builder = AccelConfig::builder();
        builder
            .n_pes(1024)
            .combination_shards(ShardPolicy::Fixed(xw_shards));
        let config = design.apply(builder.build().expect("valid config"));
        let partitioner = config.combination_partitioner();
        let make = move || ShardedEngine::with_partitioner(config.clone(), partitioner);
        probes.push(engine_probe(make, (&x1, &w), (design, true, 1, xw_shards)));
    }

    // Raw-kernel axis (schema 7): scalar vs blocked accumulate MAC rates
    // on the Pubmed-shaped operand.
    probes.extend(kernel_probes(&pa, &pb));
    let records = measure(probes);

    let json = format!(
        "{{\n  \"schema\": 10,\n  \"bench\": \"engine_throughput\",\n  \"quick\": true,\n  \
         \"threads\": {},\n  \"records\": [\n{}\n  ]\n}}\n",
        exec::num_threads(),
        records.join(",\n")
    );
    std::fs::write(path, &json).expect("write BENCH_engine.json");
    println!("wrote {path}:\n{json}");
}

fn check(path: &str) {
    let text = match std::fs::read_to_string(path) {
        Ok(t) => t,
        Err(e) => {
            eprintln!("BENCH check failed: cannot read {path}: {e}");
            std::process::exit(1);
        }
    };
    if let Err(e) = validate_json(&text) {
        eprintln!("BENCH check failed: {path} is not valid JSON: {e}");
        std::process::exit(1);
    }
    for field in [
        "\"bench\"",
        "\"records\"",
        "\"dataset\"",
        "\"design\"",
        "\"shards\"",
        "\"xw_shards\"",
        "\"workload\"",
        "\"tasks\"",
        "\"wall_s\"",
        "\"tasks_per_s\"",
        "\"gflops\"",
        "\"policy\"",
    ] {
        if !text.contains(field) {
            eprintln!("BENCH check failed: {path} lacks required field {field}");
            std::process::exit(1);
        }
    }
    println!("{path}: ok");
}

/// One parsed bench record (the fields `--compare` consumes).
#[derive(Debug, Clone, PartialEq)]
struct Record {
    design: String,
    replay: bool,
    /// Aggregation-side column-shard devices (1 for records predating
    /// schema 3).
    shards: u64,
    /// Combination-side (X×W) column-shard devices (1 for records
    /// predating schema 4).
    xw_shards: u64,
    /// `"spmm"` for the engine records, `"kernel"` for the raw-kernel
    /// records (`"spmm"` for records predating the field).
    workload: String,
    tasks_per_s: f64,
    /// Hit rate `hits / (hits + misses)`, None when the record predates
    /// schema 2 or no steady-state round consulted the cache.
    hit_rate: Option<f64>,
}

impl Record {
    /// The compare gate's match key, as the messages name a record.
    fn key(&self) -> String {
        format!(
            "({}, {}, replay={}, shards={}, xw_shards={})",
            self.workload, self.design, self.replay, self.shards, self.xw_shards
        )
    }
}

/// Extracts the records of a bench file (one JSON object per line, as
/// written by `write_bench`; field extraction is textual — no JSON crate
/// is available offline, and `--check` already validated syntax).
fn parse_records(text: &str, path: &str) -> Vec<Record> {
    let mut records = Vec::new();
    for line in text.lines().filter(|l| l.contains("\"dataset\"")) {
        let field = |key: &str| -> Option<&str> {
            let tag = format!("\"{key}\":");
            let rest = &line[line.find(&tag)? + tag.len()..];
            let rest = rest.trim_start();
            let end = rest.find([',', '}']).unwrap_or(rest.len());
            Some(rest[..end].trim().trim_matches('"'))
        };
        let (Some(design), Some(replay), Some(tps)) =
            (field("design"), field("replay"), field("tasks_per_s"))
        else {
            eprintln!("BENCH compare: skipping unparsable record in {path}: {line}");
            continue;
        };
        let hit_rate = match (
            field("replay_hits").and_then(|v| v.parse::<f64>().ok()),
            field("replay_misses").and_then(|v| v.parse::<f64>().ok()),
        ) {
            (Some(h), Some(m)) if h + m > 0.0 => Some(h / (h + m)),
            _ => None,
        };
        let shards = field("shards")
            .and_then(|v| v.parse::<u64>().ok())
            .unwrap_or(1);
        let xw_shards = field("xw_shards")
            .and_then(|v| v.parse::<u64>().ok())
            .unwrap_or(1);
        records.push(Record {
            design: design.to_string(),
            replay: replay == "true",
            shards,
            xw_shards,
            workload: field("workload").unwrap_or("spmm").to_string(),
            tasks_per_s: tps.parse().unwrap_or(0.0),
            hit_rate,
        });
    }
    records
}

/// Relative throughput drop that fails the comparison.
const REGRESSION_THRESHOLD: f64 = 0.20;
/// Absolute hit-rate drift that triggers the (warn-only) notice.
const HIT_RATE_DRIFT: f64 = 0.01;

/// Median of `ratios` (mean of the middle two for an even count); 1.0
/// when there are none.
fn median(mut ratios: Vec<f64>) -> f64 {
    if ratios.is_empty() {
        return 1.0;
    }
    ratios.sort_by(f64::total_cmp);
    let mid = ratios.len() / 2;
    if ratios.len() % 2 == 1 {
        ratios[mid]
    } else {
        (ratios[mid - 1] + ratios[mid]) / 2.0
    }
}

/// Diffs `fresh` against `baseline`: exits non-zero when any matched
/// (workload, design, replay, shards, xw_shards) record lost more than 20%
/// *normalized* throughput.
///
/// Each matched record's fresh/baseline throughput ratio is divided by
/// the machine-speed factor before gating, so a uniformly faster/slower
/// machine (the committed baseline comes from a different host than the
/// CI runner) cancels out and the gate measures the code's relative
/// performance profile, not the hardware. For the engine (`"spmm"`)
/// records the factor is the *median* of their fresh/baseline ratios: a
/// change that legitimately speeds up or slows down a minority of records
/// cannot move it, so it neither flags the untouched records nor hides a
/// slowed one. Raw-kernel records live on a different scale and divide
/// by their own run's scalar-kernel ratio instead (kernel wall-clock does
/// not covary with the engine records', so the gated quantity is the
/// blocked/scalar speedup; files predating schema 7 fall back to the
/// engine factor). The blind spot — a slowdown shared by most records —
/// is indistinguishable from a slower machine by construction; absolute
/// drops are still printed and warned about. Hit-rate drift also only
/// warns (wall-clock is noisy, hit counts are not — a drift means caching
/// behaviour itself changed).
fn compare(fresh_path: &str, baseline_path: &str) {
    let read = |path: &str| -> String {
        std::fs::read_to_string(path).unwrap_or_else(|e| {
            eprintln!("BENCH compare failed: cannot read {path}: {e}");
            std::process::exit(1);
        })
    };
    let fresh = parse_records(&read(fresh_path), fresh_path);
    let baseline = parse_records(&read(baseline_path), baseline_path);
    if fresh.is_empty() || baseline.is_empty() {
        eprintln!("BENCH compare failed: no records ({fresh_path} / {baseline_path})");
        std::process::exit(1);
    }
    let mut pairs: Vec<(&Record, &Record)> = Vec::new();
    for base in &baseline {
        let Some(now) = fresh.iter().find(|r| r.key() == base.key()) else {
            eprintln!(
                "BENCH compare: baseline record {} missing from fresh run (warn)",
                base.key()
            );
            continue;
        };
        pairs.push((base, now));
    }
    if pairs.is_empty() {
        eprintln!("BENCH compare failed: no matching records between the two files");
        std::process::exit(1);
    }
    let ratio = |(base, now): &(&Record, &Record)| now.tasks_per_s / base.tasks_per_s.max(1e-9);
    let engine: Vec<f64> = pairs
        .iter()
        .filter(|(base, _)| base.workload == "spmm")
        .map(ratio)
        .collect();
    let engine_records = engine.len();
    let engine_speed = median(engine);
    let kernel_speed = pairs
        .iter()
        .find(|(base, _)| base.workload == "kernel" && base.design == "scalar")
        .map(ratio)
        .unwrap_or(engine_speed);
    println!(
        "machine-speed factor (fresh/baseline): engine {engine_speed:.3} \
         (median over {engine_records} records), kernel {kernel_speed:.3} (scalar record)"
    );
    let mut regressions = 0usize;
    for pair @ (base, now) in &pairs {
        let abs_ratio = ratio(pair);
        let speed = if base.workload == "kernel" {
            kernel_speed
        } else {
            engine_speed
        };
        let norm_ratio = abs_ratio / speed;
        let verdict = if norm_ratio < 1.0 - REGRESSION_THRESHOLD {
            regressions += 1;
            "REGRESSION"
        } else {
            "ok"
        };
        println!(
            "{:<10} {:<5} replay={:<5} shards={} xw={} {:>14.1} -> {:>14.1} tasks/s \
             (abs {:+.1}%, normalized {:+.1}%) {verdict}",
            base.design,
            base.workload,
            base.replay,
            base.shards,
            base.xw_shards,
            base.tasks_per_s,
            now.tasks_per_s,
            (abs_ratio - 1.0) * 100.0,
            (norm_ratio - 1.0) * 100.0
        );
        if abs_ratio < 1.0 - REGRESSION_THRESHOLD && verdict == "ok" {
            eprintln!(
                "BENCH compare warning: {} absolute throughput dropped {:.1}% \
                 (machine-speed difference or uniform slowdown; normalized gate passed)",
                base.key(),
                (1.0 - abs_ratio) * 100.0
            );
        }
        if let (Some(b), Some(n)) = (base.hit_rate, now.hit_rate) {
            if (b - n).abs() > HIT_RATE_DRIFT {
                eprintln!(
                    "BENCH compare warning: {} hit rate drifted {:.3} -> {:.3}",
                    base.key(),
                    b,
                    n
                );
            }
        }
    }
    if regressions > 0 {
        eprintln!(
            "BENCH compare failed: {regressions} record(s) regressed by more than {:.0}% \
             after machine-speed normalization",
            REGRESSION_THRESHOLD * 100.0
        );
        std::process::exit(1);
    }
    println!(
        "{fresh_path} vs {baseline_path}: {} records compared, no regression",
        pairs.len()
    );
}

/// Minimal JSON syntax validator (objects, arrays, strings, numbers,
/// booleans, null). No external crates are available in this build
/// environment, and the smoke file only needs a malformed/not-malformed
/// verdict plus the field checks above.
fn validate_json(text: &str) -> Result<(), String> {
    let bytes = text.as_bytes();
    let mut pos = 0usize;
    skip_ws(bytes, &mut pos);
    parse_value(bytes, &mut pos)?;
    skip_ws(bytes, &mut pos);
    if pos != bytes.len() {
        return Err(format!("trailing garbage at byte {pos}"));
    }
    Ok(())
}

fn skip_ws(b: &[u8], pos: &mut usize) {
    while *pos < b.len() && matches!(b[*pos], b' ' | b'\t' | b'\n' | b'\r') {
        *pos += 1;
    }
}

fn parse_value(b: &[u8], pos: &mut usize) -> Result<(), String> {
    skip_ws(b, pos);
    match b.get(*pos) {
        Some(b'{') => parse_object(b, pos),
        Some(b'[') => parse_array(b, pos),
        Some(b'"') => parse_string(b, pos),
        Some(b't') => parse_literal(b, pos, "true"),
        Some(b'f') => parse_literal(b, pos, "false"),
        Some(b'n') => parse_literal(b, pos, "null"),
        Some(c) if c.is_ascii_digit() || *c == b'-' => parse_number(b, pos),
        Some(c) => Err(format!("unexpected byte {:?} at {pos:?}", *c as char)),
        None => Err("unexpected end of input".into()),
    }
}

fn parse_object(b: &[u8], pos: &mut usize) -> Result<(), String> {
    *pos += 1; // '{'
    skip_ws(b, pos);
    if b.get(*pos) == Some(&b'}') {
        *pos += 1;
        return Ok(());
    }
    loop {
        skip_ws(b, pos);
        parse_string(b, pos)?;
        skip_ws(b, pos);
        if b.get(*pos) != Some(&b':') {
            return Err(format!("expected ':' at byte {pos:?}"));
        }
        *pos += 1;
        parse_value(b, pos)?;
        skip_ws(b, pos);
        match b.get(*pos) {
            Some(b',') => *pos += 1,
            Some(b'}') => {
                *pos += 1;
                return Ok(());
            }
            _ => return Err(format!("expected ',' or '}}' at byte {pos:?}")),
        }
    }
}

fn parse_array(b: &[u8], pos: &mut usize) -> Result<(), String> {
    *pos += 1; // '['
    skip_ws(b, pos);
    if b.get(*pos) == Some(&b']') {
        *pos += 1;
        return Ok(());
    }
    loop {
        parse_value(b, pos)?;
        skip_ws(b, pos);
        match b.get(*pos) {
            Some(b',') => *pos += 1,
            Some(b']') => {
                *pos += 1;
                return Ok(());
            }
            _ => return Err(format!("expected ',' or ']' at byte {pos:?}")),
        }
    }
}

fn parse_string(b: &[u8], pos: &mut usize) -> Result<(), String> {
    if b.get(*pos) != Some(&b'"') {
        return Err(format!("expected string at byte {pos:?}"));
    }
    *pos += 1;
    while let Some(&c) = b.get(*pos) {
        match c {
            b'"' => {
                *pos += 1;
                return Ok(());
            }
            b'\\' => *pos += 2,
            _ => *pos += 1,
        }
    }
    Err("unterminated string".into())
}

fn parse_number(b: &[u8], pos: &mut usize) -> Result<(), String> {
    let start = *pos;
    if b.get(*pos) == Some(&b'-') {
        *pos += 1;
    }
    while *pos < b.len()
        && (b[*pos].is_ascii_digit() || matches!(b[*pos], b'.' | b'e' | b'E' | b'+' | b'-'))
    {
        *pos += 1;
    }
    let token = std::str::from_utf8(&b[start..*pos]).map_err(|e| e.to_string())?;
    token
        .parse::<f64>()
        .map(|_| ())
        .map_err(|_| format!("bad number {token:?} at byte {start}"))
}

fn parse_literal(b: &[u8], pos: &mut usize, lit: &str) -> Result<(), String> {
    if b[*pos..].starts_with(lit.as_bytes()) {
        *pos += lit.len();
        Ok(())
    } else {
        Err(format!("bad literal at byte {pos:?}"))
    }
}
