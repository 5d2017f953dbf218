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

/// One measured point (the fields every record serializes).
struct Measured {
    tasks: u64,
    wall_s: f64,
    hits: u64,
    misses: u64,
}

/// The measurement protocol shared by every record: warm once (dataset
/// faults, allocator), then keep the best of three timed fresh-engine
/// runs — a single ms-scale sample is noisy enough (scheduler
/// contention) to destabilize the CI compare gate; best-of is robust to
/// slow outliers.
fn best_of_three<E: SmokeEngine>(make: impl Fn() -> E, a: &Csc, b: &DenseMatrix) -> Measured {
    make().run(a, b, "warmup").unwrap();
    let mut m = Measured {
        tasks: 0,
        wall_s: f64::MAX,
        hits: 0,
        misses: 0,
    };
    for _ in 0..3 {
        let mut engine = make();
        let start = Instant::now();
        let out = engine.run(a, b, "smoke").unwrap();
        m.wall_s = m.wall_s.min(start.elapsed().as_secs_f64().max(1e-9));
        m.tasks = out.stats.total_tasks();
        (m.hits, m.misses) = engine.counters();
    }
    m
}

/// The engine record template (schema 5): both shard axes plus the
/// workload discriminator in every record; schema 8 stamps the strategy
/// policy (these records all hand-specify their configuration).
fn record(design: Design, replay: bool, shards: usize, xw_shards: usize, m: &Measured) -> String {
    format!(
        "    {{\"dataset\": \"cora\", \"design\": \"{}\", \"replay\": {replay}, \
         \"shards\": {shards}, \"xw_shards\": {xw_shards}, \"workload\": \"spmm\", \
         \"policy\": \"manual\", \"n_pes\": 1024, \"tasks\": {}, \
         \"wall_s\": {:.6}, \"tasks_per_s\": {:.1}, \"replay_hits\": {}, \"replay_misses\": {}}}",
        design.label(),
        m.tasks,
        m.wall_s,
        m.tasks as f64 / m.wall_s,
        m.hits,
        m.misses
    )
}

/// The raw-kernel records (schema 7): scalar vs blocked accumulate on the
/// Pubmed-shaped operand — the tentpole speedup the trajectory tracks.
/// `tasks` is the MAC count, `"gflops"` the MAC rate at 2 FLOPs per MAC
/// (multiply + accumulate); the `"design"` field names the kernel.
fn kernel_records() -> Vec<String> {
    let data = GeneratedDataset::generate(&DatasetSpec::pubmed(), BENCH_SEED).expect("dataset");
    let a = data.adjacency.to_csc();
    let b = DenseMatrix::from_vec(
        a.cols(),
        16,
        (0..a.cols() * 16)
            .map(|i| ((i % 11) as f32) - 5.0)
            .collect(),
    )
    .expect("dense B");
    let macs = spmm::csc_times_dense_macs(&a, &b).expect("mac count") as u64;
    let time3 = |kernel: &dyn Fn() -> DenseMatrix| -> f64 {
        std::hint::black_box(kernel());
        let mut best = f64::MAX;
        for _ in 0..5 {
            let start = Instant::now();
            let out = kernel();
            best = best.min(start.elapsed().as_secs_f64().max(1e-9));
            std::hint::black_box(&out);
        }
        best
    };
    let emit = |kernel: &str, wall_s: f64| -> String {
        format!(
            "    {{\"dataset\": \"pubmed\", \"design\": \"{kernel}\", \"replay\": false, \
             \"shards\": 1, \"xw_shards\": 1, \"workload\": \"kernel\", \
             \"policy\": \"manual\", \"n_pes\": 1, \
             \"tasks\": {macs}, \"wall_s\": {wall_s:.6}, \"tasks_per_s\": {:.1}, \
             \"gflops\": {:.3}}}",
            macs as f64 / wall_s,
            2.0 * macs as f64 / wall_s / 1e9,
        )
    };
    vec![
        emit(
            "scalar",
            time3(&|| spmm::csc_times_dense(&a, &b).expect("scalar kernel")),
        ),
        emit(
            "blocked",
            time3(&|| spmm::csc_times_dense_blocked(&a, &b).expect("blocked kernel")),
        ),
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

    let mut records: Vec<String> = Vec::new();
    for design in [Design::Baseline, Design::LocalPlusRemote { hop: 2 }] {
        for replay in [true, false] {
            let config = design.apply(AccelConfig::builder().n_pes(1024).build().unwrap());
            let m = best_of_three(
                || {
                    let mut engine = FastEngine::new(config.clone());
                    engine.set_replay_enabled(replay);
                    engine
                },
                &a,
                &b,
            );
            records.push(record(design, replay, 1, 1, &m));
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
        let m = best_of_three(|| ShardedEngine::new(config.clone()), &a, &b);
        records.push(record(design, true, shards, 1, &m));
    }

    // Combination-shard axis (schema 4): the Design-D point on the X×W
    // workload — the Cora feature matrix times a dense weight block —
    // across 2/4/8 nnz-balanced column shards of X. No 1-shard X×W record
    // is written: its key (shards=1, xw_shards=1) already names the A×B
    // single-device records, and unsharded X×W runs the same FastEngine
    // path those records gate — so these records track the *sharded*
    // X×W trajectory, not a speedup ratio within the file.
    let x1 = data.features.to_csc();
    let w = DenseMatrix::from_vec(
        x1.cols(),
        16,
        (0..x1.cols() * 16).map(|i| (i % 5) as f32 + 1.0).collect(),
    )
    .expect("dense W");
    for xw_shards in [2usize, 4, 8] {
        let mut builder = AccelConfig::builder();
        builder
            .n_pes(1024)
            .combination_shards(ShardPolicy::Fixed(xw_shards));
        let config = design.apply(builder.build().expect("valid config"));
        let partitioner = config.combination_partitioner();
        let m = best_of_three(
            || ShardedEngine::with_partitioner(config.clone(), partitioner),
            &x1,
            &w,
        );
        records.push(record(design, true, 1, xw_shards, &m));
    }

    // Raw-kernel axis (schema 7): scalar vs blocked accumulate MAC rates
    // on the Pubmed-shaped operand.
    records.extend(kernel_records());

    let json = format!(
        "{{\n  \"schema\": 9,\n  \"bench\": \"engine_throughput\",\n  \"quick\": true,\n  \
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

/// Geometric mean of the *engine* (`"spmm"`) records' throughputs — the
/// run's "machine speed" scalar used to normalize before gating.
/// Raw-kernel records are excluded: their MAC rates live on a different
/// scale than engine tasks/second and would skew the normalizer.
fn geomean_tps(records: &[Record]) -> f64 {
    let spmm: Vec<f64> = records
        .iter()
        .filter(|r| r.workload == "spmm")
        .map(|r| r.tasks_per_s.max(1e-9).ln())
        .collect();
    if spmm.is_empty() {
        return 1.0;
    }
    (spmm.iter().sum::<f64>() / spmm.len() as f64).exp()
}

/// The run's scalar-kernel MAC rate — the normalizer for the raw-kernel
/// records. Kernel wall-clock does not covary with the engine records'
/// (they time different code at a different moment of the process), so
/// normalizing the blocked record by its *own run's* scalar record
/// cancels machine speed exactly: the gated quantity is the blocked/scalar
/// speedup ratio, the invariant the records exist to protect. Falls back
/// to the spmm geomean for files predating schema 7.
fn kernel_norm(records: &[Record], fallback: f64) -> f64 {
    records
        .iter()
        .find(|r| r.workload == "kernel" && r.design == "scalar")
        .map(|r| r.tasks_per_s.max(1e-9))
        .unwrap_or(fallback)
}

/// Diffs `fresh` against `baseline`: exits non-zero when any matched
/// (design, replay, shards, xw_shards) record lost more than 20%
/// *normalized* throughput.
///
/// Each record's tasks/s is divided by its own run's geometric-mean
/// tasks/s before comparing, so a uniformly faster/slower machine (the
/// committed baseline comes from a different host than the CI runner)
/// cancels out and the gate measures the code's relative performance
/// profile, not the hardware. The blind spot — a perfectly uniform
/// slowdown across every record — is indistinguishable from a slower
/// machine by construction; absolute drops are still printed and warned
/// about. Hit-rate drift also only warns (wall-clock is noisy, hit
/// counts are not — a drift means caching behaviour itself changed).
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
    let fresh_mean = geomean_tps(&fresh);
    let base_mean = geomean_tps(&baseline);
    let fresh_kernel = kernel_norm(&fresh, fresh_mean);
    let base_kernel = kernel_norm(&baseline, base_mean);
    println!(
        "machine-speed normalizer (geomean tasks/s): baseline {base_mean:.1}, fresh {fresh_mean:.1}"
    );
    let mut regressions = 0usize;
    let mut matched = 0usize;
    for base in &baseline {
        let Some(now) = fresh.iter().find(|r| {
            r.design == base.design
                && r.replay == base.replay
                && r.shards == base.shards
                && r.xw_shards == base.xw_shards
                && r.workload == base.workload
        }) else {
            eprintln!(
                "BENCH compare: baseline record ({}, replay={}, shards={}, xw_shards={}, \
                 workload={}) missing from fresh run (warn)",
                base.design, base.replay, base.shards, base.xw_shards, base.workload
            );
            continue;
        };
        matched += 1;
        let abs_ratio = now.tasks_per_s / base.tasks_per_s.max(1e-9);
        let (now_norm, base_norm) = if base.workload == "kernel" {
            (fresh_kernel, base_kernel)
        } else {
            (fresh_mean, base_mean)
        };
        let norm_ratio = (now.tasks_per_s / now_norm) / (base.tasks_per_s / base_norm).max(1e-9);
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
                "BENCH compare warning: ({}, replay={}) absolute throughput dropped {:.1}% \
                 (machine-speed difference or uniform slowdown; normalized gate passed)",
                base.design,
                base.replay,
                (1.0 - abs_ratio) * 100.0
            );
        }
        if let (Some(b), Some(n)) = (base.hit_rate, now.hit_rate) {
            if (b - n).abs() > HIT_RATE_DRIFT {
                eprintln!(
                    "BENCH compare warning: ({}, replay={}) hit rate drifted {:.3} -> {:.3}",
                    base.design, base.replay, b, n
                );
            }
        }
    }
    if matched == 0 {
        eprintln!("BENCH compare failed: no matching records between the two files");
        std::process::exit(1);
    }
    if regressions > 0 {
        eprintln!(
            "BENCH compare failed: {regressions} record(s) regressed by more than {:.0}% \
             after machine-speed normalization",
            REGRESSION_THRESHOLD * 100.0
        );
        std::process::exit(1);
    }
    println!("{fresh_path} vs {baseline_path}: {matched} records compared, no regression");
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
