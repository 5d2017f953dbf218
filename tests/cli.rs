//! End-to-end tests of the `awb-sim` command-line binary.

use std::process::Command;

fn awb_sim(args: &[&str]) -> std::process::Output {
    Command::new(env!("CARGO_BIN_EXE_awb_sim"))
        .args(args)
        .output()
        .expect("binary runs")
}

#[test]
fn help_prints_usage() {
    let out = awb_sim(&["--help"]);
    assert!(out.status.success());
    let text = String::from_utf8_lossy(&out.stdout);
    assert!(text.contains("awb-sim profile"));
    assert!(text.contains("awb-sim run"));
}

#[test]
fn missing_command_fails_with_usage() {
    let out = awb_sim(&[]);
    assert!(!out.status.success());
    assert_eq!(out.status.code(), Some(2));
    let err = String::from_utf8_lossy(&out.stderr);
    assert!(err.contains("usage:"));
}

#[test]
fn profile_reports_statistics() {
    let out = awb_sim(&["profile", "cora", "--scale", "0.1", "--seed", "3"]);
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let text = String::from_utf8_lossy(&out.stdout);
    assert!(text.contains("dataset   : Cora"));
    assert!(text.contains("row nnz"));
    assert!(text.contains("imbalance"));
}

#[test]
fn run_reports_cycles_and_utilization() {
    let out = awb_sim(&[
        "run", "citeseer", "--scale", "0.05", "--pes", "16", "--design", "ls1+rs", "--seed", "7",
    ]);
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let text = String::from_utf8_lossy(&out.stdout);
    assert!(text.contains("design LS1+RS on 16 PEs"));
    assert!(text.contains("L1:X*W"));
    assert!(text.contains("L2:A*(XW)"));
}

#[test]
fn run_csv_emits_machine_readable_rows() {
    let out = awb_sim(&["run", "cora", "--scale", "0.05", "--pes", "8", "--csv"]);
    assert!(out.status.success());
    let text = String::from_utf8_lossy(&out.stdout);
    let mut lines = text.lines();
    assert!(lines
        .next()
        .unwrap()
        .starts_with("spmm,rounds,tasks,cycles"));
    assert_eq!(lines.count(), 4); // four SPMMs
}

#[test]
fn compare_lists_five_designs() {
    let out = awb_sim(&["compare", "pubmed", "--scale", "0.02", "--pes", "16"]);
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let text = String::from_utf8_lossy(&out.stdout);
    for label in ["Base", "LS1", "LS2", "LS1+RS", "LS2+RS"] {
        assert!(text.contains(label), "missing {label} in:\n{text}");
    }
}

/// Golden-output regression test: the exact `profile` summary for a fixed
/// (dataset, scale, seed) triple. Dataset generation is seeded, so the
/// output is deterministic for a given platform libm (generation draws
/// power-law degrees through `powf`/`ln`, whose last-ulp results can vary
/// across libc implementations — CI pins ubuntu/glibc, where this golden
/// was captured). A diff here means generation, profiling statistics, or
/// the report format changed — all of which callers parse. Uses a
/// different triple than `profile_reports_statistics` to widen coverage.
#[test]
#[cfg_attr(
    not(all(target_os = "linux", target_env = "gnu")),
    ignore = "golden output captured on linux/glibc; other libms may differ in the last ulp"
)]
fn profile_golden_output() {
    let out = awb_sim(&["profile", "citeseer", "--scale", "0.2", "--seed", "11"]);
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let expected = "\
dataset   : Citeseer (scale 0.200, seed 11)
nodes     : 665
features  : 3703 -> 16 -> 6
A         : 2410 nnz, density 0.5450% (target 0.5503%)
X1        : 21142 nnz, density 0.859%
row nnz   : min 0 max 28 mean 3.6 CV 0.92 Gini 0.43 imbalance 8x
";
    let text = String::from_utf8_lossy(&out.stdout);
    assert_eq!(
        text, expected,
        "golden `profile` output drifted:\n--- got ---\n{text}\n--- want ---\n{expected}"
    );
}

/// Golden-structure test of the `serve` subcommand: the deterministic
/// parts (prepare line, per-request lines, aggregate, cold-comparison
/// verdict) must all appear; wall-clock numbers are not pinned.
#[test]
fn serve_prepares_once_and_verifies_against_cold_runs() {
    let out = awb_sim(&[
        "serve",
        "cora",
        "--scale",
        "0.1",
        "--pes",
        "16",
        "--requests",
        "4",
        "--batch",
        "2",
        "--seed",
        "5",
        "--compare-cold",
    ]);
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let text = String::from_utf8_lossy(&out.stdout);
    assert!(
        text.contains("prepared Cora"),
        "missing prepare line:\n{text}"
    );
    assert!(text.contains("tuning rounds"));
    assert!(text.contains("served 4 requests in 2 batch(es)"));
    for i in 0..4 {
        assert!(
            text.contains(&format!("request   {i}:")),
            "missing request {i}:\n{text}"
        );
    }
    assert!(text.contains("aggregate: mean"));
    assert!(text.contains("replay"));
    // The CLI itself verifies batch outputs against independent cold runs.
    assert!(
        text.contains("outputs bit-identical"),
        "cold comparison failed:\n{text}"
    );
}

#[test]
fn serve_threads_and_replay_flags_accepted() {
    let args = [
        "serve",
        "cora",
        "--scale",
        "0.05",
        "--pes",
        "8",
        "--requests",
        "2",
        "--threads",
        "2",
        "--seed",
        "3",
    ];
    let out = awb_sim(&args);
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let text = String::from_utf8_lossy(&out.stdout);
    // Replay is not a knob: the on-chip plan's cache is always consulted.
    assert!(text.contains(" hits / "), "{text}");
    assert!(!text.contains("replay 0 hits / 0 misses"), "{text}");

    // `--no-replay` is not a flag: replay is not a configuration choice.
    let out = awb_sim(&[&args[..], &["--no-replay"]].concat());
    assert_eq!(out.status.code(), Some(2));
    let err = String::from_utf8_lossy(&out.stderr);
    assert!(err.contains("unknown flag `--no-replay`"), "{err}");
}

/// Golden-structure test of sharded serving: the graph is partitioned
/// into 4 nnz-balanced column shards, each request executes across shard
/// devices, and the CLI's own cold comparison proves the merged outputs
/// are bit-identical to independent (equally sharded) cold runs.
#[test]
fn serve_sharded_verifies_against_cold_runs() {
    let out = awb_sim(&[
        "serve",
        "cora",
        "--scale",
        "0.1",
        "--pes",
        "16",
        "--requests",
        "3",
        "--shards",
        "4",
        "--seed",
        "5",
        "--compare-cold",
    ]);
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let text = String::from_utf8_lossy(&out.stdout);
    assert!(
        text.contains("4 shard(s)"),
        "missing shard count in prepare line:\n{text}"
    );
    assert!(text.contains("served 3 requests"));
    assert!(
        text.contains("outputs bit-identical"),
        "sharded cold comparison failed:\n{text}"
    );
}

/// Golden-structure test of combination-sharded serving: each request's
/// `X × W` executes across 2 shard devices per layer, the prepare line
/// reports both axes, and the CLI's cold comparison proves the merged
/// outputs stay bit-identical.
#[test]
fn serve_xw_sharded_verifies_against_cold_runs() {
    let out = awb_sim(&[
        "serve",
        "cora",
        "--scale",
        "0.1",
        "--pes",
        "16",
        "--requests",
        "3",
        "--shards",
        "2",
        "--xw-shards",
        "2",
        "--seed",
        "5",
        "--compare-cold",
    ]);
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let text = String::from_utf8_lossy(&out.stdout);
    assert!(
        text.contains("2 shard(s), 2 X*W shard(s)"),
        "missing shard counts in prepare line:\n{text}"
    );
    assert!(
        text.contains("outputs bit-identical"),
        "combination-sharded cold comparison failed:\n{text}"
    );
}

#[test]
fn run_xw_shards_reports_x1_sharding() {
    let out = awb_sim(&[
        "run",
        "cora",
        "--scale",
        "0.1",
        "--pes",
        "16",
        "--xw-shards",
        "4",
        "--seed",
        "5",
    ]);
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let text = String::from_utf8_lossy(&out.stdout);
    assert!(
        text.contains("xw-sharding: 4 column shards of X1"),
        "missing combination sharding report:\n{text}"
    );
    assert!(
        !text.contains("sharding  :"),
        "A-side sharding line must not appear unsharded:\n{text}"
    );
}

#[test]
fn run_mem_budget_reports_sharding() {
    let out = awb_sim(&[
        "run",
        "cora",
        "--scale",
        "0.1",
        "--pes",
        "16",
        "--mem-budget",
        "1",
        "--seed",
        "5",
    ]);
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let text = String::from_utf8_lossy(&out.stdout);
    assert!(
        text.contains("sharding  :") && text.contains("mem-budget"),
        "missing sharding report:\n{text}"
    );
}

/// Golden-structure test of `serve --trace`: the multi-tenant replay must
/// report the schedule shape, backpressure drains, queue-wait and execute
/// percentiles, plan-cache counters, and (under `--compare-cold`) the
/// bit-identity verdict against independent cold prepare+run per tenant.
#[test]
fn serve_trace_reports_percentiles_and_cache_counters() {
    let out = awb_sim(&[
        "serve",
        "cora",
        "--scale",
        "0.05",
        "--pes",
        "16",
        "--trace",
        "--queue-depth",
        "4",
        "--seed",
        "5",
        "--compare-cold",
    ]);
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let text = String::from_utf8_lossy(&out.stdout);
    assert!(
        text.contains("trace: 8 tenants (6 ego"),
        "missing trace header:\n{text}"
    );
    assert!(text.contains("16 arrivals"), "{text}");
    assert!(text.contains("queue depth 4"), "{text}");
    // 16 arrivals through a depth-4 queue force backpressure drains.
    assert!(text.contains("on backpressure"), "{text}");
    // Latency percentiles, split queue-wait vs execute.
    assert!(text.contains("queue-wait p50"), "{text}");
    assert!(text.contains("execute p50"), "{text}");
    for p in ["p50", "p95", "p99"] {
        assert!(text.contains(p), "missing {p}:\n{text}");
    }
    // Cache counters: 8 tenants x 2 arrivals = 8 misses then 8 hits,
    // nothing evicted under an unbounded budget.
    assert!(
        text.contains("plan cache: 8 hits / 8 misses / 0 evictions"),
        "{text}"
    );
    assert!(text.contains("(8 plans)"), "{text}");
    assert!(
        text.contains("outputs bit-identical"),
        "trace cold comparison failed:\n{text}"
    );
}

/// `--cache-plans` bounds the resident plan-cache footprint during a
/// trace; the giants plus six ego plans exceed 1 MB at this scale, so
/// evictions must occur and the resident count must shrink below the
/// tenant count.
#[test]
fn serve_trace_cache_budget_evicts() {
    let out = awb_sim(&[
        "serve",
        "cora",
        "--scale",
        "0.8",
        "--pes",
        "16",
        "--trace",
        "--cache-plans",
        "1",
        "--seed",
        "5",
    ]);
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let text = String::from_utf8_lossy(&out.stdout);
    assert!(text.contains("cache budget 1 MB"), "{text}");
    assert!(
        !text.contains("/ 0 evictions"),
        "expected evictions:\n{text}"
    );
}

#[test]
fn export_writes_matrix_market() {
    let dir = std::env::temp_dir().join(format!("awb_sim_test_{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join("cora.mtx");
    let out = awb_sim(&["export", "cora", path.to_str().unwrap(), "--scale", "0.05"]);
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let contents = std::fs::read_to_string(&path).unwrap();
    assert!(contents.starts_with("%%MatrixMarket matrix coordinate real general"));
    // Re-import through the library to close the loop.
    let coo = awb_gcn_repro::sparse::io::read_matrix_market(contents.as_bytes()).unwrap();
    assert!(coo.nnz() > 0);
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn bad_inputs_are_rejected() {
    for args in [
        &["run", "notadataset"][..],
        &["run", "cora", "--design", "warp9"][..],
        &["run", "cora", "--scale", "-1"][..],
        &["frobnicate"][..],
        &["run", "cora", "--pes"][..],
        &["serve", "cora", "--requests", "0"][..],
        &["serve", "cora", "--batch", "0"][..],
        &["serve", "cora", "--threads", "0"][..],
        &["serve", "cora", "--shards", "0"][..],
        &["run", "cora", "--shards", "0"][..],
        &["run", "cora", "--xw-shards", "0"][..],
        &["serve", "cora", "--xw-shards", "0"][..],
        &["run", "cora", "--mem-budget", "0"][..],
        &["run", "cora", "--shards", "2", "--mem-budget", "4"][..],
        &["run", "cora", "--xw-shards", "2", "--mem-budget", "4"][..],
        &["run", "cora", "--shards"][..],
        &["run", "cora", "--xw-shards"][..],
        &["serve", "cora", "--trace", "--queue-depth", "0"][..],
        &["serve", "cora", "--trace", "--cache-plans", "0"][..],
        &["serve", "cora", "--trace", "--requests", "4"][..],
        &["serve", "cora", "--trace", "--batch", "2"][..],
        &["serve", "cora", "--queue-depth", "4"][..],
        &["serve", "cora", "--cache-plans", "64"][..],
        &["serve", "cora", "--trace", "--queue-depth"][..],
        &["serve", "cora", "--trace", "--cache-plans"][..],
        &["serve", "cora", "--trace", "--deadline-ms", "0"][..],
        &["serve", "cora", "--trace", "--retries", "0"][..],
        &["serve", "cora", "--faults", "0"][..],
        &["serve", "cora", "--trace", "--deadline-ms", "-5"][..],
        &["serve", "cora", "--trace", "--retries", "garbage"][..],
        &["serve", "cora", "--faults", "nope"][..],
        &["serve", "cora", "--deadline-ms", "100"][..],
        &["serve", "cora", "--retries", "2"][..],
        &["serve", "cora", "--trace", "--deadline-ms"][..],
        &["serve", "cora", "--trace", "--retries"][..],
        &["serve", "cora", "--faults"][..],
        &["run", "cora", "--deadline-ms", "100"][..],
        &["run", "cora", "--auto", "--design", "base"][..],
        &["run", "cora", "--auto", "--shards", "2"][..],
        &["run", "cora", "--auto", "--xw-shards", "2"][..],
        &["serve", "cora", "--auto", "--design", "ls2+rs"][..],
        &["sweep", "cora", "--auto", "--shards", "2"][..],
    ] {
        let out = awb_sim(args);
        assert!(!out.status.success(), "accepted: {args:?}");
    }
}

/// Golden error path for the `--auto` exclusivity rule: the rejection is
/// the typed `InvalidInput` admission error (mirroring the
/// `--shards`/`--mem-budget` exclusivity), not a generic parse failure.
#[test]
fn auto_conflicts_are_typed_invalid_input() {
    let out = awb_sim(&["run", "cora", "--auto", "--design", "base"]);
    assert!(!out.status.success());
    assert_eq!(out.status.code(), Some(2));
    let err = String::from_utf8_lossy(&out.stderr);
    assert!(
        err.contains("invalid input rejected at admission"),
        "missing typed InvalidInput in:\n{err}"
    );
    assert!(
        err.contains("--auto derives the design and shard counts"),
        "missing explanation in:\n{err}"
    );
}

/// `run --auto` surfaces the cost model's resolved choice before the cycle
/// report, and executes the frozen configuration it names.
#[test]
fn run_auto_reports_resolved_choice() {
    let out = awb_sim(&["run", "cora", "--auto", "--scale", "0.2", "--pes", "32"]);
    assert!(
        out.status.success(),
        "stderr: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    let text = String::from_utf8_lossy(&out.stdout);
    assert!(text.contains("auto      : chose "), "{text}");
    assert!(text.contains("candidates scored"), "{text}");
    assert!(text.contains(" | A ") && text.contains(" | X "), "{text}");
    assert!(!text.contains("| replay "), "{text}");
    assert!(
        text.contains("design ") && text.contains(" on 32 PEs"),
        "{text}"
    );
}

/// `serve --auto` carries the decision through the `PrepareReport`:
/// predicted cycles next to the measured warm-up.
#[test]
fn serve_auto_reports_predicted_vs_measured() {
    let out = awb_sim(&[
        "serve",
        "cora",
        "--auto",
        "--scale",
        "0.2",
        "--pes",
        "32",
        "--requests",
        "2",
        "--compare-cold",
    ]);
    assert!(
        out.status.success(),
        "stderr: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    let text = String::from_utf8_lossy(&out.stdout);
    assert!(text.contains("design auto"), "{text}");
    assert!(text.contains("auto      : chose "), "{text}");
    assert!(
        text.contains("predicted ") && text.contains("measured warm-up"),
        "{text}"
    );
    assert!(text.contains("outputs bit-identical"), "{text}");
}

/// `sweep` prints the per-point CSV (with the cost model prediction
/// column) and, under `--auto`, the pick-vs-post-hoc-best ratio line.
#[test]
fn sweep_auto_reports_ratio_against_best_point() {
    let out = awb_sim(&["sweep", "cora", "--auto", "--scale", "0.2", "--pes", "32"]);
    assert!(
        out.status.success(),
        "stderr: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    let text = String::from_utf8_lossy(&out.stdout);
    assert!(
        text.contains("design,n_pes,cycles,") && text.contains("predicted_cycles"),
        "{text}"
    );
    for label in ["Base", "LS1", "LS2", "LS1+RS", "LS2+RS"] {
        assert!(
            text.contains(&format!("{label},32,")),
            "missing {label} in:\n{text}"
        );
    }
    assert!(text.contains("auto: chose "), "{text}");
    assert!(
        text.contains("vs post-hoc best") && text.contains("ratio "),
        "{text}"
    );
}

/// Golden-structure test of fault-injected serving: under a fixed fault
/// seed the batch reports typed FAULTED lines and the survival summary,
/// completes the rest, and the cold comparison (fault-free reference)
/// still proves the non-faulted outputs bit-identical.
#[test]
fn serve_faults_reports_typed_errors_and_survives() {
    let out = awb_sim(&[
        "serve",
        "cora",
        "--scale",
        "0.1",
        "--pes",
        "16",
        "--requests",
        "8",
        "--seed",
        "5",
        "--faults",
        "7",
        "--compare-cold",
    ]);
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let text = String::from_utf8_lossy(&out.stdout);
    assert!(text.contains("served 8 requests"), "{text}");
    assert!(
        text.contains("faults:") && text.contains("service survived"),
        "missing fault summary:\n{text}"
    );
    assert!(
        text.contains("outputs bit-identical"),
        "fault-injected cold comparison failed:\n{text}"
    );
}

/// Golden-structure test of the full fault-tolerant trace: deadline,
/// retries, and fault seed wired together; the run must report the
/// fault-tolerance banner, the fault summary, percentiles over the
/// survivors, and a bit-identical cold comparison.
#[test]
fn serve_trace_fault_tolerant_end_to_end() {
    let out = awb_sim(&[
        "serve",
        "cora",
        "--scale",
        "0.05",
        "--pes",
        "16",
        "--trace",
        "--seed",
        "5",
        "--deadline-ms",
        "60000",
        "--retries",
        "3",
        "--faults",
        "7",
        "--compare-cold",
    ]);
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let text = String::from_utf8_lossy(&out.stdout);
    assert!(
        text.contains("fault tolerance: deadline 60000 ms, retries 3, fault seed 7"),
        "missing fault-tolerance banner:\n{text}"
    );
    assert!(text.contains("service survived"), "{text}");
    assert!(text.contains("queue-wait p50"), "{text}");
    assert!(
        text.contains("outputs bit-identical"),
        "fault-tolerant trace cold comparison failed:\n{text}"
    );
}

/// Out-of-core streaming flags (DESIGN.md §13): `run --store` writes the
/// chunked store on first use, streams the aggregation operand, and
/// reports residency + read time; `serve` reuses the same store and serves
/// outputs bit-identical to resident cold runs.
#[test]
fn run_and_serve_stream_from_store() {
    let dir = std::env::temp_dir().join(format!("awb-cli-store-{}", std::process::id()));
    std::fs::remove_dir_all(&dir).ok();
    let store = dir.join("cora.store");
    let store_arg = store.to_string_lossy().into_owned();

    let out = awb_sim(&[
        "run",
        "cora",
        "--scale",
        "0.25",
        "--pes",
        "32",
        "--store",
        &store_arg,
        "--host-mem-budget",
        "1",
    ]);
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let text = String::from_utf8_lossy(&out.stdout);
    assert!(
        text.contains("streaming :"),
        "missing stream report:\n{text}"
    );
    assert!(text.contains("resident peak"), "{text}");
    let stream_line = text
        .lines()
        .find(|l| l.starts_with("streaming :"))
        .unwrap_or_default();
    assert!(
        stream_line.contains(" read in ") && stream_line.ends_with(" ms"),
        "{text}"
    );
    assert!(store.join("manifest.json").is_file(), "store not written");

    // Second invocation reuses (revalidates) the store and still matches
    // resident cold runs bit for bit.
    let out = awb_sim(&[
        "serve",
        "cora",
        "--scale",
        "0.25",
        "--pes",
        "32",
        "--requests",
        "3",
        "--store",
        &store_arg,
        "--host-mem-budget",
        "1",
        "--compare-cold",
    ]);
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let text = String::from_utf8_lossy(&out.stdout);
    assert!(text.contains("streaming :"), "{text}");
    assert!(
        text.contains("outputs bit-identical"),
        "streamed serve cold comparison failed:\n{text}"
    );
    std::fs::remove_dir_all(&dir).ok();
}

/// The streaming flags reject contradictory or meaningless combinations
/// with typed CLI errors (exit code 2, message naming the conflict).
#[test]
fn streaming_flag_conflicts_are_typed_errors() {
    let cases: &[(&[&str], &str)] = &[
        (
            &["run", "cora", "--host-mem-budget", "4"],
            "requires --store",
        ),
        (
            &["run", "cora", "--store", "s", "--shards", "2"],
            "mutually exclusive",
        ),
        (
            &["run", "cora", "--store", "s", "--mem-budget", "4"],
            "mutually exclusive",
        ),
        (
            &["run", "cora", "--store", "s", "--host-mem-budget", "0"],
            ">= 1 MB",
        ),
        (
            &["serve", "cora", "--trace", "--store", "s"],
            "does not apply",
        ),
    ];
    for (args, needle) in cases {
        let out = awb_sim(args);
        assert!(!out.status.success(), "{args:?} should fail");
        assert_eq!(out.status.code(), Some(2), "{args:?}");
        let err = String::from_utf8_lossy(&out.stderr);
        assert!(err.contains(needle), "{args:?} missing `{needle}`:\n{err}");
    }
}
