//! Ablations over the design choices DESIGN.md calls out (not a paper
//! table — these quantify the decisions the paper leaves implicit):
//!
//! 1. hop radius sweep (0–4) with and without remote switching,
//! 2. PESM tracking window 1–4,
//! 3. initial mapping: `Block` vs `Cyclic`,
//! 4. RaW stall handling: `Park` (stall buffer) vs `Block` (head-of-line),
//! 5. inter-SPMM pipelining on/off.
//!
//! The Shuffling LUT's row selection is not ablated: it has one rule
//! (DESIGN.md §3; the measurement behind that is EXPERIMENTS.md §23).
//!
//! Run on Cora (moderate power-law imbalance) and a scaled Nell (clustered
//! hubs) so both imbalance regimes are covered.
//!
//! Run: `cargo bench -p awb-bench --bench ablation_rebalance`

use awb_accel::{AccelConfig, Design, GcnRunner, MappingKind, StallMode};
use awb_bench::{pct, render_table, BenchDataset};
use awb_datasets::PaperDataset;
use awb_gcn_model::GcnInput;

fn run(input: &GcnInput, config: AccelConfig) -> (u64, f64) {
    let out = GcnRunner::new(config).run(input).expect("simulation");
    (out.stats.total_cycles(), out.stats.avg_utilization())
}

fn main() {
    println!("== Ablations: rebalancing design choices ==\n");
    for dataset in [PaperDataset::Cora, PaperDataset::Nell] {
        let bench = BenchDataset::load(dataset);
        let base = bench.base_config();
        println!(
            "---- {} ({} PEs, scale {:.3}) ----\n",
            dataset.name(),
            bench.n_pes,
            bench.scale
        );

        // 1. Hop radius sweep.
        let mut rows = Vec::new();
        for hop in 0..=4usize {
            for remote in [false, true] {
                let design = match (hop, remote) {
                    (0, false) => Design::Baseline,
                    (0, true) => Design::LocalPlusRemote { hop: 0 },
                    (h, false) => Design::LocalSharing { hop: h },
                    (h, true) => Design::LocalPlusRemote { hop: h },
                };
                let (cycles, util) = run(&bench.input, design.apply(base.clone()));
                rows.push(vec![
                    format!("{hop}"),
                    if remote { "yes" } else { "no" }.into(),
                    format!("{cycles}"),
                    pct(util),
                ]);
            }
        }
        println!("hop radius sweep:");
        println!(
            "{}",
            render_table(&["hop", "remote", "cycles", "util"], &rows)
        );

        // 2. Tracking window.
        let mut rows = Vec::new();
        for window in 1..=4usize {
            let mut config = Design::LocalPlusRemote { hop: 2 }.apply(base.clone());
            config.tracking_window = window;
            let (cycles, util) = run(&bench.input, config);
            rows.push(vec![format!("{window}"), format!("{cycles}"), pct(util)]);
        }
        println!("PESM tracking window (LS2+RS):");
        println!("{}", render_table(&["window", "cycles", "util"], &rows));

        // 3. Initial mapping.
        let mut rows = Vec::new();
        for mapping in [MappingKind::Block, MappingKind::Cyclic] {
            for design in [Design::Baseline, Design::LocalPlusRemote { hop: 2 }] {
                let mut config = design.apply(base.clone());
                config.mapping = mapping;
                let (cycles, util) = run(&bench.input, config);
                rows.push(vec![
                    format!("{mapping:?}"),
                    design.label(),
                    format!("{cycles}"),
                    pct(util),
                ]);
            }
        }
        println!("initial row mapping:");
        println!(
            "{}",
            render_table(&["mapping", "design", "cycles", "util"], &rows)
        );

        // 4. RaW stall handling.
        let mut rows = Vec::new();
        for stall in [StallMode::Park, StallMode::Block] {
            let mut config = Design::LocalPlusRemote { hop: 2 }.apply(base.clone());
            config.stall_mode = stall;
            let (cycles, util) = run(&bench.input, config);
            rows.push(vec![format!("{stall:?}"), format!("{cycles}"), pct(util)]);
        }
        println!("RaW hazard handling (LS2+RS):");
        println!("{}", render_table(&["mode", "cycles", "util"], &rows));

        // 5. Inter-SPMM pipelining.
        let mut rows = Vec::new();
        for pipeline in [true, false] {
            let mut config = Design::LocalPlusRemote { hop: 2 }.apply(base.clone());
            config.pipeline_spmms = pipeline;
            let (cycles, util) = run(&bench.input, config);
            rows.push(vec![
                if pipeline { "on" } else { "off" }.into(),
                format!("{cycles}"),
                pct(util),
            ]);
        }
        println!("inter-SPMM column pipelining (LS2+RS):");
        println!("{}", render_table(&["pipelining", "cycles", "util"], &rows));
        println!();
    }
}
