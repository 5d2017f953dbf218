//! Shared helpers for the AWB-GCN benchmark harness.
//!
//! Every table/figure of the paper's evaluation has a `harness = false`
//! bench target in `benches/` (see `DESIGN.md` §4 for the index); this
//! library holds what they share: dataset preparation with the scaling
//! policy, design-point execution, and plain-text table rendering.
//!
//! # Scaling policy
//!
//! Full-size Nell/Reddit runs cost 0.8–6.6 G MAC tasks *per design point*.
//! By default the harness runs shape-preserving scaled instances
//! (`AWB_FULL_SCALE=1` overrides):
//!
//! * nodes scale by the dataset's factor below, average degree preserved,
//! * the PE count scales proportionally, so **rows per PE — the parameter
//!   that governs the balancing problem — is unchanged**, and cycle counts
//!   stay comparable to the paper's 1024-PE setup (ideal cycles =
//!   tasks/PEs is scale-invariant).

use awb_accel::{AccelConfig, Design, GcnPlan, GcnRunOutcome, GcnRunner};
use awb_datasets::{DatasetSpec, GeneratedDataset, PaperDataset};
use awb_gcn_model::GcnInput;

/// Deterministic seed used by every bench target.
pub const BENCH_SEED: u64 = 20200417; // AWB-GCN's MICRO-53 submission year-ish

/// The paper's PE count (Table 3).
pub const PAPER_PES: usize = 1024;

/// Default node-scale factor per dataset (1.0 = full size).
pub fn default_scale(dataset: PaperDataset) -> f64 {
    if full_scale_requested() {
        return 1.0;
    }
    match dataset {
        PaperDataset::Cora | PaperDataset::Citeseer | PaperDataset::Pubmed => 1.0,
        PaperDataset::Nell => 0.25,
        PaperDataset::Reddit => 1.0 / 16.0,
    }
}

/// True when the user asked for full-size datasets via `AWB_FULL_SCALE=1`.
pub fn full_scale_requested() -> bool {
    std::env::var("AWB_FULL_SCALE")
        .map(|v| v == "1")
        .unwrap_or(false)
}

/// PE count scaled with the dataset so rows/PE match the paper's setup.
pub fn scaled_pes(scale: f64) -> usize {
    (((PAPER_PES as f64) * scale).round() as usize).max(32)
}

/// A prepared dataset: spec, generated matrices, and inference input.
pub struct BenchDataset {
    /// Which paper dataset this models.
    pub paper: PaperDataset,
    /// Node-scale factor applied.
    pub scale: f64,
    /// PE count matched to the scale.
    pub n_pes: usize,
    /// The scaled spec.
    pub spec: DatasetSpec,
    /// Generated matrices.
    pub data: GeneratedDataset,
    /// Normalized inference input.
    pub input: GcnInput,
}

impl BenchDataset {
    /// Generates the dataset at its default scale.
    ///
    /// # Panics
    ///
    /// Panics on generation failure (a bug, not an input condition — bench
    /// targets have no error channel worth threading).
    pub fn load(paper: PaperDataset) -> Self {
        let scale = default_scale(paper);
        let spec = paper.spec().scaled(scale);
        let data = GeneratedDataset::generate(&spec, BENCH_SEED).expect("dataset generation");
        let input = GcnInput::from_dataset(&data).expect("input assembly");
        BenchDataset {
            paper,
            scale,
            n_pes: scaled_pes(scale),
            spec,
            data,
            input,
        }
    }

    /// Base accelerator config matched to this dataset's scale.
    pub fn base_config(&self) -> AccelConfig {
        let mut b = AccelConfig::builder();
        b.n_pes(self.n_pes);
        b.build().expect("valid config")
    }

    /// The small hop used for this dataset's paper lineup (Nell uses 2/3
    /// hop, everything else 1/2 — paper §5.2).
    pub fn small_hop(&self) -> usize {
        match self.paper {
            PaperDataset::Nell => 2,
            _ => 1,
        }
    }

    /// The paper's five-way design lineup for this dataset.
    pub fn designs(&self) -> [Design; 5] {
        Design::paper_lineup(self.small_hop())
    }

    /// The paper's best design for this dataset (Design D).
    pub fn design_d(&self) -> Design {
        Design::LocalPlusRemote {
            hop: self.small_hop() + 1,
        }
    }

    /// Runs one design point end to end.
    pub fn run_design(&self, design: Design) -> GcnRunOutcome {
        let config = design.apply(self.base_config());
        GcnRunner::new(config).run(&self.input).expect("simulation")
    }

    /// Runs one design point's warm-up and extracts its reusable
    /// [`GcnPlan`] alongside the (cold, tuning-inclusive) outcome. The
    /// warm-up outcome is bit-identical to [`run_design`](Self::run_design); the plan lets
    /// grid code that needs more runs on the same (dataset, design) point
    /// execute them without re-paying tuning.
    pub fn prepare_design(&self, design: Design) -> (GcnPlan, GcnRunOutcome) {
        let config = design.apply(self.base_config());
        GcnRunner::new(config)
            .prepare(&self.input)
            .expect("simulation")
    }
}

/// Renders a plain-text table: header row plus data rows, columns padded.
pub fn render_table(header: &[&str], rows: &[Vec<String>]) -> String {
    let n_cols = header.len();
    let mut widths: Vec<usize> = header.iter().map(|h| h.len()).collect();
    for row in rows {
        for (i, cell) in row.iter().enumerate().take(n_cols) {
            widths[i] = widths[i].max(cell.len());
        }
    }
    let mut out = String::new();
    let fmt_row = |cells: &[String], widths: &[usize]| -> String {
        cells
            .iter()
            .zip(widths)
            .map(|(c, w)| format!("{c:>w$}"))
            .collect::<Vec<_>>()
            .join("  ")
    };
    let header_cells: Vec<String> = header.iter().map(|s| s.to_string()).collect();
    out.push_str(&fmt_row(&header_cells, &widths));
    out.push('\n');
    out.push_str(&"-".repeat(widths.iter().sum::<usize>() + 2 * (n_cols - 1)));
    out.push('\n');
    for row in rows {
        out.push_str(&fmt_row(row, &widths));
        out.push('\n');
    }
    out
}

/// Formats large counts as the paper does (`62.3M`, `999.7K`, `257G`).
pub fn human_ops(ops: u64) -> String {
    let v = ops as f64;
    if v >= 1e9 {
        format!("{:.1}G", v / 1e9)
    } else if v >= 1e6 {
        format!("{:.1}M", v / 1e6)
    } else if v >= 1e3 {
        format!("{:.1}K", v / 1e3)
    } else {
        format!("{ops}")
    }
}

/// Formats a fraction as a percentage with one decimal.
pub fn pct(frac: f64) -> String {
    format!("{:.1}%", frac * 100.0)
}

/// Formats a fraction as a percentage with enough significant digits for
/// ultra-sparse densities (the paper prints `0.0073%` for Nell).
pub fn pct_sig(frac: f64) -> String {
    let v = frac * 100.0;
    if v == 0.0 {
        "0%".into()
    } else if v >= 1.0 {
        format!("{v:.1}%")
    } else {
        format!("{v:.4}%")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scales_keep_small_datasets_full_size() {
        assert_eq!(default_scale(PaperDataset::Cora), 1.0);
        assert!(default_scale(PaperDataset::Reddit) < 0.1);
    }

    #[test]
    fn scaled_pes_proportional() {
        assert_eq!(scaled_pes(1.0), 1024);
        assert_eq!(scaled_pes(0.25), 256);
        assert_eq!(scaled_pes(1.0 / 16.0), 64);
        assert_eq!(scaled_pes(1e-6), 32);
    }

    #[test]
    fn human_ops_matches_paper_style() {
        assert_eq!(human_ops(999_700), "999.7K");
        assert_eq!(human_ops(62_300_000), "62.3M");
        assert_eq!(human_ops(257_000_000_000), "257.0G");
        assert_eq!(human_ops(42), "42");
    }

    #[test]
    fn render_table_aligns() {
        let t = render_table(
            &["name", "v"],
            &[
                vec!["a".into(), "1".into()],
                vec!["long".into(), "22".into()],
            ],
        );
        let lines: Vec<&str> = t.lines().collect();
        assert_eq!(lines.len(), 4);
        assert!(lines[0].contains("name"));
        assert!(lines[3].ends_with("22"));
    }

    #[test]
    fn bench_dataset_loads_smallest() {
        // Cora at full scale is small enough for a unit test.
        let d = BenchDataset::load(PaperDataset::Cora);
        assert_eq!(d.n_pes, 1024);
        assert_eq!(d.spec.nodes, 2708);
        assert_eq!(d.designs()[0], Design::Baseline);
        assert_eq!(d.small_hop(), 1);
    }
}
