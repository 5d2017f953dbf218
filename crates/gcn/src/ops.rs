//! Per-layer operation analysis for the execution-order study (Table 2).
//!
//! Two entry points:
//!
//! * [`table2_analytic`] — derives the MAC counts for both orders from a
//!   [`DatasetSpec`]'s published dimensions and densities alone (this is
//!   how the paper's Table 2 follows from its Table 1),
//! * [`table2_exact`] — counts MACs on actually-generated matrices,
//!   including the measured density of the hidden features `X2`.

use awb_datasets::DatasetSpec;
use awb_sparse::ops_count::{layer_ops_analytic, layer_ops_exact, LayerOps};
use awb_sparse::{Csr, DenseMatrix};

/// Table 2 rows for one dataset: per-layer and total MAC counts under both
/// execution orders.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ExecOrderAnalysis {
    /// Dataset name.
    pub name: String,
    /// Layer-1 counts.
    pub layer1: LayerOps,
    /// Layer-2 counts.
    pub layer2: LayerOps,
}

impl ExecOrderAnalysis {
    /// Whole-network counts (sum of layers) — the paper's "ALL" row.
    pub fn total(&self) -> LayerOps {
        self.layer1 + self.layer2
    }

    /// Overall ratio of naive to chosen order.
    pub fn speedup_of_xw_first(&self) -> f64 {
        self.total().ratio()
    }
}

/// Analytic Table 2 rows from the spec's published statistics.
///
/// The paper's own X2 density (Table 1) is used for layer 2 since the
/// hidden features are not generated analytically.
pub fn table2_analytic(spec: &DatasetSpec) -> ExecOrderAnalysis {
    ExecOrderAnalysis {
        name: spec.name.clone(),
        layer1: layer_ops_analytic(
            spec.nodes,
            spec.f1,
            spec.f2,
            spec.a_density,
            spec.x1_density,
        ),
        layer2: layer_ops_analytic(
            spec.nodes,
            spec.f2,
            spec.f3,
            spec.a_density,
            spec.x2_density_paper,
        ),
    }
}

/// Exact Table 2 rows from generated matrices.
///
/// `x2` is the actual hidden feature matrix from a forward pass (dense);
/// `f3` is the output feature dimension.
pub fn table2_exact(
    name: &str,
    a_norm: &Csr,
    x1: &Csr,
    f2: usize,
    x2: &DenseMatrix,
    f3: usize,
) -> ExecOrderAnalysis {
    let x2_sparse = x2.to_coo(0.0).to_csr();
    ExecOrderAnalysis {
        name: name.into(),
        layer1: layer_ops_exact(a_norm, x1, f2),
        layer2: layer_ops_exact(a_norm, &x2_sparse, f3),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{GcnInput, GcnModel};
    use awb_datasets::GeneratedDataset;

    /// Paper Table 2 "ALL" row, within rounding of the analytic formulas:
    /// the chosen order wins by large factors on every dataset.
    #[test]
    fn analytic_matches_paper_table2_totals() {
        // (dataset, paper ALL (AxX)xW, paper ALL Ax(XxW)), values in MACs.
        let cases: [(DatasetSpec, f64, f64); 3] = [
            (DatasetSpec::cora(), 62.8e6, 1.33e6),
            (DatasetSpec::citeseer(), 198.0e6, 2.23e6),
            (DatasetSpec::pubmed(), 165.5e6, 18.6e6),
        ];
        for (spec, paper_naive, paper_chosen) in cases {
            let a = table2_analytic(&spec);
            let total = a.total();
            let rel_naive = (total.ax_w as f64 - paper_naive).abs() / paper_naive;
            let rel_chosen = (total.a_xw as f64 - paper_chosen).abs() / paper_chosen;
            assert!(
                rel_naive < 0.10,
                "{}: naive {} vs paper {paper_naive}",
                a.name,
                total.ax_w
            );
            assert!(
                rel_chosen < 0.10,
                "{}: chosen {} vs paper {paper_chosen}",
                a.name,
                total.a_xw
            );
        }
    }

    #[test]
    fn xw_first_always_wins_on_paper_datasets() {
        for d in awb_datasets::PaperDataset::all() {
            let a = table2_analytic(&d.spec());
            assert!(
                a.speedup_of_xw_first() > 1.0,
                "{}: ratio {}",
                a.name,
                a.speedup_of_xw_first()
            );
        }
    }

    #[test]
    fn exact_analysis_on_generated_data() {
        let spec = DatasetSpec::cora().with_nodes(128);
        let data = GeneratedDataset::generate(&spec, 3).unwrap();
        let input = GcnInput::from_dataset(&data).unwrap();
        let fwd = GcnModel::two_layer().forward(&input).unwrap();
        let x2 = &fwd.hidden_inputs[0];
        let exact = table2_exact("cora-128", &input.a_norm, &input.x1, 16, x2, 7);
        assert!(exact.layer1.a_xw > 0);
        assert!(exact.layer2.a_xw > 0);
        // The naive order must be costlier on a power-law graph with sparse
        // features and f1 >> f2.
        assert!(exact.total().ax_w > exact.total().a_xw);
    }
}
