//! Reproduces **Table 2**: MAC operations required under the two execution
//! orders `(A×X)×W` vs `A×(X×W)`, per layer and in total, for all five
//! datasets — the analysis behind the paper's §3.1 choice to compute
//! `X×W` first.
//!
//! Counts are analytic from the published Table 1 statistics (exactly how
//! the paper derives them); for the small datasets we also print exact
//! counts measured on generated matrices with the real (measured) `X2`.
//!
//! Run: `cargo bench -p awb-bench --bench table2_exec_order`

use awb_bench::{human_ops, render_table, BenchDataset};
use awb_datasets::PaperDataset;
use awb_gcn_model::ops::{table2_analytic, table2_exact};
use awb_gcn_model::GcnModel;

fn main() {
    println!("== Table 2: operations required under different execution orders ==\n");
    // Paper's ALL-row values (MACs) for comparison.
    let paper_all: [(f64, f64); 5] = [
        (62.8e6, 1.33e6),
        (198.0e6, 2.23e6),
        (165.5e6, 18.6e6),
        (258e9, 782e6),
        (17.1e9, 6.6e9),
    ];
    let mut rows = Vec::new();
    for (dataset, (paper_naive, paper_chosen)) in PaperDataset::all().into_iter().zip(paper_all) {
        let spec = dataset.spec(); // full-size spec: Table 2 is analytic
        let a = table2_analytic(&spec);
        for (layer, ops) in [("L1", a.layer1), ("L2", a.layer2)] {
            rows.push(vec![
                format!("{} {layer}", a.name),
                human_ops(ops.ax_w),
                human_ops(ops.a_xw),
                format!("{:.1}x", ops.ratio()),
                String::new(),
                String::new(),
            ]);
        }
        let total = a.total();
        rows.push(vec![
            format!("{} ALL", a.name),
            human_ops(total.ax_w),
            human_ops(total.a_xw),
            format!("{:.1}x", total.ratio()),
            human_ops(paper_naive as u64),
            human_ops(paper_chosen as u64),
        ]);
    }
    let table = render_table(
        &[
            "dataset",
            "(AxX)xW",
            "Ax(XxW)",
            "ratio",
            "paper naive",
            "paper chosen",
        ],
        &rows,
    );
    println!("{table}");

    println!("-- exact counts on generated matrices (small datasets, measured X2) --\n");
    let mut exact_rows = Vec::new();
    for dataset in [PaperDataset::Cora, PaperDataset::Citeseer] {
        let bench = BenchDataset::load(dataset);
        let fwd = GcnModel::two_layer()
            .forward(&bench.input)
            .expect("forward pass");
        let x2 = &fwd.hidden_inputs[0];
        let exact = table2_exact(
            dataset.name(),
            &bench.input.a_norm,
            &bench.input.x1,
            bench.spec.f2,
            x2,
            bench.spec.f3,
        );
        let total = exact.total();
        exact_rows.push(vec![
            exact.name.clone(),
            human_ops(total.ax_w),
            human_ops(total.a_xw),
            format!("{:.1}x", total.ratio()),
        ]);
    }
    println!(
        "{}",
        render_table(&["dataset", "(AxX)xW", "Ax(XxW)", "ratio"], &exact_rows)
    );
    println!("The chosen order A x (X x W) wins on every dataset, as in the paper.");
}
