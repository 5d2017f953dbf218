use crate::normalize::normalize_adjacency;
use awb_datasets::GeneratedDataset;
use awb_sparse::{spmm, Csc, Csr, DenseMatrix, SparseError};

/// Non-linear activation applied at the end of a GCN layer.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum Activation {
    /// `max(0, x)` — the paper's σ.
    #[default]
    Relu,
    /// Identity (used on the output layer).
    None,
}

impl Activation {
    /// Applies the activation in place.
    pub fn apply(&self, m: &mut DenseMatrix) {
        match self {
            Activation::Relu => m.relu_in_place(),
            Activation::None => {}
        }
    }
}

/// Which association order a layer's `A · X · W` product is evaluated in
/// (paper §3.1, Table 2).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum ExecOrder {
    /// `A × (X × W)` — the order the paper (and the accelerator) uses.
    #[default]
    XwFirst,
    /// `(A × X) × W` — the naive order, kept for the Table 2 comparison and
    /// as an independent functional cross-check.
    AxFirst,
}

/// Inference-ready input: normalized adjacency (in both compressed forms)
/// plus sparse input features and dense layer weights.
#[derive(Debug, Clone)]
pub struct GcnInput {
    /// Normalized adjacency `Ã`, CSR view.
    pub a_norm: Csr,
    /// Normalized adjacency `Ã`, CSC view (the accelerator's native format).
    pub a_norm_csc: Csc,
    /// Sparse input feature matrix `X1`.
    pub x1: Csr,
    /// Dense weight matrices, one per layer.
    pub weights: Vec<DenseMatrix>,
}

impl GcnInput {
    /// Builds inference input from a generated dataset (normalizes the
    /// adjacency once, offline, as the paper does).
    ///
    /// # Errors
    ///
    /// Propagates [`SparseError`] from normalization (non-square adjacency).
    pub fn from_dataset(data: &GeneratedDataset) -> Result<Self, SparseError> {
        let a_norm = normalize_adjacency(&data.adjacency)?;
        let a_norm_csc = a_norm.to_csc();
        Ok(GcnInput {
            a_norm,
            a_norm_csc,
            x1: data.features.clone(),
            weights: data.weights.clone(),
        })
    }

    /// Builds input from pre-normalized parts (used by tests and custom
    /// pipelines).
    ///
    /// # Errors
    ///
    /// Returns [`SparseError::DimensionMismatch`] if `a_norm` is not square,
    /// its side differs from `x1.rows()`, or consecutive weight shapes do
    /// not chain (`x1.cols() → w1.rows()`, `w1.cols() → w2.rows()`, …).
    pub fn from_parts(
        a_norm: Csr,
        x1: Csr,
        weights: Vec<DenseMatrix>,
    ) -> Result<Self, SparseError> {
        if a_norm.rows() != a_norm.cols() || a_norm.rows() != x1.rows() {
            return Err(SparseError::DimensionMismatch {
                left: a_norm.shape(),
                right: x1.shape(),
                op: "gcn_input",
            });
        }
        let mut f_in = x1.cols();
        for w in &weights {
            if w.rows() != f_in {
                return Err(SparseError::DimensionMismatch {
                    left: (f_in, f_in),
                    right: w.shape(),
                    op: "gcn_input_weights",
                });
            }
            f_in = w.cols();
        }
        let a_norm_csc = a_norm.to_csc();
        Ok(GcnInput {
            a_norm,
            a_norm_csc,
            x1,
            weights,
        })
    }

    /// Node count.
    pub fn nodes(&self) -> usize {
        self.a_norm.rows()
    }

    /// Number of layers (= number of weight matrices).
    pub fn layers(&self) -> usize {
        self.weights.len()
    }
}

/// Result of a forward pass, retaining the hidden layers' inputs for
/// profiling and for driving the accelerator layer by layer.
#[derive(Debug, Clone)]
pub struct GcnForward {
    /// Input feature matrix of each hidden layer *after* the previous
    /// layer's activation: `hidden_inputs[0]` is `X2`, `hidden_inputs[1]`
    /// is `X3`, … (length = layers − 1). Layer 1's input is the sparse
    /// `X1` already held by [`GcnInput`].
    pub hidden_inputs: Vec<DenseMatrix>,
    /// Densities of each layer's input feature matrix (`x_density[0]` = X1).
    pub x_density: Vec<f64>,
    /// Final output features.
    pub output: DenseMatrix,
}

impl GcnForward {
    /// Density of the hidden feature matrix `X2` (None for 1-layer nets) —
    /// compared against the paper's Table 1 "X2" row.
    pub fn x2_density(&self) -> Option<f64> {
        self.x_density.get(1).copied()
    }
}

/// A multi-layer spectral GCN (the paper's networks are 2-layer with ReLU
/// between layers and no activation after the last).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct GcnModel {
    activations: Vec<Activation>,
    order: ExecOrder,
}

impl Default for GcnModel {
    fn default() -> Self {
        GcnModel::two_layer()
    }
}

impl GcnModel {
    /// The paper's 2-layer network: ReLU after layer 1, no activation after
    /// layer 2, `A × (X × W)` order.
    pub fn two_layer() -> Self {
        GcnModel {
            activations: vec![Activation::Relu, Activation::None],
            order: ExecOrder::XwFirst,
        }
    }

    /// A deeper network: ReLU after every layer except the last.
    pub fn with_layers(n_layers: usize) -> Self {
        assert!(n_layers > 0, "at least one layer");
        let mut activations = vec![Activation::Relu; n_layers];
        activations[n_layers - 1] = Activation::None;
        GcnModel {
            activations,
            order: ExecOrder::XwFirst,
        }
    }

    /// Overrides the execution order.
    pub fn with_order(mut self, order: ExecOrder) -> Self {
        self.order = order;
        self
    }

    /// Per-layer activations.
    pub fn activations(&self) -> &[Activation] {
        &self.activations
    }

    /// Configured execution order.
    pub fn order(&self) -> ExecOrder {
        self.order
    }

    /// Runs the forward pass.
    ///
    /// # Errors
    ///
    /// Returns [`SparseError::DimensionMismatch`] when `input.weights`
    /// length differs from the model's layer count or shapes do not chain.
    pub fn forward(&self, input: &GcnInput) -> Result<GcnForward, SparseError> {
        if input.weights.len() != self.activations.len() {
            return Err(SparseError::DimensionMismatch {
                left: (input.weights.len(), 0),
                right: (self.activations.len(), 0),
                op: "gcn_forward_layers",
            });
        }
        let mut hidden_inputs: Vec<DenseMatrix> = Vec::with_capacity(self.activations.len() - 1);
        let mut x_density: Vec<f64> = Vec::with_capacity(self.activations.len());

        // Layer 1 input is the sparse X1.
        x_density.push(input.x1.density());

        let mut x = self.layer_forward_sparse(&input.a_norm, &input.x1, &input.weights[0])?;
        self.activations[0].apply(&mut x);

        for (l, w) in input.weights.iter().enumerate().skip(1) {
            x_density.push(x.density());
            hidden_inputs.push(x.clone());
            let mut next = self.layer_forward_dense(&input.a_norm, &x, w)?;
            self.activations[l].apply(&mut next);
            x = next;
        }
        Ok(GcnForward {
            hidden_inputs,
            x_density,
            output: x,
        })
    }

    /// One layer with sparse X (layer 1): `act` is applied by the caller.
    fn layer_forward_sparse(
        &self,
        a: &Csr,
        x: &Csr,
        w: &DenseMatrix,
    ) -> Result<DenseMatrix, SparseError> {
        match self.order {
            ExecOrder::XwFirst => {
                let xw = spmm::csr_times_dense(x, w)?;
                spmm::csr_times_dense(a, &xw)
            }
            ExecOrder::AxFirst => {
                let ax = spmm::csr_times_csr(a, x)?;
                ax.matmul(w)
            }
        }
    }

    /// One layer with dense X (layers ≥ 2).
    fn layer_forward_dense(
        &self,
        a: &Csr,
        x: &DenseMatrix,
        w: &DenseMatrix,
    ) -> Result<DenseMatrix, SparseError> {
        match self.order {
            ExecOrder::XwFirst => {
                let xw = x.matmul(w)?;
                spmm::csr_times_dense(a, &xw)
            }
            ExecOrder::AxFirst => {
                let ax = spmm::csr_times_dense(a, x)?;
                ax.matmul(w)
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use awb_datasets::{DatasetSpec, GeneratedDataset};

    fn tiny_input() -> GcnInput {
        let data = GeneratedDataset::generate(&DatasetSpec::cora().with_nodes(96), 11).unwrap();
        GcnInput::from_dataset(&data).unwrap()
    }

    #[test]
    fn forward_shapes() {
        let input = tiny_input();
        let fwd = GcnModel::two_layer().forward(&input).unwrap();
        assert_eq!(fwd.output.shape(), (96, 7));
        assert_eq!(fwd.hidden_inputs.len(), 1);
        assert_eq!(fwd.x_density.len(), 2);
        assert_eq!(fwd.hidden_inputs[0].shape(), (96, 16));
    }

    #[test]
    fn both_orders_agree() {
        let input = tiny_input();
        let a = GcnModel::two_layer()
            .with_order(ExecOrder::XwFirst)
            .forward(&input)
            .unwrap();
        let b = GcnModel::two_layer()
            .with_order(ExecOrder::AxFirst)
            .forward(&input)
            .unwrap();
        assert!(
            a.output.approx_eq(&b.output, 1e-3),
            "max diff {}",
            a.output.max_abs_diff(&b.output).unwrap()
        );
    }

    #[test]
    fn hidden_density_in_plausible_range() {
        let input = tiny_input();
        let fwd = GcnModel::two_layer().forward(&input).unwrap();
        let d = fwd.x2_density().unwrap();
        // ReLU of positively-biased features: well above half, below 1.
        assert!(d > 0.4 && d <= 1.0, "x2 density {d}");
    }

    #[test]
    fn relu_applied_between_layers() {
        let input = tiny_input();
        let fwd = GcnModel::two_layer().forward(&input).unwrap();
        let x2 = &fwd.hidden_inputs[0];
        assert!(x2.as_slice().iter().all(|&v| v >= 0.0));
        // Output layer has no activation: negatives should exist.
        assert!(fwd.output.as_slice().iter().any(|&v| v < 0.0));
    }

    #[test]
    fn layer_count_mismatch_rejected() {
        let input = tiny_input();
        let model = GcnModel::with_layers(3);
        assert!(model.forward(&input).is_err());
    }

    #[test]
    fn from_parts_validates_chaining() {
        let input = tiny_input();
        // Swap the weights: shapes no longer chain.
        let res = GcnInput::from_parts(
            input.a_norm.clone(),
            input.x1.clone(),
            vec![input.weights[1].clone(), input.weights[0].clone()],
        );
        assert!(res.is_err());
    }

    #[test]
    fn from_parts_validates_square() {
        let input = tiny_input();
        let rect = awb_sparse::Csr::empty(4, 5);
        assert!(GcnInput::from_parts(rect, input.x1.clone(), vec![]).is_err());
    }

    #[test]
    fn with_layers_builds_activation_chain() {
        let m = GcnModel::with_layers(3);
        assert_eq!(
            m.activations(),
            &[Activation::Relu, Activation::Relu, Activation::None]
        );
    }

    #[test]
    fn deeper_network_runs() {
        let data =
            GeneratedDataset::generate(&DatasetSpec::custom("t", 64, (32, 8, 8), 0.05, 0.2), 2)
                .unwrap();
        // Build 3 chained weights 32->8->8->4.
        let mut weights = data.weights.clone(); // 32x8, 8x8... custom gives f2=8,f3=8
        let w3 = DenseMatrix::from_vec(8, 4, vec![0.1; 32]).unwrap();
        weights.push(w3);
        let a_norm = crate::normalize::normalize_adjacency(&data.adjacency).unwrap();
        let input = GcnInput::from_parts(a_norm, data.features.clone(), weights).unwrap();
        let fwd = GcnModel::with_layers(3).forward(&input).unwrap();
        assert_eq!(fwd.output.shape(), (64, 4));
        assert_eq!(fwd.x_density.len(), 3);
    }
}
