use crate::rng::Pcg64;
use crate::sample::AliasTable;
use crate::spec::{DatasetSpec, DegreeShape, RowOrdering};
use awb_sparse::{Csr, DenseMatrix, SparseError};

/// A fully generated dataset: adjacency, input features, and layer weights.
///
/// Generation is deterministic given `(spec, seed)`.
///
/// # Example
///
/// ```
/// use awb_datasets::{DatasetSpec, GeneratedDataset};
///
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// let data = GeneratedDataset::generate(&DatasetSpec::cora().with_nodes(256), 1)?;
/// assert_eq!(data.features.rows(), 256);
/// assert_eq!(data.weights[0].shape(), (1433, 16));
/// assert_eq!(data.weights[1].shape(), (16, 7));
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone)]
pub struct GeneratedDataset {
    /// The spec this dataset was generated from.
    pub spec: DatasetSpec,
    /// Raw 0/1 adjacency matrix (no self-loops; normalization adds `A + I`).
    pub adjacency: Csr,
    /// Sparse input feature matrix `X1` (`nodes × f1`).
    pub features: Csr,
    /// Dense layer weights `[W1 (f1×f2), W2 (f2×f3)]`, Xavier-initialized
    /// with a slight positive bias so that post-ReLU hidden features reach
    /// the density range the paper reports for `X2`.
    pub weights: Vec<DenseMatrix>,
}

impl GeneratedDataset {
    /// Generates a dataset from `spec` with the given `seed`.
    ///
    /// # Errors
    ///
    /// Returns [`SparseError::IndexSpaceExceeded`] if `A` or `X1` would
    /// have a dimension the `u32` sparse indices cannot address (a huge
    /// scale factor), before allocating anything. Any other
    /// [`SparseError`] means internal matrix assembly failed (a bug in the
    /// generator rather than bad input; spec validation is handled by
    /// [`DatasetSpec`] itself).
    pub fn generate(spec: &DatasetSpec, seed: u64) -> Result<Self, SparseError> {
        for shape in [(spec.nodes, spec.nodes), (spec.nodes, spec.f1)] {
            if shape.0 > u32::MAX as usize || shape.1 > u32::MAX as usize {
                return Err(SparseError::IndexSpaceExceeded { shape });
            }
        }
        let mut rng = Pcg64::seed_from_u64(seed ^ 0xae5b_21c4_9d0f_7e63);
        let node_weights = node_weight_sequence(spec, &mut rng);
        let adjacency = generate_adjacency(spec, &node_weights, &mut rng)?;
        let features = generate_features(spec, &mut rng)?;
        let weights = vec![
            generate_weight(spec.f1, spec.f2, 0.05, &mut rng),
            generate_weight(spec.f2, spec.f3, 0.05, &mut rng),
        ];
        Ok(GeneratedDataset {
            spec: spec.clone(),
            adjacency,
            features,
            weights,
        })
    }

    /// Builds a dataset around an externally supplied adjacency matrix
    /// (e.g. loaded from a Matrix Market file via `awb-sparse::io`),
    /// generating features and weights to the spec's statistics.
    ///
    /// The spec's `nodes` and `a_density` are overridden by the supplied
    /// matrix; feature dimensions and densities are kept.
    ///
    /// # Errors
    ///
    /// Returns [`SparseError::DimensionMismatch`] if `adjacency` is not
    /// square.
    ///
    /// # Example
    ///
    /// ```
    /// use awb_datasets::{DatasetSpec, GeneratedDataset};
    /// use awb_sparse::Coo;
    ///
    /// # fn main() -> Result<(), Box<dyn std::error::Error>> {
    /// let mut a = Coo::new(64, 64);
    /// for i in 0..63 { a.push(i, i + 1, 1.0)?; }
    /// let spec = DatasetSpec::custom("mine", 64, (32, 8, 4), 0.01, 0.2);
    /// let data = GeneratedDataset::with_adjacency(&spec, a.to_csr(), 7)?;
    /// assert_eq!(data.spec.nodes, 64);
    /// assert_eq!(data.features.rows(), 64);
    /// # Ok(())
    /// # }
    /// ```
    pub fn with_adjacency(
        spec: &DatasetSpec,
        adjacency: Csr,
        seed: u64,
    ) -> Result<Self, SparseError> {
        if adjacency.rows() != adjacency.cols() {
            return Err(SparseError::DimensionMismatch {
                left: adjacency.shape(),
                right: adjacency.shape(),
                op: "with_adjacency",
            });
        }
        let mut spec = spec.clone();
        spec.nodes = adjacency.rows();
        spec.a_density = adjacency.density();
        let mut rng = Pcg64::seed_from_u64(seed ^ 0xae5b_21c4_9d0f_7e63);
        let features = generate_features(&spec, &mut rng)?;
        let weights = vec![
            generate_weight(spec.f1, spec.f2, 0.05, &mut rng),
            generate_weight(spec.f2, spec.f3, 0.05, &mut rng),
        ];
        Ok(GeneratedDataset {
            spec,
            adjacency,
            features,
            weights,
        })
    }

    /// Achieved adjacency density (collision-deduplication makes this fall
    /// slightly below the spec target).
    pub fn a_density(&self) -> f64 {
        self.adjacency.density()
    }

    /// Achieved feature density.
    pub fn x1_density(&self) -> f64 {
        self.features.density()
    }
}

/// Expected-degree weight per node, ordered per the spec's [`RowOrdering`].
fn node_weight_sequence(spec: &DatasetSpec, rng: &mut Pcg64) -> Vec<f64> {
    let n = spec.nodes;
    let mut weights: Vec<f64> = match spec.degree_shape {
        DegreeShape::PowerLaw { alpha, max_ratio } => {
            let mut w: Vec<f64> = (0..n).map(|_| pareto(alpha, rng)).collect();
            cap_to_ratio(&mut w, max_ratio);
            w
        }
        DegreeShape::ClusteredHubs {
            hub_fraction,
            hub_mass,
            tail_alpha,
        } => {
            let n_hubs = ((n as f64 * hub_fraction).round() as usize).clamp(1, n);
            let mut w: Vec<f64> = (0..n).map(|_| pareto(tail_alpha, rng)).collect();
            // Scale the first n_hubs weights so they hold `hub_mass` of the
            // total. HubsFirst ordering keeps them adjacent.
            let tail_sum: f64 = w[n_hubs..].iter().sum();
            let target_hub_sum = tail_sum * hub_mass / (1.0 - hub_mass);
            let hub_sum: f64 = w[..n_hubs].iter().sum();
            let scale = if hub_sum > 0.0 {
                target_hub_sum / hub_sum
            } else {
                1.0
            };
            for v in &mut w[..n_hubs] {
                *v *= scale;
            }
            w
        }
        DegreeShape::Even { cv } => (0..n)
            .map(|_| (1.0 + cv * rng.next_gaussian()).max(0.05))
            .collect(),
    };
    match spec.ordering {
        RowOrdering::HubsFirst => {
            weights.sort_unstable_by(|a, b| b.partial_cmp(a).expect("weights are finite"));
        }
        RowOrdering::Shuffled => rng.shuffle(&mut weights),
        RowOrdering::Correlated { rho_percent } => {
            let rho = f64::from(rho_percent.min(100)) / 100.0;
            // Sort descending, then re-sort by a blend of rank and noise.
            weights.sort_unstable_by(|a, b| b.partial_cmp(a).expect("weights are finite"));
            let n_f = weights.len().max(1) as f64;
            let mut keyed: Vec<(f64, f64)> = weights
                .iter()
                .enumerate()
                .map(|(rank, &w)| (rho * rank as f64 / n_f + (1.0 - rho) * rng.next_f64(), w))
                .collect();
            keyed.sort_unstable_by(|a, b| a.0.partial_cmp(&b.0).expect("keys are finite"));
            weights = keyed.into_iter().map(|(_, w)| w).collect();
        }
    }
    weights
}

/// Pareto(1, alpha) sample, capped to avoid a single node swallowing the
/// whole edge budget.
fn pareto(alpha: f64, rng: &mut Pcg64) -> f64 {
    let u = (1.0 - rng.next_f64()).max(f64::MIN_POSITIVE);
    u.powf(-1.0 / (alpha - 1.0)).min(1e6)
}

/// Clamps weights to `max_ratio` times their mean (see
/// [`DegreeShape::PowerLaw`]).
fn cap_to_ratio(weights: &mut [f64], max_ratio: f64) {
    if weights.is_empty() {
        return;
    }
    let mean: f64 = weights.iter().sum::<f64>() / weights.len() as f64;
    let cap = mean * max_ratio;
    for w in weights.iter_mut() {
        if *w > cap {
            *w = cap;
        }
    }
}

/// Chung–Lu style edge sampling: both endpoints drawn from the node-weight
/// alias table (columns get a uniform admixture so that the pattern shows
/// row clustering without collapsing onto hub×hub cells).
fn generate_adjacency(
    spec: &DatasetSpec,
    node_weights: &[f64],
    rng: &mut Pcg64,
) -> Result<Csr, SparseError> {
    let n = spec.nodes;
    let target = spec.expected_a_nnz().max(n); // at least ~1 edge per node
    let row_table = AliasTable::new(node_weights);
    // Column endpoint: 60% weight-proportional (clustering), 40% uniform.
    let mut pairs: Vec<(u32, u32)> = Vec::with_capacity(target);
    for _ in 0..target {
        let i = row_table.sample(rng) as u32;
        let j = if rng.next_f64() < 0.6 {
            row_table.sample(rng) as u32
        } else {
            rng.next_below(n as u64) as u32
        };
        if i != j {
            pairs.push((i, j));
        }
    }
    pairs.sort_unstable();
    pairs.dedup();
    csr_from_sorted_pairs(n, n, &pairs)
}

/// Builds a CSR with unit values from sorted, deduplicated (row, col) pairs.
fn csr_from_sorted_pairs(
    rows: usize,
    cols: usize,
    pairs: &[(u32, u32)],
) -> Result<Csr, SparseError> {
    let mut row_ptr = vec![0usize; rows + 1];
    for &(r, _) in pairs {
        row_ptr[r as usize + 1] += 1;
    }
    for i in 0..rows {
        row_ptr[i + 1] += row_ptr[i];
    }
    let col_idx: Vec<u32> = pairs.iter().map(|&(_, c)| c).collect();
    let values = vec![1.0f32; pairs.len()];
    Csr::from_parts(rows, cols, row_ptr, col_idx, values)
}

/// Sparse bag-of-words-like feature matrix: per-row nnz ~ Poisson(mean),
/// distinct uniform columns, positive values.
fn generate_features(spec: &DatasetSpec, rng: &mut Pcg64) -> Result<Csr, SparseError> {
    let (n, f1) = (spec.nodes, spec.f1);
    let mean = f1 as f64 * spec.x1_density;
    let mut row_ptr = Vec::with_capacity(n + 1);
    row_ptr.push(0usize);
    let mut col_idx: Vec<u32> = Vec::new();
    let mut values: Vec<f32> = Vec::new();
    // Reusable membership bitmap; touched entries cleared after each row.
    let mut used = vec![false; f1];
    let mut touched: Vec<u32> = Vec::new();
    for _ in 0..n {
        let k = rng.next_poisson(mean).min(f1);
        if k * 3 >= f1 {
            // Dense row: Bernoulli per column with p = k / f1.
            let p = k as f64 / f1 as f64;
            for c in 0..f1 {
                if rng.next_f64() < p {
                    col_idx.push(c as u32);
                    values.push(0.1 + 0.9 * rng.next_f32());
                }
            }
        } else {
            // Sparse row: rejection-sample distinct columns, then sort.
            touched.clear();
            while touched.len() < k {
                let c = rng.next_below(f1 as u64) as u32;
                if !used[c as usize] {
                    used[c as usize] = true;
                    touched.push(c);
                }
            }
            touched.sort_unstable();
            for &c in &touched {
                used[c as usize] = false;
                col_idx.push(c);
                values.push(0.1 + 0.9 * rng.next_f32());
            }
        }
        row_ptr.push(col_idx.len());
    }
    Csr::from_parts(n, f1, row_ptr, col_idx, values)
}

/// Xavier-uniform weights with a positive bias fraction: entries uniform in
/// `[-(1 - bias)·b, b]` with `b = sqrt(6 / (fan_in + fan_out))`.
fn generate_weight(fan_in: usize, fan_out: usize, bias: f64, rng: &mut Pcg64) -> DenseMatrix {
    let b = (6.0 / (fan_in + fan_out) as f64).sqrt();
    let lo = -(1.0 - bias) * b;
    let mut data = Vec::with_capacity(fan_in * fan_out);
    for _ in 0..fan_in * fan_out {
        data.push((lo + (b - lo) * rng.next_f64()) as f32);
    }
    DenseMatrix::from_vec(fan_in, fan_out, data).expect("length is rows*cols by construction")
}

#[cfg(test)]
mod tests {
    use super::*;
    use awb_sparse::profile::row_nnz_stats;

    fn small(spec: DatasetSpec) -> GeneratedDataset {
        GeneratedDataset::generate(&spec, 7).expect("generation succeeds")
    }

    #[test]
    fn oversized_spec_is_typed_error() {
        // A scale past the u32 index space is rejected before any
        // allocation (it used to die on "capacity overflow").
        for spec in [
            DatasetSpec::cora().scaled(1e308),
            DatasetSpec::cora().with_nodes(u32::MAX as usize + 1),
        ] {
            let nodes = spec.nodes;
            assert_eq!(
                GeneratedDataset::generate(&spec, 1).unwrap_err(),
                SparseError::IndexSpaceExceeded {
                    shape: (nodes, nodes)
                }
            );
        }
    }

    #[test]
    fn deterministic_given_seed() {
        let spec = DatasetSpec::cora().with_nodes(300);
        let a = GeneratedDataset::generate(&spec, 5).unwrap();
        let b = GeneratedDataset::generate(&spec, 5).unwrap();
        assert_eq!(a.adjacency, b.adjacency);
        assert_eq!(a.features, b.features);
        assert_eq!(a.weights, b.weights);
        let c = GeneratedDataset::generate(&spec, 6).unwrap();
        assert_ne!(a.adjacency, c.adjacency);
    }

    #[test]
    fn adjacency_density_near_target() {
        let spec = DatasetSpec::cora().with_nodes(1024);
        let data = small(spec.clone());
        let target = spec.a_density;
        let got = data.a_density();
        assert!(
            (got - target).abs() / target < 0.35,
            "target {target}, got {got}"
        );
    }

    #[test]
    fn feature_density_near_target() {
        let spec = DatasetSpec::pubmed().with_nodes(512);
        let data = small(spec.clone());
        let got = data.x1_density();
        assert!(
            (got - spec.x1_density).abs() / spec.x1_density < 0.1,
            "target {}, got {got}",
            spec.x1_density
        );
    }

    #[test]
    fn no_self_loops() {
        let data = small(DatasetSpec::cora().with_nodes(256));
        for (r, c, _) in data.adjacency.iter() {
            assert_ne!(r, c);
        }
    }

    #[test]
    fn power_law_has_heavy_tail() {
        let data = small(DatasetSpec::cora().with_nodes(2048));
        let stats = row_nnz_stats(&data.adjacency);
        assert!(
            stats.imbalance_factor > 3.0,
            "imbalance {}",
            stats.imbalance_factor
        );
        assert!(stats.gini > 0.3, "gini {}", stats.gini);
    }

    #[test]
    fn clustered_hubs_concentrate_mass_in_leading_rows() {
        let spec = DatasetSpec::nell().with_nodes(4096);
        let data = small(spec);
        let counts = data.adjacency.row_nnz_counts();
        let total: usize = counts.iter().sum();
        // Hubs are the first ~0.3% of rows under HubsFirst ordering and
        // hold ~30% of all edge endpoints; take the first 1% of rows and
        // require they hold far more than a proportionate share.
        let lead: usize = counts[..counts.len() / 100].iter().sum();
        assert!(
            lead as f64 / total as f64 > 0.20,
            "lead share {}",
            lead as f64 / total as f64
        );
    }

    #[test]
    fn even_shape_is_balanced() {
        let spec = DatasetSpec::reddit().with_nodes(4096);
        let data = small(spec);
        let stats = row_nnz_stats(&data.adjacency);
        assert!(stats.cv < 1.0, "cv {}", stats.cv);
        assert!(stats.gini < 0.45, "gini {}", stats.gini);
    }

    #[test]
    fn shuffled_ordering_spreads_hubs() {
        let spec = DatasetSpec::nell()
            .with_nodes(4096)
            .with_ordering(RowOrdering::Shuffled);
        let data = small(spec);
        let counts = data.adjacency.row_nnz_counts();
        let total: usize = counts.iter().sum();
        let lead: usize = counts[..counts.len() / 100].iter().sum();
        // With shuffling, the leading 1% of rows holds roughly 1% of mass
        // unless a hub happens to land there; allow generous slack.
        assert!(
            (lead as f64 / total as f64) < 0.30,
            "lead share {}",
            lead as f64 / total as f64
        );
    }

    #[test]
    fn hubs_first_sorts_by_degree_weight() {
        let data = small(DatasetSpec::cora().with_nodes(1024));
        let counts = data.adjacency.row_nnz_counts();
        let first_half: usize = counts[..512].iter().sum();
        let second_half: usize = counts[512..].iter().sum();
        assert!(first_half > second_half);
    }

    #[test]
    fn weights_are_bounded_and_biased() {
        let data = small(DatasetSpec::cora().with_nodes(128));
        let w1 = &data.weights[0];
        let b = (6.0 / (w1.rows() + w1.cols()) as f64).sqrt() as f32;
        let mut sum = 0.0f64;
        for &v in w1.as_slice() {
            assert!(v <= b && v >= -b);
            sum += v as f64;
        }
        // Positive bias: mean should be positive.
        assert!(sum / w1.as_slice().len() as f64 > 0.0);
    }

    #[test]
    fn feature_columns_strictly_sorted_per_row() {
        let data = small(DatasetSpec::citeseer().with_nodes(256));
        for r in 0..data.features.rows() {
            let cols: Vec<usize> = data.features.row_entries(r).map(|(c, _)| c).collect();
            for w in cols.windows(2) {
                assert!(w[0] < w[1], "row {r} has unsorted/duplicate columns");
            }
        }
    }
}

#[cfg(test)]
mod external_adjacency_tests {
    use super::*;
    use awb_sparse::Coo;

    #[test]
    fn with_adjacency_respects_supplied_matrix() {
        let mut a = Coo::new(32, 32);
        for i in 0..31 {
            a.push(i, i + 1, 1.0).unwrap();
        }
        let spec = DatasetSpec::custom("ext", 999, (16, 4, 2), 0.5, 0.25);
        let data = GeneratedDataset::with_adjacency(&spec, a.to_csr(), 3).unwrap();
        assert_eq!(data.spec.nodes, 32); // overridden by the matrix
        assert_eq!(data.adjacency.nnz(), 31);
        assert_eq!(data.features.shape(), (32, 16));
        assert_eq!(data.weights[0].shape(), (16, 4));
    }

    #[test]
    fn with_adjacency_rejects_non_square() {
        let a = Coo::new(4, 5).to_csr();
        let spec = DatasetSpec::custom("bad", 4, (8, 4, 2), 0.1, 0.1);
        assert!(GeneratedDataset::with_adjacency(&spec, a, 1).is_err());
    }

    #[test]
    fn with_adjacency_deterministic() {
        let mut a = Coo::new(16, 16);
        a.push(0, 1, 1.0).unwrap();
        let spec = DatasetSpec::custom("det", 16, (8, 4, 2), 0.1, 0.3);
        let d1 = GeneratedDataset::with_adjacency(&spec, a.to_csr(), 9).unwrap();
        let d2 = GeneratedDataset::with_adjacency(&spec, a.to_csr(), 9).unwrap();
        assert_eq!(d1.features, d2.features);
        assert_eq!(d1.weights, d2.weights);
    }
}
