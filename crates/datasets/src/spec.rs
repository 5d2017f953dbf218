/// Which of the paper's five benchmark datasets a spec models.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum PaperDataset {
    /// Cora citation network (2 708 nodes).
    Cora,
    /// Citeseer citation network (3 327 nodes).
    Citeseer,
    /// Pubmed citation network (19 717 nodes).
    Pubmed,
    /// Nell knowledge graph (65 755 nodes) — extremely clustered non-zeros.
    Nell,
    /// Reddit post graph (232 965 nodes) — large but comparatively balanced.
    Reddit,
}

impl PaperDataset {
    /// All five datasets in the paper's column order.
    pub fn all() -> [PaperDataset; 5] {
        [
            PaperDataset::Cora,
            PaperDataset::Citeseer,
            PaperDataset::Pubmed,
            PaperDataset::Nell,
            PaperDataset::Reddit,
        ]
    }

    /// Display name as used in the paper's tables.
    pub fn name(&self) -> &'static str {
        match self {
            PaperDataset::Cora => "Cora",
            PaperDataset::Citeseer => "Citeseer",
            PaperDataset::Pubmed => "Pubmed",
            PaperDataset::Nell => "Nell",
            PaperDataset::Reddit => "Reddit",
        }
    }

    /// The spec reproducing this dataset's Table 1 statistics.
    pub fn spec(&self) -> DatasetSpec {
        match self {
            PaperDataset::Cora => DatasetSpec::cora(),
            PaperDataset::Citeseer => DatasetSpec::citeseer(),
            PaperDataset::Pubmed => DatasetSpec::pubmed(),
            PaperDataset::Nell => DatasetSpec::nell(),
            PaperDataset::Reddit => DatasetSpec::reddit(),
        }
    }
}

/// Shape of the adjacency matrix's row-degree distribution.
///
/// This is what decides how hard the workload-balancing problem is: the
/// paper's Fig. 13 shows citation graphs with power-law rows, Nell with a
/// handful of enormous hub rows, and Reddit with high but even degrees.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum DegreeShape {
    /// Pareto-distributed expected degrees with exponent `alpha`
    /// (smaller `alpha` → heavier tail), capped at `max_ratio` times the
    /// mean weight — real citation networks have max/mean degree ratios of
    /// ~25-40 (Cora: max 168 vs mean 4.9), which an uncapped Pareto
    /// overshoots badly at these node counts.
    PowerLaw {
        /// Pareto shape exponent (> 1).
        alpha: f64,
        /// Cap on (max weight / mean weight).
        max_ratio: f64,
    },
    /// A block of `hub_fraction` of the nodes (adjacent in index space)
    /// receives `hub_mass` of all edge endpoints; the rest follow a
    /// power law. Models Nell's clustered knowledge-graph hubs.
    ClusteredHubs {
        /// Fraction of nodes that are hubs (e.g. `0.001`).
        hub_fraction: f64,
        /// Fraction of all edge endpoints landing on hub rows (e.g. `0.5`).
        hub_mass: f64,
        /// Tail exponent for the non-hub nodes.
        tail_alpha: f64,
    },
    /// Near-uniform expected degrees with the given coefficient of
    /// variation. Models Reddit.
    Even {
        /// Coefficient of variation of expected degrees (e.g. `0.3`).
        cv: f64,
    },
}

/// How node indices are assigned relative to degree.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum RowOrdering {
    /// Heaviest nodes first — produces the clustered non-zero patterns of
    /// the paper's Fig. 1 and makes *remote* imbalance visible under block
    /// row-partitioning. (Nell's entity ordering really is this clustered.)
    #[default]
    HubsFirst,
    /// Random permutation of node indices — hubs land on random PEs.
    Shuffled,
    /// Partial correlation between index and degree rank: node order is
    /// sorted by `rho% × rank + (100-rho)% × noise`. Real citation-network
    /// ids correlate weakly with degree (older, more-cited papers get
    /// smaller ids), which is what makes their imbalance a mix of the
    /// paper's "local" and "remote" kinds.
    Correlated {
        /// Correlation strength in percent (0 = shuffled, 100 = sorted).
        rho_percent: u8,
    },
}

/// Full description of a synthetic dataset: dimensions, densities, and
/// distribution shape. Construct via the named constructors
/// ([`DatasetSpec::cora`] etc.) or [`DatasetSpec::custom`], then refine with
/// the builder-style `with_*` methods.
///
/// # Example
///
/// ```
/// use awb_datasets::DatasetSpec;
///
/// let spec = DatasetSpec::nell().with_nodes(8192);
/// // Scaling preserves the average degree, not the density.
/// assert!((spec.avg_degree() - DatasetSpec::nell().avg_degree()).abs() < 1e-9);
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct DatasetSpec {
    /// Human-readable name.
    pub name: String,
    /// The paper dataset this models, if any.
    pub paper: Option<PaperDataset>,
    /// Node count (rows and columns of `A`).
    pub nodes: usize,
    /// Input feature dimension (layer-1).
    pub f1: usize,
    /// Hidden feature dimension (layer-2 input).
    pub f2: usize,
    /// Output feature dimension.
    pub f3: usize,
    /// Density of the adjacency matrix `A`.
    pub a_density: f64,
    /// Density of the input feature matrix `X1`.
    pub x1_density: f64,
    /// Density the paper reports for `X2` (emerges from computation in our
    /// pipeline; recorded for Table 1 comparison).
    pub x2_density_paper: f64,
    /// Row-degree distribution shape of `A`.
    pub degree_shape: DegreeShape,
    /// Node index ordering.
    pub ordering: RowOrdering,
}

impl DatasetSpec {
    /// Cora: 2 708 nodes, features 1433→16→7, A 0.18%, X1 1.27%.
    pub fn cora() -> Self {
        DatasetSpec {
            name: "Cora".into(),
            paper: Some(PaperDataset::Cora),
            nodes: 2708,
            f1: 1433,
            f2: 16,
            f3: 7,
            a_density: 0.0018,
            x1_density: 0.0127,
            x2_density_paper: 0.780,
            degree_shape: DegreeShape::PowerLaw {
                alpha: 2.9,
                max_ratio: 35.0,
            },
            ordering: RowOrdering::Correlated { rho_percent: 60 },
        }
    }

    /// Citeseer: 3 327 nodes, features 3703→16→6, A 0.11%, X1 0.85%.
    pub fn citeseer() -> Self {
        DatasetSpec {
            name: "Citeseer".into(),
            paper: Some(PaperDataset::Citeseer),
            nodes: 3327,
            f1: 3703,
            f2: 16,
            f3: 6,
            a_density: 0.0011,
            x1_density: 0.0085,
            x2_density_paper: 0.891,
            degree_shape: DegreeShape::PowerLaw {
                alpha: 3.0,
                max_ratio: 27.0,
            },
            ordering: RowOrdering::Correlated { rho_percent: 45 },
        }
    }

    /// Pubmed: 19 717 nodes, features 500→16→3, A 0.028%, X1 10%.
    pub fn pubmed() -> Self {
        DatasetSpec {
            name: "Pubmed".into(),
            paper: Some(PaperDataset::Pubmed),
            nodes: 19717,
            f1: 500,
            f2: 16,
            f3: 3,
            a_density: 0.00028,
            x1_density: 0.100,
            x2_density_paper: 0.776,
            degree_shape: DegreeShape::PowerLaw {
                alpha: 2.8,
                max_ratio: 31.0,
            },
            ordering: RowOrdering::Correlated { rho_percent: 45 },
        }
    }

    /// Nell: 65 755 nodes, features 61278→64→186, A 0.0073%, X1 0.011%.
    ///
    /// The degree shape concentrates half of all edge endpoints on ~0.1% of
    /// the nodes, adjacent in index space — reproducing the extreme
    /// clustering the paper reports (13% baseline PE utilization).
    pub fn nell() -> Self {
        DatasetSpec {
            name: "Nell".into(),
            paper: Some(PaperDataset::Nell),
            nodes: 65755,
            f1: 61278,
            f2: 64,
            f3: 186,
            a_density: 0.000073,
            x1_density: 0.00011,
            x2_density_paper: 0.864,
            degree_shape: DegreeShape::ClusteredHubs {
                hub_fraction: 0.003,
                hub_mass: 0.30,
                tail_alpha: 2.8,
            },
            ordering: RowOrdering::HubsFirst,
        }
    }

    /// Reddit: 232 965 nodes, features 602→64→41, A 0.043%, X1 51.6%.
    pub fn reddit() -> Self {
        DatasetSpec {
            name: "Reddit".into(),
            paper: Some(PaperDataset::Reddit),
            nodes: 232965,
            f1: 602,
            f2: 64,
            f3: 41,
            a_density: 0.00043,
            x1_density: 0.516,
            x2_density_paper: 0.600,
            degree_shape: DegreeShape::Even { cv: 0.5 },
            // Reddit's node ids are not degree-sorted; shuffling keeps the
            // per-PE load even, matching the paper's 92% baseline.
            ordering: RowOrdering::Shuffled,
        }
    }

    /// A custom spec with the given dimensions and densities and a default
    /// power-law shape.
    pub fn custom(
        name: &str,
        nodes: usize,
        dims: (usize, usize, usize),
        a_density: f64,
        x1_density: f64,
    ) -> Self {
        DatasetSpec {
            name: name.into(),
            paper: None,
            nodes,
            f1: dims.0,
            f2: dims.1,
            f3: dims.2,
            a_density,
            x1_density,
            x2_density_paper: 0.8,
            degree_shape: DegreeShape::PowerLaw {
                alpha: 2.6,
                max_ratio: 40.0,
            },
            ordering: RowOrdering::HubsFirst,
        }
    }

    /// Rescales to `nodes` nodes, preserving the **average degree** (density
    /// is adjusted by the inverse node ratio) and all feature dimensions.
    /// This keeps the per-row workload distribution — the thing the
    /// balancing experiments depend on — shape-invariant.
    ///
    /// # Panics
    ///
    /// Panics if `nodes == 0`.
    pub fn with_nodes(mut self, nodes: usize) -> Self {
        assert!(nodes > 0, "node count must be positive");
        let ratio = self.nodes as f64 / nodes as f64;
        self.a_density = (self.a_density * ratio).min(1.0);
        self.nodes = nodes;
        self
    }

    /// Rescales node count by `factor` (see [`DatasetSpec::with_nodes`]).
    ///
    /// # Panics
    ///
    /// Panics if `factor` is not in `(0, +inf)`.
    pub fn scaled(self, factor: f64) -> Self {
        assert!(
            factor.is_finite() && factor > 0.0,
            "scale factor must be positive"
        );
        let n = ((self.nodes as f64 * factor).round() as usize).max(8);
        self.with_nodes(n)
    }

    /// Replaces the row ordering.
    pub fn with_ordering(mut self, ordering: RowOrdering) -> Self {
        self.ordering = ordering;
        self
    }

    /// Expected average row degree of `A` (`nodes × a_density`).
    pub fn avg_degree(&self) -> f64 {
        self.nodes as f64 * self.a_density
    }

    /// Expected non-zero count of `A`.
    pub fn expected_a_nnz(&self) -> usize {
        (self.nodes as f64 * self.nodes as f64 * self.a_density).round() as usize
    }

    /// Expected non-zero count of `X1`.
    pub fn expected_x1_nnz(&self) -> usize {
        (self.nodes as f64 * self.f1 as f64 * self.x1_density).round() as usize
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_specs_match_table1_dims() {
        let cora = DatasetSpec::cora();
        assert_eq!((cora.nodes, cora.f1, cora.f2, cora.f3), (2708, 1433, 16, 7));
        let nell = DatasetSpec::nell();
        assert_eq!(
            (nell.nodes, nell.f1, nell.f2, nell.f3),
            (65755, 61278, 64, 186)
        );
        let reddit = DatasetSpec::reddit();
        assert_eq!(
            (reddit.nodes, reddit.f1, reddit.f2, reddit.f3),
            (232965, 602, 64, 41)
        );
    }

    #[test]
    fn paper_specs_match_table1_densities() {
        assert!((DatasetSpec::citeseer().a_density - 0.0011).abs() < 1e-12);
        assert!((DatasetSpec::pubmed().x1_density - 0.10).abs() < 1e-12);
        assert!((DatasetSpec::nell().a_density - 0.000073).abs() < 1e-12);
    }

    #[test]
    fn all_lists_five() {
        let names: Vec<_> = PaperDataset::all().iter().map(|d| d.name()).collect();
        assert_eq!(names, vec!["Cora", "Citeseer", "Pubmed", "Nell", "Reddit"]);
        for d in PaperDataset::all() {
            assert_eq!(d.spec().paper, Some(d));
        }
    }

    #[test]
    fn with_nodes_preserves_avg_degree() {
        let base = DatasetSpec::pubmed();
        let scaled = base.clone().with_nodes(1000);
        assert!((scaled.avg_degree() - base.avg_degree()).abs() < 1e-9);
        assert_eq!(scaled.nodes, 1000);
        assert_eq!(scaled.f1, base.f1);
    }

    #[test]
    fn scaled_by_factor() {
        let s = DatasetSpec::reddit().scaled(1.0 / 16.0);
        assert_eq!(s.nodes, (232965.0f64 / 16.0).round() as usize);
        assert!((s.avg_degree() - DatasetSpec::reddit().avg_degree()).abs() < 1e-9);
    }

    #[test]
    fn scaled_floors_at_minimum() {
        let s = DatasetSpec::cora().scaled(1e-9);
        assert_eq!(s.nodes, 8);
    }

    #[test]
    #[should_panic(expected = "positive")]
    fn with_nodes_zero_panics() {
        let _ = DatasetSpec::cora().with_nodes(0);
    }

    #[test]
    fn expected_nnz_formulas() {
        let cora = DatasetSpec::cora();
        assert_eq!(
            cora.expected_a_nnz(),
            (2708.0f64 * 2708.0 * 0.0018).round() as usize
        );
        assert_eq!(
            cora.expected_x1_nnz(),
            (2708.0f64 * 1433.0 * 0.0127).round() as usize
        );
    }

    #[test]
    fn custom_spec_round_trips() {
        let s = DatasetSpec::custom("toy", 100, (32, 8, 4), 0.05, 0.2);
        assert_eq!(s.name, "toy");
        assert_eq!(s.paper, None);
        assert_eq!(s.nodes, 100);
        assert_eq!((s.f1, s.f2, s.f3), (32, 8, 4));
    }
}
