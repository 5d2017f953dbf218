//! Design-space sweeps: run a grid of (design × PE count) points over one
//! workload and collect the per-point metrics the paper's Figs. 14/15 plot.

use crate::area::AreaModel;
use crate::config::{AccelConfig, Design, StrategyPolicy};
use crate::cost::CostProfile;
use crate::error::AccelError;
use crate::exec;
use crate::gcn_run::GcnRunner;
use awb_gcn_model::GcnInput;

/// One evaluated grid point.
#[derive(Debug, Clone, PartialEq)]
pub struct SweepPoint {
    /// Design evaluated.
    pub design: Design,
    /// PE count evaluated.
    pub n_pes: usize,
    /// End-to-end inference cycles of the cold (tuning-inclusive) run.
    pub cycles: u64,
    /// Average PE utilization of the cold run.
    pub utilization: f64,
    /// End-to-end cycles of a warm request executed against the point's
    /// prepared [`GcnPlan`](crate::GcnPlan) (frozen map, no tuning rounds)
    /// — the steady-state serving latency the paper's "reuse the ideal
    /// configuration" regime delivers.
    pub warm_cycles: u64,
    /// Average PE utilization of the warm request.
    pub warm_utilization: f64,
    /// Deepest task queue needed anywhere.
    pub max_queue_depth: usize,
    /// Total TQ slots needed across the array (max over SPMMs).
    pub tq_slots: usize,
    /// Modeled total area in CLBs.
    pub clb_total: f64,
    /// The cost model's warm-path cycle prediction for this
    /// point (see [`crate::cost::predict_config_cycles`]) — computed from
    /// one structure profile shared across the whole grid, so sweeps put
    /// the model next to every measurement for free.
    pub predicted_cycles: f64,
}

/// Grid sweep runner.
///
/// # Example
///
/// ```
/// use awb_accel::{AccelConfig, Design, DesignSweep};
/// use awb_datasets::{DatasetSpec, GeneratedDataset};
/// use awb_gcn_model::GcnInput;
///
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// let data = GeneratedDataset::generate(&DatasetSpec::cora().with_nodes(128), 2)?;
/// let input = GcnInput::from_dataset(&data)?;
/// let points = DesignSweep::new()
///     .designs(vec![Design::Baseline, Design::LocalSharing { hop: 1 }])
///     .pe_counts(vec![16, 32])
///     .run(&input)?;
/// assert_eq!(points.len(), 4);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone)]
pub struct DesignSweep {
    designs: Vec<Design>,
    pe_counts: Vec<usize>,
    base: AccelConfig,
    area_model: AreaModel,
}

impl Default for DesignSweep {
    fn default() -> Self {
        DesignSweep::new()
    }
}

impl DesignSweep {
    /// A sweep with the paper's design lineup at 1024 PEs.
    pub fn new() -> Self {
        DesignSweep {
            designs: Design::paper_lineup(1).to_vec(),
            pe_counts: vec![1024],
            base: AccelConfig::paper_default(),
            area_model: AreaModel::paper_default(),
        }
    }

    /// Replaces the design list.
    pub fn designs(mut self, designs: Vec<Design>) -> Self {
        self.designs = designs;
        self
    }

    /// Replaces the PE-count list.
    pub fn pe_counts(mut self, pe_counts: Vec<usize>) -> Self {
        self.pe_counts = pe_counts;
        self
    }

    /// Replaces the base configuration the designs are applied to.
    pub fn base_config(mut self, base: AccelConfig) -> Self {
        self.base = base;
        self
    }

    /// Replaces the area model.
    pub fn area_model(mut self, model: AreaModel) -> Self {
        self.area_model = model;
        self
    }

    /// Runs every grid point, returning results in PE-major order.
    ///
    /// Grid points are independent simulations, so they execute on the
    /// [`exec`] substrate (`AWB_THREADS` workers); the result vector is
    /// identical to a sequential sweep — see the `exec` determinism
    /// contract.
    ///
    /// # Errors
    ///
    /// Propagates configuration/shape errors from the runner (e.g. an
    /// invalid PE count).
    pub fn run(&self, input: &GcnInput) -> Result<Vec<SweepPoint>, AccelError> {
        let grid: Vec<(usize, Design)> = self
            .pe_counts
            .iter()
            .flat_map(|&n_pes| self.designs.iter().map(move |&design| (n_pes, design)))
            .collect();
        // Configuration errors are detectable up front; reject them before
        // burning simulation time on the rest of the grid.
        for &(n_pes, design) in &grid {
            let config = design.apply(self.base.clone());
            if config.local_hop >= n_pes {
                return Err(AccelError::InvalidConfig(format!(
                    "hop {} does not fit {} PEs",
                    config.local_hop, n_pes
                )));
            }
        }
        // The structure profile depends only on the input, not the grid
        // point, so compute it once here and share it with every prepare
        // instead of re-profiling per point.
        let profile = CostProfile::of_input(input);
        exec::par_map(&grid, |&(n_pes, design)| {
            let mut config = design.apply(self.base.clone());
            config.n_pes = n_pes;
            // The design/PE axes ARE the sweep variables: an Auto base
            // would collapse every point onto the model's single winner,
            // so grid points always execute their own configuration.
            config.strategy = StrategyPolicy::Manual;
            // Prepare once per point: the cold warm-up run is the classic
            // (tuning-inclusive) measurement, and the extracted plan is
            // reused for a warm request — the steady-state serving figure
            // (plan shared between both, tuning paid exactly once).
            let (plan, outcome) =
                GcnRunner::new(config.clone()).prepare_profiled(input, &profile)?;
            let warm = plan.run_input(input)?;
            let tq_slots = outcome
                .stats
                .spmms()
                .iter()
                .map(|s| s.total_queue_slots())
                .max()
                .unwrap_or(0);
            Ok(SweepPoint {
                design,
                n_pes,
                cycles: outcome.stats.total_cycles(),
                utilization: outcome.stats.avg_utilization(),
                warm_cycles: warm.stats.total_cycles(),
                warm_utilization: warm.stats.avg_utilization(),
                max_queue_depth: outcome.stats.max_queue_depth(),
                tq_slots,
                clb_total: self.area_model.breakdown(&config, tq_slots).total(),
                predicted_cycles: crate::cost::predict_config_cycles(&config, &profile),
            })
        })
        .into_iter()
        .collect()
    }
}

/// Renders sweep points as CSV:
/// `design,n_pes,cycles,utilization,warm_cycles,warm_utilization,max_queue_depth,tq_slots,clb_total,predicted_cycles`.
pub fn sweep_csv(points: &[SweepPoint]) -> String {
    let mut out = String::from(
        "design,n_pes,cycles,utilization,warm_cycles,warm_utilization,\
         max_queue_depth,tq_slots,clb_total,predicted_cycles\n",
    );
    for p in points {
        out.push_str(&format!(
            "{},{},{},{:.4},{},{:.4},{},{},{:.0},{:.0}\n",
            p.design.label(),
            p.n_pes,
            p.cycles,
            p.utilization,
            p.warm_cycles,
            p.warm_utilization,
            p.max_queue_depth,
            p.tq_slots,
            p.clb_total,
            p.predicted_cycles,
        ));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use awb_datasets::{DatasetSpec, GeneratedDataset};

    fn input() -> GcnInput {
        let data = GeneratedDataset::generate(&DatasetSpec::cora().with_nodes(128), 4).unwrap();
        GcnInput::from_dataset(&data).unwrap()
    }

    #[test]
    fn sweep_covers_grid_in_order() {
        let points = DesignSweep::new()
            .designs(vec![Design::Baseline, Design::LocalPlusRemote { hop: 1 }])
            .pe_counts(vec![8, 16])
            .run(&input())
            .unwrap();
        assert_eq!(points.len(), 4);
        assert_eq!(points[0].n_pes, 8);
        assert_eq!(points[0].design, Design::Baseline);
        assert_eq!(points[3].n_pes, 16);
        assert_eq!(points[3].design, Design::LocalPlusRemote { hop: 1 });
        for p in &points {
            assert!(p.cycles > 0);
            assert!(p.utilization > 0.0 && p.utilization <= 1.0);
            assert!(p.clb_total > 0.0);
            // Warm (plan-reusing) requests never pay tuning, so they are
            // never slower than the cold run.
            assert!(p.warm_cycles > 0);
            assert!(
                p.warm_cycles <= p.cycles,
                "warm {} cold {}",
                p.warm_cycles,
                p.cycles
            );
            assert!(p.warm_utilization > 0.0 && p.warm_utilization <= 1.0);
            // The shared-profile cost prediction rides along every point.
            assert!(p.predicted_cycles.is_finite() && p.predicted_cycles > 0.0);
        }
    }

    #[test]
    fn more_pes_cost_more_area_but_fewer_cycles() {
        let points = DesignSweep::new()
            .designs(vec![Design::LocalPlusRemote { hop: 1 }])
            .pe_counts(vec![8, 64])
            .run(&input())
            .unwrap();
        assert!(points[1].cycles < points[0].cycles);
        // More PEs always cost more non-TQ area; TQ shrinkage rarely
        // overcomes an 8x PE increase.
        assert!(points[1].clb_total > points[0].clb_total);
    }

    #[test]
    fn sharded_base_config_sweeps() {
        // The shard policy rides in the base configuration, so a sweep
        // over a sharded deployment needs no dedicated plumbing.
        use crate::config::ShardPolicy;
        let mut base = AccelConfig::paper_default();
        base.shards = ShardPolicy::Fixed(2);
        let points = DesignSweep::new()
            .designs(vec![Design::LocalPlusRemote { hop: 1 }])
            .pe_counts(vec![8, 16])
            .base_config(base)
            .run(&input())
            .unwrap();
        assert_eq!(points.len(), 2);
        for p in &points {
            assert!(p.cycles > 0);
            assert!(p.warm_cycles > 0 && p.warm_cycles <= p.cycles);
            assert!(p.utilization > 0.0 && p.utilization <= 1.0);
        }
    }

    #[test]
    fn combination_sharded_base_config_sweeps() {
        // The combination-phase policy rides the base configuration too,
        // so sweeping an X×W-sharded (or doubly sharded) deployment needs
        // no dedicated plumbing either.
        use crate::config::ShardPolicy;
        let mut base = AccelConfig::paper_default();
        base.shards = ShardPolicy::Fixed(2);
        base.combination_shards = ShardPolicy::Fixed(2);
        let points = DesignSweep::new()
            .designs(vec![Design::LocalPlusRemote { hop: 1 }])
            .pe_counts(vec![8, 16])
            .base_config(base)
            .run(&input())
            .unwrap();
        assert_eq!(points.len(), 2);
        for p in &points {
            assert!(p.cycles > 0);
            assert!(p.warm_cycles > 0 && p.warm_cycles <= p.cycles);
            assert!(p.utilization > 0.0 && p.utilization <= 1.0);
        }
    }

    #[test]
    fn invalid_hop_rejected() {
        let res = DesignSweep::new()
            .designs(vec![Design::LocalSharing { hop: 9 }])
            .pe_counts(vec![8])
            .run(&input());
        assert!(res.is_err());
    }

    #[test]
    fn csv_shape() {
        let points = DesignSweep::new()
            .designs(vec![Design::Baseline])
            .pe_counts(vec![8])
            .run(&input())
            .unwrap();
        let csv = sweep_csv(&points);
        let lines: Vec<&str> = csv.lines().collect();
        assert_eq!(lines.len(), 2);
        assert!(lines[0].starts_with("design,n_pes"));
        assert!(lines[1].starts_with("Base,8,"));
    }
}
