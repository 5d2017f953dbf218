//! Runtime workload rebalancing — the paper's core contribution (§4).
//!
//! * [`local`] — dynamic local sharing: per-task diversion to under-loaded
//!   neighbour PEs within a hop radius (§4.1),
//! * [`remote`] — dynamic remote switching: per-round exchange of row
//!   ownership between the hotspot and coldspot PEs, sized by Eq. 5 (§4.2),
//! * [`autotuner`] — the convergence loop that applies remote switching
//!   round by round and freezes the configuration once utilization stops
//!   improving, so it can be reused for all remaining columns and
//!   iterations.

pub mod autotuner;
pub mod local;
pub mod remote;

pub use autotuner::AutoTuner;
pub use local::LocalSharing;
pub use remote::{RemoteSwitcher, SwitchPlan};
