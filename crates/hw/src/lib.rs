//! Cycle-level hardware building blocks for the AWB-GCN simulator.
//!
//! These components mirror the modules of the paper's Fig. 7 / Fig. 12
//! block diagrams. The *detailed* engine in `awb-accel` instantiates each
//! of them to time a round; it carries task row ids only, since every
//! engine computes the numerics through one pinned kernel:
//!
//! * [`TaskQueue`] — a FIFO task queue (TQ) whose occupancy the
//!   local-sharing comparators read (the engines record each PE's
//!   high-water depth, by which the paper sizes TQ area),
//! * [`RoundRobinArbiter`] — the per-PE arbiter selecting among multiple
//!   TQs in TDQ-1,
//! * [`OmegaNetwork`] — the multi-stage interconnect of TDQ-2 with per-stage
//!   buffering, backpressure and contention counters,
//! * [`MacPipeline`] + [`RawScoreboard`] — the floating-point
//!   multiply-accumulate pipeline and the Read-after-Write hazard tracking
//!   of §3.3.
//!
//! [`MemoryModel`] holds the SPMMeM capacity and off-chip bandwidth the
//! fast engine derives its delivery rate and round-0 fill from.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod arbiter;
mod mac;
mod memory;
mod omega;
mod queue;

pub use arbiter::RoundRobinArbiter;
pub use mac::{MacOp, MacPipeline, RawScoreboard};
pub use memory::{MemoryModel, BYTES_PER_NNZ};
pub use omega::{OmegaNetwork, Packet};
pub use queue::TaskQueue;
