use std::error::Error;
use std::fmt;

use awb_sparse::SparseError;

/// Errors produced by accelerator configuration and simulation.
#[derive(Debug, Clone, PartialEq, Eq)]
#[non_exhaustive]
pub enum AccelError {
    /// A configuration field was invalid (message explains which and why).
    InvalidConfig(String),
    /// Operand shapes were incompatible with the requested SPMM.
    Shape(SparseError),
    /// The functional cross-check between simulated and reference output
    /// failed — a simulator bug, never a user error.
    VerificationFailed {
        /// Which SPMM/label failed.
        label: String,
        /// Largest absolute difference observed.
        max_diff: String,
    },
    /// The serving front-end's admission queue is at its configured depth
    /// — explicit backpressure instead of unbounded growth. The caller
    /// drains the queue, then enqueues the request again.
    QueueFull {
        /// The configured admission-queue depth that was hit.
        depth: usize,
    },
    /// A worker thread panicked while executing an isolated request or
    /// shard. The panic was caught at the isolation boundary
    /// ([`par_map_isolated`](crate::exec::par_map_isolated)) so other
    /// in-flight requests completed normally.
    WorkerPanicked {
        /// The named site (e.g. `drain[3]`) where the panic surfaced.
        site: String,
        /// The stringified panic payload.
        message: String,
    },
    /// A request's queue wait exceeded its per-request deadline budget, so
    /// the service shed it instead of executing stale work.
    DeadlineExceeded {
        /// How long the request actually waited, in milliseconds.
        waited_ms: u64,
        /// The configured deadline budget, in milliseconds.
        budget_ms: u64,
    },
    /// A graph/feature/weight operand was rejected at admission — NaN/±inf
    /// values, out-of-bounds indices, or a dimension mismatch — before it
    /// could enter the plan cache or produce a silent-NaN output.
    InvalidInput(String),
    /// A response matrix contained NaN/±inf values (detected under fault
    /// injection) and was suppressed: the service returns this typed error
    /// rather than ever handing back a corrupted payload.
    NonFiniteOutput {
        /// The named site (e.g. `drain[5]`) whose output was corrupted.
        site: String,
    },
}

impl fmt::Display for AccelError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            AccelError::InvalidConfig(msg) => write!(f, "invalid accelerator config: {msg}"),
            AccelError::Shape(e) => write!(f, "operand shape error: {e}"),
            AccelError::VerificationFailed { label, max_diff } => write!(
                f,
                "functional verification failed for {label}: max diff {max_diff}"
            ),
            AccelError::QueueFull { depth } => write!(
                f,
                "admission queue full (depth {depth}): request rejected — drain the queue or \
                 raise ServeOptions::queue_depth"
            ),
            AccelError::WorkerPanicked { site, message } => {
                write!(f, "worker panicked at {site}: {message}")
            }
            AccelError::DeadlineExceeded {
                waited_ms,
                budget_ms,
            } => write!(
                f,
                "deadline exceeded: request waited {waited_ms} ms against a {budget_ms} ms budget \
                 — shed without executing"
            ),
            AccelError::InvalidInput(msg) => {
                write!(f, "invalid input rejected at admission: {msg}")
            }
            AccelError::NonFiniteOutput { site } => write!(
                f,
                "non-finite output suppressed at {site}: response contained NaN/inf and was \
                 replaced by this typed error"
            ),
        }
    }
}

impl Error for AccelError {
    fn source(&self) -> Option<&(dyn Error + 'static)> {
        match self {
            AccelError::Shape(e) => Some(e),
            _ => None,
        }
    }
}

impl From<SparseError> for AccelError {
    fn from(e: SparseError) -> Self {
        AccelError::Shape(e)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_messages() {
        let e = AccelError::InvalidConfig("n_pes must be a power of two".into());
        assert!(e.to_string().contains("n_pes"));
        let e: AccelError = SparseError::MalformedFormat("x".into()).into();
        assert!(e.to_string().contains("shape error"));
        assert!(e.source().is_some());
        let e = AccelError::QueueFull { depth: 64 };
        assert!(e.to_string().contains("admission queue full (depth 64)"));
        let e = AccelError::WorkerPanicked {
            site: "drain[3]".into(),
            message: "boom".into(),
        };
        assert!(e.to_string().contains("worker panicked at drain[3]: boom"));
        let e = AccelError::DeadlineExceeded {
            waited_ms: 120,
            budget_ms: 50,
        };
        assert!(e.to_string().contains("waited 120 ms"));
        assert!(e.to_string().contains("50 ms budget"));
        let e = AccelError::InvalidInput("x1 value at nnz 4 is NaN".into());
        assert!(e.to_string().contains("rejected at admission"));
        let e = AccelError::NonFiniteOutput {
            site: "serve[1]".into(),
        };
        assert!(e
            .to_string()
            .contains("non-finite output suppressed at serve[1]"));
    }

    #[test]
    fn send_sync() {
        fn check<T: Send + Sync>() {}
        check::<AccelError>();
    }
}
