//! The per-operand state both engines tune between rounds: the row map
//! and the auto-tuner that remaps it.

use crate::config::AccelConfig;
use crate::error::AccelError;
use crate::mapping::RowMap;
use crate::rebalance::autotuner::AutoTuner;

/// One engine's tuning state, created on its first operand and kept
/// across runs (the paper's reuse of a tuned configuration).
#[derive(Debug, Clone)]
pub(crate) struct TuningState {
    pub map: RowMap,
    pub tuner: AutoTuner,
}

impl TuningState {
    /// The state in `slot` for an operand of `n_rows` rows, created from
    /// `config` on first use.
    ///
    /// # Errors
    ///
    /// [`AccelError::InvalidConfig`] when the state was tuned for another
    /// row count, or when `config` fails validation (a config edited after
    /// `build()` can hold a hop the local-sharing window would reject with
    /// a panic).
    pub(crate) fn ensure<'s>(
        slot: &'s mut Option<TuningState>,
        config: &AccelConfig,
        n_rows: usize,
    ) -> Result<&'s mut TuningState, AccelError> {
        match slot {
            Some(state) if state.map.n_rows() != n_rows => Err(AccelError::InvalidConfig(format!(
                "engine tuned for {} rows reused with {} rows",
                state.map.n_rows(),
                n_rows
            ))),
            Some(state) => Ok(state),
            None => {
                config.validate()?;
                Ok(slot.insert(TuningState {
                    map: RowMap::new(n_rows, config.n_pes, config.mapping),
                    tuner: AutoTuner::new(config, n_rows),
                }))
            }
        }
    }

    /// Auto-tuning between rounds: feeds the tuner a round of `tasks` MAC
    /// tasks over `cycles` cycles and its owner-attributed load (one entry
    /// per PE). A no-op for an empty round or a frozen tuner.
    pub(crate) fn observe_round(&mut self, owner_busy: &[u64], tasks: u64, cycles: u64) {
        if tasks > 0 {
            let n_pes = owner_busy.len();
            let util = tasks as f64 / (cycles.max(1) as f64 * n_pes as f64);
            self.tuner.observe_round(owner_busy, util, &mut self.map);
        }
    }
}
