//! Hardware performance auto-tuning (paper §4).
//!
//! "Our accelerator can remember this plan and incrementally adjust it when
//! processing the next column … After several rounds, the configuration
//! best matching the sparse structure of A is obtained, and we use it for
//! the remaining rounds." The tuner drives [`RemoteSwitcher`] while active
//! and freezes once utilization converges (or the round budget runs out);
//! the frozen [`RowMap`] is then reused — across the remaining columns, and
//! across later SPMMs on the same sparse matrix (e.g. `A` appears in every
//! layer).

use crate::config::AccelConfig;
use crate::mapping::RowMap;
use crate::rebalance::remote::RemoteSwitcher;

/// Relative utilization improvement below which a round counts as
/// "no improvement".
const CONVERGENCE_EPSILON: f64 = 0.01;
/// Consecutive no-improvement rounds before freezing.
const PATIENCE: usize = 2;

/// The auto-tuning controller owning the remote switcher and the
/// convergence state.
///
/// # Example
///
/// ```
/// use awb_accel::{AccelConfig, AutoTuner, MappingKind, RowMap};
///
/// # fn main() -> Result<(), awb_accel::AccelError> {
/// let config = AccelConfig::builder().n_pes(4).build()?;
/// let mut map = RowMap::new(16, 4, MappingKind::Block);
/// let mut tuner = AutoTuner::new(&config, 16);
/// assert!(tuner.is_active());
/// // A perfectly balanced round converges quickly.
/// for _ in 0..4 { tuner.observe_round(&[10, 10, 10, 10], 1.0, &mut map); }
/// assert!(!tuner.is_active());
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone)]
pub struct AutoTuner {
    switcher: Option<RemoteSwitcher>,
    frozen: bool,
    best_util: f64,
    stagnant_rounds: usize,
    rounds_done: usize,
    max_rounds: usize,
}

impl AutoTuner {
    /// Creates a tuner for `config` tuning a sparse operand with `n_rows`
    /// rows. When the config disables remote switching the tuner is born
    /// frozen (local sharing needs no tuning — it is a per-task decision).
    pub fn new(config: &AccelConfig, n_rows: usize) -> Self {
        let switcher = config.remote_switching.then(|| {
            RemoteSwitcher::new(config.tracking_window, config.rows_per_pe(n_rows).max(1))
        });
        AutoTuner {
            frozen: switcher.is_none(),
            switcher,
            best_util: 0.0,
            stagnant_rounds: 0,
            rounds_done: 0,
            max_rounds: config.max_tuning_rounds,
        }
    }

    /// True while the tuner still adjusts the configuration.
    pub fn is_active(&self) -> bool {
        !self.frozen
    }

    /// Forces the configuration frozen immediately (used by
    /// [`FastEngine::freeze_plan`](crate::FastEngine::freeze_plan) after a
    /// warm-up whose dense operand had too few columns for natural
    /// convergence — the paper freezes at the round budget regardless).
    pub fn freeze(&mut self) {
        self.frozen = true;
    }

    /// Rounds observed before freezing.
    pub fn rounds_done(&self) -> usize {
        self.rounds_done
    }

    /// Total rows exchanged by remote switching.
    pub fn total_switches(&self) -> u64 {
        self.switcher.as_ref().map_or(0, |s| s.total_switches())
    }

    /// Feeds one finished round into the tuner: plans and applies remote
    /// switches and updates the convergence state.
    ///
    /// `busy` holds the round's owner-attributed busy cycles per PE (the
    /// PESM's view) and `round_util` is the PE utilization of the observed round in `[0, 1]`.
    pub fn observe_round(&mut self, busy: &[u64], round_util: f64, map: &mut RowMap) {
        if self.frozen {
            return;
        }
        self.rounds_done += 1;
        if let Some(switcher) = &mut self.switcher {
            for plan in switcher.plan(busy, map) {
                plan.apply(map);
            }
        }
        // Convergence: stop when utilization stops improving or the budget
        // is exhausted.
        if round_util > self.best_util * (1.0 + CONVERGENCE_EPSILON) {
            self.best_util = round_util;
            self.stagnant_rounds = 0;
        } else {
            self.stagnant_rounds += 1;
        }
        if self.rounds_done >= self.max_rounds
            || (self.rounds_done >= 3 && self.stagnant_rounds >= PATIENCE)
        {
            self.frozen = true;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::MappingKind;

    fn config(remote: bool) -> AccelConfig {
        let mut b = AccelConfig::builder();
        b.n_pes(4).remote_switching(remote).max_tuning_rounds(10);
        b.build().unwrap()
    }

    #[test]
    fn disabled_remote_switching_starts_frozen() {
        let tuner = AutoTuner::new(&config(false), 16);
        assert!(!tuner.is_active());
    }

    #[test]
    fn freezes_after_budget() {
        let mut tuner = AutoTuner::new(&config(true), 16);
        let mut map = RowMap::new(16, 4, MappingKind::Block);
        // Utilization keeps improving, so only the budget stops it.
        for i in 0..10 {
            assert!(tuner.is_active(), "round {i}");
            tuner.observe_round(&[40, 30, 20, 10], 0.05 * (i + 1) as f64, &mut map);
        }
        assert!(!tuner.is_active());
        assert_eq!(tuner.rounds_done(), 10);
    }

    #[test]
    fn freezes_on_stagnation() {
        let mut tuner = AutoTuner::new(&config(true), 16);
        let mut map = RowMap::new(16, 4, MappingKind::Block);
        for _ in 0..5 {
            tuner.observe_round(&[10, 10, 10, 10], 0.9, &mut map);
        }
        assert!(!tuner.is_active());
        assert!(tuner.rounds_done() < 5);
    }

    #[test]
    fn observing_while_frozen_is_noop() {
        let mut tuner = AutoTuner::new(&config(false), 16);
        let mut map = RowMap::new(16, 4, MappingKind::Block);
        tuner.observe_round(&[9, 0, 0, 0], 0.2, &mut map);
        assert_eq!(tuner.rounds_done(), 0);
        assert_eq!(map.total_exchanged(), 0);
    }

    #[test]
    fn applies_switch_plans_to_map() {
        let mut tuner = AutoTuner::new(&config(true), 16);
        let mut map = RowMap::new(16, 4, MappingKind::Block);
        // Persistent gap: the second observation should move rows.
        tuner.observe_round(&[100, 50, 50, 0], 0.3, &mut map);
        tuner.observe_round(&[100, 50, 50, 0], 0.31, &mut map);
        assert!(map.total_exchanged() > 0);
        assert!(map.is_consistent());
    }
}
