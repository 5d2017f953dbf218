//! Deterministic, seed-driven fault injection for the serving stack.
//!
//! A [`FaultPlan`] decides — as a *pure function* of `(seed, site, index)`
//! — whether a given execution site faults and how: a worker panic, a
//! NaN-corrupted payload, or a synthetic delay. Determinism matters twice
//! over: the chaos suite can predict exactly which requests fault (and
//! assert every non-faulted response is bit-identical to a cold run), and
//! a failure seen under `awb_sim serve --faults SEED` reproduces exactly
//! under the same seed.
//!
//! Injection is **off by default and zero-cost when off**: the plan lives
//! in `AccelConfig` as an `Option<FaultPlan>` (a `Copy` of two words), and
//! every hook site is a single `if let None` test on the hot path.
//!
//! # Named sites
//!
//! | site | faulted behaviour |
//! |---|---|
//! | `"drain"` | per queued request in [`GcnService::drain_isolated`](crate::GcnService::drain_isolated) |
//! | `"serve"` | per request in an isolated serve batch |
//! | `"prepare:sharded"` | panics the sharded prepare, exercising the fallback to an unsharded plan |

use std::fmt;

/// What an injected fault does at its site.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FaultKind {
    /// The worker panics mid-request; the isolation boundary must convert
    /// it to [`AccelError::WorkerPanicked`](crate::AccelError::WorkerPanicked)
    /// without disturbing the batch.
    Panic,
    /// The response payload is corrupted with a NaN; the output guard must
    /// suppress it as
    /// [`AccelError::NonFiniteOutput`](crate::AccelError::NonFiniteOutput),
    /// never hand it back.
    NanPayload,
    /// The worker sleeps a few milliseconds; the request still completes
    /// bit-identically (and may trip a deadline budget upstream).
    Delay,
}

impl fmt::Display for FaultKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            FaultKind::Panic => write!(f, "panic"),
            FaultKind::NanPayload => write!(f, "nan-payload"),
            FaultKind::Delay => write!(f, "delay"),
        }
    }
}

/// Fraction of site hits that fault, in percent.
pub const DEFAULT_FAULT_RATE_PERCENT: u8 = 25;

/// A deterministic fault-injection plan (see module docs).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FaultPlan {
    seed: u64,
}

impl FaultPlan {
    /// A plan faulting [`DEFAULT_FAULT_RATE_PERCENT`]% of site hits under
    /// the given seed.
    pub fn new(seed: u64) -> Self {
        FaultPlan { seed }
    }

    /// The seed this plan derives every decision from.
    pub fn seed(&self) -> u64 {
        self.seed
    }

    /// FNV-1a over `(seed, site, index)` with a splitmix64 finalizer —
    /// the single source of all decisions, so they are reproducible
    /// across runs, thread counts, and machines. The finalizer matters:
    /// bare FNV-1a has weak avalanche when inputs differ only in the
    /// last mixed word (consecutive request indices), which would
    /// correlate fault *kinds* across a batch and make some kind
    /// combinations unreachable under any seed.
    fn roll(&self, site: &str, index: u64) -> u64 {
        let mut h: u64 = 0xcbf2_9ce4_8422_2325;
        let mut mix = |x: u64| {
            h ^= x;
            h = h.wrapping_mul(0x0000_0100_0000_01b3);
        };
        mix(self.seed);
        for b in site.bytes() {
            mix(b as u64);
        }
        mix(index.wrapping_add(1));
        h ^= h >> 30;
        h = h.wrapping_mul(0xbf58_476d_1ce4_e5b9);
        h ^= h >> 27;
        h = h.wrapping_mul(0x94d0_49bb_1331_11eb);
        h ^= h >> 31;
        h
    }

    /// Whether the `index`-th hit of `site` faults, and how. Pure in
    /// `(seed, site, index)`.
    pub fn decide(&self, site: &str, index: u64) -> Option<FaultKind> {
        let h = self.roll(site, index);
        if (h % 100) as u8 >= DEFAULT_FAULT_RATE_PERCENT {
            return None;
        }
        Some(match (h >> 8) % 3 {
            0 => FaultKind::Panic,
            1 => FaultKind::NanPayload,
            _ => FaultKind::Delay,
        })
    }

    /// Synthetic-delay duration for a [`FaultKind::Delay`] at this site:
    /// 1–8 ms, seed-derived.
    pub fn delay_ms(&self, site: &str, index: u64) -> u64 {
        1 + (self.roll(site, index) >> 16) % 8
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn decisions_are_deterministic() {
        let a = FaultPlan::new(42);
        let b = FaultPlan::new(42);
        for i in 0..200 {
            assert_eq!(a.decide("drain", i), b.decide("drain", i));
            assert_eq!(a.delay_ms("drain", i), b.delay_ms("drain", i));
        }
    }

    #[test]
    fn seeds_and_sites_differentiate() {
        let a = FaultPlan::new(1);
        let b = FaultPlan::new(2);
        let differs_by_seed = (0..64).any(|i| a.decide("drain", i) != b.decide("drain", i));
        assert!(differs_by_seed);
        let differs_by_site = (0..64).any(|i| a.decide("drain", i) != a.decide("serve", i));
        assert!(differs_by_site);
    }

    #[test]
    fn faults_cover_all_kinds() {
        let plan = FaultPlan::new(7);
        let kinds: Vec<FaultKind> = (0..256).filter_map(|i| plan.decide("drain", i)).collect();
        assert!(kinds.contains(&FaultKind::Panic));
        assert!(kinds.contains(&FaultKind::NanPayload));
        assert!(kinds.contains(&FaultKind::Delay));
    }

    #[test]
    fn observed_rate_tracks_configured_rate() {
        let plan = FaultPlan::new(3);
        let n = 2000;
        let faulted = (0..n)
            .filter(|&i| plan.decide("drain", i).is_some())
            .count();
        let pct = 100 * faulted / n as usize;
        assert!(
            (15..=35).contains(&pct),
            "observed {pct}% vs configured 25%"
        );
    }

    #[test]
    fn delays_are_small_and_positive() {
        let plan = FaultPlan::new(9);
        for i in 0..100 {
            let d = plan.delay_ms("drain", i);
            assert!((1..=8).contains(&d));
        }
    }

    #[test]
    fn kind_display() {
        assert_eq!(FaultKind::Panic.to_string(), "panic");
        assert_eq!(FaultKind::NanPayload.to_string(), "nan-payload");
        assert_eq!(FaultKind::Delay.to_string(), "delay");
    }
}
