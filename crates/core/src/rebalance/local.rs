//! Dynamic local sharing (paper §4.1).
//!
//! Before a task enters its owner PE's queue, the distributor compares the
//! pending-task counters of the owner and its neighbours within the hop
//! radius and forwards the task to the least-loaded candidate. Results are
//! returned to the owner's accumulator afterwards (the AGU computes the
//! return address), so sharing is invisible to correctness.

/// Local-sharing decision logic for a given hop radius.
///
/// A radius of 0 disables sharing (baseline behaviour). Larger radii
/// rebalance better at the cost of wiring/area — the paper's Designs A–D
/// use 1 and 2 hops (2 and 3 for Nell).
///
/// # Example
///
/// ```
/// use awb_accel::LocalSharing;
///
/// let sharing = LocalSharing::new(1, 8);
/// // Owner PE 3 is loaded; neighbour 2 is empty.
/// let lens = [5usize, 5, 0, 9, 5, 5, 5, 5];
/// assert_eq!(sharing.choose(3, |pe| lens[pe as usize]), 2);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct LocalSharing {
    hop: usize,
    n_pes: usize,
}

impl LocalSharing {
    /// Creates the decision logic.
    ///
    /// # Panics
    ///
    /// Panics if `n_pes == 0` or `hop >= n_pes`.
    pub fn new(hop: usize, n_pes: usize) -> Self {
        assert!(n_pes > 0, "need at least one PE");
        assert!(hop < n_pes, "hop must be smaller than the PE count");
        LocalSharing { hop, n_pes }
    }

    /// Sharing radius.
    pub fn hop(&self) -> usize {
        self.hop
    }

    /// Chooses the destination PE for a task owned by `owner`, given a
    /// pending-task length oracle.
    ///
    /// Ties are broken toward the owner first, then toward the nearer
    /// neighbour (sharing costs a return transfer, so it is only worth it
    /// when it strictly helps), then toward the lower PE index.
    ///
    /// This is the distributor's comparator tree: the winner is the
    /// minimum of `(queue length, tie rank)` over the window, each
    /// candidate packed into one `u128` key (length in the high 64 bits,
    /// the [`tie_rank`] of its offset from the owner in the low bits), so
    /// the scan is a chain of branch-free integer minimums. The fields
    /// never overlap — a `usize` length, a rank below `2 × hop + 1` — so
    /// the key is lossless for every PE count.
    #[inline]
    pub fn choose<F: Fn(u32) -> usize>(&self, owner: u32, queue_len: F) -> u32 {
        if self.hop == 0 {
            return owner;
        }
        let key = |pe: u32| {
            ((queue_len(pe) as u128) << 64) | u128::from(tie_rank(pe as isize - owner as isize))
        };
        // The window always holds the owner, so `best` ends as a real key.
        let mut best = u128::MAX;
        for pe in self.window(owner) {
            best = best.min(key(pe));
        }
        (owner as isize + rank_offset(best as u64)) as u32
    }

    /// The candidate window `[owner − hop, owner + hop]` clamped to the
    /// array bounds (used by tests and the detailed engine's final-stage
    /// redirect).
    pub fn window(&self, owner: u32) -> std::ops::RangeInclusive<u32> {
        let lo = (owner as usize).saturating_sub(self.hop) as u32;
        let hi = ((owner as usize + self.hop).min(self.n_pes - 1)) as u32;
        lo..=hi
    }
}

/// The comparator's tie rank of the window lane at signed distance
/// `offset` from the owner: the owner is 0, then `o − 1`, `o + 1`,
/// `o − 2`, `o + 2`, … — nearer beats farther and, at equal distance, the
/// lower PE index wins. The one definition of the tie-break rule, shared
/// by [`LocalSharing::choose`] and the round model's fixed-width window
/// (`engine::steady`), so the two cannot drift apart.
#[inline(always)]
pub(crate) const fn tie_rank(offset: isize) -> u64 {
    if offset < 0 {
        (-2 * offset - 1) as u64
    } else {
        (2 * offset) as u64
    }
}

/// Inverse of [`tie_rank`]: the signed owner offset a rank stands for.
#[inline(always)]
pub(crate) const fn rank_offset(rank: u64) -> isize {
    if rank % 2 == 1 {
        -((rank as isize + 1) / 2)
    } else {
        rank as isize / 2
    }
}

/// Bits a tie rank of a hop-`hop` window occupies (ranks run `0..=2 × hop`).
#[inline(always)]
pub(crate) const fn rank_bits(hop: usize) -> u32 {
    usize::BITS - (2 * hop).leading_zeros()
}

/// The comparator as first written: a branching scan that keeps the first
/// strictly better candidate. Kept as the oracle the packed
/// [`LocalSharing::choose`] must match on every input.
#[cfg(test)]
pub(crate) fn reference_choose<F: Fn(u32) -> usize>(
    sharing: LocalSharing,
    owner: u32,
    queue_len: F,
) -> u32 {
    if sharing.hop == 0 {
        return owner;
    }
    let lo = (owner as usize).saturating_sub(sharing.hop);
    let hi = (owner as usize + sharing.hop).min(sharing.n_pes - 1);
    let mut best = owner;
    let mut best_len = queue_len(owner);
    let mut best_dist = 0usize;
    for pe in lo..=hi {
        let pe = pe as u32;
        if pe == owner {
            continue;
        }
        let len = queue_len(pe);
        let dist = pe.abs_diff(owner) as usize;
        if len < best_len || (len == best_len && dist < best_dist) {
            best = pe;
            best_len = len;
            best_dist = dist;
        }
    }
    best
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    proptest! {
        // Each case is a handful of comparisons; CI re-runs this test by
        // name with the global case cap raised.
        #![proptest_config(ProptestConfig::with_cases(8192))]

        /// The packed comparator picks exactly what the branching scan
        /// does: queue lengths drawn from a tiny range (so most windows
        /// hold several ties), owners at PE 0, PE `n_pes − 1` or anywhere,
        /// and every hop from 0 to `n_pes − 1`.
        #[test]
        fn choose_matches_reference_loop(
            n_pes in 2usize..48,
            hop_raw in 0usize..48,
            owner_kind in 0usize..3,
            owner_raw in 0usize..48,
            lens in proptest::collection::vec(0usize..3, 48),
        ) {
            let hop = hop_raw % n_pes;
            let owner = match owner_kind {
                0 => 0,
                1 => n_pes - 1,
                _ => owner_raw % n_pes,
            } as u32;
            let sharing = LocalSharing::new(hop, n_pes);
            let len = |p: u32| lens[p as usize];
            prop_assert_eq!(
                sharing.choose(owner, len),
                reference_choose(sharing, owner, len)
            );
        }
    }

    #[test]
    fn zero_hop_always_owner() {
        let s = LocalSharing::new(0, 4);
        assert_eq!(s.choose(2, |_| 0), 2);
        assert_eq!(s.choose(2, |p| if p == 2 { 100 } else { 0 }), 2);
    }

    #[test]
    fn prefers_owner_on_tie() {
        let s = LocalSharing::new(2, 8);
        assert_eq!(s.choose(4, |_| 3), 4);
    }

    #[test]
    fn picks_least_loaded_in_window() {
        let s = LocalSharing::new(2, 8);
        let lens = [9usize, 9, 7, 9, 9, 1, 9, 0];
        // Owner 4: window 2..=6; PE 5 has 1 (PE 7 is outside).
        assert_eq!(s.choose(4, |p| lens[p as usize]), 5);
    }

    #[test]
    fn window_clamps_at_borders() {
        let s = LocalSharing::new(2, 8);
        assert_eq!(s.window(0), 0..=2);
        assert_eq!(s.window(7), 5..=7);
        assert_eq!(s.window(4), 2..=6);
    }

    #[test]
    fn border_pe_shares_inward() {
        let s = LocalSharing::new(1, 4);
        let lens = [5usize, 0, 9, 9];
        assert_eq!(s.choose(0, |p| lens[p as usize]), 1);
    }

    #[test]
    fn nearer_neighbour_wins_tie_among_neighbours() {
        let s = LocalSharing::new(2, 8);
        // Owner 4 loaded; PEs 3 and 2 both at 1: pick 3 (closer).
        let lens = [9usize, 9, 1, 1, 9, 9, 9, 9];
        assert_eq!(s.choose(4, |p| lens[p as usize]), 3);
    }

    #[test]
    #[should_panic(expected = "hop must be smaller")]
    fn hop_too_large_panics() {
        LocalSharing::new(4, 4);
    }

    #[test]
    fn larger_hop_reaches_further() {
        let lens = [0usize, 9, 9, 9, 9, 9, 9, 9];
        assert_eq!(LocalSharing::new(1, 8).choose(4, |p| lens[p as usize]), 4);
        assert_eq!(LocalSharing::new(3, 8).choose(4, |p| lens[p as usize]), 4);
        // hop 4 reaches PE 0.
        assert_eq!(LocalSharing::new(4, 8).choose(4, |p| lens[p as usize]), 0);
    }
}
