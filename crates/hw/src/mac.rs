/// One multiply-accumulate operation entering a PE, identified by the
/// output row of the current result column it accumulates into (the
/// pipeline models when the accumulation happens, not its value).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MacOp {
    /// Global output row the operation accumulates into.
    pub row: u32,
}

/// Read-after-Write scoreboard (paper §3.3).
///
/// The pipelined floating-point MAC takes `latency` cycles; a new op that
/// accumulates into a row whose previous accumulation is still in flight
/// would read a stale partial sum. The scoreboard tracks, per row, the
/// cycle at which its last accumulation completes; ops targeting such a row
/// must stall ("similar to the role of the scoreboard for register RaW
/// hazards in processor design").
///
/// # Example
///
/// ```
/// use awb_hw::RawScoreboard;
///
/// let mut sb = RawScoreboard::new(4); // 4-cycle MAC
/// assert_eq!(sb.earliest_issue(7, 10), 10); // row idle: issue now
/// sb.record_issue(7, 10);
/// assert_eq!(sb.earliest_issue(7, 11), 14); // must wait for completion
/// assert_eq!(sb.earliest_issue(8, 11), 11); // other rows unaffected
/// ```
#[derive(Debug, Clone, Default)]
pub struct RawScoreboard {
    latency: u64,
    ready_at: std::collections::HashMap<u32, u64>,
}

impl RawScoreboard {
    /// Creates a scoreboard for a MAC pipeline of the given latency.
    pub fn new(latency: u64) -> Self {
        RawScoreboard {
            latency,
            ready_at: std::collections::HashMap::new(),
        }
    }

    /// Earliest cycle (≥ `now`) at which an op targeting `row` may issue.
    pub fn earliest_issue(&self, row: u32, now: u64) -> u64 {
        self.ready_at.get(&row).copied().unwrap_or(0).max(now)
    }

    /// Records that an op for `row` issued at `cycle`; its result is ready
    /// (and the row free) at `cycle + latency`.
    pub fn record_issue(&mut self, row: u32, cycle: u64) {
        self.ready_at.insert(row, cycle + self.latency);
    }
}

/// A cycle-stepped pipelined MAC unit of fixed depth.
///
/// Accepts at most one [`MacOp`] per cycle; completed ops emerge `latency`
/// cycles later. The detailed engine couples it with a [`RawScoreboard`].
/// A tick touches one stage and allocates nothing.
#[derive(Debug, Clone)]
pub struct MacPipeline {
    /// A ring of `latency` stages: `stages[head]` holds the op issued
    /// `latency` cycles ago, which completes on the next tick, and the
    /// op issued on that tick takes its slot.
    stages: Vec<Option<MacOp>>,
    head: usize,
    completed: u64,
}

impl MacPipeline {
    /// Creates a pipeline with the given depth.
    ///
    /// # Panics
    ///
    /// Panics if `latency == 0`.
    pub fn new(latency: usize) -> Self {
        assert!(latency > 0, "pipeline needs at least one stage");
        MacPipeline {
            stages: vec![None; latency],
            head: 0,
            completed: 0,
        }
    }

    /// Advances one cycle, optionally issuing a new op, and returns the op
    /// completing this cycle (if any).
    pub fn tick(&mut self, issue: Option<MacOp>) -> Option<MacOp> {
        let out = std::mem::replace(&mut self.stages[self.head], issue);
        self.head = (self.head + 1) % self.stages.len();
        if out.is_some() {
            self.completed += 1;
        }
        out
    }

    /// True when any stage holds an op.
    pub fn busy(&self) -> bool {
        self.stages.iter().any(|s| s.is_some())
    }

    /// Ops completed so far.
    pub fn completed(&self) -> u64 {
        self.completed
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scoreboard_no_hazard_across_rows() {
        let mut sb = RawScoreboard::new(6);
        sb.record_issue(1, 0);
        assert_eq!(sb.earliest_issue(2, 1), 1);
        sb.record_issue(2, 1);
        assert_eq!(sb.earliest_issue(3, 2), 2);
    }

    #[test]
    fn scoreboard_same_row_stalls_by_latency() {
        let mut sb = RawScoreboard::new(6);
        sb.record_issue(5, 0);
        assert_eq!(sb.earliest_issue(5, 1), 6);
        sb.record_issue(5, 6);
        // Third access chains after the second.
        assert_eq!(sb.earliest_issue(5, 7), 12);
    }

    #[test]
    fn pipeline_latency_respected() {
        let mut p = MacPipeline::new(3);
        let op = MacOp { row: 1 };
        assert_eq!(p.tick(Some(op)), None);
        assert!(p.busy());
        assert_eq!(p.tick(None), None);
        assert_eq!(p.tick(None), None);
        assert_eq!(p.tick(None), Some(op));
        assert!(!p.busy());
        assert_eq!(p.completed(), 1);
    }

    #[test]
    fn pipeline_sustains_one_per_cycle() {
        let mut p = MacPipeline::new(2);
        let mk = |i: u32| MacOp { row: i };
        assert_eq!(p.tick(Some(mk(0))), None);
        assert_eq!(p.tick(Some(mk(1))), None);
        assert_eq!(p.tick(Some(mk(2))), Some(mk(0)));
        assert_eq!(p.tick(Some(mk(3))), Some(mk(1)));
        assert_eq!(p.tick(None), Some(mk(2)));
        assert_eq!(p.tick(None), Some(mk(3)));
        assert!(!p.busy());
        assert_eq!(p.completed(), 4);
    }

    #[test]
    #[should_panic(expected = "at least one stage")]
    fn zero_latency_panics() {
        MacPipeline::new(0);
    }
}
