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
    stalls: u64,
}

impl RawScoreboard {
    /// Creates a scoreboard for a MAC pipeline of the given latency.
    pub fn new(latency: u64) -> Self {
        RawScoreboard {
            latency,
            ready_at: std::collections::HashMap::new(),
            stalls: 0,
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

    /// Convenience: computes the issue cycle for an op arriving at `now`,
    /// records it, and counts any stall.
    pub fn issue(&mut self, row: u32, now: u64) -> u64 {
        let at = self.earliest_issue(row, now);
        if at > now {
            self.stalls += at - now;
        }
        self.record_issue(row, at);
        at
    }

    /// Total stall cycles caused by RaW hazards.
    pub fn stall_cycles(&self) -> u64 {
        self.stalls
    }

    /// Pipeline latency.
    pub fn latency(&self) -> u64 {
        self.latency
    }

    /// Forgets all in-flight state (between rounds).
    pub fn reset(&mut self) {
        self.ready_at.clear();
    }
}

/// A cycle-stepped pipelined MAC unit of fixed depth.
///
/// Accepts at most one [`MacOp`] per cycle; completed ops emerge `latency`
/// cycles later. The detailed engine couples it with a [`RawScoreboard`].
#[derive(Debug, Clone)]
pub struct MacPipeline {
    latency: usize,
    /// Stage i holds the op issued i+1 cycles ago (`stages[latency-1]` is
    /// about to complete).
    stages: Vec<Option<MacOp>>,
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
            latency,
            stages: vec![None; latency],
            completed: 0,
        }
    }

    /// Pipeline depth.
    pub fn latency(&self) -> usize {
        self.latency
    }

    /// Advances one cycle, optionally issuing a new op, and returns the op
    /// completing this cycle (if any).
    pub fn tick(&mut self, issue: Option<MacOp>) -> Option<MacOp> {
        let out = self.stages.pop().expect("pipeline has stages");
        self.stages.insert(0, issue);
        if out.is_some() {
            self.completed += 1;
        }
        out
    }

    /// True when any stage holds an op.
    pub fn busy(&self) -> bool {
        self.stages.iter().any(|s| s.is_some())
    }

    /// True when an op targeting `row` is in flight (hazard condition).
    pub fn row_in_flight(&self, row: u32) -> bool {
        self.stages.iter().flatten().any(|op| op.row == row)
    }

    /// Ops completed so far.
    pub fn completed(&self) -> u64 {
        self.completed
    }

    /// Drains the pipeline, returning remaining ops oldest-first.
    pub fn drain(&mut self) -> Vec<MacOp> {
        let mut out = Vec::new();
        while self.busy() {
            if let Some(op) = self.tick(None) {
                out.push(op);
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scoreboard_no_hazard_across_rows() {
        let mut sb = RawScoreboard::new(6);
        assert_eq!(sb.issue(1, 0), 0);
        assert_eq!(sb.issue(2, 1), 1);
        assert_eq!(sb.issue(3, 2), 2);
        assert_eq!(sb.stall_cycles(), 0);
    }

    #[test]
    fn scoreboard_same_row_stalls_by_latency() {
        let mut sb = RawScoreboard::new(6);
        assert_eq!(sb.issue(5, 0), 0);
        assert_eq!(sb.issue(5, 1), 6);
        assert_eq!(sb.stall_cycles(), 5);
        // Third access chains after the second.
        assert_eq!(sb.issue(5, 7), 12);
    }

    #[test]
    fn scoreboard_reset_clears_state() {
        let mut sb = RawScoreboard::new(4);
        sb.issue(9, 0);
        sb.reset();
        assert_eq!(sb.earliest_issue(9, 1), 1);
    }

    #[test]
    fn pipeline_latency_respected() {
        let mut p = MacPipeline::new(3);
        let op = MacOp { row: 1 };
        assert_eq!(p.tick(Some(op)), None);
        assert_eq!(p.tick(None), None);
        assert_eq!(p.tick(None), None);
        assert_eq!(p.tick(None), Some(op));
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
    }

    #[test]
    fn row_in_flight_detection() {
        let mut p = MacPipeline::new(3);
        p.tick(Some(MacOp { row: 7 }));
        assert!(p.row_in_flight(7));
        assert!(!p.row_in_flight(8));
        p.tick(None);
        p.tick(None);
        p.tick(None);
        assert!(!p.row_in_flight(7));
    }

    #[test]
    fn drain_returns_in_flight_ops_in_order() {
        let mut p = MacPipeline::new(4);
        for i in 0..3 {
            p.tick(Some(MacOp { row: i }));
        }
        let drained = p.drain();
        let rows: Vec<u32> = drained.iter().map(|o| o.row).collect();
        assert_eq!(rows, vec![0, 1, 2]);
        assert!(!p.busy());
    }

    #[test]
    #[should_panic(expected = "at least one stage")]
    fn zero_latency_panics() {
        MacPipeline::new(0);
    }
}
