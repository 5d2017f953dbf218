//! Cross-component integration tests of the `awb-hw` substrate: the pieces
//! must compose the way the detailed engine uses them.

use awb_gcn_repro::hw::{
    MacOp, MacPipeline, OmegaNetwork, Packet, RawScoreboard, RoundRobinArbiter, TaskQueue,
};

/// A miniature PE: queue → arbiter → scoreboard → pipeline, wired exactly
/// like one lane of the detailed engine (Block mode: a hazard holds the
/// head of its queue).
#[test]
fn single_pe_lane_processes_stream_correctly() {
    let mut queues: Vec<TaskQueue<MacOp>> = (0..2).map(|_| TaskQueue::unbounded()).collect();
    let mut arbiter = RoundRobinArbiter::new(2);
    let mut scoreboard = RawScoreboard::new(3);
    let mut pipe = MacPipeline::new(3);

    // 6 ops across 2 queues targeting rows 0..3.
    let rows = [0u32, 1, 2, 0, 3, 1];
    for (i, &row) in rows.iter().enumerate() {
        queues[i % 2].push(MacOp { row });
    }

    let mut cycle = 0u64;
    let mut issued = Vec::new();
    let mut completed = Vec::new();
    while queues.iter().any(|q| !q.is_empty()) || pipe.busy() {
        cycle += 1;
        let requests: Vec<bool> = queues.iter().map(|q| !q.is_empty()).collect();
        let mut issue = None;
        if let Some(qi) = arbiter.grant(&requests) {
            let head = *queues[qi].peek().unwrap();
            if scoreboard.earliest_issue(head.row, cycle) <= cycle {
                issue = queues[qi].pop();
            }
        }
        if let Some(op) = issue {
            scoreboard.record_issue(op.row, cycle);
            issued.push(op.row);
        }
        if let Some(done) = pipe.tick(issue) {
            completed.push(done.row);
        }
        assert!(cycle < 200, "lane failed to drain");
    }
    // Every op issued once and completed once, in issue order.
    assert_eq!(issued.len(), rows.len());
    assert_eq!(completed, issued);
    assert_eq!(pipe.completed(), rows.len() as u64);
    let mut sorted = issued.clone();
    sorted.sort_unstable();
    assert_eq!(sorted, vec![0, 0, 1, 1, 2, 3]);
    // The lane issued in more than a fifth of its cycles.
    assert!(issued.len() as f64 / cycle as f64 > 0.2, "{cycle} cycles");
}

/// Network → queue handoff: everything the network delivers lands in the
/// right queue and nothing is lost under heavy contention.
#[test]
fn network_to_queue_handoff_conserves_packets() {
    let n = 8;
    let mut net = OmegaNetwork::new(n, 2);
    let mut queues: Vec<TaskQueue<MacOp>> = (0..n).map(|_| TaskQueue::unbounded()).collect();
    // Deliveries and the deepest occupancy seen, per output port.
    let mut delivered = vec![0u64; n];
    let mut high_water = vec![0usize; n];
    // 128 packets, heavily skewed toward PE 1.
    let mut pending: Vec<Packet> = (0..128u32)
        .map(|i| Packet {
            dest: if i % 4 == 0 { i % 8 } else { 1 },
            row: i,
        })
        .collect();
    pending.reverse();
    let mut cycles = 0;
    while !(pending.is_empty() && net.is_drained()) {
        for port in 0..n {
            if let Some(p) = pending.last().copied() {
                if net.inject(port, p).is_ok() {
                    pending.pop();
                }
            }
        }
        net.tick(|port, pkt| {
            assert_eq!(port, pkt.dest as usize, "delivered to the wrong port");
            queues[port].push(MacOp { row: pkt.row });
            delivered[port] += 1;
            high_water[port] = high_water[port].max(queues[port].len());
        });
        cycles += 1;
        assert!(cycles < 10_000, "network failed to drain");
    }
    assert_eq!(delivered.iter().sum::<u64>(), 128);
    assert!(delivered[1] > 80);
    // The hot queue needed real depth; the cold ones did not.
    assert!(high_water[1] > high_water[3]);
}
