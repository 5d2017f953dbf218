use std::collections::VecDeque;

/// A packet traversing the TDQ-2 Omega network: a non-zero's MAC task on
/// its way to the PE that owns its output row.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Packet {
    /// Destination PE (set by the row→PE map, possibly after remote
    /// switching).
    pub dest: u32,
    /// Global output row of the task.
    pub row: u32,
}

/// Multi-stage Omega network with destination-tag routing and per-stage
/// buffering (paper §3.3, TDQ-2).
///
/// `log2(n)` stages of 2×2 switches connect `n` injection ports to `n`
/// output ports. Each stage output has a small buffer; when both switch
/// inputs contend for the same output port, one packet stalls ("each router
/// … has a local buffer in case the buffer of the next stage is
/// saturated"). Compared with a crossbar this is cheap — which is exactly
/// why the paper chose it.
///
/// # Example
///
/// ```
/// use awb_hw::{OmegaNetwork, Packet};
///
/// let mut net = OmegaNetwork::new(8, 4);
/// net.inject(0, Packet { dest: 5, row: 5 }).unwrap();
/// let mut delivered = Vec::new();
/// for _ in 0..3 {
///     // log2(8) = 3 stages: one cycle each when uncontended.
///     net.tick(|port, packet| delivered.push((port, packet)));
/// }
/// assert_eq!(delivered.len(), 1);
/// assert_eq!(delivered[0].0, 5); // arrived at its destination port
/// ```
#[derive(Debug, Clone)]
pub struct OmegaNetwork {
    n: usize,
    stages: usize,
    cap: usize,
    /// `buffers[s][p]`: packets waiting at stage `s`, port `p`.
    buffers: Vec<Vec<VecDeque<Packet>>>,
    /// Rotating priority so neither switch input starves.
    priority: usize,
    /// `claimed[s * n + p]`: output port `p` of stage `s` already took a
    /// packet this cycle (one packet per receiving port per cycle). Reset
    /// on every tick, allocated once.
    claimed: Vec<bool>,
    contention_stalls: u64,
}

impl OmegaNetwork {
    /// Creates an `n`-port network (`n` must be a power of two ≥ 2) with
    /// per-port buffers of `buffer_capacity` packets.
    ///
    /// # Panics
    ///
    /// Panics if `n` is not a power of two ≥ 2 or `buffer_capacity == 0`.
    pub fn new(n: usize, buffer_capacity: usize) -> Self {
        assert!(
            n >= 2 && n.is_power_of_two(),
            "ports must be a power of two >= 2"
        );
        assert!(buffer_capacity > 0, "buffer capacity must be positive");
        let stages = n.trailing_zeros() as usize;
        OmegaNetwork {
            n,
            stages,
            cap: buffer_capacity,
            buffers: (0..stages)
                .map(|_| (0..n).map(|_| VecDeque::new()).collect())
                .collect(),
            priority: 0,
            claimed: vec![false; stages * n],
            contention_stalls: 0,
        }
    }

    /// Attempts to inject a packet at `port`; fails (returning the packet)
    /// when the stage-0 buffer is full.
    ///
    /// # Panics
    ///
    /// Panics if `port` or `packet.dest` is not below the port count.
    pub fn inject(&mut self, port: usize, packet: Packet) -> Result<(), Packet> {
        assert!(port < self.n, "injection port out of range");
        assert!((packet.dest as usize) < self.n, "destination out of range");
        let buf = &mut self.buffers[0][port];
        if buf.len() >= self.cap {
            return Err(packet);
        }
        buf.push_back(packet);
        Ok(())
    }

    /// Port a packet at stage `s`, port `p` moves to next: the perfect
    /// shuffle rotates the port index left, and the switch overwrites the
    /// low bit with the destination-tag bit for this stage.
    fn next_port(&self, s: usize, p: usize, dest: u32) -> usize {
        let bit = (dest as usize >> (self.stages - 1 - s)) & 1;
        ((p << 1) & (self.n - 1)) | bit
    }

    /// Advances the network one cycle, handing each packet delivered to an
    /// output port this cycle to `deliver(output_port, packet)`, in
    /// delivery order. Allocates nothing.
    ///
    /// Output ports are never blocked (the engine's PE queues absorb
    /// deliveries and measure their own depth); internal stages observe
    /// buffer capacity and one-packet-per-port bandwidth.
    pub fn tick(&mut self, mut deliver: impl FnMut(usize, Packet)) {
        self.claimed.fill(false);
        // Back-to-front so a packet moves at most one stage per cycle and
        // freed slots are visible upstream within the same cycle.
        for s in (0..self.stages).rev() {
            let last = s + 1 == self.stages;
            for off in 0..self.n {
                let p = (self.priority + off) % self.n;
                let Some(pkt) = self.buffers[s][p].front().copied() else {
                    continue;
                };
                // On the final stage `np` is the output port (== dest).
                let np = self.next_port(s, p, pkt.dest);
                let slot = s * self.n + np;
                if self.claimed[slot] || (!last && self.buffers[s + 1][np].len() >= self.cap) {
                    self.contention_stalls += 1;
                    continue;
                }
                self.claimed[slot] = true;
                self.buffers[s][p].pop_front();
                if last {
                    deliver(np, pkt);
                } else {
                    self.buffers[s + 1][np].push_back(pkt);
                }
            }
        }
        self.priority = (self.priority + 1) % self.n;
    }

    /// True when no packet is anywhere in the network.
    pub fn is_drained(&self) -> bool {
        self.buffers
            .iter()
            .all(|stage| stage.iter().all(|b| b.is_empty()))
    }

    /// Cycles in which a packet could not advance because of port
    /// contention or a saturated buffer.
    pub fn contention_stalls(&self) -> u64 {
        self.contention_stalls
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn pkt(dest: u32) -> Packet {
        Packet { dest, row: dest }
    }

    fn drain(net: &mut OmegaNetwork, max_cycles: usize) -> Vec<(usize, Packet)> {
        let mut out = Vec::new();
        for _ in 0..max_cycles {
            net.tick(|port, packet| out.push((port, packet)));
            if net.is_drained() {
                break;
            }
        }
        out
    }

    #[test]
    fn routes_every_source_to_every_destination() {
        for n in [2usize, 4, 8, 16] {
            for src in 0..n {
                for dst in 0..n {
                    let mut net = OmegaNetwork::new(n, 4);
                    net.inject(src, pkt(dst as u32)).unwrap();
                    let delivered = drain(&mut net, 4 * n);
                    assert_eq!(delivered.len(), 1, "n={n} src={src} dst={dst}");
                    assert_eq!(delivered[0].0, dst, "n={n} src={src} dst={dst}");
                }
            }
        }
    }

    #[test]
    fn latency_is_stage_count_when_uncontended() {
        let mut net = OmegaNetwork::new(8, 4);
        net.inject(3, pkt(6)).unwrap();
        let mut cycles = 0;
        loop {
            cycles += 1;
            let mut delivered = false;
            net.tick(|_, _| delivered = true);
            if delivered {
                break;
            }
            assert!(cycles < 10, "packet lost");
        }
        assert_eq!(cycles, net.stages);
    }

    #[test]
    fn single_destination_throughput_is_one_per_cycle() {
        // All 8 ports fire at PE 0: deliveries serialize at the output.
        let mut net = OmegaNetwork::new(8, 8);
        for p in 0..8 {
            net.inject(p, pkt(0)).unwrap();
        }
        let delivered = drain(&mut net, 64);
        assert_eq!(delivered.len(), 8);
        assert!(net.contention_stalls() > 0);
    }

    #[test]
    fn identity_permutation_is_conflict_lighter_than_hotspot() {
        let run = |dests: Vec<u32>| {
            let mut net = OmegaNetwork::new(8, 8);
            for (p, d) in dests.into_iter().enumerate() {
                net.inject(p, pkt(d)).unwrap();
            }
            drain(&mut net, 64);
            net.contention_stalls()
        };
        let uniform = run((0..8).collect());
        let hotspot = run(vec![0; 8]);
        assert!(uniform < hotspot, "uniform {uniform} hotspot {hotspot}");
    }

    #[test]
    fn injection_backpressure_when_buffer_full() {
        let mut net = OmegaNetwork::new(4, 1);
        net.inject(0, pkt(1)).unwrap();
        assert!(net.inject(0, pkt(2)).is_err());
        net.tick(|_, _| {});
        assert!(net.inject(0, pkt(2)).is_ok());
    }

    #[test]
    fn conservation_no_packet_lost_or_duplicated() {
        let mut net = OmegaNetwork::new(16, 2);
        let mut injected = 0u32;
        let mut delivered = Vec::new();
        // Stream 200 packets with pseudo-random destinations, injecting as
        // buffers permit.
        let mut next_dest = 7u32;
        let mut pending: Vec<Packet> = (0..200)
            .map(|i| {
                next_dest = (next_dest.wrapping_mul(13).wrapping_add(5)) % 16;
                Packet {
                    dest: next_dest,
                    row: i,
                }
            })
            .collect();
        pending.reverse();
        let mut cycles = 0;
        while (!pending.is_empty() || !net.is_drained()) && cycles < 10_000 {
            for port in 0..16 {
                if let Some(p) = pending.last().copied() {
                    if net.inject(port, p).is_ok() {
                        pending.pop();
                        injected += 1;
                    }
                }
            }
            net.tick(|port, packet| delivered.push((port, packet)));
            cycles += 1;
        }
        assert_eq!(injected, 200);
        assert_eq!(delivered.len(), 200);
        // Every packet arrived at its own destination.
        for (port, p) in &delivered {
            assert_eq!(*port as u32, p.dest);
        }
        // No duplicates: row ids unique.
        let mut rows: Vec<u32> = delivered.iter().map(|(_, p)| p.row).collect();
        rows.sort_unstable();
        rows.dedup();
        assert_eq!(rows.len(), 200);
    }

    #[test]
    #[should_panic(expected = "power of two")]
    fn non_power_of_two_panics() {
        OmegaNetwork::new(6, 2);
    }

    #[test]
    #[should_panic(expected = "destination out of range")]
    fn bad_destination_panics() {
        let mut net = OmegaNetwork::new(4, 2);
        let _ = net.inject(0, pkt(9));
    }
}
