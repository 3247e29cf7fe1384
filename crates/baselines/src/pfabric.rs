//! **pFabric** — the state-of-the-art FCT-minimizing datacenter transport the
//! paper compares against (Fig. 7).
//!
//! pFabric decouples scheduling from rate control: packets carry a priority
//! equal to the flow's *remaining* size, switches serve the highest-priority
//! (smallest remaining size) packet and drop the lowest-priority one when
//! full, and end hosts use only minimal rate control — flows start at line
//! rate with a window of one bandwidth-delay product, rely on the fabric to
//! do the scheduling, and recover losses with a small retransmission timeout.
//!
//! The implementation here keeps pFabric's essential behaviour (SRPT-like
//! scheduling via remaining-size priorities, shallow buffers,
//! lowest-priority drop, per-packet selective ACKs, timeout-based
//! retransmission) and omits the probe mode used to avoid starvation of very
//! long flows, which does not influence the workloads reproduced here.

use numfabric_sim::network::{AgentCtx, Network};
use numfabric_sim::packet::{Packet, DEFAULT_PAYLOAD_BYTES};
use numfabric_sim::queue::PfabricQueue;
use numfabric_sim::topology::Topology;
use numfabric_sim::transport::{AckMode, FlowAgent};
use numfabric_sim::{SimDuration, SimTime};
use serde::{Deserialize, Serialize};

/// Timer tag for the retransmission-timeout check.
const RTO_TIMER: u64 = 1;

/// pFabric parameters.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct PfabricConfig {
    /// Per-port buffer in bytes. pFabric uses very shallow buffers — the
    /// paper suggests ~2×BDP; 36 kB ≈ 24 packets for a 10 Gbps / 16 µs fabric.
    pub buffer_bytes: usize,
    /// Congestion window in bytes (pFabric keeps this at one BDP).
    pub window_bytes: u64,
    /// Retransmission timeout (small: ~3 RTTs).
    pub rto: SimDuration,
}

impl Default for PfabricConfig {
    fn default() -> Self {
        Self {
            buffer_bytes: 36_000,
            window_bytes: 40_000,
            rto: SimDuration::from_micros(48),
        }
    }
}

/// The pFabric flow agent.
pub struct PfabricAgent {
    config: PfabricConfig,
    /// Unacknowledged packets as `(seq, payload, last transmission time)`,
    /// in ascending seq: new data is pushed at the back, an ACK removes its
    /// packet found by binary search, and the RTO pass resends in place.
    outstanding: Vec<(u64, u32, SimTime)>,
    /// Bytes of payload acknowledged so far (distinct packets).
    acked_payload: u64,
    next_seq: u64,
    flow_size: Option<u64>,
    /// Whether the RTX timer is pending. Nothing cancels it: the engine
    /// drops a flow's timers when the flow stops or completes.
    rto_armed: bool,
}

impl PfabricAgent {
    /// An agent with the given configuration.
    pub fn new(config: PfabricConfig) -> Self {
        Self {
            config,
            outstanding: Vec::new(),
            acked_payload: 0,
            next_seq: 0,
            flow_size: None,
            rto_armed: false,
        }
    }

    /// Payload bytes sent and not yet acknowledged: `outstanding` holds every
    /// segment below `next_seq` that no ACK has removed.
    fn in_flight(&self) -> u64 {
        self.next_seq - self.acked_payload
    }

    /// The flow's remaining size (the pFabric priority; lower = served first).
    fn remaining_bytes_priority(&self) -> f64 {
        match self.flow_size {
            Some(size) => (size.saturating_sub(self.acked_payload)) as f64,
            // Long-running flows always have "infinite" remaining size, i.e.
            // the lowest priority.
            None => 1e15,
        }
    }

    fn arm_rto(&mut self, ctx: &mut AgentCtx<'_>) {
        if !self.rto_armed && !self.outstanding.is_empty() {
            ctx.set_timer(self.config.rto, RTO_TIMER);
            self.rto_armed = true;
        }
    }

    fn send_new_data(&mut self, ctx: &mut AgentCtx<'_>) {
        let priority = self.remaining_bytes_priority();
        while self.in_flight() + (DEFAULT_PAYLOAD_BYTES as u64) <= self.config.window_bytes {
            // Remaining *new* data is tracked by sequence number, not by the
            // flow's cumulative sent-byte counter: retransmissions must not
            // eat into the budget of bytes that still need a first
            // transmission.
            let unsent = self
                .flow_size
                .map(|size| size.saturating_sub(self.next_seq));
            let payload = match unsent {
                Some(0) => break,
                Some(rem) => rem.min(DEFAULT_PAYLOAD_BYTES as u64) as u32,
                None => DEFAULT_PAYLOAD_BYTES,
            };
            let seq = self.next_seq;
            ctx.send_data(seq, payload, |h| {
                h.pfabric_priority = priority;
            });
            self.outstanding.push((seq, payload, ctx.now()));
            self.next_seq += payload as u64;
        }
        self.arm_rto(ctx);
    }

    fn retransmit_expired(&mut self, ctx: &mut AgentCtx<'_>) {
        let now = ctx.now();
        let rto = self.config.rto;
        let priority = self.remaining_bytes_priority();
        for (seq, payload, sent_at) in &mut self.outstanding {
            if now.duration_since(*sent_at) >= rto {
                ctx.send_data(*seq, *payload, |h| {
                    h.pfabric_priority = priority;
                });
                *sent_at = now;
            }
        }
    }
}

impl FlowAgent for PfabricAgent {
    fn on_start(&mut self, ctx: &mut AgentCtx<'_>) {
        self.flow_size = ctx.spec().size_bytes;
        self.send_new_data(ctx);
    }

    fn ack_mode(&self) -> AckMode {
        // Selective per-packet ACK: the receiver echoes exactly the
        // delivered packet's sequence number.
        AckMode::PerPacket
    }

    fn on_ack(&mut self, packet: &Packet, ctx: &mut AgentCtx<'_>) {
        if let Ok(i) = self
            .outstanding
            .binary_search_by_key(&packet.seq, |&(seq, ..)| seq)
        {
            let (_, payload, _) = self.outstanding.remove(i);
            self.acked_payload += payload as u64;
        }
        self.send_new_data(ctx);
    }

    fn on_timer(&mut self, tag: u64, ctx: &mut AgentCtx<'_>) {
        if tag != RTO_TIMER {
            return;
        }
        self.rto_armed = false;
        self.retransmit_expired(ctx);
        self.send_new_data(ctx);
        self.arm_rto(ctx);
    }

    fn name(&self) -> &'static str {
        "pfabric"
    }
}

/// Build a network ready for pFabric: shallow priority queues on every link.
pub fn pfabric_network(topo: Topology, config: &PfabricConfig) -> Network {
    let buffer = config.buffer_bytes;
    Network::new(topo, move |_| Box::new(PfabricQueue::new(buffer)))
}

#[cfg(test)]
mod tests {
    use super::*;
    use numfabric_sim::topology::LeafSpineConfig;
    use numfabric_sim::FlowPhase;

    fn small_pfabric() -> Network {
        let topo = Topology::leaf_spine(&LeafSpineConfig::small(8, 2, 2));
        pfabric_network(topo, &PfabricConfig::default())
    }

    #[test]
    fn short_flow_preempts_a_long_flow() {
        let mut net = small_pfabric();
        let hosts: Vec<_> = net.topology().hosts().to_vec();
        // A long flow keeps the bottleneck busy…
        let long = net.add_flow(
            hosts[0],
            hosts[4],
            Some(10_000_000),
            SimTime::ZERO,
            0,
            None,
            Box::new(PfabricAgent::new(PfabricConfig::default())),
        );
        // …and a short flow arrives 1 ms later.
        let short = net.add_flow(
            hosts[1],
            hosts[4],
            Some(30_000),
            SimTime::from_millis(1),
            0,
            None,
            Box::new(PfabricAgent::new(PfabricConfig::default())),
        );
        net.run_until(SimTime::from_millis(30));
        assert_eq!(net.flow_phase(short), FlowPhase::Completed);
        let short_fct = net.flow_stats(short).fct().unwrap();
        // Ideal FCT for 30 kB at 10 Gbps is ~24 µs + ~16 µs RTT; pFabric
        // should finish it within a small multiple of that despite the
        // competing elephant.
        assert!(
            short_fct < SimDuration::from_micros(200),
            "short flow took {short_fct}"
        );
        let _ = long;
    }

    #[test]
    fn srpt_order_smaller_flows_finish_first() {
        let mut net = small_pfabric();
        let hosts: Vec<_> = net.topology().hosts().to_vec();
        // Three flows to the same destination, started together.
        let small = net.add_flow(
            hosts[0],
            hosts[4],
            Some(50_000),
            SimTime::ZERO,
            0,
            None,
            Box::new(PfabricAgent::new(PfabricConfig::default())),
        );
        let medium = net.add_flow(
            hosts[1],
            hosts[4],
            Some(500_000),
            SimTime::ZERO,
            0,
            None,
            Box::new(PfabricAgent::new(PfabricConfig::default())),
        );
        let large = net.add_flow(
            hosts[2],
            hosts[4],
            Some(2_000_000),
            SimTime::ZERO,
            0,
            None,
            Box::new(PfabricAgent::new(PfabricConfig::default())),
        );
        net.run_until(SimTime::from_millis(30));
        let fct = |f| net.flow_stats(f).fct().unwrap();
        assert_eq!(net.flow_phase(small), FlowPhase::Completed);
        assert_eq!(net.flow_phase(medium), FlowPhase::Completed);
        assert_eq!(net.flow_phase(large), FlowPhase::Completed);
        assert!(
            fct(small) < fct(medium),
            "{} vs {}",
            fct(small),
            fct(medium)
        );
        assert!(
            fct(medium) < fct(large),
            "{} vs {}",
            fct(medium),
            fct(large)
        );
    }

    #[test]
    fn losses_are_recovered_by_retransmission() {
        let mut net = small_pfabric();
        let hosts: Vec<_> = net.topology().hosts().to_vec();
        // Four simultaneous senders into one host overload the shallow
        // buffers, forcing drops; every flow must still complete.
        let flows: Vec<_> = (0..4)
            .map(|i| {
                net.add_flow(
                    hosts[i],
                    hosts[4],
                    Some(400_000),
                    SimTime::ZERO,
                    i,
                    None,
                    Box::new(PfabricAgent::new(PfabricConfig::default())),
                )
            })
            .collect();
        net.run_until(SimTime::from_millis(50));
        let total_drops: u64 = (0..net.num_links())
            .map(|l| net.link_stats(l).packets_dropped)
            .sum();
        assert!(
            total_drops > 0,
            "expected drops with shallow pFabric buffers"
        );
        for f in flows {
            assert_eq!(
                net.flow_phase(f),
                FlowPhase::Completed,
                "flow {f} did not finish"
            );
        }
    }

    #[test]
    fn stopping_a_flow_with_a_pending_rtx_timer_cancels_it() {
        // Regression: stale FlowTimer events for stopped flows used to stay
        // in the queue and fire into the (phase-guarded) dispatch path.
        // The engine keeps every armed timer's id, so the stop cancels the
        // armed RTO structurally.
        let mut net = small_pfabric();
        let hosts: Vec<_> = net.topology().hosts().to_vec();
        // A long-running flow always has unacknowledged data in flight, so
        // its RTO timer is re-armed continuously.
        let flow = net.add_flow(
            hosts[0],
            hosts[4],
            None,
            SimTime::ZERO,
            0,
            None,
            Box::new(PfabricAgent::new(PfabricConfig::default())),
        );
        net.run_until(SimTime::from_micros(200));
        assert_eq!(
            net.pending_timer_count(flow),
            1,
            "an active pFabric flow keeps exactly one RTO armed"
        );
        net.stop_flow(flow);
        net.run_until(SimTime::from_micros(210));
        assert_eq!(
            net.pending_timer_count(flow),
            0,
            "stop must cancel the pending RTX timer"
        );
        let sent_at_stop = net.flow_stats(flow).packets_sent;
        // Run well past several RTO periods: no retransmission fires.
        net.run_until(SimTime::from_millis(2));
        assert_eq!(net.flow_phase(flow), FlowPhase::Stopped);
        assert_eq!(net.flow_stats(flow).packets_sent, sent_at_stop);
    }
}
