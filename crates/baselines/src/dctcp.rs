//! **DCTCP** — Data Center TCP, used by the paper only as a qualitative
//! comparison point (Fig. 4b): its rates are stable over milliseconds but far
//! too noisy at the 100 µs timescales NUMFabric converges on.
//!
//! The implementation follows the standard DCTCP description: switches mark
//! packets (ECN) once the queue exceeds a threshold (`EcnFifo` in the
//! simulator crate); receivers echo the marks; senders maintain an estimate
//! `α` of the marked fraction per window and cut the window by `α/2` once per
//! RTT, otherwise growing additively (one MSS per RTT, plus slow start at
//! flow start).

use numfabric_sim::network::{AgentCtx, Network};
use numfabric_sim::packet::{Packet, DEFAULT_PAYLOAD_BYTES, MTU_BYTES};
use numfabric_sim::queue::EcnFifo;
use numfabric_sim::topology::Topology;
use numfabric_sim::transport::FlowAgent;
use serde::{Deserialize, Serialize};

/// DCTCP parameters.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct DctcpConfig {
    /// ECN marking threshold at the switch, in bytes (≈65 MTU-sized packets
    /// for 10 Gbps links in the DCTCP paper).
    pub marking_threshold_bytes: usize,
    /// The gain `g` of the marked-fraction EWMA (1/16 in the DCTCP paper).
    pub g: f64,
    /// Initial congestion window in packets (slow start begins here).
    pub initial_window_packets: u64,
}

impl Default for DctcpConfig {
    fn default() -> Self {
        Self {
            marking_threshold_bytes: 65 * MTU_BYTES as usize,
            g: 1.0 / 16.0,
            initial_window_packets: 10,
        }
    }
}

/// The DCTCP flow agent.
pub struct DctcpAgent {
    config: DctcpConfig,
    cwnd_bytes: f64,
    ssthresh_bytes: f64,
    alpha: f64,
    // Marked/total ACK counts in the current observation window (one RTT).
    acks_marked: u64,
    acks_total: u64,
    window_end_seq: u64,
    cut_this_window: bool,
}

impl DctcpAgent {
    /// An agent with the given configuration.
    pub fn new(config: DctcpConfig) -> Self {
        let cwnd = (config.initial_window_packets * MTU_BYTES as u64) as f64;
        Self {
            config,
            cwnd_bytes: cwnd,
            ssthresh_bytes: f64::MAX,
            alpha: 0.0,
            acks_marked: 0,
            acks_total: 0,
            window_end_seq: 0,
            cut_this_window: false,
        }
    }

    /// The sender's current congestion window in bytes.
    pub fn cwnd_bytes(&self) -> f64 {
        self.cwnd_bytes
    }

    /// The current marked-fraction estimate α.
    pub fn alpha(&self) -> f64 {
        self.alpha
    }

    fn send_available(&mut self, ctx: &mut AgentCtx<'_>) {
        while (ctx.in_flight_bytes() as f64) + DEFAULT_PAYLOAD_BYTES as f64 <= self.cwnd_bytes {
            let Some(payload) = ctx.next_payload() else {
                break;
            };
            ctx.send_next(payload, |h| {
                h.ecn_capable = true;
            });
        }
    }

    fn end_of_window_update(&mut self) {
        let fraction = if self.acks_total > 0 {
            self.acks_marked as f64 / self.acks_total as f64
        } else {
            0.0
        };
        self.alpha = (1.0 - self.config.g) * self.alpha + self.config.g * fraction;
        self.acks_marked = 0;
        self.acks_total = 0;
        self.cut_this_window = false;
    }
}

impl FlowAgent for DctcpAgent {
    fn on_start(&mut self, ctx: &mut AgentCtx<'_>) {
        self.send_available(ctx);
        self.window_end_seq = ctx.bytes_sent();
    }

    fn on_ack(&mut self, packet: &Packet, ctx: &mut AgentCtx<'_>) {
        let ack = packet.ack_header().expect("on_ack is handed ACKs");
        self.acks_total += 1;
        if ack.ecn_echo {
            self.acks_marked += 1;
            // React at most once per window (per RTT), like TCP/DCTCP.
            if !self.cut_this_window {
                // Use the running α for the cut; the canonical algorithm cuts
                // at window boundaries but per-mark cuts with the smoothed α
                // behave equivalently at this level of abstraction.
                self.cwnd_bytes = (self.cwnd_bytes * (1.0 - self.alpha.max(1.0 / 16.0) / 2.0))
                    .max(MTU_BYTES as f64);
                self.ssthresh_bytes = self.cwnd_bytes;
                self.cut_this_window = true;
            }
        } else if self.cwnd_bytes < self.ssthresh_bytes {
            // Slow start: one MSS per ACK.
            self.cwnd_bytes += DEFAULT_PAYLOAD_BYTES as f64;
        } else {
            // Congestion avoidance: one MSS per window.
            self.cwnd_bytes +=
                (DEFAULT_PAYLOAD_BYTES as f64 * DEFAULT_PAYLOAD_BYTES as f64) / self.cwnd_bytes;
        }
        if ack.ack_bytes >= self.window_end_seq {
            self.end_of_window_update();
            self.window_end_seq = ctx.bytes_sent();
        }
        self.send_available(ctx);
    }

    fn on_reroute(&mut self, path_was_lost: bool, ctx: &mut AgentCtx<'_>) {
        if !path_was_lost {
            return;
        }
        // With no retransmission timer, losing the whole in-flight window
        // to a failed path would stall the ACK clock forever. Recover the
        // way TCP does after an RTO: go-back-N from the last cumulative
        // ACK and slow-start toward half the old window.
        self.ssthresh_bytes = (self.cwnd_bytes / 2.0).max(2.0 * MTU_BYTES as f64);
        self.cwnd_bytes = (self.config.initial_window_packets * MTU_BYTES as u64) as f64;
        ctx.go_back_n();
        self.acks_marked = 0;
        self.acks_total = 0;
        self.cut_this_window = false;
        self.send_available(ctx);
        self.window_end_seq = ctx.bytes_sent();
    }

    fn name(&self) -> &'static str {
        "dctcp"
    }
}

/// Build a network ready for DCTCP: ECN-marking FIFOs on every link.
pub fn dctcp_network(topo: Topology, config: &DctcpConfig) -> Network {
    let threshold = config.marking_threshold_bytes;
    Network::new(topo, move |_| {
        Box::new(EcnFifo::new(
            numfabric_sim::queue::DEFAULT_BUFFER_BYTES,
            threshold,
        ))
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use numfabric_sim::topology::LeafSpineConfig;
    use numfabric_sim::{FlowPhase, SimTime};

    #[test]
    fn two_dctcp_flows_are_fair_on_average_but_noisy() {
        let topo = Topology::leaf_spine(&LeafSpineConfig::small(8, 2, 2));
        let mut net = dctcp_network(topo, &DctcpConfig::default());
        let hosts: Vec<_> = net.topology().hosts().to_vec();
        let f0 = net.add_flow(
            hosts[0],
            hosts[4],
            None,
            SimTime::ZERO,
            0,
            None,
            Box::new(DctcpAgent::new(DctcpConfig::default())),
        );
        let f1 = net.add_flow(
            hosts[1],
            hosts[4],
            None,
            SimTime::ZERO,
            0,
            None,
            Box::new(DctcpAgent::new(DctcpConfig::default())),
        );
        // Long-run average over several milliseconds.
        let mut sum0 = 0.0;
        let mut sum1 = 0.0;
        let mut samples = 0;
        for step in 1..=40 {
            net.run_until(SimTime::from_micros(step * 250));
            if step > 8 {
                sum0 += net.flow_rate_estimate(f0);
                sum1 += net.flow_rate_estimate(f1);
                samples += 1;
            }
        }
        let avg0 = sum0 / samples as f64;
        let avg1 = sum1 / samples as f64;
        let total = avg0 + avg1;
        assert!(total > 7e9, "severely underutilized: {total:.3e}");
        assert!(
            (avg0 - avg1).abs() / total < 0.35,
            "{avg0:.3e} vs {avg1:.3e}"
        );
    }

    #[test]
    fn dctcp_keeps_queues_bounded_by_the_marking_threshold_region() {
        let topo = Topology::leaf_spine(&LeafSpineConfig::small(8, 2, 2));
        let cfg = DctcpConfig::default();
        let mut net = dctcp_network(topo, &cfg);
        let hosts: Vec<_> = net.topology().hosts().to_vec();
        let _ = net.add_flow(
            hosts[0],
            hosts[4],
            None,
            SimTime::ZERO,
            0,
            None,
            Box::new(DctcpAgent::new(cfg.clone())),
        );
        let _ = net.add_flow(
            hosts[1],
            hosts[4],
            None,
            SimTime::ZERO,
            0,
            None,
            Box::new(DctcpAgent::new(cfg.clone())),
        );
        net.run_until(SimTime::from_millis(10));
        let topo = net.topology().clone();
        let hosts: Vec<_> = topo.hosts().to_vec();
        let leaf = topo.leaf_of(hosts[4]).unwrap();
        let bottleneck = topo.link_between(leaf, hosts[4]).unwrap();
        let q = net.link_stats(bottleneck).queue_bytes;
        // The queue oscillates around the threshold; it must stay well below
        // the 1 MB buffer (no tail-drop regime).
        assert!(q < 400_000, "queue = {q} bytes");
    }

    #[test]
    fn dctcp_flow_completes() {
        let topo = Topology::leaf_spine(&LeafSpineConfig::small(8, 2, 2));
        let mut net = dctcp_network(topo, &DctcpConfig::default());
        let hosts: Vec<_> = net.topology().hosts().to_vec();
        let flow = net.add_flow(
            hosts[0],
            hosts[7],
            Some(1_000_000),
            SimTime::ZERO,
            0,
            None,
            Box::new(DctcpAgent::new(DctcpConfig::default())),
        );
        net.run_until(SimTime::from_millis(50));
        assert_eq!(net.flow_phase(flow), FlowPhase::Completed);
    }

    #[test]
    fn cable_cut_on_the_path_restarts_the_ack_clock() {
        // Same regression surface as NUMFabric's reroute test: DCTCP has
        // no RTX timer, so losing the whole in-flight window to a cable
        // cut would stall the flow forever without the go-back-N restart
        // in `on_reroute`.
        let topo = Topology::leaf_spine(&LeafSpineConfig::small(8, 2, 2));
        let mut net = dctcp_network(topo, &DctcpConfig::default());
        let hosts: Vec<_> = net.topology().hosts().to_vec();
        let flow = net.add_flow(
            hosts[0],
            hosts[4],
            None,
            SimTime::ZERO,
            0,
            None,
            Box::new(DctcpAgent::new(DctcpConfig::default())),
        );
        net.run_until(SimTime::from_millis(2));
        let original = net.flow_spec(flow).route;
        let topo = net.topology().clone();
        let (fwd, rev) = net
            .route(original)
            .links()
            .iter()
            .find_map(|&l| {
                let spec = &topo.links()[l];
                (topo.nodes()[spec.from].kind.is_switch() && topo.nodes()[spec.to].kind.is_switch())
                    .then(|| (l, topo.link_between(spec.to, spec.from).unwrap()))
            })
            .expect("cross-rack route crosses a fabric cable");
        use numfabric_sim::LinkChange;
        net.schedule_link_change(SimTime::from_millis(2), fwd, LinkChange::Down);
        net.schedule_link_change(SimTime::from_millis(2), rev, LinkChange::Down);
        net.run_until(SimTime::from_millis(5));
        assert_ne!(net.flow_spec(flow).route, original);
        let delivered = net.flow_stats(flow).bytes_delivered;
        net.run_until(SimTime::from_millis(8));
        let grown = net.flow_stats(flow).bytes_delivered - delivered;
        // 3 ms of a recovered flow on a 10 Gbps NIC moves megabytes.
        assert!(
            grown > 1_000_000,
            "flow barely moved after the cut: {grown} bytes"
        );
    }

    #[test]
    fn alpha_estimate_rises_under_persistent_marking() {
        let mut agent = DctcpAgent::new(DctcpConfig::default());
        assert_eq!(agent.alpha(), 0.0);
        // Simulate five windows in which every ACK was marked.
        for _ in 0..5 {
            agent.acks_total = 10;
            agent.acks_marked = 10;
            agent.end_of_window_update();
        }
        assert!(agent.alpha() > 0.2, "alpha = {}", agent.alpha());
    }
}
