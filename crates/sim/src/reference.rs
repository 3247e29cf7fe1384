//! A minimal reference transport used by tests, examples and as a
//! building-block sanity check for the simulator itself.
//!
//! [`SimpleWindowAgent`] is a fixed-window, ACK-clocked transport: it keeps a
//! configurable number of packets in flight and sends a new one for every
//! ACK. It performs no congestion control and no loss recovery, which is
//! exactly why it is useful for validating the engine (its behaviour is easy
//! to reason about analytically).

use crate::network::AgentCtx;
use crate::packet::Packet;
use crate::transport::FlowAgent;

/// Fixed-window ACK-clocked transport with no congestion control.
#[derive(Debug)]
pub struct SimpleWindowAgent {
    window_packets: usize,
    in_flight: usize,
}

impl SimpleWindowAgent {
    /// An agent that keeps `window_packets` packets outstanding.
    ///
    /// # Panics
    /// Panics if `window_packets` is zero.
    pub fn new(window_packets: usize) -> Self {
        assert!(window_packets > 0, "window must be at least one packet");
        Self {
            window_packets,
            in_flight: 0,
        }
    }

    fn fill_window(&mut self, ctx: &mut AgentCtx<'_>) {
        while self.in_flight < self.window_packets {
            let Some(payload) = ctx.next_payload() else {
                break;
            };
            ctx.send_next(payload, |_| {});
            self.in_flight += 1;
        }
    }
}

impl FlowAgent for SimpleWindowAgent {
    fn on_start(&mut self, ctx: &mut AgentCtx<'_>) {
        self.fill_window(ctx);
    }

    fn on_ack(&mut self, _packet: &Packet, ctx: &mut AgentCtx<'_>) {
        self.in_flight = self.in_flight.saturating_sub(1);
        self.fill_window(ctx);
    }

    fn name(&self) -> &'static str {
        "simple-window"
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::network::Network;
    use crate::queue::DropTailFifo;
    use crate::time::{SimDuration, SimTime};
    use crate::topology::{LeafSpineConfig, Topology};

    #[test]
    fn one_packet_window_is_stop_and_wait() {
        let topo = Topology::leaf_spine(&LeafSpineConfig::small(4, 2, 1));
        let mut net = Network::new(topo, |_| Box::new(DropTailFifo::with_default_buffer()));
        let hosts: Vec<_> = net.topology().hosts().to_vec();
        let flow = net.add_flow(
            hosts[0],
            hosts[3],
            Some(14_600),
            SimTime::ZERO,
            0,
            None,
            Box::new(SimpleWindowAgent::new(1)),
        );
        net.run_until(SimTime::from_millis(10));
        let stats = net.flow_stats(flow);
        assert_eq!(stats.packets_sent, 10);
        // Stop-and-wait: roughly one packet per RTT, so FCT ≳ 10 RTTs.
        let rtt = net.flow_spec(flow).base_rtt;
        assert!(stats.fct().unwrap() >= rtt * 9);
    }

    #[test]
    fn large_window_saturates_the_path() {
        let topo = Topology::leaf_spine(&LeafSpineConfig::small(4, 2, 1));
        let mut net = Network::new(topo, |_| Box::new(DropTailFifo::with_default_buffer()));
        let hosts: Vec<_> = net.topology().hosts().to_vec();
        let flow = net.add_flow(
            hosts[0],
            hosts[3],
            None,
            SimTime::ZERO,
            0,
            None,
            Box::new(SimpleWindowAgent::new(64)),
        );
        net.run_until(SimTime::from_millis(5));
        let rate = net.flow_rate_estimate(flow);
        // Payload goodput is capped slightly below 10 Gbps by header overhead.
        assert!(rate > 9e9, "rate = {rate}");
        assert!(rate < 10e9, "rate = {rate}");
        // Window larger than the BDP keeps a standing queue at the bottleneck.
        let first_link = net.route(net.flow_spec(flow).route).links()[0];
        let _ = net.link_stats(first_link);
        net.run_for(SimDuration::from_micros(100));
    }
}
