//! The **Dual Gradient Descent (DGD)** rate-control baseline (§3 and §6 of
//! the paper), an idealized packet-level realization of Low & Lapsley's
//! optimization flow control.
//!
//! * Switches keep one price per egress link and update it periodically
//!   (Eq. 14): `p ← [p + a·(y − C) + b·q]⁺`, where `y` is the measured
//!   throughput over the interval, `C` the capacity and `q` the queue
//!   backlog.
//! * Senders learn the sum of prices on their path from ACKs and transmit at
//!   exactly `x = U'⁻¹(Σ p_l)` (Eq. 3), paced packet by packet, with the
//!   number of unacknowledged bytes capped at 2× the bandwidth-delay product
//!   (the enhancement described in the paper's "Note on the implementation").
//!   RCP* sends through the same paced sender.
//!
//! Prices and rates use the same Gbps-based units as NUMFabric so the same
//! utility-function objects can be used. The gains `a` and `b` are expressed
//! per-Gbps and per-byte respectively; as in the paper, they need tuning per
//! workload — [`DgdConfig::default`] holds values tuned for the 10/40 Gbps
//! fabrics used in this repository's experiments.

use crate::paced::PacedSender;
use numfabric_num::utility::{Utility, UtilityRef};
use numfabric_sim::network::{AgentCtx, Network};
use numfabric_sim::packet::Packet;
use numfabric_sim::queue::DropTailFifo;
use numfabric_sim::topology::Topology;
use numfabric_sim::transport::{FlowAgent, LinkController};
use numfabric_sim::{SimDuration, SimTime};
use serde::{Deserialize, Serialize};
use std::sync::Arc;

/// DGD parameters (Table 2, adapted to this repository's Gbps-based units).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct DgdConfig {
    /// Price update interval (16 µs in the paper — one RTT).
    pub price_update_interval: SimDuration,
    /// Utilization gain `a` (price change per Gbps of rate mismatch).
    pub a_per_gbps: f64,
    /// Queue gain `b` (price change per byte of standing queue).
    pub b_per_byte: f64,
    /// Cap on unacknowledged data, in units of the bandwidth-delay product.
    pub unacked_cap_bdp: f64,
    /// Initial sending rate as a fraction of the first-hop capacity, in
    /// (0, 1], used until the first price feedback arrives.
    pub initial_rate_fraction: f64,
}

impl Default for DgdConfig {
    fn default() -> Self {
        Self {
            price_update_interval: SimDuration::from_micros(16),
            a_per_gbps: 2e-3,
            b_per_byte: 6e-7,
            unacked_cap_bdp: 2.0,
            initial_rate_fraction: 0.05,
        }
    }
}

/// Per-link DGD price computation (Eq. 14).
#[derive(Debug, Clone)]
pub struct DgdPriceController {
    price: f64,
    bytes_serviced: u64,
    capacity_bps: f64,
    config: DgdConfig,
}

impl DgdPriceController {
    /// A controller for a link of `capacity_bps`.
    pub fn new(config: DgdConfig, capacity_bps: f64) -> Self {
        assert!(capacity_bps > 0.0, "capacity must be positive");
        Self {
            price: 0.0,
            bytes_serviced: 0,
            capacity_bps,
            config,
        }
    }

    /// The current price.
    pub fn price(&self) -> f64 {
        self.price
    }

    /// One price update given the backlog at the update instant.
    pub fn price_update(&mut self, queue_bytes: usize) {
        let interval = self.config.price_update_interval.as_secs_f64();
        let y_gbps = self.bytes_serviced as f64 * 8.0 / interval / 1e9;
        let c_gbps = self.capacity_bps / 1e9;
        self.price = (self.price
            + self.config.a_per_gbps * (y_gbps - c_gbps)
            + self.config.b_per_byte * queue_bytes as f64)
            .max(0.0);
        self.bytes_serviced = 0;
    }
}

impl LinkController for DgdPriceController {
    fn on_enqueue(&mut self, _packet: &mut Packet, _now: SimTime) {}

    fn on_dequeue(&mut self, packet: &mut Packet, _now: SimTime, _queue_bytes: usize) {
        self.bytes_serviced += packet.wire_bytes as u64;
        packet.stamps.path_price += self.price;
        packet.stamps.path_len += 1;
    }

    fn initial_timer(&self) -> Option<SimDuration> {
        Some(self.config.price_update_interval)
    }

    fn on_timer(&mut self, _now: SimTime, queue_bytes: usize) -> Option<SimDuration> {
        self.price_update(queue_bytes);
        Some(self.config.price_update_interval)
    }

    fn on_capacity_change(&mut self, new_capacity_bps: f64) {
        self.capacity_bps = new_capacity_bps;
    }

    fn name(&self) -> &'static str {
        "dgd-price"
    }
}

/// The DGD flow agent: sends at `U'⁻¹(path price)` through the shared
/// paced sender.
pub struct DgdAgent {
    config: DgdConfig,
    utility: UtilityRef,
    path_price: f64,
    sender: PacedSender,
}

impl DgdAgent {
    /// An agent with the given configuration and utility function.
    pub fn new(config: DgdConfig, utility: impl Utility + 'static) -> Self {
        Self::with_utility_ref(config, Arc::new(utility))
    }

    /// An agent sharing an already-constructed utility handle.
    ///
    /// # Panics
    /// If `config.initial_rate_fraction` is not in (0, 1]: a flow that
    /// starts at rate zero sends nothing, hears nothing and never starts.
    pub fn with_utility_ref(config: DgdConfig, utility: UtilityRef) -> Self {
        let fraction = config.initial_rate_fraction;
        assert!(
            fraction > 0.0 && fraction <= 1.0,
            "initial rate fraction must be in (0, 1], got {fraction}"
        );
        Self {
            config,
            utility,
            path_price: 0.0,
            sender: PacedSender::default(),
        }
    }
}

impl FlowAgent for DgdAgent {
    fn on_start(&mut self, ctx: &mut AgentCtx<'_>) {
        let cfg = &self.config;
        self.sender
            .start(cfg.initial_rate_fraction, cfg.unacked_cap_bdp, ctx);
    }

    fn on_ack(&mut self, packet: &Packet, ctx: &mut AgentCtx<'_>) {
        let ack = packet.ack_header().expect("on_ack is handed ACKs");
        if ack.reflected_path_len > 0 {
            self.path_price = ack.reflected_path_price;
        }
        let rate_gbps = self.utility.inverse_marginal(self.path_price.max(0.0));
        self.sender.set_rate_gbps(rate_gbps, ctx);
    }

    fn on_timer(&mut self, tag: u64, ctx: &mut AgentCtx<'_>) {
        self.sender.on_timer(tag, ctx);
    }

    fn name(&self) -> &'static str {
        "dgd"
    }
}

/// Build a network ready for DGD: drop-tail FIFOs and a DGD price controller
/// on every link.
pub fn dgd_network(topo: Topology, config: &DgdConfig) -> Network {
    let mut net = Network::new(topo, |_| Box::new(DropTailFifo::with_default_buffer()));
    let cfg = config.clone();
    net.set_all_link_controllers(move |_, capacity| {
        Box::new(DgdPriceController::new(cfg.clone(), capacity))
    });
    net
}

#[cfg(test)]
mod tests {
    use super::*;
    use numfabric_num::utility::LogUtility;
    use numfabric_sim::topology::LeafSpineConfig;
    use numfabric_sim::FlowPhase;

    #[test]
    fn price_rises_with_overload_and_queue() {
        let mut ctrl = DgdPriceController::new(DgdConfig::default(), 10e9);
        // Service 20 Gbps worth of traffic in one 16 µs interval (overload).
        ctrl.bytes_serviced = (20e9 * 16e-6 / 8.0) as u64;
        ctrl.price_update(0);
        let p1 = ctrl.price();
        assert!(p1 > 0.0);
        // Overload plus a standing queue raises it further.
        ctrl.bytes_serviced = (20e9 * 16e-6 / 8.0) as u64;
        ctrl.price_update(100_000);
        assert!(ctrl.price() > p1);
    }

    #[test]
    fn price_decays_when_underutilized_and_never_goes_negative() {
        let mut ctrl = DgdPriceController::new(DgdConfig::default(), 10e9);
        ctrl.bytes_serviced = (20e9 * 16e-6 / 8.0) as u64;
        ctrl.price_update(0);
        let high = ctrl.price();
        for _ in 0..1000 {
            ctrl.bytes_serviced = 0;
            ctrl.price_update(0);
        }
        assert!(ctrl.price() < high);
        assert!(ctrl.price() >= 0.0);
    }

    #[test]
    fn two_dgd_flows_eventually_share_a_bottleneck() {
        let topo = Topology::leaf_spine(&LeafSpineConfig::small(8, 2, 2));
        let mut net = dgd_network(topo, &DgdConfig::default());
        let hosts: Vec<_> = net.topology().hosts().to_vec();
        let f0 = net.add_flow(
            hosts[0],
            hosts[4],
            None,
            SimTime::ZERO,
            0,
            None,
            Box::new(DgdAgent::new(DgdConfig::default(), LogUtility::new())),
        );
        let f1 = net.add_flow(
            hosts[1],
            hosts[4],
            None,
            SimTime::ZERO,
            0,
            None,
            Box::new(DgdAgent::new(DgdConfig::default(), LogUtility::new())),
        );
        net.run_until(SimTime::from_millis(30));
        let r0 = net.flow_rate_estimate(f0);
        let r1 = net.flow_rate_estimate(f1);
        let total = r0 + r1;
        assert!(total > 7.5e9, "bottleneck badly underutilized: {total:.3e}");
        assert!(total < 10.5e9, "oversubscribed: {total:.3e}");
        assert!(
            (r0 - r1).abs() / total < 0.25,
            "very unfair split: {r0:.3e} vs {r1:.3e}"
        );
    }

    #[test]
    fn finite_dgd_flow_completes() {
        let topo = Topology::leaf_spine(&LeafSpineConfig::small(8, 2, 2));
        let mut net = dgd_network(topo, &DgdConfig::default());
        let hosts: Vec<_> = net.topology().hosts().to_vec();
        let flow = net.add_flow(
            hosts[0],
            hosts[7],
            Some(500_000),
            SimTime::ZERO,
            0,
            None,
            Box::new(DgdAgent::new(DgdConfig::default(), LogUtility::new())),
        );
        net.run_until(SimTime::from_millis(60));
        assert_eq!(net.flow_phase(flow), FlowPhase::Completed);
    }

    #[test]
    fn unacked_cap_limits_burstiness() {
        // With a very large initial rate fraction the 2×BDP cap must prevent
        // a huge uncontrolled burst before the first feedback arrives.
        let topo = Topology::leaf_spine(&LeafSpineConfig::small(8, 2, 2));
        let cfg = DgdConfig {
            initial_rate_fraction: 1.0,
            ..DgdConfig::default()
        };
        let mut net = dgd_network(topo, &cfg);
        let hosts: Vec<_> = net.topology().hosts().to_vec();
        let flow = net.add_flow(
            hosts[0],
            hosts[7],
            None,
            SimTime::ZERO,
            0,
            None,
            Box::new(DgdAgent::new(cfg.clone(), LogUtility::new())),
        );
        // Run for only half an RTT: nothing has been acknowledged yet, so no
        // more than 2×BDP ≈ 40 kB may have been sent.
        net.run_until(SimTime::from_micros(8));
        let sent = net.flow_stats(flow).bytes_sent;
        assert!(sent <= 45_000, "sent {sent} bytes before any feedback");
    }
}
