//! **RCP\*** — the paper's generalization of the Rate Control Protocol to
//! α-fairness (§6, Eqs. 15–16).
//!
//! Each link advertises a fair-share rate `R_l`, updated periodically from
//! the spare capacity and the queue backlog:
//!
//! ```text
//! R_l ← R_l · (1 + (T/d) · (a·(C − y) − b·q/d) / C)
//! ```
//!
//! When a packet is served, the link adds `R_l^{-α}` to a header field; the
//! source sets its rate to `(Σ_l R_l^{-α})^{-1/α}`, which for α = 1 reduces
//! to the classic RCP rate `(Σ 1/R_l)^{-1}` and as α → ∞ approaches
//! max-min. Like DGD, senders are rate-paced with a 2×BDP cap on
//! unacknowledged bytes.

use numfabric_sim::network::{AgentCtx, Network};
use numfabric_sim::packet::{Packet, MTU_BYTES};
use numfabric_sim::queue::DropTailFifo;
use numfabric_sim::timer::TimerHandle;
use numfabric_sim::topology::Topology;
use numfabric_sim::transport::{FlowAgent, LinkController};
use numfabric_sim::{SimDuration, SimTime};
use serde::{Deserialize, Serialize};

/// Timer tag used by the RCP* sender's pacing loop.
const PACING_TIMER: u64 = 1;

/// RCP* parameters (Table 2).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct RcpStarConfig {
    /// Rate update interval `T` (16 µs in the paper).
    pub rate_update_interval: SimDuration,
    /// Spare-capacity gain `a` (3.6 in the paper).
    pub a: f64,
    /// Queue gain `b` (1.8 in the paper).
    pub b: f64,
    /// The α of the α-fair objective the fabric enforces.
    pub alpha: f64,
    /// Assumed average RTT `d` used in the update rule.
    pub avg_rtt: SimDuration,
    /// Cap on unacknowledged data in bandwidth-delay products.
    pub unacked_cap_bdp: f64,
}

impl Default for RcpStarConfig {
    fn default() -> Self {
        Self {
            rate_update_interval: SimDuration::from_micros(16),
            a: 0.4,
            b: 0.2,
            alpha: 1.0,
            avg_rtt: SimDuration::from_micros(16),
            unacked_cap_bdp: 2.0,
        }
    }
}

impl RcpStarConfig {
    /// Same configuration with a different α.
    pub fn with_alpha(mut self, alpha: f64) -> Self {
        assert!(alpha > 0.0, "alpha must be positive");
        self.alpha = alpha;
        self
    }
}

/// Per-link advertised-rate computation (Eq. 15).
#[derive(Debug, Clone)]
pub struct RcpStarController {
    share_gbps: f64,
    bytes_serviced: u64,
    capacity_bps: f64,
    config: RcpStarConfig,
}

impl RcpStarController {
    /// A controller for a link of `capacity_bps`. The advertised rate starts
    /// at the full link capacity (standard RCP initialization).
    pub fn new(config: RcpStarConfig, capacity_bps: f64) -> Self {
        assert!(capacity_bps > 0.0, "capacity must be positive");
        Self {
            share_gbps: capacity_bps / 1e9,
            bytes_serviced: 0,
            capacity_bps,
            config,
        }
    }

    /// The advertised fair-share rate in Gbps.
    pub fn share_gbps(&self) -> f64 {
        self.share_gbps
    }

    /// One advertised-rate update given the backlog at the update instant.
    pub fn rate_update(&mut self, queue_bytes: usize) {
        let t = self.config.rate_update_interval.as_secs_f64();
        let d = self.config.avg_rtt.as_secs_f64();
        let c_gbps = self.capacity_bps / 1e9;
        let y_gbps = self.bytes_serviced as f64 * 8.0 / t / 1e9;
        // Queue drain term: the backlog expressed as a rate over one RTT.
        let q_gbps = queue_bytes as f64 * 8.0 / d / 1e9;
        let factor =
            1.0 + (t / d) * (self.config.a * (c_gbps - y_gbps) - self.config.b * q_gbps) / c_gbps;
        self.share_gbps = (self.share_gbps * factor.clamp(0.5, 2.0)).clamp(1e-4, 10.0 * c_gbps);
        self.bytes_serviced = 0;
    }
}

impl LinkController for RcpStarController {
    fn on_enqueue(&mut self, _packet: &mut Packet, _now: SimTime) {}

    fn on_dequeue(&mut self, packet: &mut Packet, _now: SimTime, _queue_bytes: usize) {
        self.bytes_serviced += packet.wire_bytes as u64;
        packet.stamps.rcp_feedback += self.share_gbps.max(1e-9).powf(-self.config.alpha);
        packet.stamps.path_len += 1;
    }

    fn initial_timer(&self) -> Option<SimDuration> {
        Some(self.config.rate_update_interval)
    }

    fn on_timer(&mut self, _now: SimTime, queue_bytes: usize) -> Option<SimDuration> {
        self.rate_update(queue_bytes);
        Some(self.config.rate_update_interval)
    }

    fn on_capacity_change(&mut self, new_capacity_bps: f64) {
        self.capacity_bps = new_capacity_bps;
    }

    fn name(&self) -> &'static str {
        "rcp-star"
    }
}

/// The RCP* flow agent: paced sender plus feedback-reflecting receiver.
pub struct RcpStarAgent {
    config: RcpStarConfig,
    feedback: f64,
    rate_bps: f64,
    unacked_cap_bytes: u64,
    /// The pending pacing timer, if one is scheduled. Completion cancels it
    /// structurally via the network's timer service.
    pacing_timer: Option<TimerHandle>,
}

impl RcpStarAgent {
    /// An agent with the given configuration.
    pub fn new(config: RcpStarConfig) -> Self {
        Self {
            config,
            feedback: 0.0,
            rate_bps: 0.0,
            unacked_cap_bytes: u64::MAX,
            pacing_timer: None,
        }
    }

    /// The sender's current target rate (for tests and tracing).
    pub fn rate_bps(&self) -> f64 {
        self.rate_bps
    }

    fn recompute_rate(&mut self, ctx: &AgentCtx<'_>) {
        let first_hop = ctx.first_hop_capacity_bps();
        let rate_gbps = if self.feedback > 0.0 {
            self.feedback.powf(-1.0 / self.config.alpha)
        } else {
            first_hop / 1e9
        };
        self.rate_bps = (rate_gbps * 1e9).clamp(first_hop * 1e-3, first_hop);
    }

    fn send_one_and_reschedule(&mut self, ctx: &mut AgentCtx<'_>) {
        let Some(payload) = ctx.next_payload() else {
            self.pacing_timer = None;
            return;
        };
        if ctx.in_flight_bytes() + payload as u64 <= self.unacked_cap_bytes {
            ctx.send_next(payload, |_| {});
        }
        let interval = SimDuration::transmission((payload + 40) as u64, self.rate_bps.max(1e6));
        self.pacing_timer = Some(ctx.set_timer(interval, PACING_TIMER));
    }
}

impl FlowAgent for RcpStarAgent {
    fn on_start(&mut self, ctx: &mut AgentCtx<'_>) {
        // Before any feedback the sender paces at a tenth of its NIC rate;
        // the 2×BDP cap on unacknowledged bytes bounds the burst.
        let first_hop = ctx.first_hop_capacity_bps();
        self.rate_bps = first_hop * 0.1;
        let bdp = first_hop * ctx.base_rtt().as_secs_f64() / 8.0;
        self.unacked_cap_bytes =
            ((bdp * self.config.unacked_cap_bdp) as u64).max(2 * MTU_BYTES as u64);
        self.send_one_and_reschedule(ctx);
    }

    fn on_ack(&mut self, packet: &Packet, ctx: &mut AgentCtx<'_>) {
        let ack = packet.ack_header().expect("on_ack is handed ACKs");
        if ack.reflected_path_len > 0 {
            self.feedback = ack.reflected_rcp_feedback;
        }
        self.recompute_rate(ctx);
        if self.pacing_timer.is_none() {
            self.send_one_and_reschedule(ctx);
        }
    }

    fn on_timer(&mut self, tag: u64, ctx: &mut AgentCtx<'_>) {
        if tag == PACING_TIMER {
            self.pacing_timer = None;
            self.send_one_and_reschedule(ctx);
        }
    }

    fn name(&self) -> &'static str {
        "rcp-star"
    }
}

/// Build a network ready for RCP*: drop-tail FIFOs and an RCP* controller on
/// every link.
pub fn rcp_star_network(topo: Topology, config: &RcpStarConfig) -> Network {
    let mut net = Network::new(topo, |_| Box::new(DropTailFifo::with_default_buffer()));
    let cfg = config.clone();
    net.set_all_link_controllers(move |_, capacity| {
        Box::new(RcpStarController::new(cfg.clone(), capacity))
    });
    net
}

#[cfg(test)]
mod tests {
    use super::*;
    use numfabric_sim::packet::DEFAULT_PAYLOAD_BYTES;
    use numfabric_sim::topology::LeafSpineConfig;
    use numfabric_sim::FlowPhase;

    #[test]
    fn advertised_rate_rises_with_spare_capacity_and_falls_with_queues() {
        let mut ctrl = RcpStarController::new(RcpStarConfig::default(), 10e9);
        let start = ctrl.share_gbps();
        // Completely idle interval: advertised rate should rise.
        ctrl.rate_update(0);
        assert!(ctrl.share_gbps() > start * 0.99);
        // Saturated interval with a deep queue: advertised rate should fall.
        let mut ctrl = RcpStarController::new(RcpStarConfig::default(), 10e9);
        ctrl.bytes_serviced = (10e9 * 16e-6 / 8.0) as u64;
        let before = ctrl.share_gbps();
        ctrl.rate_update(500_000);
        assert!(ctrl.share_gbps() < before);
    }

    #[test]
    fn dequeue_accumulates_inverse_share_feedback() {
        let cfg = RcpStarConfig::default().with_alpha(2.0);
        let mut ctrl = RcpStarController::new(cfg, 10e9);
        let mut p = Packet::data(
            0,
            0,
            DEFAULT_PAYLOAD_BYTES,
            numfabric_sim::RouteTable::new()
                .intern(numfabric_sim::topology::Route::from_links(vec![0])),
            Default::default(),
        );
        ctrl.on_dequeue(&mut p, SimTime::ZERO, 0);
        // Share starts at 10 Gbps → feedback = 10^-2 = 0.01.
        assert!((p.stamps.rcp_feedback - 0.01).abs() < 1e-12);
        assert_eq!(p.stamps.path_len, 1);
    }

    #[test]
    fn two_rcp_flows_share_a_bottleneck() {
        let topo = Topology::leaf_spine(&LeafSpineConfig::small(8, 2, 2));
        let mut net = rcp_star_network(topo, &RcpStarConfig::default());
        let hosts: Vec<_> = net.topology().hosts().to_vec();
        let f0 = net.add_flow(
            hosts[0],
            hosts[4],
            None,
            SimTime::ZERO,
            0,
            None,
            Box::new(RcpStarAgent::new(RcpStarConfig::default())),
        );
        let f1 = net.add_flow(
            hosts[1],
            hosts[4],
            None,
            SimTime::ZERO,
            0,
            None,
            Box::new(RcpStarAgent::new(RcpStarConfig::default())),
        );
        net.run_until(SimTime::from_millis(30));
        let r0 = net.flow_rate_estimate(f0);
        let r1 = net.flow_rate_estimate(f1);
        let total = r0 + r1;
        assert!(total > 7.5e9, "underutilized: {total:.3e}");
        assert!(total < 10.5e9, "oversubscribed: {total:.3e}");
        assert!(
            (r0 - r1).abs() / total < 0.25,
            "very unfair split: {r0:.3e} vs {r1:.3e}"
        );
    }

    #[test]
    fn finite_rcp_flow_completes() {
        let topo = Topology::leaf_spine(&LeafSpineConfig::small(8, 2, 2));
        let mut net = rcp_star_network(topo, &RcpStarConfig::default());
        let hosts: Vec<_> = net.topology().hosts().to_vec();
        let flow = net.add_flow(
            hosts[0],
            hosts[7],
            Some(500_000),
            SimTime::ZERO,
            0,
            None,
            Box::new(RcpStarAgent::new(RcpStarConfig::default())),
        );
        net.run_until(SimTime::from_millis(60));
        assert_eq!(net.flow_phase(flow), FlowPhase::Completed);
    }

    #[test]
    #[should_panic]
    fn nonpositive_alpha_rejected() {
        RcpStarConfig::default().with_alpha(0.0);
    }
}
