//! The NUMFabric protocol agent: the complete sender/receiver logic of §5.
//!
//! One [`NumFabricAgent`] handles both endpoints of a flow:
//!
//! **Receiver.** On each data packet it measures the inter-packet time and
//! reflects it, together with the packet's accumulated `pathPrice` and
//! `pathLen`, back to the sender in an ACK.
//!
//! **Sender.** On each ACK it
//! 1. feeds the reflected inter-packet time into the Swift rate estimator
//!    (`R̂`, [`crate::swift::SwiftRateEstimator`]);
//! 2. computes the flow's weight `w = U'⁻¹(pathPrice)` (Eq. 7) — for
//!    multipath aggregates the weight is additionally split by the subflow's
//!    share of the aggregate throughput (§6.3);
//! 3. recomputes the window `W = R̂ · (d0 + dt)` and sends as much data as
//!    the window allows, stamping each outgoing packet with
//!    `virtualPacketLen = L / w` (for the STFQ scheduler) and the
//!    `normalizedResidual = (U'(R̂) − pathPrice) / pathLen` (for the xWI
//!    price update at the switches).
//!
//! All utility-function arithmetic uses **Gbps** units.

use crate::config::NumFabricConfig;
use crate::multipath::AggregateHandle;
use crate::swift::{SwiftRateEstimator, SwiftWindow};
use crate::xwi::XwiPriceController;
use numfabric_num::utility::{Utility, UtilityRef};
use numfabric_sim::network::{AgentCtx, Network};
use numfabric_sim::packet::{Packet, DEFAULT_PAYLOAD_BYTES, MTU_BYTES};
use numfabric_sim::queue::StfqQueue;
use numfabric_sim::topology::Topology;
use numfabric_sim::transport::FlowAgent;
use numfabric_sim::SimDuration;
use std::sync::Arc;

/// Weights are clamped into this range to keep STFQ virtual times well
/// conditioned. At equilibrium a flow's weight equals its rate in Gbps, so
/// the range is generous on both sides.
const WEIGHT_MIN: f64 = 1e-4;
/// Upper weight clamp (see [`WEIGHT_MIN`]).
const WEIGHT_MAX: f64 = 1e5;

/// Convert bits/second to the Gbps units the utility functions see.
fn to_gbps(bps: f64) -> f64 {
    bps / 1e9
}

/// The NUMFabric flow agent (sender and receiver logic).
pub struct NumFabricAgent {
    config: NumFabricConfig,
    utility: UtilityRef,
    aggregate: Option<AggregateHandle>,

    // ---- sender state ----
    estimator: SwiftRateEstimator,
    window: Option<SwiftWindow>,
    weight: f64,
    path_price: f64,
    path_len_hint: u32,
    /// The cumulative ACK as of the previous `on_ack`, kept only to size
    /// Swift's rate samples (the engine owns the send cursor).
    last_ack: u64,
    started: bool,
}

impl NumFabricAgent {
    /// An agent with the given configuration and utility function.
    pub fn new(config: NumFabricConfig, utility: impl Utility + 'static) -> Self {
        Self::with_utility_ref(config, Arc::new(utility))
    }

    /// An agent sharing an already-constructed utility handle.
    pub fn with_utility_ref(config: NumFabricConfig, utility: UtilityRef) -> Self {
        let estimator = SwiftRateEstimator::from_config(&config);
        let weight = config.initial_weight;
        Self {
            config,
            utility,
            aggregate: None,
            estimator,
            window: None,
            weight,
            path_price: 0.0,
            path_len_hint: 1,
            last_ack: 0,
            started: false,
        }
    }

    /// Mark this agent as one subflow of a multipath aggregate (resource
    /// pooling). The `utility` passed at construction is interpreted as the
    /// utility of the *aggregate* rate.
    pub fn with_aggregate(mut self, handle: AggregateHandle) -> Self {
        self.aggregate = Some(handle);
        self
    }

    /// The flow's current Swift weight (for tests and tracing).
    pub fn weight(&self) -> f64 {
        self.weight
    }

    /// The latest path price learned from ACKs (for tests and tracing).
    pub fn path_price(&self) -> f64 {
        self.path_price
    }

    /// The rate (in Gbps) at which the marginal utility is evaluated: the
    /// flow's own estimate for single-path flows, the aggregate total for
    /// multipath subflows. `None` until a rate measurement exists — computing
    /// a marginal at a made-up near-zero rate would produce an enormous
    /// residual and poison the prices of links this flow alone traverses.
    fn marginal_rate_gbps(&self) -> Option<f64> {
        match &self.aggregate {
            Some(agg) => {
                let total = agg.total_rate_bps();
                if total > 0.0 {
                    Some(to_gbps(total.max(1e6)))
                } else {
                    None
                }
            }
            None => self.estimator.rate_bps().map(|r| to_gbps(r.max(1e6))),
        }
    }

    fn recompute_weight(&mut self) {
        // Eq. 7: the weight is the rate at which the marginal utility equals
        // the path price. With no price feedback yet the inverse marginal is
        // huge; the clamp keeps STFQ numerics sane (all-new flows then share
        // the bottleneck equally, which is the right startup behaviour).
        let total_weight = self
            .utility
            .inverse_marginal(self.path_price.max(0.0))
            .clamp(WEIGHT_MIN, WEIGHT_MAX);
        self.weight = match &self.aggregate {
            Some(agg) => (total_weight * agg.throughput_fraction()).clamp(WEIGHT_MIN, WEIGHT_MAX),
            None => total_weight,
        };
    }

    fn normalized_residual(&self) -> f64 {
        // Until the flow has a rate measurement it does not know its marginal
        // utility, so it sends a neutral residual (it neither pushes prices up
        // nor down); the xWI min-residual tracking then follows the flows that
        // do have measurements.
        let Some(rate) = self.marginal_rate_gbps() else {
            return 0.0;
        };
        let marginal = self.utility.marginal(rate);
        (marginal - self.path_price) / self.path_len_hint.max(1) as f64
    }

    fn window_bytes(&self) -> u64 {
        let rate = self.estimator.rate_bps().unwrap_or(0.0);
        let Some(w) = &self.window else {
            return self.config.min_window_packets * MTU_BYTES as u64;
        };
        let mut window = w.window_bytes(rate);
        // Saturating utilities (bandwidth functions) impose a demand cap: the
        // flow never benefits from more than `max_useful_rate`, so it should
        // not window itself beyond that even if WFQ would serve it more. For
        // multipath subflows the cap applies to the aggregate, so this
        // subflow's share of the cap is its current throughput fraction.
        if let Some(cap_gbps) = self.utility.max_useful_rate() {
            let share = self
                .aggregate
                .as_ref()
                .map(|a| a.throughput_fraction())
                .unwrap_or(1.0);
            // One BDP at the demand cap (no probing slack: a saturated flow
            // has nothing to gain from pushing past its cap).
            let cap = w
                .bdp_bytes(cap_gbps * 1e9 * share.min(1.0))
                .max(MTU_BYTES as u64);
            window = window.min(cap);
        }
        window
    }

    fn send_available(&mut self, ctx: &mut AgentCtx<'_>) {
        let window = self.window_bytes();
        let residual = self.normalized_residual();
        while ctx.in_flight_bytes() < window {
            let Some(payload) = ctx.next_payload() else {
                break;
            };
            send_stamped(ctx, payload, self.weight, residual);
        }
    }

    /// (Re)build the Swift window for the flow's current route.
    fn configure_window_for_route(&mut self, ctx: &AgentCtx<'_>) {
        let mut window = SwiftWindow::new(&self.config, ctx.base_rtt(), MTU_BYTES as u64);
        // Path-length-aware dt: the configured slack targets a standing
        // queue at the bottleneck, but every *other* traversed link — both
        // the data path and the ACK return path — can add up to one MTU
        // serialization of head-of-line wait to the RTT. A fixed dt tuned
        // on the paper's 4-link leaf-spine round trips then under-windows
        // flows on deeper fabrics (fat-tree round trips are 12 links) and
        // concedes rate. Grow the slack by one MTU serialization per
        // round-trip link beyond the 4-link baseline.
        let round_trip_links = 2 * ctx.route().len() as u64;
        let per_hop = SimDuration::transmission(MTU_BYTES as u64, ctx.first_hop_capacity_bps());
        window.dt +=
            SimDuration::from_nanos(per_hop.as_nanos() * round_trip_links.saturating_sub(4));
        self.window = Some(window);
        self.path_len_hint = ctx.route().len() as u32;
    }

    fn initial_burst_bytes(&self, ctx: &AgentCtx<'_>) -> u64 {
        match self.config.initial_window_bytes {
            Some(bytes) => bytes,
            None => self.config.initial_burst_packets as u64 * DEFAULT_PAYLOAD_BYTES as u64,
        }
        .min(ctx.remaining_bytes().unwrap_or(u64::MAX))
        .max(DEFAULT_PAYLOAD_BYTES as u64)
    }
}

impl FlowAgent for NumFabricAgent {
    fn on_start(&mut self, ctx: &mut AgentCtx<'_>) {
        self.started = true;
        self.configure_window_for_route(ctx);
        self.recompute_weight();

        // Initial burst (§4.1): enough packets to produce inter-packet time
        // samples at the receiver — or a full BDP for the FCT experiments.
        let mut to_send = self.initial_burst_bytes(ctx);
        let residual = self.normalized_residual();
        while to_send > 0 {
            let Some(payload) = ctx.next_payload() else {
                break;
            };
            let payload = to_send.min(payload as u64) as u32;
            send_stamped(ctx, payload, self.weight, residual);
            to_send -= payload as u64;
        }
    }

    fn on_ack(&mut self, packet: &Packet, ctx: &mut AgentCtx<'_>) {
        let ack = packet.ack_header().expect("on_ack is handed ACKs");
        let acked_now = ctx.bytes_acked().saturating_sub(self.last_ack);
        self.last_ack = ctx.bytes_acked();

        // Swift rate estimation from the reflected inter-packet time.
        if let Some(ipt) = ack.inter_packet_time {
            let sample_bytes = if acked_now > 0 {
                acked_now
            } else {
                DEFAULT_PAYLOAD_BYTES as u64
            };
            self.estimator.on_sample(sample_bytes, ipt, ctx.now());
            if let Some(agg) = &self.aggregate {
                agg.update_rate(self.estimator.rate_bps().unwrap_or(0.0));
            }
        }

        // xWI weight computation from the reflected path price.
        if ack.reflected_path_len > 0 {
            self.path_price = ack.reflected_path_price;
            self.path_len_hint = ack.reflected_path_len;
        }
        self.recompute_weight();
        self.send_available(ctx);
    }

    fn on_reroute(&mut self, path_was_lost: bool, ctx: &mut AgentCtx<'_>) {
        if !self.started {
            return;
        }
        // The base RTT and hop count changed under the flow: retune the
        // Swift window (d0 and the path-length-aware dt) for the new path.
        self.configure_window_for_route(ctx);
        self.recompute_weight();
        if !path_was_lost {
            return;
        }
        // The old path died and took the in-flight window with it. This
        // agent is ACK-clocked end to end: the window recomputation rides
        // on every ACK and it arms no flow timer (the xWI price update runs
        // switch-side on the periodic link timer). With nothing left in
        // flight no ACK will ever arrive to reopen the window, so go-back-N
        // from the last cumulative ACK restarts the clock on the new route.
        ctx.go_back_n();
        self.send_available(ctx);
    }

    fn name(&self) -> &'static str {
        "numfabric"
    }
}

/// Send one packet at the flow's send cursor, stamped for STFQ (`L / w`)
/// and for the xWI price update (the normalized residual).
fn send_stamped(ctx: &mut AgentCtx<'_>, payload: u32, weight: f64, residual: f64) {
    ctx.send_next(payload, |h| {
        h.virtual_packet_len = (payload + 40) as f64 / weight;
        h.normalized_residual = residual;
    });
}

/// Build a [`Network`] ready for NUMFabric: STFQ queues on every port and an
/// xWI price controller on every link.
pub fn numfabric_network(topo: Topology, config: &NumFabricConfig) -> Network {
    let mut net = Network::new(topo, |_| Box::new(StfqQueue::with_default_buffer()));
    install_numfabric(&mut net, config);
    net
}

/// Install xWI price controllers on every link of an existing network (the
/// queues must already be WFQ/STFQ for Swift's guarantees to hold).
pub fn install_numfabric(net: &mut Network, config: &NumFabricConfig) {
    let cfg = config.clone();
    net.set_all_link_controllers(move |_, capacity_bps| {
        Box::new(XwiPriceController::new(&cfg, capacity_bps))
    });
}

#[cfg(test)]
mod tests {
    use super::*;
    use numfabric_num::utility::{AlphaFair, FctUtility, LogUtility};
    use numfabric_num::{FluidNetwork, Oracle};
    use numfabric_sim::topology::{LeafSpineConfig, NodeKind};
    use numfabric_sim::{FlowPhase, SimDuration, SimTime};

    fn small_numfabric_net() -> Network {
        let topo = Topology::leaf_spine(&LeafSpineConfig::small(8, 2, 2));
        numfabric_network(topo, &NumFabricConfig::default())
    }

    fn add_long_flow(
        net: &mut Network,
        src: usize,
        dst: usize,
        utility: impl Utility + 'static,
    ) -> usize {
        let hosts: Vec<_> = net.topology().hosts().to_vec();
        net.add_flow(
            hosts[src],
            hosts[dst],
            None,
            SimTime::ZERO,
            0,
            None,
            Box::new(NumFabricAgent::new(NumFabricConfig::default(), utility)),
        )
    }

    #[test]
    fn two_equal_flows_share_a_bottleneck_evenly_and_fully() {
        let mut net = small_numfabric_net();
        // Both flows terminate at host 4: its 10 Gbps NIC is the bottleneck.
        let f0 = add_long_flow(&mut net, 0, 4, LogUtility::new());
        let f1 = add_long_flow(&mut net, 1, 4, LogUtility::new());
        net.run_until(SimTime::from_millis(8));
        let r0 = net.flow_rate_estimate(f0);
        let r1 = net.flow_rate_estimate(f1);
        let total = r0 + r1;
        assert!(total > 8.5e9, "bottleneck underutilized: {total}");
        assert!(total < 10.2e9, "oversubscribed: {total}");
        assert!(
            (r0 - r1).abs() / total < 0.1,
            "proportional fairness should split evenly: {r0} vs {r1}"
        );
    }

    #[test]
    fn weighted_flows_split_in_proportion_to_weights() {
        let mut net = small_numfabric_net();
        let f0 = add_long_flow(&mut net, 0, 4, LogUtility::weighted(3.0));
        let f1 = add_long_flow(&mut net, 1, 4, LogUtility::weighted(1.0));
        net.run_until(SimTime::from_millis(8));
        let r0 = net.flow_rate_estimate(f0);
        let r1 = net.flow_rate_estimate(f1);
        let ratio = r0 / r1;
        assert!(
            (ratio - 3.0).abs() < 0.6,
            "expected a 3:1 split, got {r0:.2e} vs {r1:.2e} (ratio {ratio:.2})"
        );
        assert!(r0 + r1 > 8.5e9);
    }

    #[test]
    fn parking_lot_matches_the_proportional_fair_oracle() {
        // Flow A traverses two bottlenecks (src rack → dst host NIC shared at
        // both ends); flows B and C each share one of them. We build the
        // equivalent fluid instance and compare against the oracle.
        let mut net = small_numfabric_net();
        let hosts: Vec<_> = net.topology().hosts().to_vec();
        let cfg = NumFabricConfig::default();
        // A: host0 -> host5, B: host1 -> host5 (shares dst NIC with A),
        // C: host0's rack-mate host2 -> host4... To build a true parking lot
        // we instead share the *source* NIC: A and B share host0's NIC by
        // both originating at host0; C shares A's destination NIC at host5.
        let fa = net.add_flow(
            hosts[0],
            hosts[5],
            None,
            SimTime::ZERO,
            0,
            None,
            Box::new(NumFabricAgent::new(cfg.clone(), LogUtility::new())),
        );
        let fb = net.add_flow(
            hosts[0],
            hosts[6],
            None,
            SimTime::ZERO,
            1,
            None,
            Box::new(NumFabricAgent::new(cfg.clone(), LogUtility::new())),
        );
        let fc = net.add_flow(
            hosts[1],
            hosts[5],
            None,
            SimTime::ZERO,
            2,
            None,
            Box::new(NumFabricAgent::new(cfg.clone(), LogUtility::new())),
        );
        net.run_until(SimTime::from_millis(10));

        // Fluid model: link0 = host0 NIC (A, B), link1 = host5 NIC (A, C).
        let mut fluid = FluidNetwork::new();
        let l0 = fluid.add_link(10.0);
        let l1 = fluid.add_link(10.0);
        fluid.add_simple_flow(vec![l0, l1], LogUtility::new());
        fluid.add_simple_flow(vec![l0], LogUtility::new());
        fluid.add_simple_flow(vec![l1], LogUtility::new());
        let oracle = Oracle::new().solve(&fluid);
        assert!(oracle.converged);

        let measured = [
            net.flow_rate_estimate(fa) / 1e9,
            net.flow_rate_estimate(fb) / 1e9,
            net.flow_rate_estimate(fc) / 1e9,
        ];
        for (i, (&m, &o)) in measured.iter().zip(oracle.rates.iter()).enumerate() {
            assert!(
                (m - o).abs() / o < 0.15,
                "flow {i}: measured {m:.2} Gbps vs oracle {o:.2} Gbps ({:?} vs {:?})",
                measured,
                oracle.rates
            );
        }
    }

    #[test]
    fn fct_utility_gives_the_small_flow_priority() {
        let mut net = small_numfabric_net();
        let hosts: Vec<_> = net.topology().hosts().to_vec();
        let cfg = NumFabricConfig::slowed_down(2.0);
        //

        let small = net.add_flow(
            hosts[0],
            hosts[4],
            None,
            SimTime::ZERO,
            0,
            None,
            Box::new(NumFabricAgent::new(cfg.clone(), FctUtility::new(10_000.0))),
        );
        let large = net.add_flow(
            hosts[1],
            hosts[4],
            None,
            SimTime::ZERO,
            0,
            None,
            Box::new(NumFabricAgent::new(
                cfg.clone(),
                FctUtility::new(10_000_000.0),
            )),
        );
        net.run_until(SimTime::from_millis(10));
        let rs = net.flow_rate_estimate(small);
        let rl = net.flow_rate_estimate(large);
        assert!(
            rs > 3.0 * rl,
            "the small flow should dominate: small {rs:.2e}, large {rl:.2e}"
        );
        assert!(
            rs + rl > 8e9,
            "bottleneck should stay busy: {:.2e}",
            rs + rl
        );
    }

    #[test]
    fn alpha_two_flows_still_fill_the_link() {
        let mut net = small_numfabric_net();
        let f0 = add_long_flow(&mut net, 0, 4, AlphaFair::new(2.0));
        let f1 = add_long_flow(&mut net, 1, 4, AlphaFair::new(2.0));
        net.run_until(SimTime::from_millis(8));
        let total = net.flow_rate_estimate(f0) + net.flow_rate_estimate(f1);
        assert!(total > 8.5e9, "total = {total:.3e}");
    }

    #[test]
    fn finite_flow_completes_and_reports_fct() {
        let mut net = small_numfabric_net();
        let hosts: Vec<_> = net.topology().hosts().to_vec();
        let flow = net.add_flow(
            hosts[0],
            hosts[7],
            Some(1_460_000),
            SimTime::ZERO,
            0,
            None,
            Box::new(NumFabricAgent::new(
                NumFabricConfig::default(),
                LogUtility::new(),
            )),
        );
        net.run_until(SimTime::from_millis(20));
        assert_eq!(net.flow_phase(flow), FlowPhase::Completed);
        let fct = net.flow_stats(flow).fct().unwrap();
        // 1.46 MB at 10 Gbps is ~1.2 ms; allow generous startup overhead.
        assert!(fct >= SimDuration::from_micros(1_100), "fct = {fct}");
        assert!(fct < SimDuration::from_millis(4), "fct = {fct}");
    }

    #[test]
    fn queues_stay_small_at_equilibrium() {
        // The paper: "queue occupancies are typically only a few packets at
        // equilibrium". Check the bottleneck queue after convergence.
        let mut net = small_numfabric_net();
        let _f0 = add_long_flow(&mut net, 0, 4, LogUtility::new());
        let _f1 = add_long_flow(&mut net, 1, 4, LogUtility::new());
        net.run_until(SimTime::from_millis(8));
        let topo = net.topology().clone();
        let hosts: Vec<_> = topo.hosts().to_vec();
        // The bottleneck is host4's ingress NIC: the leaf → host4 link.
        let leaf = topo.leaf_of(hosts[4]).unwrap();
        let link = topo.link_between(leaf, hosts[4]).unwrap();
        let stats = net.link_stats(link);
        assert!(
            stats.queue_packets <= 30,
            "expected a small standing queue, got {} packets",
            stats.queue_packets
        );
        // And nothing was dropped anywhere.
        let drops: u64 = (0..net.num_links())
            .map(|l| net.link_stats(l).packets_dropped)
            .sum();
        assert_eq!(drops, 0);
    }

    #[test]
    fn new_flow_arrival_reconverges_quickly() {
        let mut net = small_numfabric_net();
        let hosts: Vec<_> = net.topology().hosts().to_vec();
        let cfg = NumFabricConfig::default();
        let f0 = net.add_flow(
            hosts[0],
            hosts[4],
            None,
            SimTime::ZERO,
            0,
            None,
            Box::new(NumFabricAgent::new(cfg.clone(), LogUtility::new())),
        );
        // Second flow arrives 3 ms in.
        let f1 = net.add_flow(
            hosts[1],
            hosts[4],
            None,
            SimTime::from_millis(3),
            0,
            None,
            Box::new(NumFabricAgent::new(cfg.clone(), LogUtility::new())),
        );
        net.run_until(SimTime::from_millis(2));
        assert!(
            net.flow_rate_estimate(f0) > 8.5e9,
            "single flow should get the whole NIC"
        );
        // 2 ms after the arrival both flows should have re-converged to ~5 Gbps.
        net.run_until(SimTime::from_millis(6));
        let r0 = net.flow_rate_estimate(f0);
        let r1 = net.flow_rate_estimate(f1);
        assert!((r0 - 5e9).abs() < 1.2e9, "r0 = {r0:.3e}");
        assert!((r1 - 5e9).abs() < 1.2e9, "r1 = {r1:.3e}");
    }

    #[test]
    fn cable_cut_on_the_path_reroutes_and_restarts_the_ack_clock() {
        // Cut both directions of the flow's spine cable mid-run. The whole
        // in-flight window dies with the cable, and NUMFabric has no
        // retransmission timer — without the go-back-N in `on_reroute`
        // the ACK clock would never tick again and the flow would stall
        // at ~0 bps forever (the original recovery-scenario bug).
        let mut net = small_numfabric_net();
        let hosts: Vec<_> = net.topology().hosts().to_vec();
        let flow = net.add_flow(
            hosts[0],
            hosts[4],
            None,
            SimTime::ZERO,
            0,
            None,
            Box::new(NumFabricAgent::new(
                NumFabricConfig::default(),
                LogUtility::new(),
            )),
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
        let detour = net.flow_spec(flow).route;
        assert_ne!(detour, original, "the flow must move off the dead cable");
        assert!(!net.route(detour).links().contains(&fwd));
        // The clock restarted: the flow is back at (close to) its NIC rate.
        let rate = net.flow_rate_estimate(flow);
        assert!(rate > 8.5e9, "flow stalled after the cut: {rate:.3e} bps");
        let delivered = net.flow_stats(flow).bytes_delivered;
        net.run_until(SimTime::from_millis(6));
        assert!(net.flow_stats(flow).bytes_delivered > delivered);
    }

    #[test]
    fn cross_rack_traffic_uses_the_spine_without_loss() {
        let mut net = small_numfabric_net();
        let f = add_long_flow(&mut net, 0, 7, LogUtility::new());
        net.run_until(SimTime::from_millis(5));
        assert!(net.flow_rate_estimate(f) > 8.5e9);
        let topo = net.topology().clone();
        let spine_carried: u64 = topo
            .links()
            .iter()
            .enumerate()
            .filter(|(_, s)| {
                topo.nodes()[s.from].kind == NodeKind::Spine
                    || topo.nodes()[s.to].kind == NodeKind::Spine
            })
            .map(|(id, _)| net.link_stats(id).packets_transmitted)
            .sum();
        assert!(spine_carried > 1000);
    }
}
