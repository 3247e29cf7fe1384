//! The xWI (eXplicit Weight Inference) switch-side price computation
//! (§4.2 and Figure 3 of the paper).
//!
//! Every egress port keeps a price. Data packets carry the sender-computed
//! `normalizedResidual`; the port tracks the minimum residual seen since the
//! last price update and, on a synchronized periodic timer (a `LinkTimer`
//! driven by the simulator's timing-wheel event core — the controller only
//! returns the next delay from
//! [`LinkController::on_timer`]), updates its price
//!
//! ```text
//! u        = bytesServiced / (priceUpdateInterval · linkCapacity)
//! newPrice = max(price + minRes − η · (1 − u) · price, 0)
//! price    = β · price + (1 − β) · newPrice
//! ```
//!
//! On dequeue the port stamps its current price into the packet's
//! `pathPrice` field and increments `pathLen`, which is how senders learn the
//! sum of prices along their path.

use crate::config::NumFabricConfig;
use numfabric_sim::transport::LinkController;
use numfabric_sim::{Packet, SimDuration, SimTime};

/// Per-egress-port xWI price state and update logic.
///
/// Prices are kept in the protocol's Gbps-based units (the same units the
/// utility functions see), so `link_capacity_gbps` — not bits per second — is
/// used for the utilization computation.
#[derive(Debug, Clone)]
pub struct XwiPriceController {
    price: f64,
    min_residual: f64,
    bytes_serviced: u64,
    link_capacity_bps: f64,
    interval: SimDuration,
    eta: f64,
    beta: f64,
    updates: u64,
}

impl XwiPriceController {
    /// A controller for a link of `link_capacity_bps`, using the price-update
    /// interval, η and β from `config`.
    pub fn new(config: &NumFabricConfig, link_capacity_bps: f64) -> Self {
        assert!(link_capacity_bps > 0.0, "capacity must be positive");
        Self {
            price: 0.0,
            min_residual: f64::INFINITY,
            bytes_serviced: 0,
            link_capacity_bps,
            interval: config.price_update_interval,
            eta: config.eta,
            beta: config.beta,
            updates: 0,
        }
    }

    /// The port's current price.
    pub fn price(&self) -> f64 {
        self.price
    }

    /// How many price updates have run.
    pub fn updates(&self) -> u64 {
        self.updates
    }

    /// The link utilization accumulated since the last price update.
    fn utilization(&self) -> f64 {
        let serviced_bits = self.bytes_serviced as f64 * 8.0;
        let capacity_bits = self.link_capacity_bps * self.interval.as_secs_f64();
        (serviced_bits / capacity_bits).min(1.0)
    }

    /// Run one price update (Figure 3's `priceUpdateTimeout`). Exposed for
    /// unit testing; the [`LinkController`] timer calls this.
    pub fn price_update(&mut self) {
        let u = self.utilization();
        // If no data packet carried a residual since the last update, there is
        // nothing to push the price up; only the under-utilization decay acts.
        let min_res = if self.min_residual.is_finite() {
            self.min_residual
        } else {
            0.0
        };
        let new_price = (self.price + min_res - self.eta * (1.0 - u) * self.price).max(0.0);
        self.price = self.beta * self.price + (1.0 - self.beta) * new_price;
        self.bytes_serviced = 0;
        self.min_residual = f64::INFINITY;
        self.updates += 1;
    }
}

impl LinkController for XwiPriceController {
    fn on_enqueue(&mut self, packet: &mut Packet, _now: SimTime) {
        if let Some(data) = packet.data_header() {
            self.min_residual = self.min_residual.min(data.normalized_residual);
        }
    }

    fn on_dequeue(&mut self, packet: &mut Packet, _now: SimTime, _queue_bytes: usize) {
        self.bytes_serviced += packet.wire_bytes as u64;
        packet.stamps.path_price += self.price;
        packet.stamps.path_len += 1;
    }

    fn initial_timer(&self) -> Option<SimDuration> {
        Some(self.interval)
    }

    fn on_timer(&mut self, _now: SimTime, _queue_bytes: usize) -> Option<SimDuration> {
        self.price_update();
        Some(self.interval)
    }

    fn on_capacity_change(&mut self, new_capacity_bps: f64) {
        self.link_capacity_bps = new_capacity_bps;
    }

    fn name(&self) -> &'static str {
        "xwi-price"
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use numfabric_sim::packet::DEFAULT_PAYLOAD_BYTES;
    use numfabric_sim::{AckHeader, DataHeader, RouteId, RouteTable};

    fn controller() -> XwiPriceController {
        XwiPriceController::new(&NumFabricConfig::default(), 10e9)
    }

    fn route() -> RouteId {
        RouteTable::new().intern(&[0])
    }

    fn data_packet(residual: f64) -> Packet {
        let header = DataHeader {
            normalized_residual: residual,
            ..DataHeader::default()
        };
        Packet::data(0, 0, DEFAULT_PAYLOAD_BYTES, route(), header)
    }

    /// Simulate one price-update interval in which `packets` MTU packets were
    /// serviced and the minimum residual was `residual`.
    fn run_interval(ctrl: &mut XwiPriceController, packets: usize, residual: f64) {
        let now = SimTime::ZERO;
        for _ in 0..packets {
            let mut p = data_packet(residual);
            ctrl.on_enqueue(&mut p, now);
            ctrl.on_dequeue(&mut p, now, 0);
        }
        ctrl.price_update();
    }

    #[test]
    fn positive_residual_on_a_busy_link_raises_the_price() {
        let mut ctrl = controller();
        // 10 Gbps × 30 µs = 37.5 kB per interval = 25 MTU packets (full load).
        run_interval(&mut ctrl, 25, 0.4);
        // β = 0.5: price moves halfway toward (0 + 0.4) = 0.4.
        assert!(
            (ctrl.price() - 0.2).abs() < 1e-9,
            "price = {}",
            ctrl.price()
        );
        run_interval(&mut ctrl, 25, 0.4);
        assert!(ctrl.price() > 0.2);
    }

    #[test]
    fn negative_residual_lowers_the_price() {
        let mut ctrl = controller();
        run_interval(&mut ctrl, 25, 0.8);
        run_interval(&mut ctrl, 25, 0.8);
        let high = ctrl.price();
        run_interval(&mut ctrl, 25, -0.3);
        assert!(ctrl.price() < high);
    }

    #[test]
    fn idle_link_price_decays_to_zero() {
        let mut ctrl = controller();
        run_interval(&mut ctrl, 25, 1.0);
        assert!(ctrl.price() > 0.0);
        // Now the link goes idle: utilization 0, no residuals.
        for _ in 0..30 {
            ctrl.price_update();
        }
        assert!(ctrl.price() < 1e-6, "price = {}", ctrl.price());
    }

    #[test]
    fn underutilized_link_decays_faster_with_larger_eta() {
        let run_decay = |eta: f64| {
            let cfg = NumFabricConfig {
                eta,
                ..NumFabricConfig::default()
            };
            let mut ctrl = XwiPriceController::new(&cfg, 10e9);
            // Build the price up at full utilization.
            for _ in 0..4 {
                let now = SimTime::ZERO;
                for _ in 0..25 {
                    let mut p = data_packet(0.5);
                    ctrl.on_enqueue(&mut p, now);
                    ctrl.on_dequeue(&mut p, now, 0);
                }
                ctrl.price_update();
            }
            // Then deliver only half the load with zero residual.
            for _ in 0..3 {
                let now = SimTime::ZERO;
                for _ in 0..12 {
                    let mut p = data_packet(0.0);
                    ctrl.on_enqueue(&mut p, now);
                    ctrl.on_dequeue(&mut p, now, 0);
                }
                ctrl.price_update();
            }
            ctrl.price()
        };
        assert!(run_decay(5.0) < run_decay(0.5));
    }

    #[test]
    fn dequeue_stamps_price_and_path_length() {
        let mut ctrl = controller();
        // Give the controller a non-zero price first.
        run_interval(&mut ctrl, 25, 0.4);
        let price = ctrl.price();
        let mut p = data_packet(0.0);
        p.stamps.path_price = 0.15;
        p.stamps.path_len = 2;
        ctrl.on_dequeue(&mut p, SimTime::ZERO, 0);
        assert!((p.stamps.path_price - (0.15 + price)).abs() < 1e-12);
        assert_eq!(p.stamps.path_len, 3);
    }

    #[test]
    fn control_packets_do_not_affect_the_minimum_residual() {
        let mut ctrl = controller();
        // An ACK carries no residual; had it counted as a zero residual, the
        // price would have stayed at zero instead of following the data
        // packets' 0.4.
        let mut ack = Packet::ack(0, 0, route(), AckHeader::default());
        ctrl.on_enqueue(&mut ack, SimTime::ZERO);
        run_interval(&mut ctrl, 25, 0.4);
        assert!(ctrl.price() > 0.1);
    }

    #[test]
    fn price_is_a_fixed_point_when_residual_is_zero_at_full_load() {
        let mut ctrl = controller();
        run_interval(&mut ctrl, 25, 0.5);
        run_interval(&mut ctrl, 25, 0.5);
        let before = ctrl.price();
        run_interval(&mut ctrl, 25, 0.0);
        let after = ctrl.price();
        assert!((before - after).abs() < 1e-12, "{before} vs {after}");
    }

    #[test]
    fn timer_plumbing_reports_the_configured_interval() {
        let ctrl = controller();
        assert_eq!(ctrl.initial_timer(), Some(SimDuration::from_micros(30)));
        let mut ctrl = ctrl;
        let next = ctrl.on_timer(SimTime::from_micros(30), 0);
        assert_eq!(next, Some(SimDuration::from_micros(30)));
        assert_eq!(ctrl.updates(), 1);
    }
}
