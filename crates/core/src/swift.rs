//! The Swift transport's host-side rate control (§4.1 of the paper).
//!
//! Swift achieves a network-wide weighted max-min allocation by combining
//! WFQ scheduling in the switches (the `StfqQueue` of `numfabric-sim`) with a
//! simple window-based rate control at the hosts:
//!
//! * the **receiver** measures the spacing between consecutive data packets
//!   and reflects it to the sender in ACKs (`interPacketTime`);
//! * the **sender** turns each reflected spacing into a rate sample
//!   (`bytesAcked / interPacketTime`), smooths the samples with an EWMA
//!   filter to obtain the available-bandwidth estimate `R̂`, and sets its
//!   window to `W = R̂ · (d0 + dt)` — just above the bandwidth-delay product,
//!   so the flow is never window-limited while keeping only a few packets
//!   queued at the bottleneck.
//!
//! This module contains the two host-side pieces ([`SwiftRateEstimator`],
//! [`SwiftWindow`]); the WFQ scheduler lives in the simulator crate and the
//! full protocol agent that wires everything together lives in
//! [`crate::protocol`]. Both pieces are driven purely by ACK arrivals —
//! Swift needs no retransmission or pacing timers, which is why the
//! NUMFabric agent leaves the simulator's flow-timer service
//! (`numfabric_sim::timer`) untouched.

use crate::config::NumFabricConfig;
use numfabric_sim::{SimDuration, SimTime};

/// EWMA estimator of the available bandwidth `R̂` from reflected
/// inter-packet times (packet-pair / packet-train estimation).
#[derive(Debug, Clone)]
pub struct SwiftRateEstimator {
    tau: SimDuration,
    rate_bps: Option<f64>,
    last_update: Option<SimTime>,
}

impl SwiftRateEstimator {
    /// An estimator with the given EWMA time constant (`ewmaTime`).
    pub fn new(tau: SimDuration) -> Self {
        assert!(!tau.is_zero(), "ewmaTime must be positive");
        Self {
            tau,
            rate_bps: None,
            last_update: None,
        }
    }

    /// An estimator configured from a [`NumFabricConfig`].
    pub fn from_config(config: &NumFabricConfig) -> Self {
        Self::new(config.ewma_time)
    }

    /// Incorporate one reflected sample: `bytes` were acknowledged and the
    /// receiver observed `inter_packet_time` between the corresponding data
    /// packets. `now` is the ACK arrival time at the sender.
    ///
    /// Samples with a zero inter-packet time are ignored (they carry no rate
    /// information).
    pub fn on_sample(&mut self, bytes: u64, inter_packet_time: SimDuration, now: SimTime) {
        if inter_packet_time.is_zero() || bytes == 0 {
            return;
        }
        let sample = bytes as f64 * 8.0 / inter_packet_time.as_secs_f64();
        match self.rate_bps {
            None => {
                // First sample initializes R̂ directly (§4.1).
                self.rate_bps = Some(sample);
            }
            Some(current) => {
                let dt = self
                    .last_update
                    .map(|t| now.duration_since(t))
                    .unwrap_or(inter_packet_time);
                // Continuous-time EWMA: weight samples by the elapsed time so
                // the filter's bandwidth is governed by `ewmaTime`, not by the
                // packet rate.
                let alpha = 1.0 - (-dt.as_secs_f64().max(1e-12) / self.tau.as_secs_f64()).exp();
                self.rate_bps = Some(current + alpha * (sample - current));
            }
        }
        self.last_update = Some(now);
    }

    /// The current estimate `R̂` in bits per second, if at least one sample
    /// has been incorporated.
    pub fn rate_bps(&self) -> Option<f64> {
        self.rate_bps
    }
}

/// The Swift window computation `W = R̂ · (d0 + dt)`.
#[derive(Debug, Clone)]
pub struct SwiftWindow {
    /// Base fabric RTT `d0` for this flow.
    pub base_rtt: SimDuration,
    /// Delay slack `dt`.
    pub dt: SimDuration,
    /// Minimum window in bytes (keeps the ACK clock alive and guarantees WFQ
    /// sees at least one packet of the flow at its bottleneck).
    pub min_window_bytes: u64,
}

impl SwiftWindow {
    /// Build the window rule for a flow with base RTT `base_rtt`.
    pub fn new(config: &NumFabricConfig, base_rtt: SimDuration, mtu_bytes: u64) -> Self {
        Self {
            base_rtt,
            dt: config.dt,
            min_window_bytes: config.min_window_packets * mtu_bytes,
        }
    }

    /// The window in bytes for the bandwidth estimate `rate_bps`.
    ///
    /// The window is the bandwidth-delay product plus a slack. The slack is
    /// `R̂ · dt`, but never less than the minimum window: the paper's `dt`
    /// "targets a buffer occupancy of 5 packets" at the line rate, and a flow
    /// must keep at least a couple of packets queued at its bottleneck at
    /// *any* rate — otherwise the receiver's inter-packet times only reflect
    /// the flow's own (possibly too-low) sending rate and the estimate can
    /// never recover upward.
    pub fn window_bytes(&self, rate_bps: f64) -> u64 {
        let bdp = rate_bps.max(0.0) * self.base_rtt.as_secs_f64() / 8.0;
        let slack =
            (rate_bps.max(0.0) * self.dt.as_secs_f64() / 8.0).max(self.min_window_bytes as f64);
        (bdp + slack).ceil() as u64
    }

    /// The bandwidth-delay product (without the slack) for `rate_bps`.
    pub fn bdp_bytes(&self, rate_bps: f64) -> u64 {
        (rate_bps.max(0.0) * self.base_rtt.as_secs_f64() / 8.0).ceil() as u64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn us(x: u64) -> SimDuration {
        SimDuration::from_micros(x)
    }

    #[test]
    fn first_sample_initializes_directly() {
        let mut est = SwiftRateEstimator::new(us(20));
        assert!(est.rate_bps().is_none());
        // 1500 bytes spaced 1.2 µs apart = 10 Gbps.
        est.on_sample(
            1500,
            SimDuration::from_nanos(1200),
            SimTime::from_micros(10),
        );
        let r = est.rate_bps().unwrap();
        assert!((r - 10e9).abs() / 10e9 < 1e-9);
    }

    #[test]
    fn estimator_tracks_a_rate_change_within_a_few_time_constants() {
        let mut est = SwiftRateEstimator::new(us(20));
        let mut t = SimTime::ZERO;
        // 10 Gbps for 100 µs.
        for _ in 0..80 {
            est.on_sample(1500, SimDuration::from_nanos(1200), t);
            t += SimDuration::from_nanos(1200);
        }
        // Bottleneck halves: packets now spaced 2.4 µs.
        for _ in 0..80 {
            est.on_sample(1500, SimDuration::from_nanos(2400), t);
            t += SimDuration::from_nanos(2400);
        }
        let r = est.rate_bps().unwrap();
        assert!((r - 5e9).abs() / 5e9 < 0.05, "r = {r}");
    }

    #[test]
    fn zero_spacing_samples_are_ignored() {
        let mut est = SwiftRateEstimator::new(us(20));
        est.on_sample(1500, SimDuration::ZERO, SimTime::from_micros(1));
        assert!(est.rate_bps().is_none());
        est.on_sample(0, SimDuration::from_nanos(1200), SimTime::from_micros(2));
        assert!(est.rate_bps().is_none());
    }

    #[test]
    fn window_is_rate_times_rtt_plus_slack() {
        let cfg = NumFabricConfig::default();
        let win = SwiftWindow::new(&cfg, us(16), 1500);
        // 10 Gbps × 22 µs / 8 = 27.5 kB.
        assert_eq!(win.window_bytes(10e9), 27_500);
        // BDP alone is 20 kB.
        assert_eq!(win.bdp_bytes(10e9), 20_000);
        // The window always exceeds the BDP (the first Swift requirement).
        for rate in [1e9, 5e9, 10e9, 40e9] {
            assert!(win.window_bytes(rate) > win.bdp_bytes(rate));
        }
    }

    #[test]
    fn window_always_allows_a_standing_queue_of_packets() {
        let cfg = NumFabricConfig::default();
        let win = SwiftWindow::new(&cfg, us(16), 1500);
        assert_eq!(win.window_bytes(0.0), 2 * 1500);
        // At low rates the window is the BDP plus at least two packets of
        // slack — the slack never degenerates to a fraction of a packet.
        let low = win.window_bytes(1e9);
        assert!(
            low >= win.bdp_bytes(1e9) + 2 * 1500,
            "low-rate window {low}"
        );
    }

    #[test]
    fn larger_dt_gives_larger_window() {
        let small = SwiftWindow::new(&NumFabricConfig::default().with_dt(us(3)), us(16), 1500);
        let large = SwiftWindow::new(&NumFabricConfig::default().with_dt(us(24)), us(16), 1500);
        assert!(large.window_bytes(10e9) > small.window_bytes(10e9));
    }

    #[test]
    #[should_panic]
    fn zero_time_constant_rejected() {
        SwiftRateEstimator::new(SimDuration::ZERO);
    }
}
