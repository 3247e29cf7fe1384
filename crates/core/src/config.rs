//! NUMFabric configuration (Table 2 of the paper).

use numfabric_sim::SimDuration;
use serde::{Deserialize, Serialize};

/// All tunable parameters of NUMFabric, with the defaults of Table 2.
///
/// Rates inside the protocol (weights, marginal utilities, prices) are
/// expressed in **Gbps**; the conversion from the simulator's bits-per-second
/// happens inside the protocol agents. This keeps the numerical range of the
/// utility calculations comfortable for every α the paper sweeps.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct NumFabricConfig {
    /// Time constant of the Swift sender's EWMA over inter-packet times
    /// (`ewmaTime`, 20 µs).
    pub ewma_time: SimDuration,
    /// Delay slack added to the base RTT when sizing the window
    /// (`dt`, 6 µs ≈ 5 packets at 10 Gbps).
    pub dt: SimDuration,
    /// Interval between synchronized xWI price updates at the switches
    /// (`priceUpdateInterval`, 30 µs ≈ 2 RTTs).
    pub price_update_interval: SimDuration,
    /// Gain of the under-utilization term in the price update (η, Eq. 10).
    pub eta: f64,
    /// Price averaging factor (β, Eq. 11).
    pub beta: f64,
    /// Number of packets in the initial burst Swift sends to seed the
    /// receiver's inter-packet time measurement (§4.1; 3 in the paper).
    pub initial_burst_packets: usize,
    /// Optional initial window in bytes. The FCT-minimization experiments set
    /// this to one bandwidth-delay product, mimicking pFabric, so that short
    /// flows can finish in their first RTT (§6.3). `None` keeps the default
    /// 3-packet slow start.
    pub initial_window_bytes: Option<u64>,
    /// Minimum window in packets. WFQ needs at least one packet of every
    /// backlogged flow queued at its bottleneck; two avoids ACK-clock stalls.
    pub min_window_packets: u64,
    /// Initial Swift weight used before the first price feedback arrives.
    pub initial_weight: f64,
}

impl Default for NumFabricConfig {
    fn default() -> Self {
        Self {
            ewma_time: SimDuration::from_micros(20),
            dt: SimDuration::from_micros(6),
            price_update_interval: SimDuration::from_micros(30),
            eta: 5.0,
            beta: 0.5,
            initial_burst_packets: 3,
            initial_window_bytes: None,
            min_window_packets: 2,
            initial_weight: 1.0,
        }
    }
}

impl NumFabricConfig {
    /// The paper's default parameters (Table 2).
    pub fn paper_default() -> Self {
        Self::default()
    }

    /// The "2× slowed down" configuration used for extreme α values and the
    /// FCT-minimization objective (§6.2): price updates every 60 µs and a
    /// 40 µs EWMA time constant.
    pub fn slowed_down(factor: f64) -> Self {
        assert!(factor >= 1.0, "slow-down factor must be >= 1");
        let base = Self::default();
        Self {
            ewma_time: base.ewma_time * factor,
            price_update_interval: base.price_update_interval * factor,
            ..base
        }
    }

    /// Override the delay slack `dt` (Figure 6a sweeps 3–24 µs).
    pub fn with_dt(mut self, dt: SimDuration) -> Self {
        self.dt = dt;
        self
    }

    /// Override the price update interval (Figure 6b sweeps 30–128 µs).
    pub fn with_price_update_interval(mut self, interval: SimDuration) -> Self {
        self.price_update_interval = interval;
        self
    }

    /// Set the initial window to one bandwidth-delay product of `rate_bps`
    /// and `rtt` (used by the FCT experiments).
    pub fn with_bdp_initial_window(mut self, rate_bps: f64, rtt: SimDuration) -> Self {
        let bdp_bytes = (rate_bps * rtt.as_secs_f64() / 8.0).ceil() as u64;
        self.initial_window_bytes = Some(bdp_bytes);
        self
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defaults_match_table_2() {
        let c = NumFabricConfig::paper_default();
        assert_eq!(c.ewma_time, SimDuration::from_micros(20));
        assert_eq!(c.dt, SimDuration::from_micros(6));
        assert_eq!(c.price_update_interval, SimDuration::from_micros(30));
        assert_eq!(c.eta, 5.0);
        assert_eq!(c.beta, 0.5);
        assert_eq!(c.initial_burst_packets, 3);
    }

    #[test]
    fn slowdown_scales_the_control_loops_only() {
        let c = NumFabricConfig::slowed_down(2.0);
        assert_eq!(c.ewma_time, SimDuration::from_micros(40));
        assert_eq!(c.price_update_interval, SimDuration::from_micros(60));
        assert_eq!(c.dt, SimDuration::from_micros(6));
        assert_eq!(c.eta, 5.0);
    }

    #[test]
    fn bdp_initial_window_matches_arithmetic() {
        // 10 Gbps × 16 µs = 160 kb = 20 kB.
        let c =
            NumFabricConfig::default().with_bdp_initial_window(10e9, SimDuration::from_micros(16));
        assert_eq!(c.initial_window_bytes, Some(20_000));
    }

    #[test]
    fn builder_overrides_apply() {
        let c = NumFabricConfig::default()
            .with_dt(SimDuration::from_micros(12))
            .with_price_update_interval(SimDuration::from_micros(64));
        assert_eq!(c.dt, SimDuration::from_micros(12));
        assert_eq!(c.price_update_interval, SimDuration::from_micros(64));
    }
}
