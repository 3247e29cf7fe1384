//! Rate measurement.
//!
//! The paper measures flow rates at the destination with an exponentially
//! weighted moving average over instantaneous per-packet rates, using an
//! 80 µs time constant, and subtracts the filter's rise time when reporting
//! convergence times (§6.1). [`EwmaRateTracer`] is that filter.

use crate::time::{SimDuration, SimTime};

/// The EWMA time constant the paper uses for convergence measurement.
pub const PAPER_EWMA_TAU: SimDuration = SimDuration::from_micros(80);

/// Destination-side EWMA rate estimator.
///
/// Each data arrival contributes an instantaneous rate sample
/// `bytes · 8 / interArrival`, blended into the estimate with weight
/// `1 − exp(−Δt / τ)` so the filter behaves like a continuous-time low-pass
/// filter regardless of packet pacing.
#[derive(Debug, Clone)]
pub struct EwmaRateTracer {
    tau: SimDuration,
    rate_bps: f64,
    last_arrival: Option<SimTime>,
    initialized: bool,
}

impl EwmaRateTracer {
    /// A tracer with time constant `tau`.
    ///
    /// # Panics
    /// Panics if `tau` is zero.
    pub fn new(tau: SimDuration) -> Self {
        assert!(!tau.is_zero(), "EWMA time constant must be positive");
        Self {
            tau,
            rate_bps: 0.0,
            last_arrival: None,
            initialized: false,
        }
    }

    /// A tracer with the paper's 80 µs time constant.
    pub fn paper_default() -> Self {
        Self::new(PAPER_EWMA_TAU)
    }

    /// Record the arrival of `bytes` payload bytes at time `now`.
    pub fn on_arrival(&mut self, bytes: u64, now: SimTime) {
        if let Some(last) = self.last_arrival {
            let dt = now.duration_since(last);
            if !dt.is_zero() {
                let sample = bytes as f64 * 8.0 / dt.as_secs_f64();
                if self.initialized {
                    let alpha = 1.0 - (-dt.as_secs_f64() / self.tau.as_secs_f64()).exp();
                    self.rate_bps += alpha * (sample - self.rate_bps);
                } else {
                    self.rate_bps = sample;
                    self.initialized = true;
                }
            }
        }
        self.last_arrival = Some(now);
    }

    /// The current rate estimate in bits per second.
    ///
    /// If nothing has arrived for a while the estimate decays toward zero
    /// (the flow may have stopped), using the same time constant.
    pub fn rate_bps(&self, now: SimTime) -> f64 {
        match self.last_arrival {
            Some(last) if self.initialized => {
                let idle = now.duration_since(last);
                // Only decay once the silence is long relative to packet
                // spacing implied by the current estimate (otherwise we would
                // penalize perfectly paced flows between packets).
                let expected_gap = if self.rate_bps > 0.0 {
                    SimDuration::from_secs_f64((1500.0 * 8.0 / self.rate_bps).min(1.0))
                } else {
                    SimDuration::from_millis(1)
                };
                if idle > expected_gap * 4 {
                    let excess = idle.saturating_sub(expected_gap * 4);
                    self.rate_bps * (-excess.as_secs_f64() / self.tau.as_secs_f64()).exp()
                } else {
                    self.rate_bps
                }
            }
            _ => 0.0,
        }
    }

    /// The filter's 90 % rise time, `ln(10) · τ` — the measurement artifact
    /// the paper subtracts from convergence times.
    pub fn rise_time(&self) -> SimDuration {
        SimDuration::from_secs_f64(self.tau.as_secs_f64() * 10f64.ln())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn constant_pacing_converges_to_true_rate() {
        // 1500-byte packets every 1.2 µs = 10 Gbps.
        let mut tracer = EwmaRateTracer::paper_default();
        let mut t = SimTime::ZERO;
        for _ in 0..1_000 {
            tracer.on_arrival(1500, t);
            t += SimDuration::from_nanos(1200);
        }
        let rate = tracer.rate_bps(t);
        assert!((rate - 10e9).abs() / 10e9 < 0.01, "rate = {rate}");
    }

    #[test]
    fn rise_time_matches_paper_arithmetic() {
        // ln(10) * 80 µs ≈ 184 µs ("≈ 185 µs" in the paper).
        let tracer = EwmaRateTracer::paper_default();
        let rise = tracer.rise_time();
        assert!(rise >= SimDuration::from_micros(180) && rise <= SimDuration::from_micros(190));
    }

    #[test]
    fn tracks_rate_changes_within_a_few_time_constants() {
        let mut tracer = EwmaRateTracer::paper_default();
        let mut t = SimTime::ZERO;
        // 5 Gbps for a while...
        for _ in 0..500 {
            tracer.on_arrival(1500, t);
            t += SimDuration::from_nanos(2400);
        }
        // ...then 10 Gbps.
        for _ in 0..500 {
            tracer.on_arrival(1500, t);
            t += SimDuration::from_nanos(1200);
        }
        let rate = tracer.rate_bps(t);
        assert!((rate - 10e9).abs() / 10e9 < 0.05, "rate = {rate}");
    }

    #[test]
    fn single_packet_gives_no_estimate_until_second() {
        let mut tracer = EwmaRateTracer::paper_default();
        tracer.on_arrival(1500, SimTime::from_micros(10));
        assert_eq!(tracer.rate_bps(SimTime::from_micros(11)), 0.0);
        tracer.on_arrival(1500, SimTime::from_micros(11));
        assert!(tracer.rate_bps(SimTime::from_micros(11)) > 0.0);
    }

    #[test]
    fn idle_flow_estimate_decays() {
        let mut tracer = EwmaRateTracer::paper_default();
        let mut t = SimTime::ZERO;
        for _ in 0..100 {
            tracer.on_arrival(1500, t);
            t += SimDuration::from_nanos(1200);
        }
        let busy = tracer.rate_bps(t);
        let idle = tracer.rate_bps(t + SimDuration::from_millis(5));
        assert!(idle < busy * 0.01, "idle estimate {idle} vs busy {busy}");
    }

    #[test]
    fn duplicate_timestamps_are_ignored() {
        let mut tracer = EwmaRateTracer::paper_default();
        let t = SimTime::from_micros(5);
        tracer.on_arrival(1500, t);
        tracer.on_arrival(1500, t);
        assert_eq!(tracer.rate_bps(t), 0.0);
    }

    #[test]
    #[should_panic]
    fn zero_time_constant_rejected() {
        EwmaRateTracer::new(SimDuration::ZERO);
    }
}
