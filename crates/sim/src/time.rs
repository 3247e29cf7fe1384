//! Simulated time.
//!
//! The simulator uses integer **nanoseconds** as its clock. At the link
//! speeds of the paper's evaluation (10/40 Gbps) a 1500-byte packet takes
//! 1200 ns / 300 ns to serialize, so nanosecond resolution is comfortably
//! finer than any event spacing while `u64` still covers ~584 years of
//! simulated time.

use serde::{Deserialize, Serialize};
use std::fmt;
use std::ops::{Add, AddAssign, Div, Mul, Sub};

/// An absolute simulation timestamp (nanoseconds since simulation start).
#[derive(
    Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default, Serialize, Deserialize,
)]
pub struct SimTime(u64);

/// A (non-negative) span of simulated time in nanoseconds.
#[derive(
    Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default, Serialize, Deserialize,
)]
pub struct SimDuration(u64);

impl SimTime {
    /// The simulation epoch (t = 0).
    pub const ZERO: SimTime = SimTime(0);

    /// A timestamp from raw nanoseconds.
    pub const fn from_nanos(ns: u64) -> Self {
        SimTime(ns)
    }

    /// A timestamp from microseconds.
    pub const fn from_micros(us: u64) -> Self {
        SimTime(us * 1_000)
    }

    /// A timestamp from milliseconds.
    pub const fn from_millis(ms: u64) -> Self {
        SimTime(ms * 1_000_000)
    }

    /// A timestamp from (possibly fractional) seconds.
    ///
    /// # Panics
    /// Panics if `secs` is negative or not finite.
    pub fn from_secs_f64(secs: f64) -> Self {
        assert!(secs.is_finite() && secs >= 0.0, "invalid time {secs}");
        SimTime((secs * 1e9).round() as u64)
    }

    /// Raw nanoseconds.
    pub const fn as_nanos(self) -> u64 {
        self.0
    }

    /// The timestamp in (fractional) seconds.
    pub fn as_secs_f64(self) -> f64 {
        self.0 as f64 / 1e9
    }

    /// The timestamp in (fractional) microseconds.
    pub fn as_micros_f64(self) -> f64 {
        self.0 as f64 / 1e3
    }

    /// Duration since `earlier` (saturating at zero if `earlier` is later).
    pub fn duration_since(self, earlier: SimTime) -> SimDuration {
        SimDuration(self.0.saturating_sub(earlier.0))
    }
}

impl SimDuration {
    /// Zero-length duration.
    pub const ZERO: SimDuration = SimDuration(0);

    /// A duration from raw nanoseconds.
    pub const fn from_nanos(ns: u64) -> Self {
        SimDuration(ns)
    }

    /// A duration from microseconds.
    pub const fn from_micros(us: u64) -> Self {
        SimDuration(us * 1_000)
    }

    /// A duration from milliseconds.
    pub const fn from_millis(ms: u64) -> Self {
        SimDuration(ms * 1_000_000)
    }

    /// A duration from (possibly fractional) seconds.
    ///
    /// # Panics
    /// Panics if `secs` is negative or not finite.
    pub fn from_secs_f64(secs: f64) -> Self {
        assert!(secs.is_finite() && secs >= 0.0, "invalid duration {secs}");
        SimDuration((secs * 1e9).round() as u64)
    }

    /// The time it takes to serialize `bytes` bytes onto a link of
    /// `capacity_bps` bits per second. A non-empty packet occupies the link
    /// for at least one clock tick (1 ns) however fast the link is — a
    /// 40-byte ACK at ≳ 640 Gb/s would otherwise round to zero and let a
    /// link start unboundedly many transmissions in one instant.
    ///
    /// # Panics
    /// Panics if `capacity_bps` is not strictly positive.
    pub fn transmission(bytes: u64, capacity_bps: f64) -> Self {
        assert!(capacity_bps > 0.0, "link capacity must be positive");
        let nanos = ((bytes as f64 * 8.0 / capacity_bps) * 1e9).round() as u64;
        SimDuration(nanos.max(u64::from(bytes > 0)))
    }

    /// Raw nanoseconds.
    pub const fn as_nanos(self) -> u64 {
        self.0
    }

    /// The duration in (fractional) seconds.
    pub fn as_secs_f64(self) -> f64 {
        self.0 as f64 / 1e9
    }

    /// The duration in (fractional) microseconds.
    pub fn as_micros_f64(self) -> f64 {
        self.0 as f64 / 1e3
    }

    /// True if this is the zero duration.
    pub const fn is_zero(self) -> bool {
        self.0 == 0
    }

    /// Saturating subtraction.
    pub fn saturating_sub(self, other: SimDuration) -> SimDuration {
        SimDuration(self.0.saturating_sub(other.0))
    }
}

impl Add<SimDuration> for SimTime {
    type Output = SimTime;
    fn add(self, rhs: SimDuration) -> SimTime {
        SimTime(self.0 + rhs.0)
    }
}

impl AddAssign<SimDuration> for SimTime {
    fn add_assign(&mut self, rhs: SimDuration) {
        self.0 += rhs.0;
    }
}

impl Sub<SimTime> for SimTime {
    type Output = SimDuration;
    fn sub(self, rhs: SimTime) -> SimDuration {
        SimDuration(self.0.saturating_sub(rhs.0))
    }
}

impl Add for SimDuration {
    type Output = SimDuration;
    fn add(self, rhs: SimDuration) -> SimDuration {
        SimDuration(self.0 + rhs.0)
    }
}

impl AddAssign for SimDuration {
    fn add_assign(&mut self, rhs: SimDuration) {
        self.0 += rhs.0;
    }
}

impl Sub for SimDuration {
    type Output = SimDuration;
    fn sub(self, rhs: SimDuration) -> SimDuration {
        SimDuration(self.0.saturating_sub(rhs.0))
    }
}

impl Mul<u64> for SimDuration {
    type Output = SimDuration;
    fn mul(self, rhs: u64) -> SimDuration {
        SimDuration(self.0 * rhs)
    }
}

impl Mul<f64> for SimDuration {
    type Output = SimDuration;
    fn mul(self, rhs: f64) -> SimDuration {
        assert!(rhs >= 0.0 && rhs.is_finite(), "invalid multiplier {rhs}");
        SimDuration((self.0 as f64 * rhs).round() as u64)
    }
}

impl Div<u64> for SimDuration {
    type Output = SimDuration;
    fn div(self, rhs: u64) -> SimDuration {
        SimDuration(self.0 / rhs)
    }
}

impl fmt::Display for SimTime {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:.3}us", self.as_micros_f64())
    }
}

impl fmt::Display for SimDuration {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:.3}us", self.as_micros_f64())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn conversions_round_trip() {
        assert_eq!(SimTime::from_micros(16).as_nanos(), 16_000);
        assert_eq!(SimTime::from_millis(5).as_nanos(), 5_000_000);
        assert_eq!(SimTime::from_secs_f64(1.5).as_nanos(), 1_500_000_000);
        assert!((SimTime::from_nanos(2_500).as_micros_f64() - 2.5).abs() < 1e-12);
        assert_eq!(SimDuration::from_micros(80).as_nanos(), 80_000);
    }

    #[test]
    fn transmission_time_matches_paper_numbers() {
        // 1500-byte packet at 10 Gbps = 1.2 µs; at 40 Gbps = 0.3 µs.
        assert_eq!(SimDuration::transmission(1500, 10e9).as_nanos(), 1200);
        assert_eq!(SimDuration::transmission(1500, 40e9).as_nanos(), 300);
    }

    #[test]
    fn a_non_empty_packet_never_serializes_in_zero_time() {
        // 40 bytes at 1 Tb/s is 0.32 ns: rounds to zero without the clamp.
        assert_eq!(SimDuration::transmission(40, 1e12).as_nanos(), 1);
        assert_eq!(SimDuration::transmission(1, 1e15).as_nanos(), 1);
        // Only an empty packet takes no time, and the clamp never stretches
        // a serialization that already rounds to a tick or more.
        assert_eq!(SimDuration::transmission(0, 10e9), SimDuration::ZERO);
        assert_eq!(SimDuration::transmission(40, 400e9).as_nanos(), 1);
        assert_eq!(SimDuration::transmission(40, 100e9).as_nanos(), 3);
    }

    #[test]
    fn arithmetic_behaves() {
        let t = SimTime::from_micros(10);
        let d = SimDuration::from_micros(6);
        assert_eq!((t + d).as_nanos(), 16_000);
        assert_eq!((t + d) - t, d);
        assert_eq!((d + d).as_nanos(), 12_000);
        assert_eq!((d * 3).as_nanos(), 18_000);
        assert_eq!((d / 2).as_nanos(), 3_000);
        assert_eq!((d * 0.5).as_nanos(), 3_000);
        assert_eq!(
            d.saturating_sub(SimDuration::from_micros(10)),
            SimDuration::ZERO
        );
    }

    #[test]
    fn subtraction_saturates() {
        let a = SimTime::from_micros(5);
        let b = SimTime::from_micros(9);
        assert_eq!(a - b, SimDuration::ZERO);
        assert_eq!(a.duration_since(b), SimDuration::ZERO);
        assert_eq!(b.duration_since(a), SimDuration::from_micros(4));
    }

    #[test]
    #[should_panic]
    fn negative_seconds_rejected() {
        SimTime::from_secs_f64(-1.0);
    }

    #[test]
    fn ordering_and_display() {
        assert!(SimTime::from_micros(1) < SimTime::from_micros(2));
        assert_eq!(format!("{}", SimTime::from_micros(2)), "2.000us");
        assert_eq!(format!("{}", SimDuration::from_nanos(500)), "0.500us");
    }
}
