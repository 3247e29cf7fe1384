//! Utility functions (Table 1 of the paper).
//!
//! Each bandwidth-allocation policy in NUMFabric is expressed by choosing a
//! utility function `U_i(x_i)` per flow; the network then maximizes
//! `Σ_i U_i(x_i)` subject to link capacities. This module provides the
//! catalogue of utilities used in the paper behind a single [`Utility`]
//! trait:
//!
//! | Policy | Type |
//! |---|---|
//! | α-fairness / weighted α-fairness | [`AlphaFair`] |
//! | Proportional fairness (α = 1) | [`LogUtility`] (also `AlphaFair::new(1.0)`) |
//! | Minimize flow completion time | [`FctUtility`] |
//! | Bandwidth functions (BwE) | [`BandwidthFunctionUtility`] |
//!
//! Resource pooling (the multipath row) has no type here: its utility is an
//! ordinary one applied to an aggregate's total rate, and the packet-level
//! `numfabric-core::multipath` module derives each subflow's weight from it.
//!
//! The solvers only ever need three operations: the utility value, the
//! marginal utility `U'(x)` and its inverse `U'⁻¹(p)`. All implementations
//! keep these three mutually consistent, which the property tests in this
//! module verify.

use crate::bandwidth_function::BandwidthFunction;
use crate::{clamp_rate, MAX_RATE, MIN_RATE};
use std::fmt;
use std::sync::Arc;

/// A smooth, increasing, strictly concave utility function of a flow's rate.
///
/// Rates and prices are non-negative `f64` values in consistent units
/// (the library does not care whether rates are in bits/s or Gb/s as long as
/// link capacities use the same unit).
pub trait Utility: Send + Sync + fmt::Debug {
    /// The utility value `U(x)` at rate `x`.
    fn value(&self, x: f64) -> f64;

    /// The marginal utility `U'(x)`.
    ///
    /// Implementations clamp `x` to a small positive floor so that the
    /// marginal stays finite even when a transient assigns a zero rate.
    fn marginal(&self, x: f64) -> f64;

    /// The inverse marginal utility `U'⁻¹(p)`: the rate at which the marginal
    /// utility equals the price `p`.
    ///
    /// This is the map used both by DGD (to pick rates, Eq. 3) and by xWI
    /// (to pick Swift weights, Eq. 7).
    fn inverse_marginal(&self, p: f64) -> f64;

    /// A short human-readable name used in logs and benchmark tables.
    fn name(&self) -> String;

    /// The largest rate at which the flow still derives meaningful marginal
    /// utility, if the utility saturates (e.g. a bandwidth function's maximum
    /// bandwidth). `None` for utilities that always want more bandwidth
    /// (α-fair, FCT). Transports use this as a demand cap so a saturated flow
    /// does not soak up bandwidth it derives no benefit from.
    fn max_useful_rate(&self) -> Option<f64> {
        None
    }
}

/// Shared-ownership handle to a utility function.
///
/// Utilities are immutable once constructed, so flows and solvers share them
/// via `Arc` rather than cloning boxed trait objects.
pub type UtilityRef = Arc<dyn Utility>;

/// α-fair utility (rows 1–2 of Table 1):
/// `U(x) = w^α · x^{1-α} / (1-α)` for `α ≠ 1`, and `w · log x` for `α = 1`.
///
/// * `α = 0` maximizes total throughput,
/// * `α = 1` is (weighted) proportional fairness,
/// * `α → ∞` approaches max-min fairness.
#[derive(Debug, Clone, PartialEq)]
pub struct AlphaFair {
    alpha: f64,
    weight: f64,
}

impl AlphaFair {
    /// An unweighted α-fair utility.
    ///
    /// # Panics
    /// Panics if `alpha` is negative or not finite.
    pub fn new(alpha: f64) -> Self {
        Self::weighted(alpha, 1.0)
    }

    /// A weighted α-fair utility with weight multiplier `weight > 0`.
    ///
    /// # Panics
    /// Panics if `alpha < 0`, `weight <= 0`, or either is not finite.
    pub fn weighted(alpha: f64, weight: f64) -> Self {
        assert!(alpha.is_finite() && alpha >= 0.0, "alpha must be >= 0");
        assert!(weight.is_finite() && weight > 0.0, "weight must be > 0");
        Self { alpha, weight }
    }

    /// The fairness exponent α.
    pub fn alpha(&self) -> f64 {
        self.alpha
    }

    /// The weight multiplier.
    pub fn weight(&self) -> f64 {
        self.weight
    }

    fn is_log(&self) -> bool {
        (self.alpha - 1.0).abs() < 1e-12
    }
}

impl Utility for AlphaFair {
    fn value(&self, x: f64) -> f64 {
        let x = clamp_rate(x);
        if self.is_log() {
            self.weight * x.ln()
        } else {
            self.weight.powf(self.alpha) * x.powf(1.0 - self.alpha) / (1.0 - self.alpha)
        }
    }

    fn marginal(&self, x: f64) -> f64 {
        let x = clamp_rate(x);
        // U'(x) = w^α x^{-α}; for α = 0 this is the constant 1 (pure throughput).
        if self.alpha == 0.0 {
            1.0
        } else {
            (self.weight / x).powf(self.alpha)
        }
    }

    fn inverse_marginal(&self, p: f64) -> f64 {
        if self.alpha == 0.0 {
            // Linear utility: the marginal is constant, the inverse is not
            // well defined; return the rate cap (flow wants as much as it can get).
            return MAX_RATE;
        }
        if p <= 0.0 {
            return MAX_RATE;
        }
        clamp_rate(self.weight * p.powf(-1.0 / self.alpha))
    }

    fn name(&self) -> String {
        if self.weight == 1.0 {
            format!("alpha-fair(alpha={})", self.alpha)
        } else {
            format!("alpha-fair(alpha={}, w={})", self.alpha, self.weight)
        }
    }
}

/// Logarithmic (proportionally fair) utility `U(x) = w log x`.
///
/// Identical to [`AlphaFair`] with `α = 1`, provided as its own type because
/// proportional fairness is the default objective in the paper's convergence
/// experiments (§6.1).
#[derive(Debug, Clone, PartialEq)]
pub struct LogUtility {
    weight: f64,
}

impl LogUtility {
    /// Unweighted log utility.
    pub fn new() -> Self {
        Self { weight: 1.0 }
    }

    /// Weighted log utility `w log x`.
    ///
    /// # Panics
    /// Panics if `weight <= 0` or not finite.
    pub fn weighted(weight: f64) -> Self {
        assert!(weight.is_finite() && weight > 0.0, "weight must be > 0");
        Self { weight }
    }

    /// The weight multiplier.
    pub fn weight(&self) -> f64 {
        self.weight
    }
}

impl Default for LogUtility {
    fn default() -> Self {
        Self::new()
    }
}

impl Utility for LogUtility {
    fn value(&self, x: f64) -> f64 {
        self.weight * clamp_rate(x).ln()
    }

    fn marginal(&self, x: f64) -> f64 {
        self.weight / clamp_rate(x)
    }

    fn inverse_marginal(&self, p: f64) -> f64 {
        if p <= 0.0 {
            return MAX_RATE;
        }
        clamp_rate(self.weight / p)
    }

    fn name(&self) -> String {
        format!("log(w={})", self.weight)
    }
}

/// Flow-completion-time minimizing utility (row 3 of Table 1), in the
/// strictly-concave form the paper actually uses (§6.3):
/// `U(x) = x^{1-ε} / ((1-ε) · s)` with a small `ε` (default 0.125).
///
/// The weight `1/s` is inversely proportional to the flow size `s`, which
/// approximates Shortest-Flow-First; using the remaining size instead
/// approximates SRPT.
#[derive(Debug, Clone, PartialEq)]
pub struct FctUtility {
    size: f64,
    epsilon: f64,
}

impl FctUtility {
    /// ε used by the paper's FCT experiments.
    pub const DEFAULT_EPSILON: f64 = 0.125;

    /// FCT utility for a flow of `size` (any positive unit, typically bytes),
    /// with the paper's default ε = 0.125.
    ///
    /// # Panics
    /// Panics if `size <= 0` or not finite.
    pub fn new(size: f64) -> Self {
        Self::with_epsilon(size, Self::DEFAULT_EPSILON)
    }

    /// FCT utility with an explicit concavity parameter `ε ∈ (0, 1)`.
    ///
    /// # Panics
    /// Panics if `size <= 0`, `ε <= 0` or `ε >= 1`.
    pub fn with_epsilon(size: f64, epsilon: f64) -> Self {
        assert!(size.is_finite() && size > 0.0, "flow size must be > 0");
        assert!(
            epsilon.is_finite() && epsilon > 0.0 && epsilon < 1.0,
            "epsilon must be in (0,1)"
        );
        Self { size, epsilon }
    }

    /// The flow size this utility was built for.
    pub fn size(&self) -> f64 {
        self.size
    }

    /// The concavity parameter ε.
    pub fn epsilon(&self) -> f64 {
        self.epsilon
    }
}

impl Utility for FctUtility {
    fn value(&self, x: f64) -> f64 {
        let x = clamp_rate(x);
        x.powf(1.0 - self.epsilon) / ((1.0 - self.epsilon) * self.size)
    }

    fn marginal(&self, x: f64) -> f64 {
        let x = clamp_rate(x);
        x.powf(-self.epsilon) / self.size
    }

    fn inverse_marginal(&self, p: f64) -> f64 {
        if p <= 0.0 {
            return MAX_RATE;
        }
        clamp_rate((p * self.size).powf(-1.0 / self.epsilon))
    }

    fn name(&self) -> String {
        format!("fct(size={}, eps={})", self.size, self.epsilon)
    }
}

/// Bandwidth-function utility (row 5 of Table 1):
/// `U(x) = ∫_0^x F(τ)^{-α} dτ`, where `F = B⁻¹` is the inverse of the
/// operator-specified bandwidth function `B(f)`.
///
/// For large α the NUM allocation approaches the BwE water-filling allocation
/// induced by the bandwidth functions; the paper finds α ≈ 5 is sufficient.
#[derive(Debug, Clone)]
pub struct BandwidthFunctionUtility {
    bwf: BandwidthFunction,
    alpha: f64,
}

impl BandwidthFunctionUtility {
    /// The α the paper recommends (≈5 gives a very good approximation).
    pub const DEFAULT_ALPHA: f64 = 5.0;

    /// Build the utility for a bandwidth function with the default α = 5.
    pub fn new(bwf: BandwidthFunction) -> Self {
        Self::with_alpha(bwf, Self::DEFAULT_ALPHA)
    }

    /// Build the utility with an explicit α > 0.
    ///
    /// # Panics
    /// Panics if `alpha <= 0` or not finite.
    pub fn with_alpha(bwf: BandwidthFunction, alpha: f64) -> Self {
        assert!(alpha.is_finite() && alpha > 0.0, "alpha must be > 0");
        Self { bwf, alpha }
    }

    /// The underlying bandwidth function.
    pub fn bandwidth_function(&self) -> &BandwidthFunction {
        &self.bwf
    }

    /// The sharpness parameter α.
    pub fn alpha(&self) -> f64 {
        self.alpha
    }
}

impl Utility for BandwidthFunctionUtility {
    fn value(&self, x: f64) -> f64 {
        // Numerical integral of F(τ)^{-α} from 0 to x (composite trapezoid on
        // a modest grid; only used for reporting, never inside solver loops).
        let x = clamp_rate(x).min(self.bwf.max_bandwidth());
        let n = 256;
        let h = x / n as f64;
        if h <= 0.0 {
            return 0.0;
        }
        let mut acc = 0.0;
        let f = |t: f64| {
            self.bwf
                .fair_share(t.max(MIN_RATE))
                .max(MIN_RATE)
                .powf(-self.alpha)
        };
        for k in 0..n {
            let a = k as f64 * h;
            let b = a + h;
            acc += 0.5 * (f(a) + f(b)) * h;
        }
        acc
    }

    fn marginal(&self, x: f64) -> f64 {
        let x = clamp_rate(x);
        let fair_share = self.bwf.fair_share(x).max(MIN_RATE);
        fair_share.powf(-self.alpha)
    }

    fn inverse_marginal(&self, p: f64) -> f64 {
        if p <= 0.0 {
            return clamp_rate(self.bwf.max_bandwidth());
        }
        // F(x)^{-α} = p  =>  F(x) = p^{-1/α}  =>  x = B(p^{-1/α})
        let fair_share = p.powf(-1.0 / self.alpha);
        clamp_rate(self.bwf.bandwidth(fair_share))
    }

    fn name(&self) -> String {
        format!("bandwidth-function(alpha={})", self.alpha)
    }

    fn max_useful_rate(&self) -> Option<f64> {
        Some(self.bwf.max_bandwidth())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::bandwidth_function::BandwidthFunction;
    use proptest::prelude::*;

    fn assert_close(a: f64, b: f64, tol: f64) {
        assert!(
            (a - b).abs() <= tol * (1.0 + a.abs().max(b.abs())),
            "{a} vs {b}"
        );
    }

    #[test]
    fn alpha_fair_log_limit_matches_log_utility() {
        let af = AlphaFair::new(1.0);
        let log = LogUtility::new();
        for &x in &[0.1, 1.0, 2.5, 100.0] {
            assert_close(af.value(x), log.value(x), 1e-12);
            assert_close(af.marginal(x), log.marginal(x), 1e-12);
        }
        for &p in &[0.01, 0.5, 3.0] {
            assert_close(af.inverse_marginal(p), log.inverse_marginal(p), 1e-12);
        }
    }

    #[test]
    fn alpha_zero_is_pure_throughput() {
        let u = AlphaFair::new(0.0);
        assert_eq!(u.marginal(1.0), 1.0);
        assert_eq!(u.marginal(1000.0), 1.0);
        assert_eq!(u.inverse_marginal(0.5), MAX_RATE);
    }

    #[test]
    fn weighted_alpha_fair_scales_inverse_marginal_by_weight() {
        // U'(x) = (w/x)^α, so U'⁻¹(p) = w p^{-1/α}: at the same price a flow
        // with twice the weight gets twice the rate.
        let a = AlphaFair::weighted(2.0, 1.0);
        let b = AlphaFair::weighted(2.0, 2.0);
        for &p in &[0.1, 1.0, 4.0] {
            assert_close(b.inverse_marginal(p), 2.0 * a.inverse_marginal(p), 1e-12);
        }
    }

    #[test]
    fn fct_utility_prefers_small_flows() {
        let small = FctUtility::new(1e4);
        let large = FctUtility::new(1e7);
        // At equal rates the small flow has the larger marginal utility, so the
        // NUM solution gives it priority (Shortest-Flow-First behaviour).
        assert!(small.marginal(1.0) > large.marginal(1.0));
        // At equal price the small flow is allocated the higher rate.
        assert!(small.inverse_marginal(1e-5) > large.inverse_marginal(1e-5));
    }

    #[test]
    fn log_utility_marginal_is_reciprocal() {
        let u = LogUtility::weighted(3.0);
        assert_close(u.marginal(6.0), 0.5, 1e-12);
        assert_close(u.inverse_marginal(0.5), 6.0, 1e-12);
    }

    #[test]
    fn bandwidth_function_utility_inverse_marginal_follows_bwf() {
        // Figure 2 of the paper: flow 1 has strict priority for its first
        // 10 Gbps, so at moderate prices its allocated rate is larger.
        let bwf1 =
            BandwidthFunction::from_points(&[(0.0, 0.0), (2.0, 10.0), (2.5, 15.0), (4.0, 15.0)])
                .unwrap();
        let u1 = BandwidthFunctionUtility::new(bwf1);
        // price = marginal at fair share 2 => F(x)=2 => x = B(2) = 10
        let p = 2.0_f64.powf(-u1.alpha());
        assert_close(u1.inverse_marginal(p), 10.0, 1e-9);
    }

    #[test]
    #[should_panic]
    fn alpha_fair_rejects_negative_alpha() {
        let _ = AlphaFair::new(-0.5);
    }

    #[test]
    #[should_panic]
    fn fct_rejects_zero_size() {
        let _ = FctUtility::new(0.0);
    }

    proptest! {
        /// U'⁻¹ really inverts U' for the α-fair family.
        #[test]
        fn prop_alpha_fair_inverse_roundtrip(alpha in 0.1f64..6.0, w in 0.1f64..10.0, x in 1e-3f64..1e6) {
            let u = AlphaFair::weighted(alpha, w);
            let p = u.marginal(x);
            let x2 = u.inverse_marginal(p);
            prop_assert!((x - x2).abs() / x < 1e-6, "x={x} x2={x2}");
        }

        /// Marginal utility is strictly decreasing (concavity) for α-fair.
        #[test]
        fn prop_alpha_fair_marginal_decreasing(alpha in 0.1f64..6.0, x in 1e-3f64..1e6, factor in 1.01f64..100.0) {
            let u = AlphaFair::new(alpha);
            prop_assert!(u.marginal(x * factor) < u.marginal(x));
        }

        /// Utility value is increasing in rate for α-fair.
        #[test]
        fn prop_alpha_fair_value_increasing(alpha in 0.1f64..4.0, x in 1e-3f64..1e5, factor in 1.01f64..10.0) {
            let u = AlphaFair::new(alpha);
            prop_assert!(u.value(x * factor) > u.value(x));
        }

        /// FCT utility inverse-marginal roundtrip.
        #[test]
        fn prop_fct_inverse_roundtrip(size in 1e2f64..1e9, x in 1e-2f64..1e5) {
            let u = FctUtility::new(size);
            let p = u.marginal(x);
            let x2 = u.inverse_marginal(p);
            prop_assert!((x - x2).abs() / x < 1e-6);
        }

        /// Inverse marginal is non-increasing in price (higher price, lower rate).
        #[test]
        fn prop_inverse_marginal_monotone(alpha in 0.2f64..5.0, p in 1e-6f64..1e3, factor in 1.01f64..50.0) {
            let u = AlphaFair::new(alpha);
            prop_assert!(u.inverse_marginal(p * factor) <= u.inverse_marginal(p) + 1e-12);
        }
    }
}
