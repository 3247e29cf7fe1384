//! Bandwidth functions in the style of Google BwE (§2, Figure 2 of the paper).
//!
//! A bandwidth function `B(f)` maps a dimensionless *fair share* `f` to the
//! bandwidth a flow should receive. Allocation on a link of capacity `C`
//! picks the largest common fair share `f*` such that `Σ_i B_i(f*) ≤ C`
//! (water-filling); across a network the fair shares are max-min over the
//! flows (see BwE, \[35\] in the paper).
//!
//! This module provides piecewise-linear, non-decreasing bandwidth functions,
//! their (pseudo-)inverse `F(x)` (fair share as a function of bandwidth) and
//! the single-link water-filling allocation that Figure 9 checks NUMFabric
//! against.

use crate::EPS;
use serde::{Deserialize, Serialize};

/// Error building or evaluating a bandwidth function.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum BandwidthFunctionError {
    /// Fewer than two control points were supplied.
    TooFewPoints,
    /// Control points are not sorted by strictly increasing fair share.
    UnsortedFairShare,
    /// Bandwidth values decrease somewhere (the function must be non-decreasing).
    DecreasingBandwidth,
    /// A coordinate was negative, NaN or infinite.
    InvalidCoordinate,
}

impl std::fmt::Display for BandwidthFunctionError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Self::TooFewPoints => write!(f, "a bandwidth function needs at least two points"),
            Self::UnsortedFairShare => {
                write!(f, "fair-share coordinates must be strictly increasing")
            }
            Self::DecreasingBandwidth => {
                write!(f, "bandwidth must be non-decreasing in fair share")
            }
            Self::InvalidCoordinate => write!(f, "coordinates must be finite and non-negative"),
        }
    }
}

impl std::error::Error for BandwidthFunctionError {}

/// A piecewise-linear, non-decreasing bandwidth function `B(f)`.
///
/// Beyond the last control point the function is extended as a constant
/// (the flow never wants more than its final bandwidth), matching BwE
/// semantics where bandwidth functions saturate.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct BandwidthFunction {
    /// Control points as (fair_share, bandwidth), strictly increasing in fair
    /// share and non-decreasing in bandwidth.
    points: Vec<(f64, f64)>,
}

impl BandwidthFunction {
    /// Build a bandwidth function from `(fair_share, bandwidth)` control points.
    ///
    /// The points must be strictly increasing in fair share, non-decreasing in
    /// bandwidth, and all coordinates must be finite and non-negative. If the
    /// first point is not at fair share 0 an implicit `(0, first_bandwidth)`
    /// anchor is *not* added — supply it explicitly for clarity.
    pub fn from_points(points: &[(f64, f64)]) -> Result<Self, BandwidthFunctionError> {
        if points.len() < 2 {
            return Err(BandwidthFunctionError::TooFewPoints);
        }
        for &(f, b) in points {
            if !f.is_finite() || !b.is_finite() || f < 0.0 || b < 0.0 {
                return Err(BandwidthFunctionError::InvalidCoordinate);
            }
        }
        for w in points.windows(2) {
            if w[1].0 <= w[0].0 {
                return Err(BandwidthFunctionError::UnsortedFairShare);
            }
            if w[1].1 < w[0].1 {
                return Err(BandwidthFunctionError::DecreasingBandwidth);
            }
        }
        Ok(Self {
            points: points.to_vec(),
        })
    }

    /// The bandwidth function of **Flow 1** in Figure 2 of the paper:
    /// strict priority for the first 10 Gbps (fair share 0→2), then growth at
    /// half the slope of flow 2 up to 15 Gbps (fair share 2→4.5... the paper
    /// shows it reaching 15 Gbps at the 25 Gbps operating point), saturating
    /// at 15 Gbps. Units are Gbps.
    pub fn paper_flow1() -> Self {
        Self::from_points(&[(0.0, 0.0), (2.0, 10.0), (4.5, 15.0), (10.0, 15.0)])
            .expect("static points are valid")
    }

    /// The bandwidth function of **Flow 2** in Figure 2 of the paper:
    /// nothing until fair share 2, then growth at twice flow 1's slope until
    /// 10 Gbps at fair share 2.5, saturating at 10 Gbps. Units are Gbps.
    pub fn paper_flow2() -> Self {
        Self::from_points(&[(0.0, 0.0), (2.0, 0.0), (2.5, 10.0), (10.0, 10.0)])
            .expect("static points are valid")
    }

    /// A simple linear bandwidth function `B(f) = slope · f`, capped at `max`.
    ///
    /// # Panics
    /// Panics if `slope <= 0` or `max <= 0`.
    pub fn linear(slope: f64, max: f64) -> Self {
        assert!(slope > 0.0 && max > 0.0, "slope and max must be positive");
        Self::from_points(&[(0.0, 0.0), (max / slope, max), (max / slope * 2.0, max)])
            .expect("constructed points are valid")
    }

    /// The control points.
    pub fn points(&self) -> &[(f64, f64)] {
        &self.points
    }

    /// Bandwidth `B(f)` at fair share `f` (clamped below at the first point
    /// and extended as a constant beyond the last point).
    pub fn bandwidth(&self, f: f64) -> f64 {
        let pts = &self.points;
        if f <= pts[0].0 {
            return pts[0].1;
        }
        if f >= pts[pts.len() - 1].0 {
            return pts[pts.len() - 1].1;
        }
        // Linear interpolation in the containing segment.
        let idx = pts.partition_point(|&(pf, _)| pf <= f);
        let (f0, b0) = pts[idx - 1];
        let (f1, b1) = pts[idx];
        b0 + (b1 - b0) * (f - f0) / (f1 - f0)
    }

    /// Fair share `F(x) = B⁻¹(x)` at bandwidth `x`.
    ///
    /// Where `B` is flat the inverse is set-valued; this returns the *smallest*
    /// fair share achieving bandwidth `x` (the convention that makes
    /// `U'(x) = F(x)^{-α}` well defined and non-increasing). Bandwidth above
    /// the function's maximum maps to the largest fair-share coordinate.
    pub fn fair_share(&self, x: f64) -> f64 {
        let pts = &self.points;
        if x <= pts[0].1 {
            return pts[0].0;
        }
        let last = pts[pts.len() - 1];
        if x >= last.1 {
            // Smallest fair share reaching the max bandwidth.
            let first_at_max = pts
                .iter()
                .find(|&&(_, b)| (b - last.1).abs() < EPS)
                .copied()
                .unwrap_or(last);
            return first_at_max.0;
        }
        let idx = pts.partition_point(|&(_, pb)| pb < x);
        let (f0, b0) = pts[idx - 1];
        let (f1, b1) = pts[idx];
        if (b1 - b0).abs() < EPS {
            // Flat segment: smallest fair share with bandwidth >= x is f1.
            f1
        } else {
            f0 + (f1 - f0) * (x - b0) / (b1 - b0)
        }
    }

    /// The saturation bandwidth (value at the last control point).
    pub fn max_bandwidth(&self) -> f64 {
        self.points[self.points.len() - 1].1
    }

    /// The largest fair-share coordinate among the control points.
    pub fn max_fair_share(&self) -> f64 {
        self.points[self.points.len() - 1].0
    }
}

/// Single-link water-filling allocation (§2): find the largest fair share
/// `f*` such that `Σ_i B_i(f*) ≤ capacity` and allocate `B_i(f*)` to each
/// flow. Returns the per-flow allocation and the achieved fair share.
///
/// If even `f* = +∞` does not fill the link (all functions saturate below
/// capacity), every flow gets its maximum bandwidth.
pub fn single_link_allocation(functions: &[BandwidthFunction], capacity: f64) -> (Vec<f64>, f64) {
    assert!(capacity >= 0.0, "capacity must be non-negative");
    if functions.is_empty() {
        return (Vec::new(), 0.0);
    }
    let total_at = |f: f64| functions.iter().map(|b| b.bandwidth(f)).sum::<f64>();
    let f_max = functions
        .iter()
        .map(|b| b.max_fair_share())
        .fold(0.0_f64, f64::max);
    if total_at(f_max) <= capacity + EPS {
        let alloc = functions.iter().map(|b| b.max_bandwidth()).collect();
        return (alloc, f_max);
    }
    // Bisection on the fair share; total_at is non-decreasing.
    let (mut lo, mut hi) = (0.0_f64, f_max);
    for _ in 0..200 {
        let mid = 0.5 * (lo + hi);
        if total_at(mid) <= capacity {
            lo = mid;
        } else {
            hi = mid;
        }
    }
    let f_star = lo;
    (
        functions.iter().map(|b| b.bandwidth(f_star)).collect(),
        f_star,
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn close(a: f64, b: f64, tol: f64) -> bool {
        (a - b).abs() <= tol
    }

    #[test]
    fn rejects_bad_point_sets() {
        assert_eq!(
            BandwidthFunction::from_points(&[(0.0, 0.0)]).unwrap_err(),
            BandwidthFunctionError::TooFewPoints
        );
        assert_eq!(
            BandwidthFunction::from_points(&[(0.0, 0.0), (0.0, 1.0)]).unwrap_err(),
            BandwidthFunctionError::UnsortedFairShare
        );
        assert_eq!(
            BandwidthFunction::from_points(&[(0.0, 5.0), (1.0, 1.0)]).unwrap_err(),
            BandwidthFunctionError::DecreasingBandwidth
        );
        assert_eq!(
            BandwidthFunction::from_points(&[(0.0, -1.0), (1.0, 1.0)]).unwrap_err(),
            BandwidthFunctionError::InvalidCoordinate
        );
    }

    #[test]
    fn evaluates_paper_flow1() {
        let b = BandwidthFunction::paper_flow1();
        assert!(close(b.bandwidth(0.0), 0.0, 1e-12));
        assert!(close(b.bandwidth(1.0), 5.0, 1e-12));
        assert!(close(b.bandwidth(2.0), 10.0, 1e-12));
        assert!(close(b.bandwidth(2.5), 11.0, 1e-12));
        assert!(close(b.bandwidth(4.5), 15.0, 1e-12));
        assert!(close(b.bandwidth(100.0), 15.0, 1e-12));
    }

    #[test]
    fn inverse_on_flat_segments_returns_smallest_fair_share() {
        let b = BandwidthFunction::paper_flow2();
        // Flow 2 is flat at 0 until fair share 2; the smallest fair share with
        // bandwidth >= tiny positive amount is just above 2.
        assert!(b.fair_share(0.0) <= 2.0);
        assert!(close(b.fair_share(10.0), 2.5, 1e-9));
        assert!(close(b.fair_share(5.0), 2.25, 1e-9));
    }

    #[test]
    fn paper_figure2_allocation_at_10gbps() {
        // With a 10 Gbps link, flow 1 gets everything (strict priority band).
        let fs = [
            BandwidthFunction::paper_flow1(),
            BandwidthFunction::paper_flow2(),
        ];
        let (alloc, f) = single_link_allocation(&fs, 10.0);
        assert!(close(alloc[0], 10.0, 1e-6), "{alloc:?}");
        assert!(close(alloc[1], 0.0, 1e-6), "{alloc:?}");
        assert!(f <= 2.0 + 1e-6);
    }

    #[test]
    fn paper_figure2_allocation_at_25gbps() {
        // With 25 Gbps, the paper's expected split is 15 / 10 at fair share 2.5.
        let fs = [
            BandwidthFunction::paper_flow1(),
            BandwidthFunction::paper_flow2(),
        ];
        let (alloc, f) = single_link_allocation(&fs, 25.0);
        assert!(close(alloc[0], 15.0, 1e-3), "{alloc:?}");
        assert!(close(alloc[1], 10.0, 1e-3), "{alloc:?}");
        assert!(f >= 2.5 - 1e-3);
    }

    #[test]
    fn single_link_under_subscription_gives_everyone_max() {
        let fs = [
            BandwidthFunction::paper_flow1(),
            BandwidthFunction::paper_flow2(),
        ];
        let (alloc, _) = single_link_allocation(&fs, 100.0);
        assert!(close(alloc[0], 15.0, 1e-9));
        assert!(close(alloc[1], 10.0, 1e-9));
    }

    #[test]
    fn linear_bandwidth_function_shape() {
        let b = BandwidthFunction::linear(2.0, 10.0);
        assert!(close(b.bandwidth(1.0), 2.0, 1e-12));
        assert!(close(b.bandwidth(5.0), 10.0, 1e-12));
        assert!(close(b.bandwidth(50.0), 10.0, 1e-12));
        assert!(close(b.fair_share(6.0), 3.0, 1e-12));
    }

    proptest! {
        /// B(F(x)) == x wherever x is attainable and B is strictly increasing there.
        #[test]
        fn prop_inverse_roundtrip(slope in 0.5f64..8.0, max in 1.0f64..40.0, frac in 0.01f64..0.99) {
            let b = BandwidthFunction::linear(slope, max);
            let x = frac * max;
            let f = b.fair_share(x);
            prop_assert!((b.bandwidth(f) - x).abs() < 1e-9);
        }

        /// Water-filling never oversubscribes the link and is Pareto efficient
        /// (either the link is ~full or everyone has their max bandwidth).
        #[test]
        fn prop_single_link_feasible_and_efficient(
            cap in 1.0f64..60.0,
            s1 in 0.5f64..5.0, m1 in 1.0f64..20.0,
            s2 in 0.5f64..5.0, m2 in 1.0f64..20.0,
        ) {
            let fs = [BandwidthFunction::linear(s1, m1), BandwidthFunction::linear(s2, m2)];
            let (alloc, _) = single_link_allocation(&fs, cap);
            let total: f64 = alloc.iter().sum();
            prop_assert!(total <= cap + 1e-6);
            let all_max = (alloc[0] - m1).abs() < 1e-6 && (alloc[1] - m2).abs() < 1e-6;
            prop_assert!(all_max || total >= cap - cap * 1e-3 - 1e-6,
                "total={total} cap={cap} alloc={alloc:?}");
        }

        /// Bandwidth functions are non-decreasing.
        #[test]
        fn prop_bandwidth_monotone(f1 in 0.0f64..20.0, df in 0.0f64..20.0) {
            let b = BandwidthFunction::paper_flow1();
            prop_assert!(b.bandwidth(f1 + df) + 1e-12 >= b.bandwidth(f1));
        }
    }
}
