//! # numfabric-num
//!
//! The network-utility-maximization (NUM) substrate used by the NUMFabric
//! reproduction (SIGCOMM 2016).
//!
//! This crate is a *fluid-model* library: it knows nothing about packets,
//! queues or simulated time. It provides:
//!
//! * [`utility`] — the utility-function catalogue of Table 1 of the paper
//!   (α-fairness, weighted α-fairness, the linear/FCT objective and bandwidth
//!   functions), behind the [`Utility`] trait.
//! * [`bandwidth_function`] — piecewise-linear bandwidth functions in the
//!   style of Google BwE, their inverses, and the water-filling allocation
//!   they induce (Figure 2 of the paper).
//! * [`topology`] — a lightweight description of links, flows and paths used
//!   by all fluid solvers.
//! * [`maxmin`] — exact network-wide *weighted max-min* allocation via
//!   progressive bottleneck freezing (the allocation Swift realizes).
//! * [`oracle`] — the NUM optimum ("Oracle" in the paper's evaluation),
//!   computed with a dual coordinate-ascent solver and validated with KKT
//!   residuals.
//! * [`kkt`] — KKT residual computation for NUM solutions.
//! * [`fluid`] — synchronous fluid-model iterations of xWI, DGD and RCP*,
//!   used for convergence-dynamics studies and property tests.
//!
//! The packet-level realization of these algorithms lives in
//! `numfabric-core` (NUMFabric itself) and `numfabric-baselines` (DGD, RCP*,
//! DCTCP, pFabric), both built on the `numfabric-sim` discrete-event
//! simulator.

#![warn(missing_docs)]
#![deny(unsafe_code)]

pub mod bandwidth_function;
pub mod fluid;
pub mod kkt;
pub mod maxmin;
pub mod oracle;
pub mod topology;
pub mod utility;

pub use bandwidth_function::BandwidthFunction;
pub use kkt::KktResiduals;
pub use maxmin::{weighted_max_min, weighted_max_min_into, MaxMinWorkspace};
pub use oracle::{Oracle, OracleSolution};
pub use topology::{FlowId, FluidFlow, FluidLink, FluidNetwork, FluidNetworkBuilder, LinkId};
pub use utility::{AlphaFair, BandwidthFunctionUtility, FctUtility, LogUtility, Utility};

/// Numerical tolerance used across the fluid-model solvers when comparing
/// rates, prices or capacities.
pub const EPS: f64 = 1e-9;

/// Smallest rate considered strictly positive by the solvers.
///
/// Marginal utilities of the α-fair family diverge at zero rate, so solvers
/// clamp rates below this floor before evaluating marginals.
pub const MIN_RATE: f64 = 1e-9;

/// Largest rate the solvers will ever return.
///
/// `U'⁻¹(p)` diverges as the path price goes to zero; clamping keeps the
/// fluid iterations finite in the transient where some path has no price yet.
pub const MAX_RATE: f64 = 1e15;

/// Clamp a rate into the `[MIN_RATE, MAX_RATE]` range used by the solvers.
#[inline]
pub fn clamp_rate(x: f64) -> f64 {
    if !x.is_finite() {
        return MAX_RATE;
    }
    x.clamp(MIN_RATE, MAX_RATE)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn clamp_rate_bounds() {
        assert_eq!(clamp_rate(0.0), MIN_RATE);
        assert_eq!(clamp_rate(-5.0), MIN_RATE);
        assert_eq!(clamp_rate(f64::INFINITY), MAX_RATE);
        assert_eq!(clamp_rate(f64::NAN), MAX_RATE);
        assert_eq!(clamp_rate(12.5), 12.5);
    }
}
