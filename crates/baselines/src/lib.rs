//! # numfabric-baselines
//!
//! The transport protocols the NUMFabric paper (SIGCOMM 2016) compares
//! against, implemented on the `numfabric-sim` packet-level simulator:
//!
//! * [`dgd`] — Dual Gradient Descent rate control (Low & Lapsley's
//!   optimization flow control; §3 and Eq. 14 of the paper). The classic
//!   price-based NUM algorithm whose slow, tuning-sensitive convergence
//!   motivates NUMFabric.
//! * [`rcp_star`] — RCP*, the Rate Control Protocol generalized to
//!   α-fairness (Eqs. 15–16).
//! * [`dctcp`] — DCTCP, used qualitatively (Fig. 4b) to show that deployed
//!   congestion control never converges at microsecond timescales.
//! * [`pfabric`] — pFabric, the state-of-the-art FCT-minimizing transport the
//!   FCT experiments (Fig. 7) compare NUMFabric to.
//!
//! Each module provides a `FlowAgent` (host logic), a `LinkController` where
//! the protocol needs switch support, and a `*_network` helper that builds a
//! simulator `Network` with the right queue discipline on every port. DGD
//! and RCP* share one paced sender (`paced.rs`) and keep only their
//! feedback laws.

#![warn(missing_docs)]
#![deny(unsafe_code)]

pub mod dctcp;
pub mod dgd;
mod paced;
pub mod pfabric;
pub mod rcp_star;

pub use dctcp::{dctcp_network, DctcpAgent, DctcpConfig};
pub use dgd::{dgd_network, DgdAgent, DgdConfig, DgdPriceController};
pub use pfabric::{pfabric_network, PfabricAgent, PfabricConfig};
pub use rcp_star::{rcp_star_network, RcpStarAgent, RcpStarConfig, RcpStarController};
