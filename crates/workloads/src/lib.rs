//! # numfabric-workloads
//!
//! Workload generation and measurement for the NUMFabric evaluation
//! (SIGCOMM 2016, §6):
//!
//! * [`distributions`] — flow-size distributions: synthetic empirical CDFs
//!   matching the published web-search and enterprise workload statistics
//!   ([`EmpiricalCdf`]), plus a [`FixedSize`] helper.
//! * [`arrivals`] — Poisson flow arrivals at a target load, both collected
//!   ([`poisson_arrivals`]) and streaming ([`ArrivalStream`]).
//! * [`churn`] — open-loop trace-driven churn mixes: per-class Poisson
//!   processes (foreground web-search over background data-mining) merged
//!   into one streaming arrival sequence for the million-flow scenarios.
//! * [`scenarios`] — the semi-dynamic convergence scenario (1000 random
//!   paths, 100-flow start/stop events, 300–500 active flows), permutation
//!   traffic for resource pooling, random-pair helpers, and the datacenter
//!   fabric family: incast (N-to-1), all-to-all shuffle and stride
//!   permutations.
//! * [`fabric`] — `--topology` specs (`leaf-spine`, `oversub:R:1`,
//!   `fat-tree:k=K`) parsed into buildable topologies.
//! * [`impairments`] — failure/impairment schedules: `--impair` specs
//!   (`down@usec:link`, `loss@usec:link=p`, ...) parsed into timed
//!   [`LinkChange`](numfabric_sim::LinkChange) events, the `cable_cut`
//!   recovery experiment builder, and the named [`ImpairmentProfile`]
//!   family (`none`/`flap`/`loss`/`jitter`) used as a sweep axis.
//! * [`convergence`] — the §6.1 convergence criterion (95 % of flows within
//!   10 % of the oracle allocation, sustained for 5 ms, filter rise time
//!   subtracted) and the mapping from packet-level flows to fluid NUM
//!   instances for the oracle.
//! * [`ideal`] — the Oracle reference for dynamic workloads: a fluid event
//!   simulation that re-solves the NUM problem at every arrival/departure,
//!   and the empty-network FCT bound used to normalize Fig. 7.
//!
//! Everything is deterministic given the seeds embedded in the
//! configuration structs, so every protocol under comparison sees an
//! identical workload.

#![warn(missing_docs)]
#![deny(unsafe_code)]

pub mod arrivals;
pub mod churn;
pub mod convergence;
pub mod distributions;
pub mod fabric;
pub mod ideal;
pub mod impairments;
pub mod scenarios;

pub use arrivals::{poisson_arrivals, ArrivalStream, FlowArrival, PoissonWorkloadConfig};
pub use churn::{
    derive_class_seed, foreground_background, ChurnArrival, ChurnClass, ChurnConfig, ChurnStream,
};
pub use convergence::{
    convergence_stats, fluid_instance, measure_convergence, oracle_rates_bps, ConvergenceCriterion,
    ConvergenceOutcome, ConvergenceStats,
};
pub use distributions::{EmpiricalCdf, FixedSize, FlowSizeDistribution};
pub use fabric::{InvalidTopology, TopologySpec};
pub use ideal::{empty_network_fct, IdealCompletion, IdealFluidSimulator};
pub use impairments::{
    fabric_cables, ImpairmentEvent, ImpairmentProfile, ImpairmentSchedule, InvalidImpairment,
    InvalidProfile,
};
pub use scenarios::{
    incast_pairs, permutation_pairs, random_pairs, shuffle_pairs, stride_pairs, EventKind,
    NetworkEvent, PathSpec, SemiDynamicConfig, SemiDynamicScenario,
};
