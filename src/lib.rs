//! # numfabric
//!
//! A full Rust reproduction of **"NUMFabric: Fast and Flexible Bandwidth
//! Allocation in Datacenters"** (Nagaraj et al., SIGCOMM 2016).
//!
//! This facade crate re-exports the workspace's crates under one roof:
//!
//! * [`num`] — network-utility-maximization substrate: utility functions
//!   (Table 1), bandwidth functions, weighted max-min, the NUM oracle, KKT
//!   checks, and fluid-model algorithm iterations (xWI, DGD, RCP*).
//! * [`sim`] — a deterministic packet-level discrete-event datacenter network
//!   simulator (leaf-spine topologies, output-queued switches, WFQ/STFQ,
//!   pFabric and ECN queues, per-flow agents, rate tracers).
//! * [`core`] — NUMFabric itself: the Swift weighted max-min transport and
//!   the xWI explicit weight inference protocol (§4–§5 of the paper).
//! * [`baselines`] — DGD, RCP*, DCTCP and pFabric.
//! * [`workloads`] — flow-size distributions, Poisson arrivals, the
//!   semi-dynamic convergence scenario, permutation traffic, the convergence
//!   criterion, the ideal (oracle) fluid reference, and parameter-sweep
//!   grids ([`workloads::sweep`]): `SweepSpec` expands scenario × topology
//!   × protocol × load × size × seed axes into self-contained cells, each
//!   deterministically seeded from `(base_seed, cell_index)`, which the
//!   `numfabric-bench` sweep engine executes on a pool of worker threads
//!   (`numfabric-run sweep`) with `--threads`-independent aggregate output.
//!
//! See the `examples/` directory for runnable end-to-end scenarios and the
//! `numfabric-bench` crate for `numfabric-run`, the one binary that
//! regenerates every table and figure of the paper's evaluation.
//!
//! ## Quick start
//!
//! ```
//! use numfabric::core::{numfabric_network, NumFabricAgent, NumFabricConfig};
//! use numfabric::num::utility::LogUtility;
//! use numfabric::sim::topology::{LeafSpineConfig, Topology};
//! use numfabric::sim::SimTime;
//!
//! // A small leaf-spine fabric running NUMFabric with proportional fairness.
//! let topo = Topology::leaf_spine(&LeafSpineConfig::small(8, 2, 2));
//! let config = NumFabricConfig::paper_default();
//! let mut net = numfabric_network(topo, &config);
//! let hosts: Vec<_> = net.topology().hosts().to_vec();
//! let flow = net.add_flow(
//!     hosts[0], hosts[4], None, SimTime::ZERO, 0, None,
//!     Box::new(NumFabricAgent::new(config.clone(), LogUtility::new())),
//! );
//! net.run_until(SimTime::from_millis(3));
//! assert!(net.flow_rate_estimate(flow) > 8e9); // it fills its 10 Gbps NIC
//! ```

#![warn(missing_docs)]
#![deny(unsafe_code)]

pub use numfabric_baselines as baselines;
pub use numfabric_num as num;
pub use numfabric_sim as sim;
pub use numfabric_workloads as workloads;

/// NUMFabric itself (Swift + xWI). Re-exported from `numfabric-core`; named
/// `core` here for discoverability, shadowing nothing from `std`.
pub mod core {
    pub use numfabric_core::protocol::{install_numfabric, numfabric_network};
    pub use numfabric_core::*;
}
