//! # numfabric-bench
//!
//! The benchmark harness that regenerates every table and figure of the
//! NUMFabric paper's evaluation (§6). The library half contains the shared
//! drivers; every scenario is registered by name in [`figures::registry`]
//! and dispatched by the single `numfabric-run` binary
//! (`cargo run --release -p numfabric-bench --bin numfabric-run -- --list`),
//! the crate's only binary. Performance numbers come from the standalone
//! `benchmark/` package (see its README).
//!
//! * [`registry`](mod@registry) — the CLI contract: the [`ScenarioOptions`] a
//!   scenario runs with, the [`InvalidOption`] a malformed value returns,
//!   and [`ScenarioRegistry`]: named scenarios, each run to a [`Report`] or
//!   a [`RunError`] that only the binary prints or exits on.
//! * [`experiment`] — the one driver: an [`Experiment`] (topology,
//!   protocol, impairments, objective, flows, horizon, rate grid) and
//!   [`run_experiment`], which every scenario, sweep cell and figure but
//!   the bespoke Figures 8–10 runs through. Flows are a List (injected up
//!   front, never retired), a Stream (batched, harvested and recycled) or
//!   semi-dynamic Events.
//! * [`protocols`] — build any of the compared schemes (NUMFabric, DGD,
//!   RCP*, DCTCP, pFabric) on a given topology
//!   ([`Protocol::build_network`]).
//! * [`churn`] — the production-scale churn scenario: streaming arrivals +
//!   flow-slab recycling + fixed-size per-class sketches keep peak memory
//!   O(concurrent flows) over million-flow horizons.
//! * [`fabric`] — the generalized-fabric scenario family (incast, shuffle,
//!   stride) runnable on leaf-spine, oversubscribed and fat-tree fabrics,
//!   with optional `--impair` failure/degradation schedules.
//! * [`recovery`] — the failure-recovery scenario: cut the busiest fabric
//!   cable mid-run and measure each protocol's time to re-converge onto the
//!   post-failure fluid allocation.
//! * [`figures`] — every figure/table as a registry-dispatchable function.
//! * [`report`] — percentiles, CDFs, Fig. 5 bins, the [`Report`] with its
//!   aligned tables and `--json` documents, and the
//!   streaming bounded-stats layer: [`QuantileSketch`] (1 % relative-error
//!   geometric buckets, exactly mergeable) and per-class accumulators.
//! * [`sweep`] — parameter sweeps: a [`SweepSpec`] grid (scenarios ×
//!   topologies × protocols × loads × sizes × impairments × seeds) expands
//!   into self-contained [`SweepCell`]s, and scoped worker threads sharing
//!   one cursor execute them and aggregate the results into one JSON
//!   document + markdown comparison table whose bytes are independent of
//!   `--threads`.
//!
//! Parallelism lives between simulations: `sweep --threads` spreads whole
//! cells over workers, and the same seed gives the same bytes for any
//! `--threads`. Each simulation runs on one event core, on one thread.
//!
//! Scenarios that list `--full` in their usage run at the paper's scale
//! with it (128 hosts, 1000 paths, 100 events, …); the default is a
//! reduced-scale run with the same structure that finishes in minutes on a
//! laptop.

#![warn(missing_docs)]
#![deny(unsafe_code)]

pub mod churn;
pub mod experiment;
pub mod fabric;
pub mod figures;
pub mod protocols;
pub mod recovery;
pub mod registry;
pub mod report;
pub mod sweep;

pub use churn::churn_flows;
pub use experiment::{
    run_experiment, Experiment, FlowRecord, Flows, ListFlow, Objective, Outcome, Pace,
};
pub use fabric::{SteadyStateSummary, TransferSummary};
pub use figures::registry;
pub use protocols::Protocol;
pub use recovery::{recovery_experiment, RecoveryConfig, RecoveryResult};
pub use registry::{
    DispatchError, InvalidOption, RunError, ScenarioOptions, ScenarioRegistry, ScenarioSpec,
};
pub use report::{churn_report_json, ChurnSummary, ClassStats, QuantileSketch, Report};
pub use sweep::{
    derive_cell_seed, execute_cells, markdown_table, run_cell, sweep_report_json, CellResult,
    SweepCell, SweepScenario, SweepSpec,
};
