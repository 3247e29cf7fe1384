//! # numfabric-sim
//!
//! A deterministic, packet-level, discrete-event datacenter network
//! simulator — the substrate on which the NUMFabric reproduction (SIGCOMM
//! 2016) is evaluated. It plays the role ns-3 plays in the paper.
//!
//! The simulator models:
//!
//! * **Topologies** ([`topology`]) — arbitrary node/link graphs with a
//!   leaf-spine builder matching the paper's fabrics (128 servers, 8 leaves,
//!   4 or 16 spines, 10/40 Gbps links, ~16 µs RTT), an oversubscribed
//!   leaf-spine variant, k-ary fat-trees with edge/aggregation/core tiers,
//!   and generalized ECMP over multi-tier equal-cost path sets, answered
//!   from a lazily built per-topology route index.
//! * **Output-queued switches** ([`network`], [`queue`]) — one queue per
//!   egress link, with pluggable disciplines: drop-tail FIFO, Start-Time Fair
//!   Queueing (the WFQ approximation NUMFabric's Swift layer uses), an
//!   ECN-marking FIFO (DCTCP) and a pFabric priority queue.
//! * **Transport protocols** ([`transport`]) — per-flow
//!   [`FlowAgent`]s at the hosts and per-link
//!   [`LinkController`]s at the switches.
//!   NUMFabric itself lives in the `numfabric-core` crate; DGD, RCP*, DCTCP
//!   and pFabric live in `numfabric-baselines`.
//! * **Measurement** ([`tracer`]) — destination-side EWMA rate estimation
//!   with the paper's 80 µs time constant, per-flow FCT bookkeeping and
//!   per-link counters.
//!
//! * **Event core** ([`event`], [`timer`]) — a hierarchical timing-wheel
//!   scheduler (same-timestamp buckets drained in one pass, levels
//!   spanning the whole `u64` clock) and handle-based flow timers: agents
//!   arm them through [`network::AgentCtx::set_timer`], which returns a
//!   [`timer::TimerHandle`], and the flow's sender keeps the armed ids, so
//!   stopping or completing a flow cancels whatever is still pending.
//!
//! Determinism: given the same inputs the simulation produces bit-identical
//! results — events are ordered by `(time, key)` where the key is a pure
//! function of the event's content (flow id, link id, packet rank — see
//! [`network`]), and the engine itself uses no randomness; the timing wheel
//! preserves the binary heap's `(time, key)` pop order exactly (pinned by
//! differential tests against a heap reference model under `tests/`).
//! Randomized link impairments draw from per-*link* SplitMix64 streams
//! ([`impairment::derive_link_seed`]), so even lossy/jittered runs are a
//! pure function of the seed. Workload generators (in `numfabric-workloads`)
//! inject randomness only through explicitly seeded RNGs.
//!
//! Parallelism: one [`network::Network`] owns one complete simulation and
//! is `Send` (every agent, queue and controller trait object carries a
//! `Send` bound; the guarantee is asserted at compile time in
//! [`network`]). Independent simulations therefore parallelize across
//! threads with no locks in the hot path and no effect on determinism —
//! the `numfabric-bench` sweep engine runs one owned `Network` per worker.
//! *Inside* one simulation, the network is domain-decomposed: a
//! deterministic graph partitioner ([`topology::Topology::partition`])
//! assigns every node to one of `N` partitions, each partition owns its own
//! timing wheel and timer service, and cross-cut packet deliveries travel
//! as boundary messages merged at conservative time barriers. Each epoch
//! the partition cores advance to the barrier **concurrently** on a pool of
//! worker threads ([`network::Network::set_partition_threads`]); because
//! event keys are content-derived rather than allocated from any shared
//! counter, the merged pop order — and every report byte — is a pure
//! function of the seed, independent of both the partition count and the
//! thread count ([`network::Network::set_partitions`]).
//!
//! ## Quick example
//!
//! ```
//! use numfabric_sim::network::Network;
//! use numfabric_sim::queue::DropTailFifo;
//! use numfabric_sim::reference::SimpleWindowAgent;
//! use numfabric_sim::time::SimTime;
//! use numfabric_sim::topology::{LeafSpineConfig, Topology};
//!
//! let topo = Topology::leaf_spine(&LeafSpineConfig::small(8, 2, 2));
//! let mut net = Network::new(topo, |_| Box::new(DropTailFifo::with_default_buffer()));
//! let hosts: Vec<_> = net.topology().hosts().to_vec();
//! let flow = net.add_flow(
//!     hosts[0], hosts[7],
//!     Some(150_000),            // 150 kB flow
//!     SimTime::ZERO, 0, None,
//!     Box::new(SimpleWindowAgent::new(16)),
//! );
//! net.run_until(SimTime::from_millis(10));
//! assert!(net.flow_stats(flow).fct().is_some());
//! ```

#![warn(missing_docs)]
#![deny(unsafe_code)]

pub mod event;
pub mod flow;
mod hash;
pub mod impairment;
pub mod network;
pub mod packet;
pub mod queue;
pub mod reference;
pub mod routes;
pub mod time;
pub mod timer;
pub mod topology;
pub mod tracer;
pub mod transport;

pub use event::{Event, EventId, EventQueue};
pub use flow::{FlowPhase, FlowSpec, FlowStats};
pub use impairment::{derive_link_seed, LinkChange, LinkHealth};
pub use network::{AgentCtx, LinkStats, Network};
pub use packet::{AckHeader, DataHeader, FlowId, Packet, PacketKind, Stamps};
pub use queue::{DropTailFifo, EcnFifo, PfabricQueue, QueueDiscipline, StfqQueue};
pub use routes::{RouteId, RouteTable};
pub use time::{SimDuration, SimTime};
pub use timer::TimerHandle;
pub use topology::{
    FatTreeConfig, LeafSpineConfig, LinkId, NodeId, NodeKind, Partitioning, Route, Topology,
};
pub use tracer::EwmaRateTracer;
pub use transport::{AckMode, FlowAgent, LinkController, NullController};
