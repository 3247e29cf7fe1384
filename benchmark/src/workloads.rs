//! The five workloads: what each builds, offers and simulates.
//!
//! Everything here goes through the simulator's public API only. The seed
//! feeds the arrival stream and the ECMP choices; the simulator receives
//! nothing but the generated inputs.

use crate::wrappers::{LayerTotals, TracedAgent, TracedController, TracedQueue};
use numfabric_baselines::{PfabricAgent, PfabricConfig};
use numfabric_core::{NumFabricAgent, NumFabricConfig, XwiPriceController};
use numfabric_num::utility::{LogUtility, UtilityRef};
use numfabric_sim::queue::{PfabricQueue, StfqQueue};
use numfabric_sim::transport::FlowAgent;
use numfabric_sim::{
    FatTreeConfig, LeafSpineConfig, Network, QueueDiscipline, SimDuration, SimTime, Topology,
};
use numfabric_workloads::{shuffle_pairs, stride_pairs, PathSpec};
use std::sync::Arc;

/// One benchmark workload.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Workload {
    /// NUMFabric, 128 long-lived stride flows on the paper's leaf-spine.
    StrideSteady,
    /// NUMFabric, 16 256-flow all-to-all shuffle on a k = 8 fat-tree.
    ShuffleFt8,
    /// NUMFabric, open-loop web-search arrivals on the paper's leaf-spine.
    ChurnWs,
    /// The same arrivals under pFabric.
    ChurnWsPfabric,
    /// `ChurnWs` on 2 partitions × 2 worker threads.
    ChurnWsP2t2,
}

/// Which fabric a workload runs on.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Fabric {
    /// `LeafSpineConfig::paper_default()`: 128 hosts, 8 leaves, 4 spines.
    LeafSpine,
    /// `FatTreeConfig::new(8)`: 128 hosts, 6-hop paths, 16 inter-pod paths.
    FatTree8,
}

/// Which transport a workload runs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Transport {
    /// Swift + xWI over STFQ queues.
    NumFabric,
    /// pFabric over its priority queues, no link controller.
    Pfabric,
}

/// What a workload offers to the fabric.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Traffic {
    /// One long-lived flow per host to the host `stride` further on,
    /// simulated until the fabric has delivered `deliver_bytes` in all.
    Stride {
        /// Host-index distance between sender and receiver.
        stride: usize,
        /// Payload bytes to deliver before the run stops.
        deliver_bytes: u64,
    },
    /// Every ordered host pair sends `flow_bytes` at t = 0.
    Shuffle {
        /// Payload bytes per flow.
        flow_bytes: u64,
    },
    /// Poisson arrivals of web-search-sized flows between random pairs,
    /// until `offer_bytes` have been offered (the last flow is cut to fit);
    /// the run stops when every flow has completed.
    Churn {
        /// Offered load on the host links, in (0, 1).
        load: f64,
        /// Payload bytes offered in all.
        offer_bytes: u64,
    },
}

/// The exact parameters of one workload at one scale.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Params {
    /// Fabric.
    pub fabric: Fabric,
    /// Transport.
    pub transport: Transport,
    /// Offered traffic.
    pub traffic: Traffic,
    /// Simulated time by which the work must be done. The shuffle runs to
    /// exactly here; the other two stop as soon as their work is complete
    /// and count what is unfinished here as failed.
    pub deadline: SimDuration,
    /// `Network::set_partitions`.
    pub partitions: usize,
    /// `Network::set_partition_threads`.
    pub threads: usize,
}

impl Workload {
    /// Every workload, in reporting order.
    pub const ALL: [Workload; 5] = [
        Workload::StrideSteady,
        Workload::ShuffleFt8,
        Workload::ChurnWs,
        Workload::ChurnWsPfabric,
        Workload::ChurnWsP2t2,
    ];

    /// The name used on the command line and in every document.
    pub fn name(self) -> &'static str {
        match self {
            Workload::StrideSteady => "stride-steady",
            Workload::ShuffleFt8 => "shuffle-ft8",
            Workload::ChurnWs => "churn-ws",
            Workload::ChurnWsPfabric => "churn-ws-pfabric",
            Workload::ChurnWsP2t2 => "churn-ws-p2t2",
        }
    }

    /// Resolve a name.
    pub fn from_name(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    /// The single-partition, single-thread workload this one must simulate
    /// bit-identically to, if it is not that itself.
    pub fn reference(self) -> Option<Workload> {
        match self {
            Workload::ChurnWsP2t2 => Some(Workload::ChurnWs),
            _ => None,
        }
    }

    /// The workload's parameters. `quick` divides the simulated work by
    /// ten, for tests and smoke runs; published numbers are always full
    /// scale.
    ///
    /// Work is fixed in bytes, not in simulated time: how much a fabric
    /// delivers in 8 ms depends on the seed's ECMP collisions and arrival
    /// sizes, and host time follows the packets simulated. Fixing the bytes
    /// keeps `wall_s` and `cpu_s` comparable from seed to seed.
    pub fn params(self, quick: bool) -> Params {
        let scale = if quick { 10 } else { 1 };
        let churn = |transport, partitions| Params {
            fabric: Fabric::LeafSpine,
            transport,
            traffic: Traffic::Churn {
                load: 0.6,
                offer_bytes: 900_000_000 / scale,
            },
            // Offering takes ≈ 9.4 ms; a 30 MB flow alone needs 24 ms.
            deadline: SimDuration::from_millis(400),
            partitions,
            threads: partitions,
        };
        match self {
            Workload::StrideSteady => Params {
                fabric: Fabric::LeafSpine,
                transport: Transport::NumFabric,
                traffic: Traffic::Stride {
                    stride: 16,
                    deliver_bytes: 1_000_000_000 / scale,
                },
                // ≈ 8 ms at the ≈ 1 Tb/s the fabric carries after collisions.
                deadline: SimDuration::from_millis(40),
                partitions: 1,
                threads: 1,
            },
            Workload::ShuffleFt8 => Params {
                fabric: Fabric::FatTree8,
                transport: Transport::NumFabric,
                traffic: Traffic::Shuffle {
                    flow_bytes: 20_000 / scale,
                },
                // 127 × 20 kB through a 10 Gb/s NIC is 2.0 ms at best.
                deadline: SimDuration::from_micros(5_000 / scale),
                partitions: 1,
                threads: 1,
            },
            Workload::ChurnWs => churn(Transport::NumFabric, 1),
            Workload::ChurnWsPfabric => churn(Transport::Pfabric, 1),
            Workload::ChurnWsP2t2 => churn(Transport::NumFabric, 2),
        }
    }
}

impl Fabric {
    /// Build the topology.
    pub fn build(self) -> Topology {
        match self {
            Fabric::LeafSpine => Topology::leaf_spine(&LeafSpineConfig::paper_default()),
            Fabric::FatTree8 => Topology::fat_tree(&FatTreeConfig::new(8)),
        }
    }
}

/// Builds networks and agents for one transport — bare in an untraced run,
/// inside the benchmark's metering wrappers in a traced one.
pub struct Plugs {
    transport: Transport,
    numfabric: NumFabricConfig,
    pfabric: PfabricConfig,
    utility: UtilityRef,
    traced: Option<Arc<LayerTotals>>,
}

impl Plugs {
    /// Plug points for `transport`; wrapped iff `traced` is given.
    pub fn new(transport: Transport, traced: Option<Arc<LayerTotals>>) -> Self {
        Self {
            transport,
            numfabric: NumFabricConfig::default(),
            pfabric: PfabricConfig::default(),
            utility: Arc::new(LogUtility::new()),
            traced,
        }
    }

    /// The utility every NUMFabric flow maximizes (proportional fairness).
    pub fn utility(&self) -> UtilityRef {
        self.utility.clone()
    }

    /// A network with this transport's queues and link controllers on every
    /// link — what `numfabric_network` / `pfabric_network` build, plus the
    /// wrappers when traced.
    pub fn network(&self, topo: Topology) -> Network {
        let queue = |_| -> Box<dyn QueueDiscipline> {
            let bare: Box<dyn QueueDiscipline> = match self.transport {
                Transport::NumFabric => Box::new(StfqQueue::with_default_buffer()),
                Transport::Pfabric => Box::new(PfabricQueue::new(self.pfabric.buffer_bytes)),
            };
            match &self.traced {
                Some(totals) => Box::new(TracedQueue::new(bare, totals.clone())),
                None => bare,
            }
        };
        let mut net = Network::new(topo, queue);
        if self.transport == Transport::NumFabric {
            net.set_all_link_controllers(|_, capacity_bps| {
                let bare = Box::new(XwiPriceController::new(&self.numfabric, capacity_bps));
                match &self.traced {
                    Some(totals) => Box::new(TracedController::new(bare, totals.clone())),
                    None => bare,
                }
            });
        }
        net
    }

    /// One sender agent.
    pub fn agent(&self) -> Box<dyn FlowAgent> {
        let bare: Box<dyn FlowAgent> = match self.transport {
            Transport::NumFabric => Box::new(NumFabricAgent::with_utility_ref(
                self.numfabric.clone(),
                self.utility.clone(),
            )),
            Transport::Pfabric => Box::new(PfabricAgent::new(self.pfabric.clone())),
        };
        match &self.traced {
            Some(totals) => Box::new(TracedAgent::new(bare, totals.clone())),
            None => bare,
        }
    }
}

/// The source/destination/ECMP-choice triples of a closed workload.
pub fn closed_pairs(topo: &Topology, traffic: Traffic, seed: u64) -> Vec<PathSpec> {
    match traffic {
        Traffic::Stride { stride, .. } => stride_pairs(topo, stride, seed),
        Traffic::Shuffle { .. } => shuffle_pairs(topo, None, seed),
        Traffic::Churn { .. } => Vec::new(),
    }
}

/// Number of equal-cost paths between hosts in different racks/pods: the
/// range ECMP choices of an arrival stream are drawn over.
pub fn ecmp_fanout(topo: &Topology) -> usize {
    let hosts = topo.hosts();
    topo.host_routes(hosts[0], hosts[hosts.len() - 1]).len()
}

/// `SimTime` at a duration from zero.
pub fn at(offset: SimDuration) -> SimTime {
    SimTime::ZERO + offset
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn names_round_trip_and_are_distinct() {
        for w in Workload::ALL {
            assert_eq!(Workload::from_name(w.name()), Some(w));
        }
        assert_eq!(Workload::from_name("churn"), None);
    }

    #[test]
    fn the_threaded_workload_differs_from_its_reference_only_in_execution() {
        for quick in [false, true] {
            let threaded = Workload::ChurnWsP2t2.params(quick);
            let reference = Workload::ChurnWsP2t2.reference().unwrap().params(quick);
            assert_eq!((threaded.partitions, threaded.threads), (2, 2));
            assert_eq!(
                Params {
                    partitions: 1,
                    threads: 1,
                    ..threaded
                },
                reference
            );
        }
    }

    #[test]
    fn both_fabrics_have_128_hosts_and_the_stated_fanout() {
        let a = Fabric::LeafSpine.build();
        let b = Fabric::FatTree8.build();
        assert_eq!((a.hosts().len(), b.hosts().len()), (128, 128));
        assert_eq!((ecmp_fanout(&a), ecmp_fanout(&b)), (4, 16));
    }
}
