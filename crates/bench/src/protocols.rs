//! Protocol selection for the benchmark harness: build a network and flow
//! agents for any of the schemes the paper evaluates, so every experiment
//! can be run protocol-by-protocol on an identical workload.

use crate::fabric::cli_error;
use numfabric_baselines::{
    dctcp_network, dgd_network, pfabric_network, rcp_star_network, DctcpAgent, DctcpConfig,
    DgdAgent, DgdConfig, PfabricAgent, PfabricConfig, RcpStarAgent, RcpStarConfig,
};
use numfabric_core::protocol::numfabric_network;
use numfabric_core::{NumFabricAgent, NumFabricConfig};
use numfabric_num::utility::UtilityRef;
use numfabric_sim::network::Network;
use numfabric_sim::topology::Topology;
use numfabric_sim::transport::FlowAgent;
use numfabric_workloads::impairments::ImpairmentSchedule;
use numfabric_workloads::registry::ScenarioOptions;

/// How a run is impaired and executed: everything the drivers apply to a
/// freshly built network before the first flow is added. The two execution
/// knobs never change a report byte — impairment draws come from per-link
/// streams — so any value is safe for replay.
#[derive(Debug, Clone)]
pub struct RunSetup {
    /// Timed link changes injected before the run starts.
    pub impairments: ImpairmentSchedule,
    /// Seeds the network's loss/jitter draws.
    pub impairment_seed: u64,
    /// Number of per-partition event cores the network is decomposed into.
    pub partitions: usize,
    /// Number of worker threads the partition cores run on each epoch.
    pub partition_threads: usize,
}

impl Default for RunSetup {
    /// A healthy run on one event core.
    fn default() -> Self {
        Self {
            impairments: ImpairmentSchedule::new(),
            impairment_seed: 0,
            partitions: 1,
            partition_threads: 1,
        }
    }
}

impl RunSetup {
    /// Parse `--impair` (validated against `topo`'s links), `--partitions`
    /// and `--partition-threads`; `seed` is the scenario's `--seed`.
    /// Malformed specs, out-of-range links and zero counts exit 2 like every
    /// other usage error.
    pub fn from_options(opts: &ScenarioOptions, topo: &Topology, seed: u64) -> RunSetup {
        let at_least_one = |name: &str| {
            let n: usize = opts.parsed_or(name, 1);
            if n == 0 {
                cli_error(format!("{name} must be at least 1"));
            }
            n
        };
        let impairments = match opts.value("--impair") {
            Some(raw) => raw.parse().unwrap_or_else(|e| cli_error(e)),
            None if opts.flag("--impair") => cli_error("option --impair: missing value"),
            None => ImpairmentSchedule::new(),
        };
        if let Some(event) = impairments
            .events
            .iter()
            .find(|e| e.link >= topo.links().len())
        {
            cli_error(format!(
                "--impair references link {} but this fabric has links 0..{}",
                event.link,
                topo.links().len()
            ));
        }
        RunSetup {
            impairments,
            impairment_seed: seed,
            partitions: at_least_one("--partitions"),
            partition_threads: at_least_one("--partition-threads"),
        }
    }
}

/// A transport scheme under test.
#[derive(Debug, Clone)]
pub enum Protocol {
    /// NUMFabric (Swift + xWI) with the given configuration.
    NumFabric(NumFabricConfig),
    /// Dual gradient descent rate control.
    Dgd(DgdConfig),
    /// RCP* (α-fair rate control protocol).
    RcpStar(RcpStarConfig),
    /// DCTCP.
    Dctcp(DctcpConfig),
    /// pFabric.
    Pfabric(PfabricConfig),
}

impl Protocol {
    /// The spellings [`Protocol::from_name`] accepts, for error messages —
    /// the single copy every "invalid protocol" report renders.
    pub const NAMES: &'static str = "numfabric|dgd|rcp|dctcp|pfabric";

    /// The scheme's display name.
    pub fn name(&self) -> &'static str {
        match self {
            Protocol::NumFabric(_) => "NUMFabric",
            Protocol::Dgd(_) => "DGD",
            Protocol::RcpStar(_) => "RCP*",
            Protocol::Dctcp(_) => "DCTCP",
            Protocol::Pfabric(_) => "pFabric",
        }
    }

    /// Build a simulator network with this scheme's queue discipline and
    /// switch-side controllers installed on every link, then apply `setup`
    /// — the one place a driver's network is built, partitioned, threaded,
    /// seeded and impaired.
    pub fn build_network_with(&self, topo: Topology, setup: &RunSetup) -> Network {
        let mut net = match self {
            Protocol::NumFabric(cfg) => numfabric_network(topo, cfg),
            Protocol::Dgd(cfg) => dgd_network(topo, cfg),
            Protocol::RcpStar(cfg) => rcp_star_network(topo, cfg),
            Protocol::Dctcp(cfg) => dctcp_network(topo, cfg),
            Protocol::Pfabric(cfg) => pfabric_network(topo, cfg),
        };
        net.set_partitions(setup.partitions);
        net.set_partition_threads(setup.partition_threads);
        net.set_impairment_seed(setup.impairment_seed);
        setup.impairments.apply(&mut net);
        net
    }

    /// Build one flow agent. `utility` is used by the utility-driven schemes
    /// (NUMFabric, DGD); RCP* realizes α-fairness through its own switch
    /// algorithm and DCTCP/pFabric have fixed objectives.
    pub fn make_agent(&self, utility: UtilityRef) -> Box<dyn FlowAgent> {
        match self {
            Protocol::NumFabric(cfg) => {
                Box::new(NumFabricAgent::with_utility_ref(cfg.clone(), utility))
            }
            Protocol::Dgd(cfg) => Box::new(DgdAgent::with_utility_ref(cfg.clone(), utility)),
            Protocol::RcpStar(cfg) => Box::new(RcpStarAgent::new(cfg.clone())),
            Protocol::Dctcp(cfg) => Box::new(DctcpAgent::new(cfg.clone())),
            Protocol::Pfabric(cfg) => Box::new(PfabricAgent::new(cfg.clone())),
        }
    }

    /// Resolve a scheme name (as accepted by `--protocol`) to a protocol
    /// with default parameters; `None` for unrecognized names.
    pub fn from_name(name: &str) -> Option<Protocol> {
        match name {
            "numfabric" => Some(Protocol::NumFabric(NumFabricConfig::default())),
            "dgd" => Some(Protocol::Dgd(DgdConfig::default())),
            "rcp" | "rcp*" | "rcpstar" => Some(Protocol::RcpStar(RcpStarConfig::default())),
            "dctcp" => Some(Protocol::Dctcp(DctcpConfig::default())),
            "pfabric" => Some(Protocol::Pfabric(PfabricConfig::default())),
            _ => None,
        }
    }

    /// Map the `--protocol` option to a scheme with default parameters
    /// (`numfabric` when absent). An unrecognized name is a hard error —
    /// reported and exiting non-zero, like any other malformed option value —
    /// so a typo never silently benchmarks the wrong scheme.
    pub fn from_options(opts: &ScenarioOptions) -> Protocol {
        let name = opts.value("--protocol").unwrap_or("numfabric");
        Protocol::from_name(name).unwrap_or_else(|| {
            cli_error(format!(
                "invalid value `{name}` for option `--protocol`: expected {}",
                Protocol::NAMES
            ))
        })
    }

    /// The three schemes compared in the convergence experiments (Fig. 4a,
    /// Fig. 5, Fig. 6), with their default configurations.
    pub fn convergence_contenders() -> Vec<Protocol> {
        vec![
            Protocol::NumFabric(NumFabricConfig::default()),
            Protocol::Dgd(DgdConfig::default()),
            Protocol::RcpStar(RcpStarConfig::default()),
        ]
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use numfabric_num::utility::LogUtility;
    use numfabric_sim::topology::LeafSpineConfig;
    use numfabric_sim::{FlowPhase, SimTime};
    use std::sync::Arc;

    #[test]
    fn every_protocol_can_run_a_small_transfer() {
        for protocol in [
            Protocol::NumFabric(NumFabricConfig::default()),
            Protocol::Dgd(DgdConfig::default()),
            Protocol::RcpStar(RcpStarConfig::default()),
            Protocol::Dctcp(DctcpConfig::default()),
            Protocol::Pfabric(PfabricConfig::default()),
        ] {
            let topo = Topology::leaf_spine(&LeafSpineConfig::small(8, 2, 2));
            let mut net = protocol.build_network_with(topo, &RunSetup::default());
            let hosts: Vec<_> = net.topology().hosts().to_vec();
            let util: UtilityRef = Arc::new(LogUtility::new());
            let flow = net.add_flow(
                hosts[0],
                hosts[7],
                Some(300_000),
                SimTime::ZERO,
                0,
                None,
                protocol.make_agent(util),
            );
            net.run_until(SimTime::from_millis(50));
            assert_eq!(
                net.flow_phase(flow),
                FlowPhase::Completed,
                "{} did not complete a 300 kB flow",
                protocol.name()
            );
        }
    }

    #[test]
    fn from_name_resolves_known_schemes_and_rejects_typos() {
        assert_eq!(
            Protocol::from_name("numfabric").unwrap().name(),
            "NUMFabric"
        );
        assert_eq!(Protocol::from_name("dgd").unwrap().name(), "DGD");
        assert_eq!(Protocol::from_name("rcp*").unwrap().name(), "RCP*");
        assert_eq!(Protocol::from_name("dctcp").unwrap().name(), "DCTCP");
        assert_eq!(Protocol::from_name("pfabric").unwrap().name(), "pFabric");
        assert!(Protocol::from_name("dctpc").is_none());
        assert!(Protocol::from_name("").is_none());
    }

    #[test]
    fn contender_list_has_the_three_convergence_schemes() {
        let names: Vec<_> = Protocol::convergence_contenders()
            .iter()
            .map(|p| p.name())
            .collect();
        assert_eq!(names, vec!["NUMFabric", "DGD", "RCP*"]);
    }
}
