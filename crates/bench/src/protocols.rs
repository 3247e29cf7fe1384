//! Protocol selection for the benchmark harness: build a network and flow
//! agents for any of the schemes the paper evaluates, so every experiment
//! can be run protocol-by-protocol on an identical workload.

use crate::registry::RunError;
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
use std::str::FromStr;

/// The `--impair` schedule of a scenario run on `topo`, its loss/jitter
/// draws seeded with the scenario's `--seed`; a healthy schedule without
/// the option. A malformed spec or a link `topo` does not have is a usage
/// error.
pub(crate) fn impairments_from_options(
    opts: &ScenarioOptions,
    topo: &Topology,
    seed: u64,
) -> Result<ImpairmentSchedule, RunError> {
    let mut impairments: ImpairmentSchedule = match opts.try_parsed::<String>("--impair")? {
        Some(raw) => raw.parse().map_err(RunError::usage)?,
        None => ImpairmentSchedule::new(),
    };
    if let Some(event) = impairments
        .events
        .iter()
        .find(|e| e.link >= topo.links().len())
    {
        return Err(RunError::usage(format!(
            "--impair references link {} but this fabric has links 0..{}",
            event.link,
            topo.links().len()
        )));
    }
    impairments.seed = seed;
    Ok(impairments)
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
    /// switch-side controllers installed on every link.
    pub fn build_network(&self, topo: Topology) -> Network {
        match self {
            Protocol::NumFabric(cfg) => numfabric_network(topo, cfg),
            Protocol::Dgd(cfg) => dgd_network(topo, cfg),
            Protocol::RcpStar(cfg) => rcp_star_network(topo, cfg),
            Protocol::Dctcp(cfg) => dctcp_network(topo, cfg),
            Protocol::Pfabric(cfg) => pfabric_network(topo, cfg),
        }
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

impl Default for Protocol {
    /// NUMFabric with its default parameters: the `--protocol` of a
    /// scenario run without one.
    fn default() -> Self {
        Protocol::NumFabric(NumFabricConfig::default())
    }
}

/// A scheme name as `--protocol` spells it, with default parameters.
impl FromStr for Protocol {
    type Err = &'static str;

    fn from_str(name: &str) -> Result<Self, Self::Err> {
        Ok(match name {
            "numfabric" => Protocol::NumFabric(NumFabricConfig::default()),
            "dgd" => Protocol::Dgd(DgdConfig::default()),
            "rcp" | "rcp*" | "rcpstar" => Protocol::RcpStar(RcpStarConfig::default()),
            "dctcp" => Protocol::Dctcp(DctcpConfig::default()),
            "pfabric" => Protocol::Pfabric(PfabricConfig::default()),
            _ => return Err("expected numfabric|dgd|rcp|dctcp|pfabric"),
        })
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
            let mut net = protocol.build_network(topo);
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
        let name = |s: &str| s.parse::<Protocol>().map(|p| p.name());
        assert_eq!(name("numfabric"), Ok("NUMFabric"));
        assert_eq!(name("dgd"), Ok("DGD"));
        assert_eq!(name("rcp*"), Ok("RCP*"));
        assert_eq!(name("dctcp"), Ok("DCTCP"));
        assert_eq!(name("pfabric"), Ok("pFabric"));
        assert_eq!(
            name("dctpc"),
            Err("expected numfabric|dgd|rcp|dctcp|pfabric")
        );
        assert!(name("").is_err());
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
