//! Resource pooling (MPTCP-style, §6.3): a multipath flow whose subflows are
//! pinned to different spine paths pools their capacity, because its utility
//! applies to the *aggregate* rate. Here one aggregate with 4 subflows
//! competes with a single-path flow that shares just one of those paths.
//!
//! ```text
//! cargo run --release --example resource_pooling
//! ```

use numfabric::core::{numfabric_network, AggregateState, NumFabricAgent, NumFabricConfig};
use numfabric::num::utility::LogUtility;
use numfabric::sim::topology::{LeafSpineConfig, Topology};
use numfabric::sim::SimTime;

fn main() {
    // All-10 Gbps fabric so the leaf→spine paths are the scarce resource.
    let topo_cfg = LeafSpineConfig {
        hosts: 8,
        leaves: 2,
        spines: 4,
        host_link_bps: 40e9,
        fabric_link_bps: 10e9,
        ..LeafSpineConfig::resource_pooling()
    };
    let topo = Topology::leaf_spine(&topo_cfg);
    let config = NumFabricConfig::paper_default();
    let mut net = numfabric_network(topo, &config);
    let hosts: Vec<_> = net.topology().hosts().to_vec();

    // A multipath aggregate from host0 to host4 with one subflow per spine;
    // the shared `AggregateState` is what groups the subflows.
    let handles = AggregateState::create(4);
    let mut subflows = Vec::new();
    for (spine, handle) in handles.into_iter().enumerate() {
        let id = net.add_flow(
            hosts[0],
            hosts[4],
            None,
            SimTime::ZERO,
            spine,
            None,
            Box::new(NumFabricAgent::new(config.clone(), LogUtility::new()).with_aggregate(handle)),
        );
        subflows.push(id);
    }
    // A single-path competitor sharing spine 0 only.
    let single = net.add_flow(
        hosts[1],
        hosts[5],
        None,
        SimTime::ZERO,
        0,
        None,
        Box::new(NumFabricAgent::new(config.clone(), LogUtility::new())),
    );

    net.run_until(SimTime::from_millis(10));

    let aggregate: f64 = subflows.iter().map(|&f| net.flow_rate_estimate(f)).sum();
    println!(
        "multipath aggregate (4 subflows over 4 spines): {:.2} Gbps",
        aggregate / 1e9
    );
    for (i, &f) in subflows.iter().enumerate() {
        println!(
            "  subflow via spine {i}: {:.2} Gbps",
            net.flow_rate_estimate(f) / 1e9
        );
    }
    println!(
        "single-path competitor on spine 0: {:.2} Gbps",
        net.flow_rate_estimate(single) / 1e9
    );
    println!(
        "\nThe aggregate pools the capacity of all four 10 Gbps spine paths (minus what the\n\
         competitor gets on spine 0), instead of being stuck with a single path's 10 Gbps."
    );
}
