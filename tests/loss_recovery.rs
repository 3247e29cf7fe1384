//! Loss recovery of the ACK-clocked transports, pinned as it behaves today.
//!
//! Today a NUMFabric flow that loses a packet stalls: it stops sending and
//! never completes. The test below asserts that wrong behaviour. ROADMAP
//! item 1 ("a receiver that counts sequence space, and one loss-recovery
//! path") is the fix, and it flips the test to "both flows complete".

use numfabric::core::{install_numfabric, NumFabricAgent, NumFabricConfig};
use numfabric::num::utility::LogUtility;
use numfabric::sim::queue::StfqQueue;
use numfabric::sim::topology::{LeafSpineConfig, Topology};
use numfabric::sim::{FlowPhase, Network, SimTime};

/// Two 200 kB flows into one host through 2-packet (3000-byte) STFQ
/// buffers: the shared downlink drops, and neither flow completes in
/// 50 ms, although each needs about 160 µs at 10 Gbps.
#[test]
fn numfabric_flows_that_lose_packets_never_complete() {
    let topo = Topology::leaf_spine(&LeafSpineConfig::small(4, 2, 1));
    let config = NumFabricConfig::paper_default();
    let mut net = Network::new(topo, |_| Box::new(StfqQueue::new(3000)));
    install_numfabric(&mut net, &config);
    let hosts = net.topology().hosts().to_vec();
    let flows: Vec<_> = [hosts[0], hosts[1]]
        .into_iter()
        .map(|src| {
            net.add_flow(
                src,
                hosts[2],
                Some(200_000),
                SimTime::ZERO,
                0,
                None,
                Box::new(NumFabricAgent::new(config.clone(), LogUtility::new())),
            )
        })
        .collect();
    net.run_until(SimTime::from_millis(50));

    for flow in flows {
        let stats = net.flow_stats(flow);
        assert!(stats.packets_dropped > 0, "flow {flow}: {stats:?}");
        assert_eq!(stats.completed_at, None, "flow {flow}: {stats:?}");
        assert_eq!(net.flow_phase(flow), FlowPhase::Active, "flow {flow}");
    }
}
