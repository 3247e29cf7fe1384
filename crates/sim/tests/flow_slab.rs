//! The flow slab under churn: driving far more flows through a network
//! than it ever holds concurrently must keep per-flow memory bounded by
//! the *concurrent* flow count, because completed flows are retired into
//! a free list and their slots recycled (mirrors the
//! `payload_pools_stay_bounded_under_churn` idiom of the event core).

use numfabric_sim::flow::FlowPhase;
use numfabric_sim::network::Network;
use numfabric_sim::queue::DropTailFifo;
use numfabric_sim::reference::SimpleWindowAgent;
use numfabric_sim::time::{SimDuration, SimTime};
use numfabric_sim::topology::{LeafSpineConfig, Topology};

fn churn_net() -> Network {
    let topo = Topology::leaf_spine(&LeafSpineConfig::small(8, 2, 2));
    Network::new(topo, |_| Box::new(DropTailFifo::with_default_buffer()))
}

/// ≥100k one-packet flow completions through an 8-host leaf-spine, retiring
/// each completed flow before adding the next wave: the slab's high-water
/// mark must track the wave size (concurrent flows), not the total count.
#[test]
fn flow_slab_stays_bounded_under_churn() {
    const WAVE: usize = 8; // concurrent flows per round
    const ROUNDS: usize = 12_500; // 100k completions in all
    let mut net = churn_net();
    let hosts: Vec<_> = net.topology().hosts().to_vec();
    let mut completed_total: u64 = 0;
    let mut live: Vec<usize> = Vec::new();
    for round in 0..ROUNDS {
        let start = net.now();
        for i in 0..WAVE {
            let src = hosts[(round + i) % hosts.len()];
            let dst = hosts[(round + i + 1 + i % (hosts.len() - 1)) % hosts.len()];
            let dst = if dst == src {
                hosts[(round + i + 2) % hosts.len()]
            } else {
                dst
            };
            let id = net.add_flow(
                src,
                dst,
                Some(1460),
                start,
                i % 2,
                None,
                Box::new(SimpleWindowAgent::new(4)),
            );
            live.push(id);
        }
        // One small leaf-spine RTT is ~10 µs; 200 µs drains a 1-packet flow
        // and its trailing ACK comfortably.
        net.run_for(SimDuration::from_micros(200));
        live.retain(|&id| {
            if net.flow_phase(id) == FlowPhase::Completed {
                completed_total += 1;
                assert_eq!(net.flow_in_flight_packets(id), 0);
                assert!(net.try_retire_flow(id), "quiescent flow must retire");
                false
            } else {
                true
            }
        });
        assert!(
            live.is_empty(),
            "round {round}: {} flows failed to complete",
            live.len()
        );
    }
    assert!(completed_total >= 100_000);
    // The slab never grew past one wave (plus nothing: every round retired
    // before the next added).
    assert!(
        net.num_flows() <= WAVE,
        "slab high-water {} exceeds the concurrent flow bound {WAVE}",
        net.num_flows()
    );
    assert_eq!(net.free_flow_slots(), net.num_flows());
}

/// Retirement is refused while the flow still owes the network anything —
/// and the recycled slot runs a brand-new flow to completion.
#[test]
fn retire_requires_quiescence_and_slots_recycle_cleanly() {
    let mut net = churn_net();
    let hosts: Vec<_> = net.topology().hosts().to_vec();
    let id = net.add_flow(
        hosts[0],
        hosts[5],
        Some(14_600),
        SimTime::ZERO,
        0,
        None,
        Box::new(SimpleWindowAgent::new(4)),
    );
    assert!(!net.try_retire_flow(id), "a pending flow must not retire");
    net.run_for(SimDuration::from_micros(2));
    assert!(!net.try_retire_flow(id), "an active flow must not retire");
    net.run_for(SimDuration::from_millis(1));
    assert_eq!(net.flow_phase(id), FlowPhase::Completed);
    let stats = net.flow_stats(id);
    assert_eq!(stats.bytes_delivered, 14_600);
    assert!(net.try_retire_flow(id));
    assert!(net.flow_is_retired(id));
    assert!(!net.try_retire_flow(id), "double retire is refused");
    // The freed slot is reused by the next add_flow, and works end to end.
    let id2 = net.add_flow(
        hosts[2],
        hosts[7],
        Some(2920),
        net.now(),
        1,
        None,
        Box::new(SimpleWindowAgent::new(4)),
    );
    assert_eq!(id2, id, "LIFO free list must hand back the retired slot");
    assert_eq!(net.free_flow_slots(), 0);
    net.run_for(SimDuration::from_millis(1));
    assert_eq!(net.flow_phase(id2), FlowPhase::Completed);
    let stats = net.flow_stats(id2);
    assert_eq!(stats.bytes_delivered, 2920, "recycled slot state is fresh");
    assert_eq!(stats.packets_dropped, 0);
}
