//! Loss recovery of the ACK-clocked transports, pinned as it behaves today.
//!
//! The engine's receiver counts delivered bytes, and the senders read that
//! count as a sequence position. So today:
//!
//! * a NUMFabric flow that loses a packet stalls: it stops sending and
//!   never completes;
//! * a flow that loses one packet and is then rerouted off a failed path
//!   goes back to the byte count, resends bytes that already arrived, and
//!   reports completion although the lost range never arrived.
//!
//! The tests below assert that wrong behaviour. ROADMAP item 1 ("a receiver
//! that counts sequence space, and one loss-recovery path") is the fix, and
//! it flips them.

use numfabric::core::{install_numfabric, NumFabricAgent, NumFabricConfig, XwiPriceController};
use numfabric::num::utility::LogUtility;
use numfabric::sim::queue::{EnqueueOutcome, StfqQueue};
use numfabric::sim::topology::{LeafSpineConfig, Topology};
use numfabric::sim::{
    FlowId, FlowPhase, LinkChange, LinkController, Network, Packet, QueueDiscipline, SimDuration,
    SimTime,
};
use std::sync::{Arc, Mutex};

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

/// An STFQ queue that drops one data packet of `flow`, the first one it is
/// offered with sequence number `seq`.
struct DropOnce {
    inner: StfqQueue,
    flow: FlowId,
    seq: u64,
    dropped: bool,
}

impl QueueDiscipline for DropOnce {
    fn enqueue(&mut self, packet: Packet, now: SimTime) -> EnqueueOutcome {
        if !self.dropped && packet.is_data() && packet.flow == self.flow && packet.seq == self.seq {
            self.dropped = true;
            return EnqueueOutcome::Dropped(packet);
        }
        self.inner.enqueue(packet, now)
    }
    fn dequeue(&mut self, now: SimTime) -> Option<Packet> {
        self.inner.dequeue(now)
    }
    fn backlog_bytes(&self) -> usize {
        self.inner.backlog_bytes()
    }
    fn backlog_packets(&self) -> usize {
        self.inner.backlog_packets()
    }
    fn release_flow(&mut self, flow: FlowId) {
        self.inner.release_flow(flow);
    }
}

/// The xWI controller of a host's downlink, logging the `(seq, payload)`
/// of every data packet it sends on toward the host.
struct Recorder {
    inner: XwiPriceController,
    delivered: Arc<Mutex<Vec<(u64, u32)>>>,
}

impl LinkController for Recorder {
    fn on_enqueue(&mut self, packet: &mut Packet, now: SimTime) {
        self.inner.on_enqueue(packet, now);
    }
    fn on_dequeue(&mut self, packet: &mut Packet, now: SimTime, queue_bytes: usize) {
        if packet.is_data() {
            let mut delivered = self.delivered.lock().unwrap();
            delivered.push((packet.seq, packet.payload_bytes));
        }
        self.inner.on_dequeue(packet, now, queue_bytes);
    }
    fn initial_timer(&self) -> Option<SimDuration> {
        self.inner.initial_timer()
    }
    fn on_timer(&mut self, now: SimTime, queue_bytes: usize) -> Option<SimDuration> {
        self.inner.on_timer(now, queue_bytes)
    }
}

/// One ECMP-pinned 146 kB NUMFabric flow loses its 21st packet on the
/// sender's NIC. The receiver's byte count then stays one packet short, so
/// the flow stalls with everything sent. At 1 ms its spine cable is cut;
/// the reroute goes back to the byte count and resends the flow's last
/// packet, whose duplicate completes the count. The flow reports
/// `Completed`, and the dropped range never reached the receiver.
#[test]
fn a_reroute_after_a_loss_completes_a_flow_with_a_hole() {
    const SIZE: u64 = 100 * 1460;
    const LOST: u64 = 20 * 1460;
    let topo = Topology::leaf_spine(&LeafSpineConfig::small(4, 2, 2));
    let hosts = topo.hosts().to_vec();
    let (src, dst) = (hosts[0], hosts[3]);
    let route = topo.host_route(src, dst, 0);
    assert_eq!(route.len(), 4, "host, leaf-spine, spine-leaf, host hops");
    let (nic, uplink, downlink) = (route.links()[0], route.links()[1], route.links()[3]);

    let config = NumFabricConfig::paper_default();
    let mut net = Network::new(topo, |link| {
        if link == nic {
            Box::new(DropOnce {
                inner: StfqQueue::with_default_buffer(),
                flow: 0,
                seq: LOST,
                dropped: false,
            })
        } else {
            Box::new(StfqQueue::with_default_buffer())
        }
    });
    let delivered = Arc::new(Mutex::new(Vec::new()));
    net.set_all_link_controllers(|link, capacity_bps| {
        let xwi = XwiPriceController::new(&config, capacity_bps);
        if link == downlink {
            Box::new(Recorder {
                inner: xwi,
                delivered: Arc::clone(&delivered),
            })
        } else {
            Box::new(xwi)
        }
    });
    let flow = net.add_flow(
        src,
        dst,
        Some(SIZE),
        SimTime::ZERO,
        0,
        None,
        Box::new(NumFabricAgent::new(config, LogUtility::new())),
    );
    assert_eq!(flow, 0);
    net.schedule_link_change(SimTime::from_millis(1), uplink, LinkChange::Down);

    // Stalled before the cut: all sent, one packet short at the receiver.
    net.run_until(SimTime::from_micros(999));
    let stats = net.flow_stats(flow);
    assert_eq!(stats.packets_dropped, 1, "{stats:?}");
    assert_eq!(stats.bytes_sent, SIZE, "{stats:?}");
    assert_eq!(stats.bytes_delivered, SIZE - 1460, "{stats:?}");
    assert_eq!(net.flow_phase(flow), FlowPhase::Active);

    net.run_until(SimTime::from_millis(5));
    let stats = net.flow_stats(flow);
    assert_eq!(net.flow_phase(flow), FlowPhase::Completed, "{stats:?}");
    assert_eq!(stats.bytes_delivered, SIZE, "{stats:?}");
    let delivered = delivered.lock().unwrap();
    assert!(
        delivered
            .iter()
            .all(|&(seq, len)| seq + len as u64 <= LOST || seq >= LOST + 1460),
        "the dropped range arrived: {delivered:?}"
    );
    let last = SIZE - 1460;
    let copies = delivered.iter().filter(|&&(seq, _)| seq == last).count();
    assert_eq!(copies, 2, "the last packet, sent again after the reroute");
}
