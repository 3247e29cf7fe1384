//! The ACK echo round-trips under the packet-kind split: the ACK a sender's
//! agent sees carries, in its [`AckHeader`], the data packet's stamps as
//! they were at delivery, plus the cumulative byte count, the inter-packet
//! time and the acknowledged sequence number, under both [`AckMode`]s. The
//! ACK's own [`Packet::stamps`] hold what the reverse path wrote, and none
//! of that may leak into the echo.
//!
//! Fabric: `LeafSpineConfig::small(8, 2, 2)`; hosts 0 and 1 share leaf 0,
//! so the flow's path is two links each way.

use numfabric_sim::queue::DropTailFifo;
use numfabric_sim::topology::{LeafSpineConfig, LinkId, Topology};
use numfabric_sim::transport::AckMode;
use numfabric_sim::{
    AckHeader, AgentCtx, FlowAgent, FlowId, LinkController, Network, Packet, SimDuration, SimTime,
    Stamps,
};
use std::sync::{Arc, Mutex};

const PAYLOAD: u32 = 1460;
/// Spacing between the two data packets the probe sends.
const GAP_NS: u64 = 10_000;

/// The price a link adds to every packet it serves: a power of two, so two
/// different sets of links never sum to the same price, and every sum is
/// exact in `f64`.
fn price(link: LinkId) -> f64 {
    2f64.powi(link as i32)
}

/// The RCP* feedback a link adds: half its price, so a feedback echoed in
/// the price field (or the reverse) reads wrong.
fn feedback(link: LinkId) -> f64 {
    price(link) / 2.0
}

/// Stamps price, RCP feedback and path length on every packet it serves,
/// and the ECN mark on data packets only, so a mark on an ACK could only
/// have leaked there from its echo.
struct Stamper {
    link: LinkId,
}

impl LinkController for Stamper {
    fn on_enqueue(&mut self, _packet: &mut Packet, _now: SimTime) {}
    fn on_dequeue(&mut self, packet: &mut Packet, _now: SimTime, _queue_bytes: usize) {
        packet.stamps.path_price += price(self.link);
        packet.stamps.rcp_feedback += feedback(self.link);
        packet.stamps.path_len += 1;
        if packet.is_data() {
            packet.stamps.ecn_marked = true;
        }
    }
    fn initial_timer(&self) -> Option<SimDuration> {
        None
    }
    fn on_timer(&mut self, _now: SimTime, _queue_bytes: usize) -> Option<SimDuration> {
        None
    }
}

/// What the agent saw of one ACK.
#[derive(Debug, Clone, Copy, PartialEq)]
struct Seen {
    seq: u64,
    echo: AckHeader,
    stamps: Stamps,
}

/// Sends one data packet at start and a second `GAP_NS` later, and records
/// every ACK.
struct Probe {
    mode: AckMode,
    seen: Arc<Mutex<Vec<Seen>>>,
}

impl FlowAgent for Probe {
    fn on_start(&mut self, ctx: &mut AgentCtx<'_>) {
        ctx.send_data(0, PAYLOAD, |_| {});
        ctx.set_timer(SimDuration::from_nanos(GAP_NS), 0);
    }
    fn on_ack(&mut self, packet: &Packet, _ctx: &mut AgentCtx<'_>) {
        self.seen.lock().unwrap().push(Seen {
            seq: packet.seq,
            echo: *packet.ack_header().expect("on_ack is handed ACKs"),
            stamps: packet.stamps,
        });
    }
    fn ack_mode(&self) -> AckMode {
        self.mode
    }
    fn on_timer(&mut self, _tag: u64, ctx: &mut AgentCtx<'_>) {
        ctx.send_data(PAYLOAD as u64, PAYLOAD, |_| {});
    }
}

/// The stamps a packet collects crossing `links`.
fn stamps_over(links: &[LinkId], data: bool) -> Stamps {
    Stamps {
        path_price: links.iter().map(|&l| price(l)).sum(),
        rcp_feedback: links.iter().map(|&l| feedback(l)).sum(),
        path_len: links.len() as u32,
        ecn_marked: data,
    }
}

fn run(mode: AckMode) {
    let topo = Topology::leaf_spine(&LeafSpineConfig::small(8, 2, 2));
    let hosts = topo.hosts().to_vec();
    let mut net = Network::new(topo, |_| Box::new(DropTailFifo::with_default_buffer()));
    net.set_all_link_controllers(|link, _| Box::new(Stamper { link }));
    let seen = Arc::new(Mutex::new(Vec::new()));
    let flow: FlowId = net.add_flow(
        hosts[0],
        hosts[1],
        None,
        SimTime::ZERO,
        0,
        None,
        Box::new(Probe {
            mode,
            seen: seen.clone(),
        }),
    );
    net.run_until(SimTime::from_nanos(200_000));

    let spec = net.flow_spec(flow);
    let forward = net.route(spec.route).to_vec();
    let reverse = net.route(spec.reverse_route).to_vec();
    assert_eq!((forward.len(), reverse.len()), (2, 2), "a two-link path");
    let echoed = stamps_over(&forward, true);
    let own = stamps_over(&reverse, false);
    assert_ne!(echoed.path_price, own.path_price, "the paths must differ");

    let ack_seq = |seq: u64| match mode {
        AckMode::Cumulative => seq + PAYLOAD as u64,
        AckMode::PerPacket => seq,
    };
    let expect = |seq: u64, delivered: u64, inter: Option<SimDuration>| Seen {
        seq: ack_seq(seq),
        echo: AckHeader {
            ack_bytes: delivered,
            inter_packet_time: inter,
            reflected_path_price: echoed.path_price,
            reflected_rcp_feedback: echoed.rcp_feedback,
            reflected_path_len: echoed.path_len,
            ecn_echo: echoed.ecn_marked,
        },
        stamps: own,
    };
    // The two packets cross an otherwise empty path, so they arrive exactly
    // as far apart as they were sent.
    assert_eq!(
        *seen.lock().unwrap(),
        vec![
            expect(0, PAYLOAD as u64, None),
            expect(
                PAYLOAD as u64,
                2 * PAYLOAD as u64,
                Some(SimDuration::from_nanos(GAP_NS))
            ),
        ],
        "{mode:?}"
    );
}

#[test]
fn cumulative_acks_echo_the_delivered_packets_stamps() {
    run(AckMode::Cumulative);
}

#[test]
fn per_packet_acks_echo_the_delivered_packets_stamps() {
    run(AckMode::PerPacket);
}
