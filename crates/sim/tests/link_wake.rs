//! Links wake on demand: the end of a serialization is a *position* on the
//! link — `(end instant, the link's wake-up key)` — not an event. A link is
//! occupied for exactly the events dispatched strictly before that position,
//! and a wake-up (`TransmitComplete`) exists only when a packet is waiting
//! behind the one on the wire.
//!
//! Each test pins one trap of that rule with hand-computed dequeue
//! sequences, and the last two are the exact work-counter gate: an idle
//! paced path handles **zero** wake-ups, a saturated one exactly one per
//! packet that waited.
//!
//! Fabric used throughout: `LeafSpineConfig::small(8, 2, 2)` — hosts 0–3 on
//! leaf 0, hosts 4–7 on leaf 1, 10 Gb/s host links (a 1500-byte packet
//! serializes in 1200 ns), 40 Gb/s fabric links (300 ns), 2 µs per hop.

use numfabric_sim::queue::{DropTailFifo, EcnFifo, PfabricQueue, QueueDiscipline, StfqQueue};
use numfabric_sim::topology::{LeafSpineConfig, LinkId, NodeId, Topology};
use numfabric_sim::{
    AgentCtx, FlowAgent, FlowId, LinkChange, LinkController, Network, Packet, SimDuration, SimTime,
};
use std::collections::HashMap;
use std::sync::{Arc, Mutex};

/// Serialization time of one full-size packet on a host link, in ns.
const TX: u64 = 1200;
const PAYLOAD: u32 = 1460;

// Event kinds, as encoded in the top three bits of a content key.
const KIND_FLOW_START: u64 = 1;
const KIND_FLOW_TIMER: u64 = 4;
const KIND_WAKE_UP: u64 = 5;
const KIND_ARRIVAL: u64 = 6;

/// One data packet leaving a queue for the wire, as its link's controller
/// saw it.
#[derive(Debug, Clone, Copy, PartialEq)]
struct Dequeue {
    link: LinkId,
    flow: FlowId,
    seq: u64,
    at_ns: u64,
    /// Data backlog handed to `on_dequeue`: read before the pop, so it
    /// includes the packet itself.
    backlog: usize,
    marked: bool,
    /// Whether the packet spent any time in the queue.
    waited: bool,
}

type Log = Arc<Mutex<Vec<Dequeue>>>;

/// A link controller that records every data dequeue of its link.
struct Recorder {
    link: LinkId,
    enqueued_at: HashMap<(FlowId, u64), SimTime>,
    log: Log,
}

impl LinkController for Recorder {
    fn on_enqueue(&mut self, packet: &mut Packet, now: SimTime) {
        self.enqueued_at.insert((packet.flow, packet.seq), now);
    }
    fn on_dequeue(&mut self, packet: &mut Packet, now: SimTime, queue_bytes: usize) {
        if !packet.is_data() {
            return;
        }
        let enqueued = self
            .enqueued_at
            .remove(&(packet.flow, packet.seq))
            .expect("every dequeued data packet was enqueued");
        self.log.lock().unwrap().push(Dequeue {
            link: self.link,
            flow: packet.flow,
            seq: packet.seq,
            at_ns: now.as_nanos(),
            backlog: queue_bytes,
            marked: packet.stamps.ecn_marked,
            waited: enqueued < now,
        });
    }
    fn initial_timer(&self) -> Option<SimDuration> {
        None
    }
    fn on_timer(&mut self, _now: SimTime, _queue_bytes: usize) -> Option<SimDuration> {
        None
    }
}

/// A sender that follows a script: one full-size packet per step, `after_ns`
/// after the flow starts (0 = from `on_start` itself, otherwise from a timer
/// armed at start), carrying `rank` as both its STFQ virtual length and its
/// pFabric priority. Optionally sends one more packet when rerouted.
struct Scripted {
    steps: Vec<(u64, f64)>,
    on_reroute_rank: Option<f64>,
    next_seq: u64,
}

impl Scripted {
    fn new(steps: &[(u64, f64)]) -> Box<Self> {
        Box::new(Self {
            steps: steps.to_vec(),
            on_reroute_rank: None,
            next_seq: 0,
        })
    }

    fn resending_on_reroute(steps: &[(u64, f64)], rank: f64) -> Box<Self> {
        let mut agent = Self::new(steps);
        agent.on_reroute_rank = Some(rank);
        agent
    }

    fn send(&mut self, rank: f64, ctx: &mut AgentCtx<'_>) {
        ctx.send_data(self.next_seq, PAYLOAD, |h| {
            h.virtual_packet_len = rank;
            h.pfabric_priority = rank;
            h.ecn_capable = true;
        });
        self.next_seq += PAYLOAD as u64;
    }
}

impl FlowAgent for Scripted {
    fn on_start(&mut self, ctx: &mut AgentCtx<'_>) {
        for (i, (after_ns, rank)) in self.steps.clone().into_iter().enumerate() {
            if after_ns == 0 {
                self.send(rank, ctx);
            } else {
                ctx.set_timer(SimDuration::from_nanos(after_ns), i as u64);
            }
        }
    }
    fn on_ack(&mut self, _packet: &Packet, _ctx: &mut AgentCtx<'_>) {}
    fn on_timer(&mut self, tag: u64, ctx: &mut AgentCtx<'_>) {
        let rank = self.steps[tag as usize].1;
        self.send(rank, ctx);
    }
    fn on_reroute(&mut self, _path_was_lost: bool, ctx: &mut AgentCtx<'_>) {
        if let Some(rank) = self.on_reroute_rank {
            self.send(rank, ctx);
        }
    }
}

/// The test fabric with a [`Recorder`] on every link and event tracing on.
struct Rig {
    net: Network,
    hosts: Vec<NodeId>,
    log: Log,
}

impl Rig {
    fn new(queue: impl Fn() -> Box<dyn QueueDiscipline>) -> Self {
        let topo = Topology::leaf_spine(&LeafSpineConfig::small(8, 2, 2));
        let hosts = topo.hosts().to_vec();
        let mut net = Network::new(topo, |_| queue());
        let log = Log::default();
        net.set_all_link_controllers(|link, _| {
            Box::new(Recorder {
                link,
                enqueued_at: HashMap::new(),
                log: log.clone(),
            })
        });
        net.set_event_trace(true);
        Self { net, hosts, log }
    }

    /// Add a long-running flow `hosts[src] -> hosts[dst]` over `spine`,
    /// starting at `start_ns`.
    fn flow(
        &mut self,
        src: usize,
        dst: usize,
        spine: usize,
        start_ns: u64,
        agent: Box<Scripted>,
    ) -> FlowId {
        self.net.add_flow(
            self.hosts[src],
            self.hosts[dst],
            None,
            SimTime::from_nanos(start_ns),
            spine,
            None,
            agent,
        )
    }

    /// The `hop`-th link of a flow's current forward route.
    fn hop(&self, flow: FlowId, hop: usize) -> LinkId {
        self.net.route(self.net.flow_spec(flow).route)[hop]
    }

    fn run_until_ns(&mut self, ns: u64) {
        self.net.run_until(SimTime::from_nanos(ns));
    }

    /// `(flow, seq, at_ns)` of every data packet `link` put on the wire, in
    /// order.
    fn wire_order(&self, link: LinkId) -> Vec<(FlowId, u64, u64)> {
        self.dequeues()
            .iter()
            .filter(|d| d.link == link)
            .map(|d| (d.flow, d.seq, d.at_ns))
            .collect()
    }

    /// Every recorded dequeue, in dispatch order.
    fn dequeues(&self) -> Vec<Dequeue> {
        self.log.lock().unwrap().clone()
    }

    /// Drain the event trace into `(time ns, kind, link-or-flow id)`.
    fn handled(&mut self) -> Vec<(u64, u64, usize)> {
        self.net
            .take_event_trace()
            .into_iter()
            .map(|(t, key)| (t.as_nanos(), key >> 61, ((key >> 39) & 0x3F_FFFF) as usize))
            .collect()
    }
}

/// Instants at which `link` handled a wake-up, in order.
fn wake_ups(handled: &[(u64, u64, usize)], link: LinkId) -> Vec<u64> {
    let mut at: Vec<u64> = handled
        .iter()
        .filter(|&&(_, kind, id)| kind == KIND_WAKE_UP && id == link)
        .map(|&(t, ..)| t)
        .collect();
    at.sort_unstable();
    at
}

fn count_kind(handled: &[(u64, u64, usize)], kind: u64) -> usize {
    handled.iter().filter(|&&(_, k, _)| k == kind).count()
}

// ---- (a) position, not time ------------------------------------------------

/// Flow 0 puts a packet on host 0's uplink at t = 0, so the link's free
/// position is `(1200 ns, wake-up key)`. Both flows' timers fire at exactly
/// 1200 ns: flow 0's first (smaller key), carrying a packet whose STFQ
/// virtual start is 10 (it queues behind the flow's own first packet), then
/// flow 1's, whose packet starts at virtual time 0. Timer keys (kind 4) sort
/// below the wake-up key (kind 5), so *both* packets must queue and STFQ
/// must pick flow 1's. A busy test on time alone (`now < free_at`) lets
/// flow 0's second packet take the wire the moment its timer fires.
#[test]
fn a_timer_at_the_end_instant_still_queues_behind_the_wake_up() {
    let mut rig = Rig::new(|| Box::new(StfqQueue::with_default_buffer()));
    let f0 = rig.flow(0, 4, 0, 0, Scripted::new(&[(0, 10.0), (TX, 10.0)]));
    let f1 = rig.flow(0, 5, 1, 0, Scripted::new(&[(TX, 1.0)]));
    let uplink = rig.hop(f0, 0);
    assert_eq!(uplink, rig.hop(f1, 0), "both flows leave through host 0");
    rig.run_until_ns(20_000);
    assert_eq!(
        rig.wire_order(uplink),
        vec![(f0, 0, 0), (f1, 0, TX), (f0, PAYLOAD as u64, 2 * TX)]
    );
    // One lazily scheduled wake-up at 1200 (two packets waiting), one
    // scheduled at transmit start for 2400 (one left), none after.
    let handled = rig.handled();
    assert_eq!(wake_ups(&handled, uplink), vec![TX, 2 * TX]);
}

// ---- (b) a link that never transmitted is free at t = 0 -------------------

/// Two flows start at t = 0 on host 0's `EcnFifo` uplink (marking threshold
/// two packets) and send three packets each. The very first packet must go
/// straight to the wire: backlog seen by each later enqueue is then
/// 0, 1500, 3000, 4500, 6000 bytes and marking starts at the fourth packet.
/// Were the fresh link "busy" at `(0, FlowStart key)`, the first packet
/// would sit in the queue for one more enqueue and the third packet would
/// already be marked.
#[test]
fn the_first_packet_at_time_zero_goes_straight_to_the_wire() {
    let mut rig = Rig::new(|| Box::new(EcnFifo::new(1_000_000, 3_000)));
    let burst = [(0, 1.0); 3];
    let f0 = rig.flow(0, 4, 0, 0, Scripted::new(&burst));
    let f1 = rig.flow(0, 5, 1, 0, Scripted::new(&burst));
    let uplink = rig.hop(f0, 0);
    rig.run_until_ns(20_000);
    let seen: Vec<_> = rig
        .dequeues()
        .into_iter()
        .filter(|d| d.link == uplink)
        .map(|d| (d.flow, d.seq / PAYLOAD as u64, d.at_ns, d.backlog, d.marked))
        .collect();
    assert_eq!(
        seen,
        vec![
            // flow, packet, dequeued at, data backlog before the pop, marked
            (f0, 0, 0, 1500, false),
            (f0, 1, TX, 7500, false),
            (f0, 2, 2 * TX, 6000, false),
            (f1, 0, 3 * TX, 4500, true),
            (f1, 1, 4 * TX, 3000, true),
            (f1, 2, 5 * TX, 1500, true),
        ]
    );
    // Five packets waited; five wake-ups, one per end of serialization.
    let handled = rig.handled();
    let expect: Vec<u64> = (1..=5).map(|k| k * TX).collect();
    assert_eq!(wake_ups(&handled, uplink), expect);
}

// ---- (c) Down / Up around a serialization in progress ---------------------

/// Host 0's uplink starts a packet at t = 0 (free at 1200 ns), goes down at
/// 300 ns and comes back at `up_at`; a timer-driven packet is enqueued at
/// `send_at`. With `queued_before_down` a second packet waits behind the
/// first at t = 0 — a wake-up is then already pending when the link fails,
/// and the failure drops the packet it was for.
///
/// Returns the uplink's wire order, its wake-up instants and its drop count.
fn flap(up_at: u64, send_at: u64, queued_before_down: bool) -> (Vec<(u64, u64)>, Vec<u64>, u64) {
    let mut rig = Rig::new(|| Box::new(DropTailFifo::with_default_buffer()));
    let mut steps = vec![(0, 1.0)];
    if queued_before_down {
        steps.push((0, 1.0));
    }
    steps.push((send_at, 1.0));
    let flow = rig.flow(0, 4, 0, 0, Scripted::new(&steps));
    let uplink = rig.hop(flow, 0);
    rig.net
        .schedule_link_change(SimTime::from_nanos(300), uplink, LinkChange::Down);
    rig.net
        .schedule_link_change(SimTime::from_nanos(up_at), uplink, LinkChange::Up);
    rig.run_until_ns(20_000);
    let wire = rig
        .wire_order(uplink)
        .into_iter()
        .map(|(_, seq, at)| (seq / PAYLOAD as u64, at))
        .collect();
    let handled = rig.handled();
    (
        wire,
        wake_ups(&handled, uplink),
        rig.net.link_stats(uplink).packets_dropped,
    )
}

/// The link is physically occupied until 1200 ns whatever its health did in
/// between: the backlog resumes at exactly that instant, through exactly
/// one wake-up — whether that wake-up was scheduled before the failure
/// (and outlived the backlog it was for) or lazily by the post-restore
/// enqueue, and whether the restore lands inside the serialization or on
/// its very last instant (where the change's position `(1200, kind 0)`
/// still reads occupied and the timer's enqueue at `(1200, kind 4)` too).
#[test]
fn a_flap_inside_one_serialization_resumes_the_backlog_at_its_end_once() {
    for (up_at, send_at) in [(600, 900), (TX, TX)] {
        let case = format!("up at {up_at}, send at {send_at}");
        let (wire, wakes, drops) = flap(up_at, send_at, false);
        assert_eq!(wire, vec![(0, 0), (1, TX)], "{case}");
        assert_eq!(wakes, vec![TX], "{case}");
        assert_eq!(drops, 0, "{case}");

        let (wire, wakes, drops) = flap(up_at, send_at, true);
        assert_eq!(wire, vec![(0, 0), (2, TX)], "{case}, queued before down");
        assert_eq!(wakes, vec![TX], "{case}, queued before down");
        assert_eq!(drops, 1, "{case}, queued before down");
    }
}

/// A wake-up that fires while its link is still down is a no-op: nothing is
/// sent, nothing is rescheduled, and the restore starts from a free link.
#[test]
fn a_wake_up_on_a_downed_link_is_a_no_op() {
    let (wire, wakes, drops) = flap(5_000, 6_000, true);
    assert_eq!(wire, vec![(0, 0), (2, 6_000)]);
    assert_eq!(wakes, vec![TX]);
    // The queued packet, plus the one on the wire: it reaches leaf 0
    // at 3200 ns over a cable that is still down.
    assert_eq!(drops, 2);
}

// ---- link changes sort first at their instant (kind 0) -------------------

/// Flow A has a packet on host 0's uplink from t = 0; at 1200 ns — the
/// uplink's end instant — the leaf-0 → spine-0 link fails, A is rerouted and
/// resends from `on_reroute` as the change applies, i.e. before every other
/// event of that instant. Its position `(1200, kind 0)` precedes the uplink's
/// free position, so the resend must queue (and ask for a wake-up); flow B's
/// timer at 1200 ns then queues a better pFabric priority, which must win.
#[test]
fn a_reroute_resend_at_the_end_instant_queues_like_any_earlier_event() {
    let mut rig = Rig::new(|| Box::new(PfabricQueue::new(1_000_000)));
    let a = rig.flow(0, 4, 0, 0, Scripted::resending_on_reroute(&[(0, 5.0)], 9.0));
    let b = rig.flow(0, 5, 1, 0, Scripted::new(&[(TX, 1.0)]));
    let uplink = rig.hop(a, 0);
    let leaf_to_spine = rig.hop(a, 1);
    rig.net
        .schedule_link_change(SimTime::from_nanos(TX), leaf_to_spine, LinkChange::Down);
    rig.run_until_ns(20_000);
    assert_ne!(rig.hop(a, 1), leaf_to_spine, "A must have been rerouted");
    assert_eq!(
        rig.wire_order(uplink),
        vec![(a, 0, 0), (b, 0, TX), (a, PAYLOAD as u64, 2 * TX)]
    );
    let handled = rig.handled();
    assert_eq!(wake_ups(&handled, uplink), vec![TX, 2 * TX]);
}

/// Changes of one instant apply in schedule order, also on one link: the
/// later speed wins, and a `Down` followed by an `Up` leaves the link up
/// (the reverse order leaves it down).
#[test]
fn same_instant_changes_apply_in_schedule_order() {
    let mut rig = Rig::new(|| Box::new(DropTailFifo::with_default_buffer()));
    let at = SimTime::from_nanos(500);
    let script = [
        (0, LinkChange::Speed(2e9)),
        (1, LinkChange::Down),
        (0, LinkChange::Speed(5e9)),
        (2, LinkChange::Up),
        (1, LinkChange::Up),
        (2, LinkChange::Down),
    ];
    for (link, change) in script {
        rig.net.schedule_link_change(at, link, change);
    }
    rig.run_until_ns(499);
    let built = rig.net.topology().links()[0].capacity_bps;
    assert_eq!(rig.net.link_capacity_bps(0), built);
    assert!(rig.net.link_is_up(1) && rig.net.link_is_up(2));
    rig.run_until_ns(500);
    assert_eq!(rig.net.link_capacity_bps(0), 5e9);
    assert!(rig.net.link_is_up(1));
    assert!(!rig.net.link_is_up(2));
}

/// A change precedes the flow starts of its instant, whichever was
/// scheduled first: `Loss(1.0)` on host 0's uplink at t = 0 drops the
/// packet that a t = 0 flow sends from `on_start`.
#[test]
fn a_change_at_a_flow_start_instant_applies_before_the_start() {
    let mut rig = Rig::new(|| Box::new(DropTailFifo::with_default_buffer()));
    let flow = rig.flow(0, 4, 0, 0, Scripted::new(&[(0, 1.0)]));
    let uplink = rig.hop(flow, 0);
    rig.net
        .schedule_link_change(SimTime::ZERO, uplink, LinkChange::Loss(1.0));
    rig.run_until_ns(0);
    assert_eq!(rig.net.flow_stats(flow).packets_dropped, 1);
    assert_eq!(rig.net.link_stats(uplink).packets_dropped, 1);
    rig.run_until_ns(20_000);
    assert_eq!(rig.net.flow_stats(flow).bytes_delivered, 0);
}

// ---- (d) the instant the previous run ended at is settled -----------------

/// The same schedule as above, except that the failure is scheduled only
/// after `run_until(1200 ns)` returned — for that very instant. Every wheel
/// event at 1200 ns, the uplink's end of serialization included, is already
/// behind the change, so A's resend takes the wire at once and flow B
/// (added for "now", better priority) queues behind it: the opposite order
/// from the single-run case, with no wake-up at 1200 ns at all.
#[test]
fn a_change_at_the_instant_the_previous_run_ended_finds_the_link_free() {
    let mut rig = Rig::new(|| Box::new(PfabricQueue::new(1_000_000)));
    let a = rig.flow(0, 4, 0, 0, Scripted::resending_on_reroute(&[(0, 5.0)], 9.0));
    let uplink = rig.hop(a, 0);
    let leaf_to_spine = rig.hop(a, 1);
    rig.run_until_ns(TX);
    rig.net
        .schedule_link_change(SimTime::from_nanos(TX), leaf_to_spine, LinkChange::Down);
    let b = rig.flow(0, 5, 1, TX, Scripted::new(&[(0, 1.0)]));
    rig.run_until_ns(20_000);
    assert_eq!(
        rig.wire_order(uplink),
        vec![(a, 0, 0), (a, PAYLOAD as u64, TX), (b, 0, 2 * TX)]
    );
    let handled = rig.handled();
    assert_eq!(wake_ups(&handled, uplink), vec![2 * TX]);
}

/// The settled instant covers flow starts too: a flow added for "now" after
/// `run_until(1200 ns)` sends two packets from `on_start`, the worse
/// priority first. The uplink's serialization ended at 1200 ns and that end
/// was handled by the previous run, so the first packet goes out at once
/// even though a `FlowStart` key sorts below the wake-up key.
#[test]
fn a_flow_started_at_a_settled_instant_finds_the_link_free() {
    let mut rig = Rig::new(|| Box::new(PfabricQueue::new(1_000_000)));
    let a = rig.flow(0, 4, 0, 0, Scripted::new(&[(0, 5.0)]));
    let uplink = rig.hop(a, 0);
    rig.run_until_ns(TX);
    let b = rig.flow(0, 5, 1, TX, Scripted::new(&[(0, 5.0), (0, 1.0)]));
    rig.run_until_ns(20_000);
    assert_eq!(
        rig.wire_order(uplink),
        vec![(a, 0, 0), (b, 0, TX), (b, PAYLOAD as u64, 2 * TX)]
    );
}

// ---- the exact work-counter gate -------------------------------------------

/// One flow paced at a packet per 2 µs (60 % of its 10 Gb/s uplink) over an
/// otherwise idle 4-hop path: no packet, data or ACK, ever finds a link
/// occupied, so the run handles **zero** wake-ups — and exactly
/// 1 flow start + 49 pacing timers + 8 arrivals per packet (4 data hops,
/// 4 ACK hops) events in all.
#[test]
fn an_idle_paced_path_handles_no_wake_ups() {
    const PACKETS: u64 = 50;
    let mut rig = Rig::new(|| Box::new(StfqQueue::with_default_buffer()));
    let pacing: Vec<(u64, f64)> = (0..PACKETS).map(|k| (k * 2_000, 1.0)).collect();
    let flow = rig.flow(0, 4, 0, 0, Scripted::new(&pacing));
    rig.run_until_ns(1_000_000);
    assert_eq!(rig.net.flow_stats(flow).packets_delivered, PACKETS);
    assert_eq!(rig.net.pending_events(), 0);
    let handled = rig.handled();
    assert_eq!(count_kind(&handled, KIND_WAKE_UP), 0);
    assert_eq!(count_kind(&handled, KIND_FLOW_START), 1);
    assert_eq!(count_kind(&handled, KIND_FLOW_TIMER), 49);
    assert_eq!(count_kind(&handled, KIND_ARRIVAL), 400);
    assert_eq!(handled.len(), 450);
    assert_eq!(rig.net.events_processed(), 450);
}

/// Two 8-packet bursts from hosts 0 and 1 converge on host 4: queues build
/// on both uplinks, on the shared leaf-0 → spine-0 link and on host 4's
/// downlink. On every link the number of wake-ups handled equals the number
/// of packets that waited in its queue, exactly:
///
/// * each host uplink: 7 of 8 (the first goes straight out);
/// * leaf 0 → spine 0 (300 ns per packet): the two uplinks deliver in
///   lock-step, so the second packet of each of the 8 pairs waits;
/// * spine 0 → leaf 1: pairs arrive 300 ns apart, the second exactly at
///   the first's end instant — an arrival there finds the link free;
/// * leaf 1 → host 4 (the bottleneck): two packets per 1200 ns into a
///   one-per-1200 ns link, so all 16 but the first wait;
///
/// and no ACK ever waits: 7 + 7 + 8 + 0 + 15 = 37 wake-ups, next to
/// 2 flow starts and 16 × 8 arrivals.
#[test]
fn a_saturated_bottleneck_handles_one_wake_up_per_packet_that_waited() {
    let mut rig = Rig::new(|| Box::new(DropTailFifo::with_default_buffer()));
    let burst = [(0, 1.0); 8];
    let f0 = rig.flow(0, 4, 0, 0, Scripted::new(&burst));
    let f1 = rig.flow(1, 4, 0, 0, Scripted::new(&burst));
    rig.run_until_ns(1_000_000);
    assert_eq!(rig.net.flow_stats(f0).packets_delivered, 8);
    assert_eq!(rig.net.flow_stats(f1).packets_delivered, 8);
    assert_eq!(rig.net.pending_events(), 0);

    let handled = rig.handled();
    let dequeues = rig.dequeues();
    let waited_on = |link: LinkId| {
        dequeues
            .iter()
            .filter(|d| d.link == link && d.waited)
            .count()
    };
    for link in 0..rig.net.num_links() {
        assert_eq!(
            wake_ups(&handled, link).len(),
            waited_on(link),
            "link {link}"
        );
    }
    let path: Vec<LinkId> = (0..4).map(|hop| rig.hop(f0, hop)).collect();
    assert_eq!(rig.hop(f1, 1), path[1], "the bursts share the fabric path");
    assert_eq!(waited_on(path[0]), 7);
    assert_eq!(waited_on(rig.hop(f1, 0)), 7);
    assert_eq!(waited_on(path[1]), 8);
    assert_eq!(waited_on(path[2]), 0);
    assert_eq!(waited_on(path[3]), 15);
    assert_eq!(count_kind(&handled, KIND_WAKE_UP), 37);
    assert_eq!(count_kind(&handled, KIND_ARRIVAL), 128);
    assert_eq!(handled.len(), 2 + 128 + 37);
    assert_eq!(rig.net.events_processed(), 167);
}
