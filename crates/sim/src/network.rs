//! The simulation engine: links with queues and controllers, flows with
//! transport agents, and the event loop tying them together.
//!
//! A [`Network`] is built from a [`Topology`] plus a queue discipline per
//! link; protocols then attach per-flow [`FlowAgent`]s and per-link
//! [`LinkController`]s. The engine models:
//!
//! * store-and-forward output-queued switches (one queue per egress link),
//! * link serialization and propagation delay (the end of a serialization
//!   is a recorded position on the link, not an event: a link is woken only
//!   when a packet is waiting — see `try_transmit`),
//! * packet drops decided by the queue disciplines,
//! * per-flow and per-link statistics, destination-side EWMA rate tracking,
//!   and flow-completion-time bookkeeping.
//!
//! Every run is deterministic: events are processed in `(time, key)` order
//! with FIFO tie-breaking, and the engine itself uses no randomness. Flow
//! timers are first-class: [`AgentCtx::set_timer`] returns a
//! [`TimerHandle`] that [`AgentCtx::cancel_timer`] revokes, and the sender
//! keeps the ids of its armed timers, so stopping or completing a flow
//! cancels every one of them.
//!
//! Two further mechanisms ride on the same event loop:
//!
//! * **A control lane per link.** Non-data packets (ACKs, SYNs) bypass the
//!   data queue discipline at every egress and are served with strict
//!   priority, modeling the highest-priority control class real fabrics
//!   configure. An ACK therefore waits at most one data serialization per
//!   hop instead of a full reverse-path data backlog — the fix for the
//!   bidirectional ACK-queueing rate gap. Link controllers still observe
//!   every dequeued packet, so price stamping on reverse paths is intact.
//! * **Link impairments.** [`Network::schedule_link_change`] injects
//!   failures, restorations, speed changes, loss and jitter; see
//!   [`crate::impairment`] for the determinism story and [`LinkChange`] for
//!   per-variant semantics.
//!
//! # One event core
//!
//! A network runs on **one event core**: one timing wheel, one table of
//! link runtimes and one set of flow endpoints, advanced on the calling
//! thread. Parallelism lives *between* simulations: a `Network` is `Send`,
//! so a sweep runs one network per thread, and the same seed gives the same
//! bytes for any sweep `--threads`.
//!
//! Every event carries a **content-derived key**: a pure function of *what
//! the event is* (its kind, its link or flow, and a per-event
//! discriminator — see `event_key`). The wheel's `(time, key)` order plus
//! FIFO tie-breaking reproduces the schedule order, and a link's free
//! position is compared in that same order (see `try_transmit`), so no
//! shared sequence counter decides what runs first.
//!
//! Link changes are wheel events too, of the kind that sorts first at its
//! instant: a change applies ahead of every other event of that instant,
//! and same-instant changes apply in schedule order. The dispatch loop
//! hands a popped change back to [`Network::run_until`], the one place
//! that writes the `Shared` tables; every other handler holds `&mut` to
//! the `Core` and `&` to `Shared`, so it can change no topology, route or
//! link health it reads.

use crate::event::{Event, EventId, EventQueue};
use crate::flow::{FlowPhase, FlowSpec, FlowStats};
use crate::impairment::{derive_link_seed, splitmix64_unit, LinkChange, LinkHealth};
use crate::packet::{
    AckHeader, DataHeader, FlowId, Packet, PacketKind, SeqNo, DEFAULT_PAYLOAD_BYTES, HEADER_BYTES,
    MTU_BYTES,
};
use crate::queue::QueueDiscipline;
use crate::routes::{RouteId, RouteTable};
use crate::time::{SimDuration, SimTime};
use crate::timer::TimerHandle;
use crate::topology::{LinkId, NodeId, Topology};
use crate::tracer::EwmaRateTracer;
use crate::transport::{AckMode, FlowAgent, LinkController};
use std::collections::VecDeque;

/// Snapshot of one link's counters.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct LinkStats {
    /// Total bytes serialized onto the link.
    pub bytes_transmitted: u64,
    /// Packets serialized onto the link.
    pub packets_transmitted: u64,
    /// Packets dropped at this link's queue.
    pub packets_dropped: u64,
    /// Current queue backlog in bytes.
    pub queue_bytes: usize,
    /// Current queue backlog in packets.
    pub queue_packets: usize,
}

// ---- content-derived event keys -------------------------------------------
//
// Each event's wheel key encodes what the event *is*, not when it was
// allocated: `(kind << 61) | (primary << 39) | secondary`. Because the key
// is derived from content, no shared sequence counter decides dispatch
// order, and a link's free position can be compared against any event.
//
// Keys are unique per instant, so dispatch order never rests on the
// wheel's tie-break (`advance_core` checks this in debug builds). Per kind:
// - link change: the secondary field is the network's count of changes
//   scheduled so far, so same-instant changes apply in schedule order,
//   whichever links they touch.
// - flow start / stop: one start per flow id, and a recycled id starts only
//   after its previous flow completed, strictly later; callers of
//   `Network::stop_flow` stop a flow once.
// - flow timer: the secondary field is the flow slot's arm count, which
//   never restarts: a recycled slot's next occupant continues its
//   predecessor's count. So every arm of a slot has its own key, including
//   against a predecessor's cancelled timer still waiting in the wheel as a
//   tombstone, which the wheel's cancellation set requires (see
//   `EventQueue::schedule_cancellable_seeded`).
// - link timer / wake-up: a link holds one controller timer and one
//   wake-up at a time, each re-armed only when it fires, and a wake-up sits
//   at the end of a serialization, which lasts at least 1 ns. A replaced
//   controller's timer may still be pending; the secondary field is the
//   link's controller generation, so the two timers' keys differ.
// - arrival: a link serializes one packet at a time, at least 1 ns each,
//   and its propagation delay is fixed, so without jitter no two arrivals
//   on one link share an instant. Jitter moves arrival times, so there
//   two arrivals can meet; their keys still differ unless they agree in
//   kind rank, flow and the 15 low bits of seq that `arrival_key` keeps —
//   a retransmission meeting its original, two duplicate ACKs, or data
//   offsets a multiple of 32 KiB apart.

const KIND_LINK_CHANGE: u64 = 0;
const KIND_FLOW_START: u64 = 1;
const KIND_FLOW_STOP: u64 = 2;
const KIND_LINK_TIMER: u64 = 3;
const KIND_FLOW_TIMER: u64 = 4;
const KIND_TRANSMIT_COMPLETE: u64 = 5;
const KIND_ARRIVAL: u64 = 6;

const KEY_SECONDARY_BITS: u32 = 39;
const KEY_PRIMARY_BITS: u32 = 22;

/// Hard, release-build check that a link or flow id fits a key's primary
/// field. Run once where the id is minted (network construction, flow
/// admission): link free positions compare content keys, so an id that
/// overflowed the field would silently alias another link's or flow's
/// position. The per-event `debug_assert!`s in [`event_key`] and
/// [`arrival_key`] stay debug-only.
fn assert_fits_key(what: &str, id: usize) {
    assert!(
        (id as u64) < (1 << KEY_PRIMARY_BITS),
        "{what} {id} does not fit an event key's {KEY_PRIMARY_BITS}-bit id field (limit 2^{KEY_PRIMARY_BITS} = {})",
        1u64 << KEY_PRIMARY_BITS
    );
}

fn event_key(kind: u64, primary: u64, secondary: u64) -> u64 {
    debug_assert!(kind < 8, "event kind out of range");
    debug_assert!(primary < (1 << KEY_PRIMARY_BITS), "primary id out of range");
    debug_assert!(
        secondary < (1 << KEY_SECONDARY_BITS),
        "secondary id out of range"
    );
    (kind << (KEY_PRIMARY_BITS + KEY_SECONDARY_BITS)) | (primary << KEY_SECONDARY_BITS) | secondary
}

/// The wheel key of an arrival: keyed by the link plus a packet
/// discriminator (kind rank, flow, low sequence bits). Collisions are
/// harmless — equal-key arrivals on one link leave its serializing queue in
/// a deterministic order and FIFO-tie-break in that order.
fn arrival_key(link: LinkId, packet: &Packet) -> u64 {
    let (rank, ident): (u64, u64) = match &packet.kind {
        PacketKind::Syn => (0, packet.seq),
        PacketKind::Data(_) => (1, packet.seq),
        PacketKind::Ack(ack) => (2, ack.ack_bytes),
    };
    debug_assert!(
        (packet.flow as u64) < (1 << KEY_PRIMARY_BITS),
        "flow id out of range"
    );
    let secondary = (rank << 37) | ((packet.flow as u64) << 15) | (ident & 0x7FFF);
    event_key(KIND_ARRIVAL, link as u64, secondary)
}

// ---- state layout ---------------------------------------------------------

/// The tables the event handlers read but never write: topology, routes,
/// flow specs and link health/capacity. The network changes them only at
/// setup time or when [`Network::run_until`] applies a link change; a
/// handler sees `&Shared`.
struct Shared {
    topo: Topology,
    routes: RouteTable,
    specs: Vec<FlowSpec>,
    /// Current capacity of each link in bits/s.
    link_caps: Vec<f64>,
    /// Current impairment state of each link.
    link_health: Vec<LinkHealth>,
    /// The instant the last [`Network::run_until`] ended at: every wheel
    /// event at it, wake-ups included, has been handled, so whatever is
    /// dispatched at that instant afterwards (a link change or flow start
    /// scheduled for "now" between runs) sits behind all of them.
    settled_at: Option<SimTime>,
}

/// One link's mutable runtime.
struct LinkState {
    queue: Box<dyn QueueDiscipline>,
    /// Strict-priority lane for non-data packets (ACKs, SYNs): never
    /// dropped by a discipline, always served before the data queue.
    control_lane: VecDeque<Packet>,
    controller: Option<Box<dyn LinkController>>,
    /// How many times `controller` was replaced: the secondary field of the
    /// current controller's timer key. A pending timer with an older
    /// generation belongs to a replaced controller and is ignored.
    controller_gen: u64,
    /// The link's **free position**: the `(time, content key)` at which the
    /// serialization in progress ends — its end instant paired with this
    /// link's `TransmitComplete` key. The link is occupied for exactly the
    /// events dispatched strictly before that position (see
    /// [`try_transmit`]). The initial `(ZERO, 0)` is the smallest position
    /// there is, so a link that has never transmitted is free everywhere,
    /// `t = 0` included.
    free: (SimTime, u64),
    /// Whether a wake-up ([`Event::TransmitComplete`]) is scheduled at
    /// `free`: at most one per serialization, cleared when it fires.
    wake_pending: bool,
    /// SplitMix64 state for randomized impairments (loss, jitter) on this
    /// link, derived from `(impairment_seed, link)`. The stream advances
    /// only when this link transmits while impaired, so the draw sequence
    /// follows this link's own serialization order and nothing else.
    rng: u64,
    stats: LinkStats,
}

impl LinkState {
    fn new(queue: Box<dyn QueueDiscipline>, rng: u64) -> Self {
        Self {
            queue,
            control_lane: VecDeque::new(),
            controller: None,
            controller_gen: 0,
            free: (SimTime::ZERO, 0),
            wake_pending: false,
            rng,
            stats: LinkStats::default(),
        }
    }

    /// Whether any packet, data or control, is waiting for the wire.
    fn has_backlog(&self) -> bool {
        !(self.control_lane.is_empty() && self.queue.is_empty())
    }

    /// Schedule this link's wake-up at its free position.
    fn schedule_wake_up(&mut self, events: &mut EventQueue, link: LinkId) {
        debug_assert!(!self.wake_pending, "one wake-up per serialization");
        self.wake_pending = true;
        events.schedule_seeded(self.free.0, Event::TransmitComplete { link }, self.free.1);
    }
}

/// A flow's sender-side endpoint state.
struct SenderState {
    agent: Option<Box<dyn FlowAgent>>,
    phase: FlowPhase,
    bytes_sent: u64,
    packets_sent: u64,
    bytes_acked: u64,
    started_at: Option<SimTime>,
    /// Ids of the armed, un-fired timers. Flows keep at most a handful, so
    /// a small Vec beats any map.
    timers: Vec<EventId>,
}

/// A flow's receiver-side endpoint state. The receiver is universal (see
/// [`crate::transport::AckMode`]): it counts delivery, tracks the EWMA
/// rate, detects completion and reflects an ACK per data packet.
struct ReceiverState {
    bytes_delivered: u64,
    packets_delivered: u64,
    completed_at: Option<SimTime>,
    tracer: EwmaRateTracer,
    /// Arrival instant of the previous data packet, echoed to the sender
    /// as `inter_packet_time` (NUMFabric's Swift estimator reads it).
    /// Reset when the flow is rerouted.
    last_data_arrival: Option<SimTime>,
    ack_mode: AckMode,
}

/// The event core: the timing wheel, link runtimes and flow endpoints.
///
/// Aligned to a 64-byte cache line, so the core's hot head (clock, dispatch
/// key, wheel) starts a line of its own wherever the allocator puts it.
/// Without it a pFabric churn run measured slower in 6 of 8 paired rounds
/// on a 2-vCPU Xeon (medians 1.37 s against 1.20 s).
#[repr(align(64))]
struct Core {
    events: EventQueue,
    /// Runtime state of every link.
    links: Vec<LinkState>,
    /// Sender endpoints, by flow slot (`None` once the slot is retired).
    senders: Vec<Option<SenderState>>,
    /// Receiver endpoints, by flow slot (`None` once the slot is retired).
    receivers: Vec<Option<ReceiverState>>,
    /// Per-flow drop counts (a flow's packets can be dropped far from its
    /// endpoints).
    flow_drops: Vec<u64>,
    /// Per-flow in-flight packet count: incremented where a packet is
    /// created (data send, ACK reflection), decremented where one leaves
    /// the network (endpoint delivery or any drop site). Zero means no
    /// packet of the flow exists anywhere, the quiescence condition
    /// [`Network::try_retire_flow`] requires before recycling the flow's
    /// slot.
    flow_packets: Vec<i64>,
    /// `timer_arms[slot]`: the slot's timer arm count, the secondary field
    /// of its next timer's key. A recycled slot's next occupant continues
    /// it: cancelled timers wait in the wheel as tombstones until their
    /// deadline, so a count restarting at 0 could repeat a key the wheel
    /// still holds.
    timer_arms: Vec<u64>,
    /// The network's clock: the time of the event being dispatched, or,
    /// between runs, the end of the last run.
    clock: SimTime,
    /// Content key of the event being dispatched: with `clock`, the
    /// position [`try_transmit`] compares against a link's free position.
    cur_key: u64,
    /// `(time, key)` of the last event dispatched: keys are unique per
    /// instant, so the next dispatch must differ from it.
    #[cfg(debug_assertions)]
    last_dispatched: Option<(SimTime, u64)>,
    events_processed: u64,
    /// When enabled, every handled event is recorded as `(time, key)` —
    /// the conformance trace the link wake-up tests read.
    trace: Option<Vec<(SimTime, u64)>>,
}

// ---- event handling -------------------------------------------------------
//
// Everything below runs with `&Shared` + `&mut Core`: a handler changes
// the core's state and none of the tables it reads.

/// Run the core through every wheel event up to and including `until`,
/// popping and dispatching one event at a time in the wheel's `(time, key)`
/// order. Stops early at a link change, which it returns for the caller to
/// apply: a change writes the tables a handler only reads.
fn advance_core(shared: &Shared, core: &mut Core, until: SimTime) -> Option<(LinkId, LinkChange)> {
    while core.events.peek_time()? <= until {
        let (time, id, event) = core.events.pop_entry().expect("peeked event must exist");
        // Publish the event's key as the core's dispatch position.
        core.clock = time;
        core.cur_key = id.as_u64();
        #[cfg(debug_assertions)]
        {
            let at = Some((time, id.as_u64()));
            assert!(
                core.last_dispatched != at,
                "event key {:#x} dispatched twice at {time}",
                id.as_u64()
            );
            core.last_dispatched = at;
        }
        core.events_processed += 1;
        if let Some(trace) = &mut core.trace {
            trace.push((time, id.as_u64()));
        }
        if let Event::LinkChange { link, change } = event {
            return Some((link, change));
        }
        handle_event(shared, core, id, event);
    }
    None
}

fn handle_event(shared: &Shared, core: &mut Core, id: EventId, event: Event) {
    match event {
        Event::FlowStart { flow } => handle_flow_start(shared, core, flow),
        Event::FlowStop { flow } => handle_flow_stop(shared, core, flow),
        Event::FlowTimer { flow, tag } => dispatch_timer(shared, core, flow, tag, id),
        Event::LinkTimer { link } => handle_link_timer(core, link, id),
        Event::TransmitComplete { link } => {
            // The wake-up sits exactly at the link's free position, so the
            // link reads free; on a link that went down meanwhile (backlog
            // dropped) `try_transmit` is a no-op.
            core.links[link].wake_pending = false;
            try_transmit(shared, core, link);
        }
        Event::Arrival { link, packet } => handle_arrival(shared, core, link, packet),
        Event::LinkChange { .. } => unreachable!("run_until applies link changes"),
    }
}

fn handle_flow_start(shared: &Shared, core: &mut Core, flow: FlowId) {
    {
        let sender = core.senders[flow].as_mut().expect("sender of a live flow");
        if sender.phase != FlowPhase::Pending {
            return;
        }
        sender.phase = FlowPhase::Active;
        sender.started_at = Some(core.clock);
    }
    with_agent(shared, core, flow, |agent, ctx| agent.on_start(ctx));
}

fn handle_flow_stop(shared: &Shared, core: &mut Core, flow: FlowId) {
    {
        let sender = core.senders[flow].as_mut().expect("sender of a live flow");
        if sender.phase != FlowPhase::Active {
            return;
        }
        sender.phase = FlowPhase::Stopped;
    }
    queue_releases(shared, core, flow);
    cancel_timers(core, flow);
}

/// Cancel every armed timer of a stopped or completed flow, so a dead flow
/// fires nothing into the dispatch path.
fn cancel_timers(core: &mut Core, flow: FlowId) {
    let sender = core.senders[flow].as_mut().expect("sender of a live flow");
    for id in sender.timers.drain(..) {
        core.events.cancel(id);
    }
}

/// Shed a flow's per-queue state on every link of its forward route.
fn queue_releases(shared: &Shared, core: &mut Core, flow: FlowId) {
    for &l in shared.routes.links(shared.specs[flow].route) {
        core.links[l].queue.release_flow(flow);
    }
}

fn dispatch_timer(shared: &Shared, core: &mut Core, flow: FlowId, tag: u64, id: EventId) {
    // Forget the fired id before the agent runs, so a re-arm inside the
    // callback starts from a clean slate.
    let sender = core.senders[flow].as_mut().expect("sender of a live flow");
    forget_timer(sender, id);
    // Stop/completion cancels outstanding timers; this guard is defence in
    // depth, not the cancellation mechanism.
    if sender.phase != FlowPhase::Active {
        return;
    }
    with_agent(shared, core, flow, |agent, ctx| agent.on_timer(tag, ctx));
}

/// Drop a fired or cancelled timer's id from its sender's armed list.
fn forget_timer(sender: &mut SenderState, id: EventId) {
    if let Some(pos) = sender.timers.iter().position(|&t| t == id) {
        sender.timers.swap_remove(pos);
    }
}

fn handle_link_timer(core: &mut Core, link: LinkId, id: EventId) {
    let ls = &mut core.links[link];
    let key = event_key(KIND_LINK_TIMER, link as u64, ls.controller_gen);
    if id.as_u64() != key {
        // Armed by a controller that has since been replaced.
        return;
    }
    let backlog = ls.queue.backlog_bytes();
    let next = match &mut ls.controller {
        Some(ctrl) => ctrl.on_timer(core.clock, backlog),
        None => None,
    };
    if let Some(delay) = next {
        core.events
            .schedule_seeded(core.clock + delay, Event::LinkTimer { link }, key);
    }
}

/// The link a packet of `route` is sent on first; flow routes are never
/// empty ([`Network::add_flow`] refuses one).
#[inline]
fn first_hop(routes: &RouteTable, route: RouteId) -> LinkId {
    routes
        .hop(route, 0)
        .expect("a flow route has at least one link")
}

fn enqueue_on_link(shared: &Shared, core: &mut Core, link: LinkId, mut packet: Packet) {
    if !shared.link_health[link].up {
        // Forwarding onto a failed link drops the packet at the port.
        charge_drop(core, link, packet.flow);
        return;
    }
    let dropped_flow = {
        let ls = &mut core.links[link];
        if packet.is_data() {
            if let Some(ctrl) = &mut ls.controller {
                ctrl.on_enqueue(&mut packet, core.clock);
            }
            ls.queue
                .enqueue(packet, core.clock)
                .dropped()
                .map(|dropped| dropped.flow)
        } else {
            // ACKs and SYNs ride the strict-priority control lane: they
            // skip the data discipline entirely and are never dropped by
            // buffer pressure.
            ls.control_lane.push_back(packet);
            None
        }
    };
    if let Some(flow) = dropped_flow {
        charge_drop(core, link, flow);
    }
    try_transmit(shared, core, link);
}

/// Start serializing the link's next packet, if the link is up, free and
/// has one.
///
/// No flag marks the link occupied and no event marks the end of a
/// serialization: the link records its free position `(end instant, its
/// wake-up key)` and is occupied iff the event being dispatched sits
/// strictly before it in the wheel's own `(time, content key)` order. So at
/// the end instant itself change-, start- and timer-driven sends (kinds 0,
/// 1 and 4, below the wake-up's kind 5) still queue and leave the choice
/// to the discipline, while arrivals (kind 6) find the link free. The one
/// exception is the settled instant (`Shared::settled_at`): a previous run
/// already handled every event there, so whatever is dispatched at it now
/// is behind the link's end of serialization whatever its key.
///
/// A wake-up is scheduled at the free position only when something waits
/// behind the packet on the wire: here if backlog remains after the
/// dequeue, otherwise by the first caller that finds the link occupied with
/// backlog and no wake-up pending.
fn try_transmit(shared: &Shared, core: &mut Core, link: LinkId) {
    let now = core.clock;
    let health = shared.link_health[link];
    if !health.up {
        return;
    }
    let (packet, tx_time, lost, jitter) = {
        let ls = &mut core.links[link];
        if (now, core.cur_key) < ls.free && (now < ls.free.0 || shared.settled_at != Some(now)) {
            if !ls.wake_pending && ls.has_backlog() {
                ls.schedule_wake_up(&mut core.events, link);
            }
            return;
        }
        debug_assert!(!ls.wake_pending, "a free link has no wake-up pending");
        // Price controllers see the *data* backlog, control lane excluded:
        // control bytes are invisible to the queue-based price signal,
        // exactly like a separate hardware class.
        let backlog = ls.queue.backlog_bytes();
        let mut packet = match ls.control_lane.pop_front() {
            Some(p) => p,
            None => match ls.queue.dequeue(now) {
                Some(p) => p,
                None => return,
            },
        };
        if let Some(ctrl) = &mut ls.controller {
            ctrl.on_dequeue(&mut packet, now, backlog);
        }
        ls.stats.bytes_transmitted += packet.wire_bytes as u64;
        ls.stats.packets_transmitted += 1;
        let tx_time = SimDuration::transmission(packet.wire_bytes as u64, shared.link_caps[link]);
        debug_assert!(!tx_time.is_zero(), "a packet occupies the link ≥ 1 ns");
        ls.free = (
            now + tx_time,
            event_key(KIND_TRANSMIT_COMPLETE, link as u64, 0),
        );
        if ls.has_backlog() {
            ls.schedule_wake_up(&mut core.events, link);
        }
        // Randomized impairments: one draw per decision from this link's
        // own stream, taken only while the link is impaired — unimpaired
        // runs never touch the stream, and the draw sequence follows the
        // link's serialization order.
        let lost = health.loss > 0.0 && splitmix64_unit(&mut ls.rng) < health.loss;
        let jitter = if !lost && !health.jitter.is_zero() {
            let unit = splitmix64_unit(&mut ls.rng);
            SimDuration::from_nanos((health.jitter.as_nanos() as f64 * unit) as u64)
        } else {
            SimDuration::ZERO
        };
        (packet, tx_time, lost, jitter)
    };
    if lost {
        // Corrupted on the wire: it occupied the link for its full
        // serialization time but never arrives.
        charge_drop(core, link, packet.flow);
    } else {
        let at = now + tx_time + shared.topo.links()[link].delay + jitter;
        let seq = arrival_key(link, &packet);
        core.events
            .schedule_seeded(at, Event::Arrival { link, packet }, seq);
    }
}

/// Charge one packet of `flow` lost at `link`: to the link's and the flow's
/// drop counts, and out of the flow's in-flight count.
fn charge_drop(core: &mut Core, link: LinkId, flow: FlowId) {
    core.links[link].stats.packets_dropped += 1;
    core.flow_drops[flow] += 1;
    core.flow_packets[flow] -= 1;
}

fn handle_arrival(shared: &Shared, core: &mut Core, link: LinkId, mut packet: Packet) {
    // A packet in flight is delivered unless its cable is down at the
    // arrival instant: failing a link loses whatever was on the wire.
    if !shared.link_health[link].up {
        charge_drop(core, link, packet.flow);
        return;
    }
    packet.advance_hop();
    if let Some(next) = packet.next_link(&shared.routes) {
        enqueue_on_link(shared, core, next, packet);
        return;
    }
    // Delivered to the end host.
    match packet.kind {
        PacketKind::Data(_) | PacketKind::Syn => receiver_deliver(shared, core, packet),
        PacketKind::Ack(AckHeader { ack_bytes, .. }) => sender_ack(shared, core, ack_bytes, packet),
    }
}

/// The universal receiver: count delivery, track the rate, detect
/// completion, and reflect an ACK echoing the data packet's feedback
/// fields. SYNs are delivered silently (no payload, no ACK).
fn receiver_deliver(shared: &Shared, core: &mut Core, packet: Packet) {
    // The packet (data or SYN) is consumed at the end host.
    core.flow_packets[packet.flow] -= 1;
    if !packet.is_data() {
        return;
    }
    let flow = packet.flow;
    let now = core.clock;
    let (delivered, inter, ack_seq) = {
        let rx = core.receivers[flow]
            .as_mut()
            .expect("receiver of a live flow");
        rx.bytes_delivered += packet.payload_bytes as u64;
        rx.packets_delivered += 1;
        rx.tracer.on_arrival(packet.payload_bytes as u64, now);
        let inter = rx.last_data_arrival.map(|last| now.duration_since(last));
        rx.last_data_arrival = Some(now);
        if rx.completed_at.is_none()
            && shared.specs[flow]
                .size_bytes
                .is_some_and(|size| rx.bytes_delivered >= size)
        {
            rx.completed_at = Some(now);
        }
        let ack_seq = match rx.ack_mode {
            AckMode::Cumulative => packet.seq + packet.payload_bytes as u64,
            AckMode::PerPacket => packet.seq,
        };
        (rx.bytes_delivered, inter, ack_seq)
    };
    let reverse = shared.specs[flow].reverse_route;
    let stamps = packet.stamps;
    let ack = Packet::ack(
        flow,
        ack_seq,
        reverse,
        AckHeader {
            ack_bytes: delivered,
            inter_packet_time: inter,
            reflected_path_price: stamps.path_price,
            reflected_rcp_feedback: stamps.rcp_feedback,
            reflected_path_len: stamps.path_len,
            ecn_echo: stamps.ecn_marked,
        },
    );
    core.flow_packets[flow] += 1;
    let first = first_hop(&shared.routes, reverse);
    enqueue_on_link(shared, core, first, ack);
}

/// An ACK reached the source host: advance the acked high-water mark,
/// detect sender-side completion, and otherwise hand the ACK to the agent.
fn sender_ack(shared: &Shared, core: &mut Core, ack_bytes: u64, packet: Packet) {
    let flow = packet.flow;
    core.flow_packets[flow] -= 1;
    let completed_now = {
        let sender = core.senders[flow].as_mut().expect("sender of a live flow");
        sender.bytes_acked = sender.bytes_acked.max(ack_bytes);
        if sender.phase != FlowPhase::Active {
            return;
        }
        let done = shared.specs[flow]
            .size_bytes
            .is_some_and(|size| sender.bytes_acked >= size);
        if done {
            sender.phase = FlowPhase::Completed;
        }
        done
    };
    if completed_now {
        // The completing ACK is consumed by the engine, not the agent —
        // the flow is over; shed queue state and outstanding timers.
        queue_releases(shared, core, flow);
        cancel_timers(core, flow);
    } else {
        with_agent(shared, core, flow, |agent, ctx| agent.on_ack(&packet, ctx));
    }
}

/// Temporarily detach a flow's agent, run `f` with an [`AgentCtx`], and
/// reattach. No-op if the agent is already detached (re-entrancy guard).
fn with_agent(
    shared: &Shared,
    core: &mut Core,
    flow: FlowId,
    f: impl FnOnce(&mut Box<dyn FlowAgent>, &mut AgentCtx<'_>),
) {
    let Some(mut agent) = core.senders[flow].as_mut().and_then(|s| s.agent.take()) else {
        return;
    };
    {
        let mut ctx = AgentCtx {
            shared,
            core: &mut *core,
            flow,
        };
        f(&mut agent, &mut ctx);
    }
    core.senders[flow]
        .as_mut()
        .expect("sender of a live flow")
        .agent = Some(agent);
}

// ---- the network ----------------------------------------------------------

/// The packet-level network simulator.
///
/// A `Network` owns every piece of its simulation state and is `Send`
/// (asserted at compile time below): move it to a worker thread and run it
/// there. Concurrent sweeps exploit this, one `Network` per thread. Each
/// runs one event core on the calling thread (see the module docs).
pub struct Network {
    shared: Shared,
    core: Core,
    /// Link changes scheduled so far: the secondary field of the next
    /// change's key.
    link_changes: u64,
    /// Flow ids whose slots were retired by [`Network::try_retire_flow`]
    /// and are free for reuse by the next [`Network::add_flow`]. LIFO, so
    /// churn workloads keep re-touching the same hot slots and the slab's
    /// high-water mark tracks *concurrent* flows, not total flows.
    free_flows: Vec<FlowId>,
    /// The forward route of the flow being admitted and its reverse, reused
    /// across admissions so a warm [`Network::add_flow`] allocates nothing.
    route_buf: Vec<LinkId>,
    reverse_buf: Vec<LinkId>,
}

impl Network {
    /// Build a network from a topology, creating one queue per link with
    /// `queue_factory`.
    ///
    /// # Panics
    /// Panics if the topology has 2^22 links or more: event keys carry a
    /// 22-bit link id.
    pub fn new(topo: Topology, queue_factory: impl Fn(LinkId) -> Box<dyn QueueDiscipline>) -> Self {
        let num_links = topo.links().len();
        assert_fits_key("link count", num_links);
        let link_caps = topo.links().iter().map(|s| s.capacity_bps).collect();
        let shared = Shared {
            topo,
            routes: RouteTable::new(),
            specs: Vec::new(),
            link_caps,
            link_health: vec![LinkHealth::default(); num_links],
            settled_at: None,
        };
        let links = (0..num_links)
            .map(|link| LinkState::new(queue_factory(link), derive_link_seed(0, link)))
            .collect();
        let core = Core {
            events: EventQueue::new(),
            links,
            senders: Vec::new(),
            receivers: Vec::new(),
            flow_drops: Vec::new(),
            flow_packets: Vec::new(),
            timer_arms: Vec::new(),
            clock: SimTime::ZERO,
            cur_key: 0,
            #[cfg(debug_assertions)]
            last_dispatched: None,
            events_processed: 0,
            trace: None,
        };
        Self {
            shared,
            core,
            link_changes: 0,
            free_flows: Vec::new(),
            route_buf: Vec::new(),
            reverse_buf: Vec::new(),
        }
    }

    /// Ignored: a network runs one event core, whatever the count. Kept
    /// with its signature only because the benchmark harness
    /// (`benchmark/src/run.rs`) still calls it; it goes, with the thread
    /// setter below, when the benchmark stops asking for partitions.
    pub fn set_partitions(&mut self, _partitions: usize) {}

    /// Ignored, like the partition setter above, and kept for the same
    /// benchmark call.
    pub fn set_partition_threads(&mut self, _threads: usize) {}

    /// The topology this network was built from.
    pub fn topology(&self) -> &Topology {
        &self.shared.topo
    }

    /// Resolve an interned route id (from a [`FlowSpec`] or [`Packet`]) to
    /// its links, in traversal order.
    pub fn route(&self, id: RouteId) -> &[LinkId] {
        self.shared.routes.links(id)
    }

    /// The network's route arena (interned, deduplicated flow routes).
    pub fn routes(&self) -> &RouteTable {
        &self.shared.routes
    }

    /// Current simulation time.
    pub fn now(&self) -> SimTime {
        self.core.clock
    }

    /// Attach a switch-side controller to a link. If the controller requests
    /// a periodic timer it starts `initial_timer()` from the current time.
    /// A controller it replaces gets no further timer callbacks.
    pub fn set_link_controller(&mut self, link: LinkId, controller: Box<dyn LinkController>) {
        let initial = controller.initial_timer();
        let ls = &mut self.core.links[link];
        if ls.controller.is_some() {
            ls.controller_gen += 1;
        }
        ls.controller = Some(controller);
        let key = event_key(KIND_LINK_TIMER, link as u64, ls.controller_gen);
        if let Some(delay) = initial {
            self.core.events.schedule_seeded(
                self.core.clock + delay,
                Event::LinkTimer { link },
                key,
            );
        }
    }

    /// Attach the same controller (via a factory) to every link in the
    /// network — the common case where every switch port runs the protocol.
    pub fn set_all_link_controllers(
        &mut self,
        factory: impl Fn(LinkId, f64) -> Box<dyn LinkController>,
    ) {
        for link in 0..self.shared.topo.links().len() {
            let capacity = self.shared.link_caps[link];
            self.set_link_controller(link, factory(link, capacity));
        }
    }

    /// Add a flow between two hosts of a leaf-spine topology, pinning it to
    /// the spine chosen by `spine_choice` (ECMP hash stand-in). Returns the
    /// flow id. The flow starts at `start_time` (scheduled automatically).
    /// `_group` is ignored: it stays only because existing callers pass it
    /// positionally.
    #[allow(clippy::too_many_arguments)]
    pub fn add_flow(
        &mut self,
        src: NodeId,
        dst: NodeId,
        size_bytes: Option<u64>,
        start_time: SimTime,
        spine_choice: usize,
        _group: Option<usize>,
        agent: Box<dyn FlowAgent>,
    ) -> FlowId {
        let mut route = std::mem::take(&mut self.route_buf);
        route.clear();
        self.shared
            .topo
            .host_route_into(src, dst, spine_choice, &mut route);
        let id = self.add_flow_on_route(src, dst, &route, size_bytes, start_time, agent);
        self.route_buf = route;
        // Remember the ECMP pin so link failures can re-select the route
        // over the surviving paths; explicit-route flows stay `None`.
        self.shared.specs[id].ecmp_choice = Some(spine_choice);
        id
    }

    /// Add a flow with an explicit route, the links it traverses in order
    /// (for custom topologies).
    ///
    /// # Panics
    /// Panics if the route is empty, or if 2^22 flow slots are already live
    /// (event keys carry a 22-bit flow id; retired slots are reused).
    pub fn add_flow_on_route(
        &mut self,
        src: NodeId,
        dst: NodeId,
        route: &[LinkId],
        size_bytes: Option<u64>,
        start_time: SimTime,
        agent: Box<dyn FlowAgent>,
    ) -> FlowId {
        assert!(
            !route.is_empty(),
            "flow route must traverse at least one link"
        );
        let (route, reverse_route, base_rtt) = self.intern_route(route);
        let spec = FlowSpec {
            src,
            dst,
            size_bytes,
            start_time: start_time.max(self.core.clock),
            route,
            reverse_route,
            base_rtt,
            ecmp_choice: None,
        };
        let start = spec.start_time;
        let ack_mode = agent.ack_mode();
        // Recycle a retired slot when one is free (the flow slab): churn
        // workloads then keep live memory proportional to *concurrent*
        // flows. A recycled id's previous occupant had no packet in flight
        // and no armed timer (see `try_retire_flow`); its cancelled timers
        // may still wait in the wheel as tombstones, so the new occupant
        // continues the slot's timer arm count and never repeats their keys.
        let core = &mut self.core;
        let id = match self.free_flows.pop() {
            Some(id) => {
                self.shared.specs[id] = spec;
                id
            }
            None => {
                let id = self.shared.specs.len();
                assert_fits_key("flow slot", id);
                self.shared.specs.push(spec);
                core.senders.push(None);
                core.receivers.push(None);
                core.flow_drops.push(0);
                core.flow_packets.push(0);
                core.timer_arms.push(0);
                id
            }
        };
        // A retired slot's drop and in-flight counts were zeroed when it
        // retired; its timer arm count carries on.
        debug_assert!(core.senders[id].is_none() && core.receivers[id].is_none());
        core.senders[id] = Some(SenderState {
            agent: Some(agent),
            phase: FlowPhase::Pending,
            bytes_sent: 0,
            packets_sent: 0,
            bytes_acked: 0,
            started_at: None,
            timers: Vec::new(),
        });
        core.receivers[id] = Some(ReceiverState {
            bytes_delivered: 0,
            packets_delivered: 0,
            completed_at: None,
            tracer: EwmaRateTracer::paper_default(),
            last_data_arrival: None,
            ack_mode,
        });
        core.events.schedule_seeded(
            start,
            Event::FlowStart { flow: id },
            event_key(KIND_FLOW_START, id as u64, 0),
        );
        id
    }

    /// Stop an active flow (it stops sending; in-flight packets still drain).
    pub fn stop_flow(&mut self, flow: FlowId) {
        self.core.events.schedule_seeded(
            self.core.clock,
            Event::FlowStop { flow },
            event_key(KIND_FLOW_STOP, flow as u64, 0),
        );
    }

    // ---- the flow slab ----------------------------------------------------

    /// Retire a finished flow and recycle its id, if the flow is fully
    /// quiescent. Returns `true` when the slot was reclaimed.
    ///
    /// Quiescence requires all of:
    ///
    /// * the flow is [`FlowPhase::Completed`] or [`FlowPhase::Stopped`];
    /// * it has no armed timers (stop and completion cancel them; the
    ///   cancelled ones may wait in the wheel as tombstones, which is why
    ///   the slot's next occupant continues its timer arm count, so timer
    ///   keys never repeat per slot);
    /// * no packet of the flow is in flight anywhere — queued or on the
    ///   wire. A trailing ACK still propagating
    ///   back to the sender keeps the flow alive until it is consumed, which
    ///   is what makes recycling safe: a recycled id can never be touched by
    ///   a stray packet of its previous occupant.
    ///
    /// Call this between runs: the decision reads only state that every
    /// event up to the current time has settled, so the id-reuse sequence
    /// is a pure function of the run's inputs. Retiring an already-retired
    /// flow returns `false`.
    ///
    /// Statistics of a retired flow are gone; harvest [`Self::flow_stats`]
    /// first. [`Self::num_flows`] counts slots (the slab high-water mark),
    /// not flows ever added.
    pub fn try_retire_flow(&mut self, flow: FlowId) -> bool {
        let Some(phase) = self.flow_phase_opt(flow) else {
            return false; // already retired
        };
        if !matches!(phase, FlowPhase::Completed | FlowPhase::Stopped) {
            return false;
        }
        if !self.sender(flow).timers.is_empty() {
            return false;
        }
        let core = &mut self.core;
        debug_assert!(
            core.flow_packets[flow] >= 0,
            "in-flight packet count went negative"
        );
        if core.flow_packets[flow] != 0 {
            return false;
        }
        core.senders[flow] = None;
        core.receivers[flow] = None;
        core.flow_drops[flow] = 0;
        self.free_flows.push(flow);
        true
    }

    /// Whether `flow`'s slot has been retired (and possibly not yet reused).
    /// The per-flow statistics accessors panic on a retired id.
    pub fn flow_is_retired(&self, flow: FlowId) -> bool {
        self.core.senders[flow].is_none()
    }

    /// Number of retired flow slots currently free for reuse.
    pub fn free_flow_slots(&self) -> usize {
        self.free_flows.len()
    }

    /// Packets of `flow` currently in the network (queued, serializing or
    /// on the wire).
    pub fn flow_in_flight_packets(&self, flow: FlowId) -> i64 {
        self.core.flow_packets[flow]
    }

    // ---- impairments ------------------------------------------------------

    /// Schedule a [`LinkChange`] to take effect at `at` (clamped to the
    /// current time). The change is a wheel event that applies ahead of
    /// every other event of its instant, after the changes scheduled
    /// before it for that instant. Impairment schedules built by
    /// `numfabric-workloads` reduce to a sequence of these calls.
    pub fn schedule_link_change(&mut self, at: SimTime, link: LinkId, change: LinkChange) {
        assert!(
            link < self.shared.topo.links().len(),
            "no such link: {link}"
        );
        let key = event_key(KIND_LINK_CHANGE, 0, self.link_changes);
        self.link_changes += 1;
        self.core.events.schedule_seeded(
            at.max(self.core.clock),
            Event::LinkChange { link, change },
            key,
        );
    }

    /// Seed the impairment streams that randomized [`LinkChange::Loss`] and
    /// [`LinkChange::Jitter`] draws come from — one stream per **link**,
    /// derived via [`derive_link_seed`], so a link's draws follow its own
    /// transmissions and nothing else. Runs that never impair a link never
    /// touch any stream, so the seed is irrelevant to them.
    pub fn set_impairment_seed(&mut self, seed: u64) {
        for (l, ls) in self.core.links.iter_mut().enumerate() {
            ls.rng = derive_link_seed(seed, l);
        }
    }

    /// Whether a link is currently up.
    pub fn link_is_up(&self, link: LinkId) -> bool {
        self.shared.link_health[link].up
    }

    /// A link's current impairment state.
    pub fn link_health(&self, link: LinkId) -> LinkHealth {
        self.shared.link_health[link]
    }

    /// A link's current capacity in bits per second.
    pub fn link_capacity_bps(&self, link: LinkId) -> f64 {
        self.shared.link_caps[link]
    }

    /// Apply one link change, popped from the wheel by [`advance_core`].
    fn apply_link_change(&mut self, link: LinkId, change: LinkChange) {
        match change {
            LinkChange::Down | LinkChange::DownFwd => {
                if !self.shared.link_health[link].up {
                    return;
                }
                self.shared.link_health[link].up = false;
                // An asymmetric failure dies identically at this link but
                // leaves the reverse twin routable (see `reroute_ecmp_flows`).
                self.shared.link_health[link].asymmetric_down = change == LinkChange::DownFwd;
                // Everything queued behind the failed cable is lost,
                // deterministically (drain order is the discipline's own
                // dequeue order). Packets already propagating are lost at
                // their arrival instant (see `handle_arrival`).
                self.drop_link_backlog(link);
                self.reroute_ecmp_flows();
            }
            LinkChange::Up => {
                if self.shared.link_health[link].up {
                    return;
                }
                self.shared.link_health[link].up = true;
                self.shared.link_health[link].asymmetric_down = false;
                self.reroute_ecmp_flows();
                try_transmit(&self.shared, &mut self.core, link);
            }
            LinkChange::Speed(capacity_bps) => {
                assert!(
                    capacity_bps.is_finite() && capacity_bps > 0.0,
                    "capacity must be positive"
                );
                self.shared.link_caps[link] = capacity_bps;
                if let Some(ctrl) = self.core.links[link].controller.as_mut() {
                    ctrl.on_capacity_change(capacity_bps);
                }
            }
            LinkChange::Loss(probability) => {
                assert!(
                    (0.0..=1.0).contains(&probability),
                    "loss probability out of range: {probability}"
                );
                self.shared.link_health[link].loss = probability;
            }
            LinkChange::Jitter(max_extra) => self.shared.link_health[link].jitter = max_extra,
        }
    }

    /// Drop every packet queued on `link` (data queue and control lane),
    /// with full drop accounting.
    fn drop_link_backlog(&mut self, link: LinkId) {
        let core = &mut self.core;
        let now = core.clock;
        loop {
            let ls = &mut core.links[link];
            let Some(packet) = ls
                .control_lane
                .pop_front()
                .or_else(|| ls.queue.dequeue(now))
            else {
                break;
            };
            charge_drop(core, link, packet.flow);
        }
    }

    /// Intern `route` and its reverse (built in the reused reverse buffer),
    /// and compute its base RTT: what a flow's spec keeps of its route.
    fn intern_route(&mut self, route: &[LinkId]) -> (RouteId, RouteId, SimDuration) {
        let topo = &self.shared.topo;
        self.reverse_buf.clear();
        topo.reverse_route_into(route, &mut self.reverse_buf);
        let base_rtt = topo.base_rtt(route, MTU_BYTES as u64, HEADER_BYTES as u64);
        let routes = &mut self.shared.routes;
        (
            routes.intern(route),
            routes.intern(&self.reverse_buf),
            base_rtt,
        )
    }

    /// Re-select the route of every live ECMP-pinned flow over the links
    /// that survive the current failure set. Flows whose surviving choice
    /// is unchanged keep their route (and their in-flight packets); a
    /// flow with no surviving path keeps its dead route and stalls until a
    /// restore.
    ///
    /// Every rerouted *active* flow is then told via
    /// [`FlowAgent::on_reroute`], with `path_was_lost` reporting whether
    /// its old path (either direction) crossed a downed link — that is the
    /// case in which its in-flight window died with the cable and a purely
    /// ACK-clocked sender must retransmit to restart its clock.
    fn reroute_ecmp_flows(&mut self) {
        let down: std::collections::HashSet<LinkId> = self
            .shared
            .link_health
            .iter()
            .enumerate()
            .filter(|(_, h)| !h.up)
            .map(|(id, _)| id)
            .collect();
        // The route-selection ban set: a symmetric failure bans the whole
        // cable (a flow cannot use a path its ACKs cannot retrace), while an
        // asymmetric `DownFwd` failure bans only the dead direction — the
        // routing plane only learned about the direction that went dark.
        let mut banned = down.clone();
        for &id in &down {
            if self.shared.link_health[id].asymmetric_down {
                continue;
            }
            banned.extend(self.shared.topo.reverse_link(id));
        }
        let mut rerouted: Vec<(FlowId, bool)> = Vec::new();
        for flow in 0..self.shared.specs.len() {
            // Retired slots (and slots awaiting reuse) have no endpoints.
            let Some(phase) = self.flow_phase_opt(flow) else {
                continue;
            };
            if !matches!(phase, FlowPhase::Pending | FlowPhase::Active) {
                continue;
            }
            let spec = &self.shared.specs[flow];
            let Some(choice) = spec.ecmp_choice else {
                continue;
            };
            let (src, dst, old) = (spec.src, spec.dst, spec.route);
            let old_reverse = spec.reverse_route;
            let Some(new_route) = self
                .shared
                .topo
                .host_route_avoiding(src, dst, choice, &banned)
            else {
                continue;
            };
            if self.shared.routes.links(old) == new_route {
                continue;
            }
            // Old in-flight and queued packets carry the old interned
            // route and keep following it (dying at the failed hop); the
            // flow's own per-queue state moves to the new path.
            let old_links = self.shared.routes.links(old);
            for &l in old_links {
                self.core.links[l].queue.release_flow(flow);
            }
            let path_was_lost = old_links
                .iter()
                .chain(self.shared.routes.links(old_reverse))
                .any(|l| down.contains(l));
            let (route_id, reverse_id, base_rtt) = self.intern_route(&new_route);
            let spec = &mut self.shared.specs[flow];
            spec.base_rtt = base_rtt;
            spec.route = route_id;
            spec.reverse_route = reverse_id;
            if phase == FlowPhase::Active {
                rerouted.push((flow, path_was_lost));
            }
        }
        for (flow, path_was_lost) in rerouted {
            // The inter-arrival clock at the receiver restarts on the new
            // path: the first post-reroute delivery must not report a gap
            // that straddles the route change.
            if let Some(rx) = self.core.receivers[flow].as_mut() {
                rx.last_data_arrival = None;
            }
            with_agent(&self.shared, &mut self.core, flow, |agent, ctx| {
                agent.on_reroute(path_was_lost, ctx)
            });
        }
    }

    // ---- run loops --------------------------------------------------------

    /// Run the simulation until (and including) time `until`.
    ///
    /// The core dispatches wheel events in `(time, key)` order and applies
    /// each link change it pops, at the change's position: a link whose
    /// serialization ends at the change's instant is still occupied for it
    /// (unless that instant is settled). Splitting one call into several
    /// changes no byte.
    pub fn run_until(&mut self, until: SimTime) {
        while let Some((link, change)) = advance_core(&self.shared, &mut self.core, until) {
            self.apply_link_change(link, change);
        }
        self.core.clock = self.core.clock.max(until);
        self.shared.settled_at = Some(self.core.clock);
    }

    /// Run the simulation for `duration` beyond the current time.
    pub fn run_for(&mut self, duration: SimDuration) {
        let until = self.core.clock + duration;
        self.run_until(until);
    }

    // ---- statistics -------------------------------------------------------

    /// Number of flow *slots* allocated so far — the slab's high-water mark
    /// of concurrently live flows, not the count of flows ever added
    /// (retired slots are recycled by [`Self::add_flow`]).
    pub fn num_flows(&self) -> usize {
        self.shared.specs.len()
    }

    /// A flow's static description.
    pub fn flow_spec(&self, flow: FlowId) -> &FlowSpec {
        &self.shared.specs[flow]
    }

    fn sender(&self, flow: FlowId) -> &SenderState {
        self.core.senders[flow]
            .as_ref()
            .expect("sender of a live flow")
    }

    fn receiver(&self, flow: FlowId) -> &ReceiverState {
        self.core.receivers[flow]
            .as_ref()
            .expect("receiver of a live flow")
    }

    /// A flow's counters, assembled from its sender and receiver endpoints.
    pub fn flow_stats(&self, flow: FlowId) -> FlowStats {
        let tx = self.sender(flow);
        let rx = self.receiver(flow);
        FlowStats {
            bytes_sent: tx.bytes_sent,
            bytes_acked: tx.bytes_acked,
            bytes_delivered: rx.bytes_delivered,
            packets_sent: tx.packets_sent,
            packets_delivered: rx.packets_delivered,
            packets_dropped: self.core.flow_drops[flow],
            started_at: tx.started_at,
            completed_at: rx.completed_at,
        }
    }

    /// A flow's lifecycle phase: completed once the receiver has taken
    /// delivery of the full size, otherwise whatever the sender says.
    /// Panics on a retired flow id (see [`Self::try_retire_flow`]).
    pub fn flow_phase(&self, flow: FlowId) -> FlowPhase {
        if self.receiver(flow).completed_at.is_some() {
            FlowPhase::Completed
        } else {
            self.sender(flow).phase
        }
    }

    /// [`Self::flow_phase`], returning `None` for a retired flow slot.
    fn flow_phase_opt(&self, flow: FlowId) -> Option<FlowPhase> {
        self.core.senders[flow].as_ref()?;
        Some(self.flow_phase(flow))
    }

    /// The destination-side EWMA rate estimate for a flow, in bits/s.
    pub fn flow_rate_estimate(&self, flow: FlowId) -> f64 {
        self.receiver(flow).tracer.rate_bps(self.core.clock)
    }

    /// Counters for a link. Backlog counts include the control lane.
    pub fn link_stats(&self, link: LinkId) -> LinkStats {
        let ls = &self.core.links[link];
        let lane_bytes: usize = ls
            .control_lane
            .iter()
            .map(|pk| pk.wire_bytes as usize)
            .sum();
        LinkStats {
            queue_bytes: ls.queue.backlog_bytes() + lane_bytes,
            queue_packets: ls.queue.backlog_packets() + ls.control_lane.len(),
            ..ls.stats
        }
    }

    /// Number of links.
    pub fn num_links(&self) -> usize {
        self.shared.topo.links().len()
    }

    /// Total number of events dispatched so far, link changes included
    /// (the benchmark divides this by wall time to report events/sec).
    pub fn events_processed(&self) -> u64 {
        self.core.events_processed
    }

    /// Number of events currently pending in the wheel, link changes
    /// included. Structurally cancelled timers (see
    /// [`AgentCtx::cancel_timer`]) do not count.
    pub fn pending_events(&self) -> usize {
        self.core.events.len()
    }

    /// Number of armed, un-fired timers of `flow`. Stopping or completing a
    /// flow cancels all of them, so this drops to zero structurally — the
    /// regression surface for the stale-RTX-timer bug.
    pub fn pending_timer_count(&self, flow: FlowId) -> usize {
        self.sender(flow).timers.len()
    }

    /// Record every handled event as a `(time, key)` pair — the
    /// conformance trace the link wake-up tests read. Clears any
    /// previously recorded trace.
    pub fn set_event_trace(&mut self, enabled: bool) {
        self.core.trace = enabled.then(Vec::new);
    }

    /// Take the `(time, key)` trace recorded since [`Self::set_event_trace`]
    /// was enabled (empty when tracing is off).
    pub fn take_event_trace(&mut self) -> Vec<(SimTime, u64)> {
        self.core
            .trace
            .as_mut()
            .map(std::mem::take)
            .unwrap_or_default()
    }
}

// ---- the agent-facing API -------------------------------------------------

/// The interface through which a [`FlowAgent`] interacts with the network
/// during one of its callbacks: read access to the shared tables and
/// mutable access to the event core, the capability every event handler
/// holds.
pub struct AgentCtx<'a> {
    shared: &'a Shared,
    core: &'a mut Core,
    flow: FlowId,
}

impl AgentCtx<'_> {
    /// Current simulation time.
    pub fn now(&self) -> SimTime {
        self.core.clock
    }

    /// The flow's static description.
    pub fn spec(&self) -> &FlowSpec {
        &self.shared.specs[self.flow]
    }

    fn sender(&self) -> &SenderState {
        self.core.senders[self.flow]
            .as_ref()
            .expect("sender of a live flow")
    }

    fn sender_mut(&mut self) -> &mut SenderState {
        self.core.senders[self.flow]
            .as_mut()
            .expect("sender of a live flow")
    }

    /// Payload bytes not yet handed to the network (`None` for long-running
    /// flows).
    pub fn remaining_bytes(&self) -> Option<u64> {
        let sent = self.sender().bytes_sent;
        self.shared.specs[self.flow]
            .size_bytes
            .map(|s| s.saturating_sub(sent))
    }

    /// The highest cumulative byte count acknowledged so far.
    pub fn bytes_acked(&self) -> u64 {
        self.sender().bytes_acked
    }

    /// Payload bytes handed to the network so far. For an agent that sends
    /// only through [`Self::send_next`] this is its send cursor: the
    /// sequence number of the next byte it will send.
    pub fn bytes_sent(&self) -> u64 {
        self.sender().bytes_sent
    }

    /// The payload of the next packet [`Self::send_next`] should send: one
    /// MSS, or what is left of a finite flow; `None` once nothing is owed.
    pub fn next_payload(&self) -> Option<u32> {
        let remaining = self.remaining_bytes().unwrap_or(u64::MAX);
        (remaining > 0).then(|| remaining.min(DEFAULT_PAYLOAD_BYTES as u64) as u32)
    }

    /// Bytes sent past the highest cumulative ACK.
    pub fn in_flight_bytes(&self) -> u64 {
        let sender = self.sender();
        sender.bytes_sent.saturating_sub(sender.bytes_acked)
    }

    /// Go-back-N: move the send cursor back to the highest cumulative ACK,
    /// so that everything past it is owed again and the next
    /// [`Self::send_next`] resends from there.
    pub fn go_back_n(&mut self) {
        let sender = self.sender_mut();
        sender.bytes_sent = sender.bytes_acked;
    }

    /// The links of the flow's forward route, in traversal order.
    pub fn route(&self) -> &[LinkId] {
        self.shared.routes.links(self.shared.specs[self.flow].route)
    }

    /// Capacity of the flow's first-hop (host NIC) link, in bits/s.
    pub fn first_hop_capacity_bps(&self) -> f64 {
        let first = first_hop(&self.shared.routes, self.shared.specs[self.flow].route);
        self.shared.link_caps[first]
    }

    /// The flow's base (empty-queue) RTT.
    pub fn base_rtt(&self) -> SimDuration {
        self.shared.specs[self.flow].base_rtt
    }

    /// Send a data packet of `payload_bytes` at the send cursor (see
    /// [`Self::bytes_sent`]), setting its data-only header fields with
    /// `modify`, and advance the cursor past it. Returns the wire size sent.
    pub fn send_next(&mut self, payload_bytes: u32, modify: impl FnOnce(&mut DataHeader)) -> u32 {
        let seq = self.sender().bytes_sent;
        self.send_data(seq, payload_bytes, modify)
    }

    /// Send a data packet of `payload_bytes` starting at byte offset `seq`,
    /// setting its data-only header fields with `modify`. Returns the wire
    /// size sent. This is for agents that retransmit individual segments
    /// (pFabric): every call still adds `payload_bytes` to
    /// [`Self::bytes_sent`], so such an agent keeps its own sequence
    /// position. ACK-clocked agents use [`Self::send_next`].
    pub fn send_data(
        &mut self,
        seq: SeqNo,
        payload_bytes: u32,
        modify: impl FnOnce(&mut DataHeader),
    ) -> u32 {
        let route = self.shared.specs[self.flow].route;
        let mut header = DataHeader::default();
        modify(&mut header);
        let packet = Packet::data(self.flow, seq, payload_bytes, route, header);
        let wire = packet.wire_bytes;
        {
            let sender = self.sender_mut();
            sender.bytes_sent += payload_bytes as u64;
            sender.packets_sent += 1;
        }
        self.core.flow_packets[self.flow] += 1;
        let first = first_hop(&self.shared.routes, route);
        enqueue_on_link(self.shared, self.core, first, packet);
        wire
    }

    /// Arrange for [`FlowAgent::on_timer`] to be called with `tag` after
    /// `delay`. The returned [`TimerHandle`] can be kept to
    /// [`Self::cancel_timer`] the callback before it fires; when the flow
    /// stops or completes, every outstanding timer is cancelled
    /// automatically.
    pub fn set_timer(&mut self, delay: SimDuration, tag: u64) -> TimerHandle {
        // The key's secondary field is the slot's arm count, which never
        // restarts (see the key banner).
        let flow = self.flow;
        let core = &mut *self.core;
        let key = event_key(KIND_FLOW_TIMER, flow as u64, core.timer_arms[flow]);
        core.timer_arms[flow] += 1;
        let at = core.clock + delay;
        let id = core
            .events
            .schedule_cancellable_seeded(at, Event::FlowTimer { flow, tag }, key);
        self.sender_mut().timers.push(id);
        TimerHandle { id }
    }

    /// Cancel a timer previously armed with [`Self::set_timer`]. Returns
    /// `true` if the timer was still pending, `false` if it already fired
    /// or was already cancelled.
    pub fn cancel_timer(&mut self, handle: TimerHandle) -> bool {
        if !self.core.events.cancel(handle.id) {
            return false;
        }
        forget_timer(self.sender_mut(), handle.id);
        true
    }
}

// The concurrency contract, pinned at compile time: a `Network` owns its
// entire simulation (topology, route arena, queues, agents, controllers,
// event wheels, timers — no `Rc`, no interior sharing), so a sweep worker
// thread can own one outright. `FlowAgent`, `QueueDiscipline` and
// `LinkController` carry `Send` bounds for exactly this reason; if a future
// change smuggles in a non-`Send` field, this is the line that fails to
// compile.
const _: () = {
    const fn assert_send<T: Send>() {}
    assert_send::<Network>();
    assert_send::<EventQueue>();
    assert_send::<Topology>();
    assert_send::<crate::routes::RouteTable>();
};

#[cfg(test)]
mod tests {
    use super::*;
    use crate::queue::DropTailFifo;
    use crate::reference::SimpleWindowAgent;
    use crate::topology::{FatTreeConfig, LeafSpineConfig, NodeKind};
    use crate::transport::NullController;
    use std::sync::{Arc, Mutex};

    fn small_net() -> Network {
        let topo = Topology::leaf_spine(&LeafSpineConfig::small(8, 2, 2));
        Network::new(topo, |_| Box::new(DropTailFifo::with_default_buffer()))
    }

    #[test]
    fn single_flow_completes_and_fct_is_sensible() {
        let mut net = small_net();
        let hosts: Vec<_> = net.topology().hosts().to_vec();
        let size = 150_000u64; // 100 MTU payloads
        let flow = net.add_flow(
            hosts[0],
            hosts[7],
            Some(size),
            SimTime::ZERO,
            0,
            None,
            Box::new(SimpleWindowAgent::new(20)),
        );
        net.run_until(SimTime::from_millis(50));
        assert_eq!(net.flow_phase(flow), FlowPhase::Completed);
        let stats = net.flow_stats(flow);
        // The 150 kB flow is an exact number of full payloads, so delivery
        // is byte-exact.
        assert_eq!(stats.bytes_delivered, size);
        let fct = stats.fct().expect("completed flow has an FCT");
        // 150 KB at 10 Gbps minimum is 120 µs plus propagation; the window of
        // 20 packets never stalls the 16 µs-RTT path, so it finishes quickly.
        assert!(fct >= SimDuration::from_micros(120), "fct = {fct}");
        assert!(fct < SimDuration::from_millis(2), "fct = {fct}");
        assert!(stats.packets_dropped == 0);
    }

    #[test]
    fn two_flows_share_a_bottleneck_roughly_equally() {
        let mut net = small_net();
        let hosts: Vec<_> = net.topology().hosts().to_vec();
        // Both flows converge on the same destination host link.
        let f0 = net.add_flow(
            hosts[0],
            hosts[4],
            None,
            SimTime::ZERO,
            0,
            None,
            Box::new(SimpleWindowAgent::new(8)),
        );
        let f1 = net.add_flow(
            hosts[1],
            hosts[4],
            None,
            SimTime::ZERO,
            0,
            None,
            Box::new(SimpleWindowAgent::new(8)),
        );
        net.run_until(SimTime::from_millis(10));
        let r0 = net.flow_rate_estimate(f0);
        let r1 = net.flow_rate_estimate(f1);
        let total = r0 + r1;
        assert!(total > 8e9, "bottleneck underutilized: {total}");
        assert!(total < 10.5e9, "bottleneck oversubscribed: {total}");
        assert!((r0 - r1).abs() / total < 0.2, "unfair split {r0} vs {r1}");
    }

    #[test]
    fn flows_count_drops_when_buffers_are_tiny() {
        let topo = Topology::leaf_spine(&LeafSpineConfig::small(8, 2, 2));
        let mut net = Network::new(topo, |_| Box::new(DropTailFifo::new(4 * 1500)));
        let hosts: Vec<_> = net.topology().hosts().to_vec();
        for src in 0..4 {
            net.add_flow(
                hosts[src],
                hosts[5],
                None,
                SimTime::ZERO,
                0,
                None,
                Box::new(SimpleWindowAgent::new(64)),
            );
        }
        net.run_until(SimTime::from_millis(2));
        let dropped: u64 = (0..net.num_flows())
            .map(|f| net.flow_stats(f).packets_dropped)
            .sum();
        assert!(dropped > 0, "expected drops with 4-packet buffers");
    }

    #[test]
    fn stopping_a_flow_stops_its_traffic() {
        let mut net = small_net();
        let hosts: Vec<_> = net.topology().hosts().to_vec();
        let flow = net.add_flow(
            hosts[0],
            hosts[7],
            None,
            SimTime::ZERO,
            0,
            None,
            Box::new(SimpleWindowAgent::new(8)),
        );
        net.run_until(SimTime::from_millis(1));
        assert!(net.flow_rate_estimate(flow) > 1e9);
        net.stop_flow(flow);
        net.run_until(SimTime::from_millis(1) + SimDuration::from_micros(100));
        let sent_at_stop = net.flow_stats(flow).packets_sent;
        net.run_until(SimTime::from_millis(3));
        assert_eq!(net.flow_phase(flow), FlowPhase::Stopped);
        assert_eq!(net.flow_stats(flow).packets_sent, sent_at_stop);
        // The rate estimate decays once traffic stops.
        assert!(net.flow_rate_estimate(flow) < 1e9);
    }

    #[test]
    fn pending_flows_start_at_their_start_time() {
        let mut net = small_net();
        let hosts: Vec<_> = net.topology().hosts().to_vec();
        let flow = net.add_flow(
            hosts[0],
            hosts[7],
            Some(15_000),
            SimTime::from_millis(1),
            0,
            None,
            Box::new(SimpleWindowAgent::new(8)),
        );
        net.run_until(SimTime::from_micros(500));
        assert_eq!(net.flow_phase(flow), FlowPhase::Pending);
        assert_eq!(net.flow_stats(flow).packets_sent, 0);
        net.run_until(SimTime::from_millis(5));
        assert_eq!(net.flow_phase(flow), FlowPhase::Completed);
        assert_eq!(
            net.flow_stats(flow).started_at,
            Some(SimTime::from_millis(1))
        );
    }

    #[test]
    fn link_stats_reflect_traffic() {
        let mut net = small_net();
        let hosts: Vec<_> = net.topology().hosts().to_vec();
        let flow = net.add_flow(
            hosts[0],
            hosts[7],
            Some(150_000),
            SimTime::ZERO,
            0,
            None,
            Box::new(SimpleWindowAgent::new(16)),
        );
        net.run_until(SimTime::from_millis(20));
        assert_eq!(net.flow_phase(flow), FlowPhase::Completed);
        let first_link = net.route(net.flow_spec(flow).route)[0];
        let stats = net.link_stats(first_link);
        assert!(stats.packets_transmitted >= 100);
        assert!(stats.bytes_transmitted >= 150_000);
        assert_eq!(stats.queue_packets, 0);
    }

    #[test]
    fn null_controller_and_all_links_installation() {
        let mut net = small_net();
        net.set_all_link_controllers(|_, _| Box::new(NullController));
        let hosts: Vec<_> = net.topology().hosts().to_vec();
        let flow = net.add_flow(
            hosts[0],
            hosts[1],
            Some(15_000),
            SimTime::ZERO,
            0,
            None,
            Box::new(SimpleWindowAgent::new(4)),
        );
        net.run_until(SimTime::from_millis(5));
        assert_eq!(net.flow_phase(flow), FlowPhase::Completed);
    }

    #[test]
    fn intra_rack_flows_avoid_the_spine() {
        let mut net = small_net();
        let hosts: Vec<_> = net.topology().hosts().to_vec();
        let flow = net.add_flow(
            hosts[0],
            hosts[1],
            Some(15_000),
            SimTime::ZERO,
            0,
            None,
            Box::new(SimpleWindowAgent::new(4)),
        );
        net.run_until(SimTime::from_millis(5));
        assert_eq!(net.flow_phase(flow), FlowPhase::Completed);
        // No spine link should have carried data packets.
        let topo = net.topology().clone();
        for (id, spec) in topo.links().iter().enumerate() {
            let from_spine = topo.nodes()[spec.from].kind == NodeKind::Spine;
            let to_spine = topo.nodes()[spec.to].kind == NodeKind::Spine;
            if from_spine || to_spine {
                assert_eq!(net.link_stats(id).packets_transmitted, 0);
            }
        }
    }

    /// Arms one timer on start and counts how often it fires — the probe
    /// for structural timer cancellation.
    struct TimerProbe {
        delay: SimDuration,
        fired: Arc<std::sync::atomic::AtomicUsize>,
    }

    impl FlowAgent for TimerProbe {
        fn on_start(&mut self, ctx: &mut AgentCtx<'_>) {
            ctx.set_timer(self.delay, 7);
        }
        fn on_ack(&mut self, _packet: &Packet, _ctx: &mut AgentCtx<'_>) {}
        fn on_timer(&mut self, tag: u64, _ctx: &mut AgentCtx<'_>) {
            assert_eq!(tag, 7);
            self.fired.fetch_add(1, std::sync::atomic::Ordering::SeqCst);
        }
    }

    #[test]
    fn stopping_a_flow_cancels_its_pending_timers() {
        use std::sync::atomic::{AtomicUsize, Ordering};
        let fired = Arc::new(AtomicUsize::new(0));
        let mut net = small_net();
        let hosts: Vec<_> = net.topology().hosts().to_vec();
        let flow = net.add_flow(
            hosts[0],
            hosts[7],
            None,
            SimTime::ZERO,
            0,
            None,
            Box::new(TimerProbe {
                delay: SimDuration::from_micros(500),
                fired: fired.clone(),
            }),
        );
        net.run_until(SimTime::from_micros(100));
        assert_eq!(net.pending_timer_count(flow), 1);
        let pending_with_timer = net.pending_events();
        net.stop_flow(flow);
        net.run_until(SimTime::from_micros(200));
        // The stop structurally removed the timer: it no longer counts as a
        // pending event and never dispatches.
        assert_eq!(net.pending_timer_count(flow), 0);
        assert!(net.pending_events() < pending_with_timer);
        net.run_until(SimTime::from_millis(2));
        assert_eq!(fired.load(Ordering::SeqCst), 0);
        assert_eq!(net.flow_phase(flow), FlowPhase::Stopped);
    }

    #[test]
    fn unstopped_timers_still_fire_and_can_be_cancelled_by_handle() {
        use std::sync::atomic::{AtomicUsize, Ordering};
        let fired = Arc::new(AtomicUsize::new(0));
        let mut net = small_net();
        let hosts: Vec<_> = net.topology().hosts().to_vec();
        let flow = net.add_flow(
            hosts[0],
            hosts[7],
            None,
            SimTime::ZERO,
            0,
            None,
            Box::new(TimerProbe {
                delay: SimDuration::from_micros(500),
                fired: fired.clone(),
            }),
        );
        net.run_until(SimTime::from_millis(1));
        assert_eq!(fired.load(Ordering::SeqCst), 1, "positive control");
        assert_eq!(net.pending_timer_count(flow), 0);
    }

    /// The leaf0 -> spine0 uplink of the small test fabric.
    fn uplink(net: &Network, spine: usize) -> LinkId {
        let topo = net.topology();
        let leaf0 = topo
            .nodes()
            .iter()
            .position(|n| n.kind == NodeKind::Leaf)
            .unwrap();
        let spine0 = topo
            .nodes()
            .iter()
            .enumerate()
            .filter(|(_, n)| n.kind == NodeKind::Spine)
            .map(|(id, _)| id)
            .nth(spine)
            .unwrap();
        topo.link_between(leaf0, spine0).unwrap()
    }

    #[test]
    fn failing_a_link_drops_its_backlog_and_blocks_traffic() {
        let mut net = small_net();
        let hosts: Vec<_> = net.topology().hosts().to_vec();
        // Pin the flow on spine 0 with an explicit route so the failure
        // cannot be routed around.
        let route = net.topology().host_route(hosts[0], hosts[4], 0);
        let flow = net.add_flow_on_route(
            hosts[0],
            hosts[4],
            &route,
            None,
            SimTime::ZERO,
            Box::new(SimpleWindowAgent::new(32)),
        );
        net.run_until(SimTime::from_millis(1));
        let link = uplink(&net, 0);
        assert!(net.link_is_up(link));
        let sent_before = net.flow_stats(flow).packets_sent;
        assert!(sent_before > 0);
        net.schedule_link_change(SimTime::from_millis(1), link, LinkChange::Down);
        net.run_until(SimTime::from_millis(4));
        assert!(!net.link_is_up(link));
        // The window drains into the dead link and the flow wedges: drops
        // are accounted and delivery stops growing.
        assert!(net.flow_stats(flow).packets_dropped > 0);
        let delivered = net.flow_stats(flow).bytes_delivered;
        net.run_until(SimTime::from_millis(8));
        assert_eq!(net.flow_stats(flow).bytes_delivered, delivered);
    }

    #[test]
    fn ecmp_pinned_flows_reroute_around_a_failure_and_return_on_restore() {
        let mut net = small_net();
        let hosts: Vec<_> = net.topology().hosts().to_vec();
        let flow = net.add_flow(
            hosts[0],
            hosts[4],
            None,
            SimTime::ZERO,
            0, // ECMP pin on spine 0
            None,
            Box::new(SimpleWindowAgent::new(16)),
        );
        let original = net.flow_spec(flow).route;
        let failed = uplink(&net, 0);
        net.schedule_link_change(SimTime::from_millis(1), failed, LinkChange::Down);
        net.schedule_link_change(SimTime::from_millis(3), failed, LinkChange::Up);
        net.run_until(SimTime::from_millis(2));
        let detour = net.flow_spec(flow).route;
        assert_ne!(detour, original, "failure must move the flow off spine 0");
        assert!(!net.route(detour).contains(&failed));
        let delivered_at_2ms = net.flow_stats(flow).bytes_delivered;
        net.run_until(SimTime::from_millis(4));
        // The restore puts the ECMP choice back on its original path, and
        // the flow kept making progress across the whole flap.
        assert_eq!(net.flow_spec(flow).route, original);
        assert!(net.flow_stats(flow).bytes_delivered > delivered_at_2ms);
    }

    #[test]
    fn a_flapping_cable_reuses_the_routes_of_its_first_flap() {
        // The route arena only grows: the detours and restored paths of a
        // second down/up cycle must all be routes the first one interned.
        let topo = Topology::fat_tree(&FatTreeConfig::new(4));
        let mut net = Network::new(topo, |_| Box::new(DropTailFifo::with_default_buffer()));
        let hosts: Vec<_> = net.topology().hosts().to_vec();
        let flows: Vec<FlowId> = (0..4)
            .flat_map(|src| (4..16).map(move |dst| (src, dst)))
            .map(|(src, dst)| {
                net.add_flow(
                    hosts[src],
                    hosts[dst],
                    None,
                    SimTime::ZERO,
                    src + dst, // spread the ECMP pins
                    None,
                    Box::new(SimpleWindowAgent::new(4)),
                )
            })
            .collect();
        let original: Vec<RouteId> = flows.iter().map(|&f| net.flow_spec(f).route).collect();
        let interned = net.routes().len();
        // Hop 1 of an inter-pod route is an edge-to-aggregation cable.
        let cable = net.route(original[0])[1];
        for (ms, change) in [
            (1, LinkChange::Down),
            (2, LinkChange::Up),
            (3, LinkChange::Down),
            (4, LinkChange::Up),
        ] {
            net.schedule_link_change(SimTime::from_millis(ms), cable, change);
        }
        net.run_until(SimTime::from_micros(1_500));
        let on_cable = flows
            .iter()
            .filter(|&&f| net.route(net.flow_spec(f).route).contains(&cable))
            .count();
        assert_eq!(on_cable, 0, "every flow must avoid the cut cable");
        net.run_until(SimTime::from_micros(2_500));
        let after_first = net.routes().len();
        assert!(after_first > interned, "the first cut must intern detours");
        net.run_until(SimTime::from_micros(4_500));
        assert_eq!(net.routes().len(), after_first);
        let restored: Vec<RouteId> = flows.iter().map(|&f| net.flow_spec(f).route).collect();
        assert_eq!(restored, original);
    }

    #[test]
    fn down_fwd_reroutes_only_the_dead_direction() {
        // Two ECMP-pinned flows crossing the same cable in opposite
        // directions: h0 -> h4 climbs leaf0 -> spine0, h4 -> h0 descends
        // spine0 -> leaf0 (the twin). An asymmetric failure of the uplink
        // must move only the climbing flow; a symmetric one moves both.
        let run = |change: LinkChange| {
            let mut net = small_net();
            let hosts: Vec<_> = net.topology().hosts().to_vec();
            let fwd_flow = net.add_flow(
                hosts[0],
                hosts[4],
                None,
                SimTime::ZERO,
                0,
                None,
                Box::new(SimpleWindowAgent::new(16)),
            );
            let rev_flow = net.add_flow(
                hosts[4],
                hosts[0],
                None,
                SimTime::ZERO,
                0,
                None,
                Box::new(SimpleWindowAgent::new(16)),
            );
            let dead = uplink(&net, 0);
            let fwd_route = net.flow_spec(fwd_flow).route;
            let rev_route = net.flow_spec(rev_flow).route;
            net.schedule_link_change(SimTime::from_millis(1), dead, change);
            net.run_until(SimTime::from_millis(2));
            assert!(!net.link_is_up(dead));
            let fwd_moved = net.flow_spec(fwd_flow).route != fwd_route;
            let rev_moved = net.flow_spec(rev_flow).route != rev_route;
            assert!(fwd_moved, "the dead direction is always avoided");
            assert!(!net.route(net.flow_spec(fwd_flow).route).contains(&dead));
            rev_moved
        };
        assert!(
            !run(LinkChange::DownFwd),
            "down-fwd must leave the live twin direction routable"
        );
        assert!(
            run(LinkChange::Down),
            "a symmetric down bans the whole cable"
        );
    }

    #[test]
    fn wire_loss_drops_packets_deterministically_per_seed() {
        let run = |seed: u64| {
            let mut net = small_net();
            net.set_impairment_seed(seed);
            let hosts: Vec<_> = net.topology().hosts().to_vec();
            let link = uplink(&net, 0);
            net.schedule_link_change(SimTime::ZERO, link, LinkChange::Loss(0.2));
            let route = net.topology().host_route(hosts[0], hosts[4], 0);
            let flow = net.add_flow_on_route(
                hosts[0],
                hosts[4],
                &route,
                None,
                SimTime::ZERO,
                Box::new(SimpleWindowAgent::new(32)),
            );
            net.run_until(SimTime::from_millis(2));
            let stats = net.flow_stats(flow);
            (stats.packets_dropped, stats.bytes_delivered)
        };
        let (dropped, delivered) = run(7);
        assert!(dropped > 0, "20% wire loss must drop something");
        assert!(delivered > 0, "most packets still get through");
        assert_eq!(run(7), (dropped, delivered), "same seed, same losses");
        assert_ne!(run(8), (dropped, delivered), "loss pattern follows seed");
    }

    #[test]
    fn jitter_delays_but_does_not_drop() {
        let mut net = small_net();
        net.set_impairment_seed(1);
        let hosts: Vec<_> = net.topology().hosts().to_vec();
        let link = uplink(&net, 0);
        net.schedule_link_change(
            SimTime::ZERO,
            link,
            LinkChange::Jitter(SimDuration::from_micros(20)),
        );
        let route = net.topology().host_route(hosts[0], hosts[4], 0);
        let flow = net.add_flow_on_route(
            hosts[0],
            hosts[4],
            &route,
            Some(150_000),
            SimTime::ZERO,
            Box::new(SimpleWindowAgent::new(16)),
        );
        net.run_until(SimTime::from_millis(20));
        assert_eq!(net.flow_phase(flow), FlowPhase::Completed);
        assert_eq!(net.flow_stats(flow).packets_dropped, 0);
    }

    /// Records every capacity a link's controller is told about.
    struct CapacityProbe(Arc<Mutex<Vec<f64>>>);

    impl LinkController for CapacityProbe {
        fn on_enqueue(&mut self, _packet: &mut Packet, _now: SimTime) {}
        fn on_dequeue(&mut self, _packet: &mut Packet, _now: SimTime, _queue_bytes: usize) {}
        fn initial_timer(&self) -> Option<SimDuration> {
            None
        }
        fn on_timer(&mut self, _now: SimTime, _queue_bytes: usize) -> Option<SimDuration> {
            None
        }
        fn on_capacity_change(&mut self, capacity_bps: f64) {
            self.0.lock().unwrap().push(capacity_bps);
        }
    }

    #[test]
    fn a_scheduled_speed_change_reaches_the_controller_and_the_wire() {
        // One packet crosses the uplink after an optional 40 -> 1 Gbps
        // change: the controller hears the new capacity, and the packet's
        // completion moves by exactly the longer serialization.
        let fct = |speed: Option<f64>| {
            let mut net = small_net();
            let hosts: Vec<_> = net.topology().hosts().to_vec();
            let link = uplink(&net, 0);
            let seen = Arc::new(Mutex::new(Vec::new()));
            net.set_link_controller(link, Box::new(CapacityProbe(seen.clone())));
            if let Some(bps) = speed {
                net.schedule_link_change(SimTime::from_micros(10), link, LinkChange::Speed(bps));
            }
            let flow = net.add_flow(
                hosts[0],
                hosts[4],
                Some(DEFAULT_PAYLOAD_BYTES as u64),
                SimTime::from_micros(20),
                0,
                None,
                Box::new(SimpleWindowAgent::new(1)),
            );
            net.run_until(SimTime::from_millis(1));
            assert_eq!(net.link_stats(link).packets_transmitted, 1);
            assert_eq!(*seen.lock().unwrap(), Vec::from_iter(speed));
            assert_eq!(net.link_capacity_bps(link), speed.unwrap_or(40e9));
            net.flow_stats(flow).fct().expect("completed").as_nanos()
        };
        let wire = (DEFAULT_PAYLOAD_BYTES + HEADER_BYTES) as u64;
        let slower = SimDuration::transmission(wire, 1e9).as_nanos()
            - SimDuration::transmission(wire, 40e9).as_nanos();
        assert_eq!(fct(Some(1e9)), fct(None) + slower);
    }

    #[test]
    fn a_speed_change_reaches_a_link_that_already_sent_that_size() {
        // Two one-packet flows of one wire size cross the uplink, at 0 and
        // 20 µs, around an optional 40 -> 1 Gbps change at 10 µs: the first
        // serializes at 40 Gbps either way, the second at the new speed —
        // a size the link already sent is not timed at its old capacity.
        let fcts = |speed: Option<f64>| {
            let mut net = small_net();
            let hosts: Vec<_> = net.topology().hosts().to_vec();
            let link = uplink(&net, 0);
            if let Some(bps) = speed {
                net.schedule_link_change(SimTime::from_micros(10), link, LinkChange::Speed(bps));
            }
            let flows = [0, 20].map(|start_us| {
                net.add_flow(
                    hosts[0],
                    hosts[4],
                    Some(DEFAULT_PAYLOAD_BYTES as u64),
                    SimTime::from_micros(start_us),
                    0,
                    None,
                    Box::new(SimpleWindowAgent::new(1)),
                )
            });
            net.run_until(SimTime::from_millis(1));
            assert_eq!(net.link_stats(link).packets_transmitted, 2);
            flows.map(|f| net.flow_stats(f).fct().expect("completed").as_nanos())
        };
        let wire = (DEFAULT_PAYLOAD_BYTES + HEADER_BYTES) as u64;
        let slower = SimDuration::transmission(wire, 1e9).as_nanos()
            - SimDuration::transmission(wire, 40e9).as_nanos();
        let [first, second] = fcts(None);
        assert_eq!(fcts(Some(1e9)), [first, second + slower]);
    }

    #[test]
    fn acks_ride_the_control_lane_past_a_data_backlog() {
        // Saturate h0 -> h4 with a big window, then check that the reverse
        // direction's ACK-bearing links report no control-lane induced
        // drops and the flow's ACK clock keeps running: bytes_acked tracks
        // bytes_delivered closely even under full forward queues.
        let mut net = small_net();
        let hosts: Vec<_> = net.topology().hosts().to_vec();
        let flow = net.add_flow(
            hosts[0],
            hosts[4],
            None,
            SimTime::ZERO,
            0,
            None,
            Box::new(SimpleWindowAgent::new(64)),
        );
        net.run_until(SimTime::from_millis(4));
        let stats = net.flow_stats(flow);
        assert!(stats.bytes_delivered > 0);
        // With a strict-priority control lane the ACK path adds at most one
        // serialization per hop, so the ACK horizon hugs delivery.
        let lag = stats.bytes_delivered.saturating_sub(stats.bytes_acked);
        assert!(
            lag <= 16 * 1460,
            "ACKs lag delivery by {lag} bytes — control lane not serving"
        );
    }

    // The two hard key-range checks call `assert_fits_key` where the id is
    // minted; building 2^22 links or flows to trip them end to end would
    // cost gigabytes, so the limit itself is what is pinned here.
    #[test]
    #[should_panic(expected = "link count 4194304 does not fit an event key's 22-bit id field")]
    fn a_link_count_beyond_the_key_field_is_a_hard_error() {
        assert_fits_key("link count", (1 << KEY_PRIMARY_BITS) - 1);
        assert_fits_key("link count", 1 << KEY_PRIMARY_BITS);
    }

    #[test]
    #[should_panic(expected = "flow slot 4194304 does not fit an event key's 22-bit id field")]
    fn a_flow_slot_beyond_the_key_field_is_a_hard_error() {
        assert_fits_key("flow slot", (1 << KEY_PRIMARY_BITS) - 1);
        assert_fits_key("flow slot", 1 << KEY_PRIMARY_BITS);
    }

    #[test]
    fn determinism_same_inputs_same_outputs() {
        let run = || {
            let mut net = small_net();
            let hosts: Vec<_> = net.topology().hosts().to_vec();
            for i in 0..4 {
                net.add_flow(
                    hosts[i],
                    hosts[7 - i],
                    Some(50_000 + i as u64 * 10_000),
                    SimTime::from_micros(i as u64 * 10),
                    i,
                    None,
                    Box::new(SimpleWindowAgent::new(8)),
                );
            }
            net.run_until(SimTime::from_millis(10));
            (0..net.num_flows())
                .map(|f| {
                    (
                        net.flow_stats(f).packets_sent,
                        net.flow_stats(f).fct().map(|d| d.as_nanos()),
                    )
                })
                .collect::<Vec<_>>()
        };
        assert_eq!(run(), run());
    }
}
