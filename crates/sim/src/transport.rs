//! The interfaces protocols implement to run on the simulator.
//!
//! A transport protocol consists of:
//!
//! * a [`FlowAgent`] per flow — the **sender-side** end-host logic
//!   ([`FlowAgent::on_ack`], [`FlowAgent::on_timer`]). The receiver side is
//!   universal and lives in the engine: every data arrival updates delivery
//!   counters and reflects an ACK whose [`crate::packet::AckHeader`] carries
//!   the cumulative delivered byte count, the inter-packet arrival time and
//!   the data packet's stamps (path price/length, RCP feedback, ECN mark).
//!   The only receiver knob a protocol has is [`FlowAgent::ack_mode`], which
//!   selects how the ACK's `seq` is formed. NUMFabric's Swift/xWI
//!   sender, DGD, RCP*, DCTCP and pFabric are all implemented as
//!   `FlowAgent`s (in `numfabric-core` and `numfabric-baselines`).
//! * optionally a [`LinkController`] per link — the switch-side logic that
//!   runs at one egress port: xWI's price computation, DGD's price update,
//!   RCP*'s fair-share update. Controllers see every packet at enqueue and
//!   dequeue time and can run a periodic timer (the synchronized price
//!   update of §5).
//!
//! Agents interact with the network exclusively through [`AgentCtx`]
//! (sending packets, setting timers, reading flow state), which keeps them
//! free of any knowledge of the event queue or link internals. The engine
//! owns each flow's send cursor: an ACK-clocked sender asks
//! [`AgentCtx::next_payload`] what to send, sends it with
//! [`AgentCtx::send_next`], reads [`AgentCtx::in_flight_bytes`] against
//! its window, and on a lost path calls [`AgentCtx::go_back_n`] to resend
//! from the highest cumulative ACK. Only an agent that retransmits
//! individual segments (pFabric) keeps its own sequence position and sends
//! with [`AgentCtx::send_data`]. Timers are
//! handle-based: [`AgentCtx::set_timer`] returns a
//! [`crate::timer::TimerHandle`] that [`AgentCtx::cancel_timer`] revokes,
//! and a flow that stops or completes sheds its outstanding timers
//! automatically — agents never have to defend against a stale callback
//! firing into dead state.

use crate::network::AgentCtx;
use crate::packet::Packet;
use crate::time::{SimDuration, SimTime};

/// How the engine's universal receiver forms the `seq` of the ACK it
/// reflects for every delivered data packet. (`ack_bytes` is always the
/// cumulative delivered byte count, whatever the mode.)
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum AckMode {
    /// ACK `seq` = data `seq + payload`: the byte offset one past the
    /// delivered segment, TCP-style. The default; what window- and
    /// rate-based senders expect.
    #[default]
    Cumulative,
    /// ACK `seq` = data `seq`: echo the delivered packet's own sequence
    /// number, SACK-style. pFabric uses this to retire exactly the
    /// outstanding segment the ACK names.
    PerPacket,
}

/// Per-flow transport logic (the sender side; the receiver is universal,
/// see [`AckMode`]).
pub trait FlowAgent: Send {
    /// The flow reached its start time. Typically sends the initial
    /// burst/window of data, or the first paced packet.
    fn on_start(&mut self, ctx: &mut AgentCtx<'_>);

    /// An ACK arrived back at the source. Typically updates rate/window state
    /// and transmits more data.
    fn on_ack(&mut self, packet: &Packet, ctx: &mut AgentCtx<'_>);

    /// How the engine's receiver forms this flow's ACK `seq`. Captured
    /// once when the flow is added.
    fn ack_mode(&self) -> AckMode {
        AckMode::Cumulative
    }

    /// A timer set via [`AgentCtx::set_timer`] fired. The `tag` is the one
    /// passed at arm time (distinguishing timer kinds — RTX vs pacing,
    /// say); the corresponding [`crate::timer::TimerHandle`] is spent by
    /// the time this runs, so re-arming starts from a clean slate. The
    /// default does nothing, which is right for an agent that never arms a
    /// timer.
    fn on_timer(&mut self, _tag: u64, _ctx: &mut AgentCtx<'_>) {}

    /// The network moved the flow onto a new ECMP route (a link on the old
    /// path failed, or a restore put the original path back). By the time
    /// this runs [`AgentCtx::route`] and [`AgentCtx::base_rtt`] already
    /// describe the new path. `path_was_lost` is true when the old route
    /// traversed a downed link in either direction — every packet in
    /// flight there must be presumed lost. Purely ACK-clocked protocols
    /// (no retransmission timer) **must** call [`AgentCtx::go_back_n`] here
    /// when `path_was_lost`, and send again: with the whole window gone no
    /// ACK will ever arrive to reopen it, and the flow stalls forever. The
    /// default does nothing, which is correct for timer-driven protocols
    /// that recover via their own RTO.
    fn on_reroute(&mut self, _path_was_lost: bool, _ctx: &mut AgentCtx<'_>) {}

    /// A human-readable protocol name (for logs and experiment tables).
    fn name(&self) -> &'static str {
        "unnamed"
    }
}

/// Per-egress-port switch logic.
pub trait LinkController: Send {
    /// A data packet is about to be enqueued at this port. xWI uses this to
    /// track the minimum `normalizedResidual` seen since the last price
    /// update (Figure 3 of the paper).
    fn on_enqueue(&mut self, packet: &mut Packet, now: SimTime);

    /// A packet (data or control) is being dequeued for transmission. xWI
    /// stamps `pathPrice` and `pathLen` into [`Packet::stamps`] here and
    /// counts serviced bytes; RCP* adds `R_l^{-α}`.
    fn on_dequeue(&mut self, packet: &mut Packet, now: SimTime, queue_bytes: usize);

    /// The delay until the controller's first periodic timer, or `None` if it
    /// does not need one.
    fn initial_timer(&self) -> Option<SimDuration>;

    /// The periodic timer fired. Returns the delay until the next firing, or
    /// `None` to stop the timer. `queue_bytes` is the port's current backlog.
    fn on_timer(&mut self, now: SimTime, queue_bytes: usize) -> Option<SimDuration>;

    /// The link's capacity was changed at runtime (e.g. the Fig. 10
    /// capacity-change experiment). Controllers that normalize by capacity
    /// should update their notion of it; the default implementation ignores
    /// the change.
    fn on_capacity_change(&mut self, _new_capacity_bps: f64) {}

    /// A human-readable name (for logs).
    fn name(&self) -> &'static str {
        "unnamed"
    }
}

/// A no-op controller, useful for protocols whose switches only schedule
/// packets (pFabric, DCTCP) and for tests.
#[derive(Debug, Default, Clone, Copy)]
pub struct NullController;

impl LinkController for NullController {
    fn on_enqueue(&mut self, _packet: &mut Packet, _now: SimTime) {}
    fn on_dequeue(&mut self, _packet: &mut Packet, _now: SimTime, _queue_bytes: usize) {}
    fn initial_timer(&self) -> Option<SimDuration> {
        None
    }
    fn on_timer(&mut self, _now: SimTime, _queue_bytes: usize) -> Option<SimDuration> {
        None
    }
    fn name(&self) -> &'static str {
        "null"
    }
}
