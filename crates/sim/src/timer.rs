//! First-class flow timers: handle-based arm/cancel on top of the event
//! core's tombstone cancellation.
//!
//! Historically agents juggled raw `(flow, tag)` pairs: a timer, once
//! scheduled, could not be taken back, so stale `FlowTimer` events for
//! stopped or completed flows kept traversing the queue and the dispatch
//! path, filtered only by an ad-hoc phase check. The [`TimerService`] makes
//! cancellation structural:
//!
//! * [`TimerService::arm`] schedules a cancellable `FlowTimer` and returns a
//!   [`TimerHandle`] the agent can keep (e.g. "my pending RTX timer");
//! * [`TimerService::cancel`] revokes one handle in O(1);
//! * [`TimerService::cancel_all`] revokes every outstanding timer of a flow
//!   — the engine calls this when a flow stops or completes, so dead flows
//!   leave nothing behind in the queue.
//!
//! Agents reach this through [`crate::network::AgentCtx::set_timer`] (which
//! now returns the handle) and [`crate::network::AgentCtx::cancel_timer`];
//! the `tag` passed to [`crate::transport::FlowAgent::on_timer`] still
//! distinguishes timer kinds (RTX vs pacing, say), while the handle carries
//! identity.

use crate::event::{Event, EventId, EventQueue};
use crate::packet::FlowId;
use crate::time::{SimDuration, SimTime};

/// A handle to one armed flow timer. Obtained from
/// [`crate::network::AgentCtx::set_timer`]; remains valid until the timer
/// fires or is cancelled (after which [`TimerService::cancel`] is a no-op
/// returning `false`).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TimerHandle {
    flow: FlowId,
    id: EventId,
}

impl TimerHandle {
    /// The flow this timer belongs to.
    pub fn flow(&self) -> FlowId {
        self.flow
    }
}

/// Per-flow bookkeeping of outstanding timers (see the module docs).
///
/// The service itself does not own the clock or the queue — it borrows the
/// [`EventQueue`] per call, which is what lets the network engine keep both
/// as plain struct fields.
#[derive(Debug, Default)]
pub struct TimerService {
    /// `pending[flow]`: event ids of that flow's armed, un-fired timers.
    /// Flows keep at most a handful outstanding, so a small Vec beats any
    /// map.
    pending: Vec<Vec<EventId>>,
}

impl TimerService {
    /// An empty service.
    pub fn new() -> Self {
        Self::default()
    }

    /// Register bookkeeping for the next flow id. Must be called once per
    /// flow, in flow-id order (the network engine does this in `add_flow`).
    pub fn register_flow(&mut self) {
        self.pending.push(Vec::new());
    }

    /// Reset a flow's bookkeeping for slot reuse (the network engine calls
    /// this when retiring a flow into the free list; a retiring flow has no
    /// armed timers left, so this only releases the slot's scratch).
    pub fn reset_flow(&mut self, flow: FlowId) {
        debug_assert!(
            self.pending[flow].is_empty(),
            "retiring a flow with armed timers"
        );
        self.pending[flow].clear();
    }

    /// Arm a timer: `delay` after `now`, `flow`'s agent receives
    /// [`crate::transport::FlowAgent::on_timer`] with `tag` — unless the
    /// handle is cancelled first. `key` is the timer's event key and must be
    /// unique among armed timers; the network derives it from the flow id
    /// plus a per-sender arm counter, so the timer merges deterministically
    /// for any partition and thread count.
    #[allow(clippy::too_many_arguments)]
    pub fn arm(
        &mut self,
        events: &mut EventQueue,
        now: SimTime,
        key: u64,
        flow: FlowId,
        delay: SimDuration,
        tag: u64,
    ) -> TimerHandle {
        let at = now + delay;
        let id = events.schedule_cancellable_seeded(at, Event::FlowTimer { flow, tag }, key);
        self.pending[flow].push(id);
        TimerHandle { flow, id }
    }

    /// Cancel one armed timer. Returns `true` if it was still pending,
    /// `false` if it already fired or was already cancelled.
    pub fn cancel(&mut self, events: &mut EventQueue, handle: TimerHandle) -> bool {
        if events.cancel(handle.id) {
            self.forget(handle.flow, handle.id);
            true
        } else {
            false
        }
    }

    /// Cancel every outstanding timer of `flow` (flow stop / completion).
    /// Returns how many timers were revoked.
    pub fn cancel_all(&mut self, events: &mut EventQueue, flow: FlowId) -> usize {
        let ids = std::mem::take(&mut self.pending[flow]);
        let mut cancelled = 0;
        for id in ids {
            if events.cancel(id) {
                cancelled += 1;
            }
        }
        cancelled
    }

    /// Record that a timer event was popped for dispatch (the engine calls
    /// this before invoking the agent, so re-arming inside the callback
    /// starts from a clean slate).
    pub fn fired(&mut self, flow: FlowId, id: EventId) {
        self.forget(flow, id);
    }

    /// Number of armed, un-fired timers of `flow`.
    pub fn pending_count(&self, flow: FlowId) -> usize {
        self.pending[flow].len()
    }

    fn forget(&mut self, flow: FlowId, id: EventId) {
        let pending = &mut self.pending[flow];
        if let Some(pos) = pending.iter().position(|&p| p == id) {
            pending.swap_remove(pos);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Arm a timer `us` µs after t = 0, keyed by its tag (unique per test).
    fn arm(
        timers: &mut TimerService,
        events: &mut EventQueue,
        flow: FlowId,
        us: u64,
        tag: u64,
    ) -> TimerHandle {
        let delay = SimDuration::from_micros(us);
        timers.arm(events, SimTime::ZERO, tag, flow, delay, tag)
    }

    fn pop_tags(events: &mut EventQueue, timers: &mut TimerService) -> Vec<(u64, u64)> {
        let mut out = Vec::new();
        while let Some((t, id, event)) = events.pop_entry() {
            match event {
                Event::FlowTimer { flow, tag } => {
                    timers.fired(flow, id);
                    out.push((t.as_nanos(), tag));
                }
                other => panic!("unexpected event {other:?}"),
            }
        }
        out
    }

    #[test]
    fn armed_timers_fire_with_their_tags() {
        let mut events = EventQueue::new();
        let mut timers = TimerService::new();
        timers.register_flow();
        arm(&mut timers, &mut events, 0, 5, 7);
        arm(&mut timers, &mut events, 0, 2, 8);
        assert_eq!(timers.pending_count(0), 2);
        let fired = pop_tags(&mut events, &mut timers);
        assert_eq!(fired, vec![(2_000, 8), (5_000, 7)]);
        assert_eq!(timers.pending_count(0), 0);
    }

    #[test]
    fn cancel_revokes_a_single_timer() {
        let mut events = EventQueue::new();
        let mut timers = TimerService::new();
        timers.register_flow();
        let keep = arm(&mut timers, &mut events, 0, 3, 1);
        let drop = arm(&mut timers, &mut events, 0, 1, 2);
        assert!(timers.cancel(&mut events, drop));
        assert!(
            !timers.cancel(&mut events, drop),
            "double cancel is a no-op"
        );
        assert_eq!(timers.pending_count(0), 1);
        assert_eq!(pop_tags(&mut events, &mut timers), vec![(3_000, 1)]);
        assert!(
            !timers.cancel(&mut events, keep),
            "fired handles cannot be cancelled"
        );
    }

    #[test]
    fn cancel_all_sweeps_a_flow() {
        let mut events = EventQueue::new();
        let mut timers = TimerService::new();
        timers.register_flow();
        timers.register_flow();
        for tag in 0..3 {
            arm(&mut timers, &mut events, 0, tag + 1, tag);
        }
        let other = arm(&mut timers, &mut events, 1, 9, 42);
        assert_eq!(timers.cancel_all(&mut events, 0), 3);
        assert_eq!(timers.pending_count(0), 0);
        assert_eq!(events.len(), 1, "flow 1's timer must survive");
        assert_eq!(pop_tags(&mut events, &mut timers), vec![(9_000, 42)]);
        let _ = other;
        assert_eq!(events.now(), SimTime::from_micros(9));
    }
}
