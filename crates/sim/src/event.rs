//! The deterministic event core at the heart of the simulator.
//!
//! Events are ordered by timestamp; ties are broken by insertion order
//! (FIFO), which makes every simulation run fully deterministic for a given
//! seed and input — a property the convergence measurements rely on.
//!
//! # The timing wheel
//!
//! [`EventQueue`] is a hierarchical timing wheel (Varghese & Lauck), not a
//! binary heap: the workload shape of a packet-level datacenter simulation —
//! dense near-future timestamps (packet serialization every few hundred ns)
//! with heavy schedule/pop churn — is exactly what calendar-queue schedulers
//! were designed for. The layout:
//!
//! * **Levels.** `LEVELS` wheels of `SLOTS` (a power of two) buckets
//!   each. A level-`l` slot spans `SLOTS^l` nanosecond ticks, so level 0
//!   resolves single nanoseconds and the top level reaches the end of the
//!   `u64` clock: every timestamp has a slot, and there is no horizon.
//!   Scheduling picks the level from the magnitude of the delay
//!   (`floor(log2(delta) / log2(SLOTS))`) and the slot from the absolute
//!   timestamp's bits — both O(1).
//! * **Cascading.** When the cursor reaches a higher-level slot whose range
//!   may hide the next event, the slot's events are redistributed one level
//!   down (their remaining delay now fits the finer wheel). Each event
//!   cascades at most `LEVELS − 1` times, so scheduling stays amortized
//!   O(1).
//! * **The front.** Every pending key at or behind the cursor waits in one
//!   deque sorted by `(time, seq)`: the same-timestamp bucket last drained
//!   from the wheel, plus anything scheduled behind the cursor after
//!   [`EventQueue::peek_time`] advanced it (but never behind
//!   [`EventQueue::now`] — scheduling into the past still panics). Pops
//!   read the front and refill it from the wheel only when it is empty.
//! * **SoA payload pools.** [`Event`]s are large (a [`Packet`] rides
//!   inline), and an `enum` slab would pad every timer to packet size. The
//!   payloads are split structure-of-arrays style into two free-listed
//!   pools: a dense arrival pool (`(LinkId, Packet)` — the dominant hot
//!   path) and a compact pool for everything else (timers, transmit
//!   completions, flow starts/stops, link changes — a few words each). The
//!   pool is encoded in the top bit of the payload index, so everything
//!   that moves through wheel slots, cascades and the front is a 24-byte
//!   key `(time, seq, packed pool index)`, and popping a timer no longer
//!   drags a cacheline-spanning union through memory.
//!
//! # Determinism contract: bucket FIFO == seq FIFO
//!
//! Every scheduled event gets a monotonically increasing sequence number,
//! and a same-timestamp bucket is drained into the front in one pass and
//! sorted by that sequence number before dispatch. The observable pop order
//! is therefore lexicographic `(time, seq)` — bit-identical to the
//! binary-heap implementation this replaced, which lives on as the
//! reference model of the differential tests (`tests/heap_reference/`).
//!
//! # Cancellation
//!
//! [`EventQueue::schedule_cancellable`] returns an [`EventId`] that
//! [`EventQueue::cancel`] turns into a tombstone in O(1); cancelled events
//! are dropped when their bucket drains instead of traversing the dispatch
//! path. The cancellation sets are keyed by seq, so a cancellable seq must
//! not repeat while an event with it is pending or tombstoned (see
//! [`EventQueue::schedule_cancellable_seeded`]). Flow timers
//! ([`crate::network::AgentCtx::set_timer`]) build on this, so stopping a
//! flow removes its pending timers.

use crate::hash::FixedHashSet;
use crate::packet::{FlowId, Packet};
use crate::time::SimTime;
use crate::topology::LinkId;
use std::collections::VecDeque;

/// The kinds of events the simulator processes.
#[derive(Debug)]
pub enum Event {
    /// A packet has finished propagating across a link and arrives at the
    /// link's head node (next switch or the destination host).
    Arrival {
        /// The link the packet just traversed.
        link: LinkId,
        /// The packet itself.
        packet: Packet,
    },
    /// A link's wake-up: scheduled at the end of a serialization only when
    /// a packet is waiting behind the one on the wire, so the link can start
    /// on it. An idle link ends its serialization without any event (see
    /// `try_transmit` in [`crate::network`]).
    TransmitComplete {
        /// The link to wake.
        link: LinkId,
    },
    /// A timer owned by a flow's transport agent fired.
    FlowTimer {
        /// The owning flow.
        flow: FlowId,
        /// Agent-chosen tag to distinguish multiple timers.
        tag: u64,
    },
    /// A timer owned by a link controller (e.g. the xWI price updater) fired.
    LinkTimer {
        /// The owning link.
        link: LinkId,
    },
    /// A flow reaches its scheduled start time.
    FlowStart {
        /// The flow to start.
        flow: FlowId,
    },
    /// A flow is forcibly stopped (used by the semi-dynamic scenario's
    /// "stop 100 flows" events).
    FlowStop {
        /// The flow to stop.
        flow: FlowId,
    },
}

// Size budget: an arrival moves by value into the payload pool and out at
// dispatch, and a copy above 128 B compiles to a `memcpy` call (see the
// `Packet` budget in `crate::packet` for the measured cost).
const _: () = assert!(std::mem::size_of::<Event>() <= 120);

/// Identity of a scheduled event: its insertion sequence number, which also
/// serves as the FIFO tie-breaker for equal timestamps. Returned by the
/// `schedule` methods and consumed by [`EventQueue::cancel`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct EventId(u64);

impl EventId {
    /// The raw sequence number (for logs and diagnostics).
    pub fn as_u64(self) -> u64 {
        self.0
    }
}

/// What moves through wheel slots, cascades and the front: the ordering
/// key plus the packed pool index of the payload (see
/// [`POOL_ARRIVAL`]).
#[derive(Clone, Copy)]
struct Key {
    time: u64,
    seq: u64,
    idx: u32,
    cancellable: bool,
}

/// Top bit of [`Key::idx`]: set for the arrival pool, clear for the small
/// pool. The low 31 bits are the index within the pool.
const POOL_ARRIVAL: u32 = 1 << 31;
/// Mask extracting the within-pool index from a packed [`Key::idx`].
const POOL_IDX_MASK: u32 = POOL_ARRIVAL - 1;

/// The non-arrival event payloads, a few words each. Splitting these off
/// from [`Event::Arrival`] (which carries a whole [`Packet`]) keeps the
/// timer/transmit pool entries small and dense.
#[derive(Debug, Clone, Copy)]
enum SmallEvent {
    TransmitComplete { link: LinkId },
    FlowTimer { flow: FlowId, tag: u64 },
    LinkTimer { link: LinkId },
    FlowStart { flow: FlowId },
    FlowStop { flow: FlowId },
}

impl SmallEvent {
    fn into_event(self) -> Event {
        match self {
            SmallEvent::TransmitComplete { link } => Event::TransmitComplete { link },
            SmallEvent::FlowTimer { flow, tag } => Event::FlowTimer { flow, tag },
            SmallEvent::LinkTimer { link } => Event::LinkTimer { link },
            SmallEvent::FlowStart { flow } => Event::FlowStart { flow },
            SmallEvent::FlowStop { flow } => Event::FlowStop { flow },
        }
    }
}

/// log2 of the number of slots per wheel level.
const LEVEL_BITS: u32 = 6;
/// Slots per wheel level.
const SLOTS: usize = 1 << LEVEL_BITS;
/// Bitmask extracting a slot index from a timestamp.
const SLOT_MASK: u64 = (SLOTS - 1) as u64;
/// Number of wheel levels: enough that the top level's slots span the
/// whole `u64` nanosecond clock (`LEVEL_BITS * LEVELS >= 64`).
const LEVELS: usize = 11;

/// A deterministic priority queue of simulation events, implemented as a
/// hierarchical timing wheel (see the module docs for the layout and the
/// determinism contract).
pub struct EventQueue {
    /// `levels[l][s]`: the event keys of slot `s` of wheel level `l`.
    levels: Vec<Vec<Vec<Key>>>,
    /// One occupancy bit per slot, per level (bit `s` set ⇔ slot non-empty).
    occupancy: [u64; LEVELS],
    /// `slot_min[l][s]`: minimum timestamp in that slot (`u64::MAX` when
    /// empty). Maintained on push and slot drain, so the cursor's own slot
    /// — whose lower bound is its actual minimum, not its range start —
    /// never needs scanning.
    slot_min: Vec<[u64; SLOTS]>,
    /// Total keys across all wheel levels (excludes the front).
    wheel_count: usize,
    /// Arrival payloads (the hot path), written at schedule time and taken
    /// at pop time. Indexed by `Key::idx & POOL_IDX_MASK` when the
    /// `POOL_ARRIVAL` bit is set.
    arrivals: Vec<Option<(LinkId, Packet)>>,
    /// Free arrival-pool indices.
    arrivals_free: Vec<u32>,
    /// All other payloads (timers, transmit completions, flow/link control),
    /// each a few words. Indexed by `Key::idx` when `POOL_ARRIVAL` is clear.
    small: Vec<Option<SmallEvent>>,
    /// Free small-pool indices.
    small_free: Vec<u32>,
    /// Every pending key at or behind the cursor (`now <= time <=
    /// cursor`), sorted by `(time, seq)`: the bucket last drained from the
    /// wheel plus whatever was scheduled behind the cursor. Always popped
    /// before the wheel.
    front: VecDeque<Key>,
    /// Sequence numbers of cancellable events that are still pending (not
    /// fired, not cancelled) — what makes [`Self::cancel`] O(1).
    cancellable_pending: FixedHashSet<u64>,
    /// Sequence numbers of cancelled-but-not-yet-drained events.
    cancelled: FixedHashSet<u64>,
    /// Scratch buffer reused by cascades (avoids per-cascade allocation).
    scratch: Vec<Key>,
    /// Wheel cursor: `now <= cursor <=` the earliest pending wheel event.
    cursor: u64,
    /// Timestamp of the last popped event (the public clock).
    now: u64,
    next_seq: u64,
    /// Pending (scheduled − popped − cancelled) events.
    live: usize,
}

impl Default for EventQueue {
    fn default() -> Self {
        Self::new()
    }
}

impl EventQueue {
    /// An empty queue at time zero.
    pub fn new() -> Self {
        Self {
            levels: (0..LEVELS)
                .map(|_| (0..SLOTS).map(|_| Vec::new()).collect())
                .collect(),
            occupancy: [0; LEVELS],
            slot_min: vec![[u64::MAX; SLOTS]; LEVELS],
            wheel_count: 0,
            arrivals: Vec::new(),
            arrivals_free: Vec::new(),
            small: Vec::new(),
            small_free: Vec::new(),
            front: VecDeque::new(),
            cancellable_pending: FixedHashSet::default(),
            cancelled: FixedHashSet::default(),
            scratch: Vec::new(),
            cursor: 0,
            now: 0,
            next_seq: 0,
            live: 0,
        }
    }

    /// The current simulation time (the timestamp of the last popped event).
    pub fn now(&self) -> SimTime {
        SimTime::from_nanos(self.now)
    }

    /// Remove every pending event and rewind the clock to zero, retaining
    /// every internal allocation (wheel slots, payload pools, free lists,
    /// front) at peak capacity. This is what lets one queue be reused across
    /// sweep cells or repartitions with zero steady-state allocation —
    /// before this existed, callers dropped the queue and re-grew a fresh
    /// one from empty every cell.
    pub fn reset(&mut self) {
        for level in &mut self.levels {
            for slot in level {
                slot.clear();
            }
        }
        self.occupancy = [0; LEVELS];
        for sm in &mut self.slot_min {
            *sm = [u64::MAX; SLOTS];
        }
        self.wheel_count = 0;
        self.arrivals.clear();
        self.arrivals_free.clear();
        self.small.clear();
        self.small_free.clear();
        self.front.clear();
        self.cancellable_pending.clear();
        self.cancelled.clear();
        self.scratch.clear();
        self.cursor = 0;
        self.now = 0;
        self.next_seq = 0;
        self.live = 0;
    }

    /// `(arrival pool entries, small pool entries)` currently allocated —
    /// the memory footprint of the payload stores, free or live, for the
    /// bounded-memory regression tests.
    #[cfg(test)]
    fn debug_pool_sizes(&self) -> (usize, usize) {
        (self.arrivals.len(), self.small.len())
    }

    /// Park `event` in its pool and return the packed index.
    fn store_payload(&mut self, event: Event) -> u32 {
        match event {
            Event::Arrival { link, packet } => {
                let idx = match self.arrivals_free.pop() {
                    Some(idx) => {
                        self.arrivals[idx as usize] = Some((link, packet));
                        idx
                    }
                    None => {
                        let idx = u32::try_from(self.arrivals.len())
                            .expect("more than 2^31 pending arrivals");
                        assert!(idx < POOL_ARRIVAL, "more than 2^31 pending arrivals");
                        self.arrivals.push(Some((link, packet)));
                        idx
                    }
                };
                idx | POOL_ARRIVAL
            }
            Event::TransmitComplete { link } => {
                self.store_small(SmallEvent::TransmitComplete { link })
            }
            Event::FlowTimer { flow, tag } => self.store_small(SmallEvent::FlowTimer { flow, tag }),
            Event::LinkTimer { link } => self.store_small(SmallEvent::LinkTimer { link }),
            Event::FlowStart { flow } => self.store_small(SmallEvent::FlowStart { flow }),
            Event::FlowStop { flow } => self.store_small(SmallEvent::FlowStop { flow }),
        }
    }

    fn store_small(&mut self, ev: SmallEvent) -> u32 {
        match self.small_free.pop() {
            Some(idx) => {
                self.small[idx as usize] = Some(ev);
                idx
            }
            None => {
                let idx = u32::try_from(self.small.len()).expect("more than 2^31 pending events");
                assert!(idx < POOL_ARRIVAL, "more than 2^31 pending events");
                self.small.push(Some(ev));
                idx
            }
        }
    }

    /// Take the payload behind a packed index out of its pool, freeing the
    /// slot.
    fn take_payload(&mut self, idx: u32) -> Event {
        if idx & POOL_ARRIVAL != 0 {
            let i = (idx & POOL_IDX_MASK) as usize;
            let (link, packet) = self.arrivals[i].take().expect("pending key has a payload");
            self.arrivals_free.push(idx & POOL_IDX_MASK);
            Event::Arrival { link, packet }
        } else {
            let ev = self.small[idx as usize]
                .take()
                .expect("pending key has a payload");
            self.small_free.push(idx);
            ev.into_event()
        }
    }

    /// Free the pool slot behind a packed index without materializing the
    /// event (cancelled tombstones).
    fn drop_payload(&mut self, idx: u32) {
        if idx & POOL_ARRIVAL != 0 {
            let i = (idx & POOL_IDX_MASK) as usize;
            self.arrivals[i] = None;
            self.arrivals_free.push(idx & POOL_IDX_MASK);
        } else {
            self.small[idx as usize] = None;
            self.small_free.push(idx);
        }
    }

    /// Whether the pool slot behind a packed index holds a payload
    /// (diagnostics only).
    fn payload_exists(&self, idx: u32) -> bool {
        if idx & POOL_ARRIVAL != 0 {
            self.arrivals[(idx & POOL_IDX_MASK) as usize].is_some()
        } else {
            self.small[idx as usize].is_some()
        }
    }

    /// Schedule `event` at absolute time `at`. Returns the event's identity
    /// (mostly useful for diagnostics; see [`Self::schedule_cancellable`]
    /// for events that may be cancelled later).
    ///
    /// # Panics
    /// Panics if `at` is in the past (before the last popped event).
    pub fn schedule(&mut self, at: SimTime, event: Event) -> EventId {
        self.schedule_entry(at, event, false)
    }

    /// Schedule `event` at absolute time `at`, opting into O(1)
    /// cancellation via [`Self::cancel`]. Cancellable events pay one hash
    /// insertion; plain [`Self::schedule`] stays hash-free.
    ///
    /// # Panics
    /// Panics if `at` is in the past (before the last popped event).
    pub fn schedule_cancellable(&mut self, at: SimTime, event: Event) -> EventId {
        self.schedule_entry(at, event, true)
    }

    /// Schedule `event` at `at` under an externally allocated sequence
    /// number — the only way a `Network` schedules. Its keys are derived
    /// from event content and shared by every partition's wheel, so the
    /// cross-partition merge order `(time, seq)` is identical to the
    /// single-queue pop order. Equal keys pop in schedule order when they
    /// share a slot (scheduled under one cursor position) or the front
    /// (scheduled behind the cursor); equal keys scheduled into the wheel
    /// under different cursor positions may land on different levels, and
    /// the finer level drains first. The queue's own counter is untouched
    /// — do not mix seeded and unseeded scheduling on one queue.
    ///
    /// # Panics
    /// Panics if `at` is in the past (before the last popped event).
    pub fn schedule_seeded(&mut self, at: SimTime, event: Event, seq: u64) -> EventId {
        self.schedule_entry_with_seq(at, event, false, seq)
    }

    /// [`Self::schedule_seeded`] with O(1) cancellation via [`Self::cancel`].
    ///
    /// Contract: `seq` must not repeat while an event scheduled with it is
    /// pending or tombstoned (cancelled but not yet drained). Both states
    /// are recorded by seq alone, so a repeat would let one event's
    /// cancellation reap the other. Debug builds check it.
    ///
    /// # Panics
    /// Panics if `at` is in the past (before the last popped event).
    pub fn schedule_cancellable_seeded(&mut self, at: SimTime, event: Event, seq: u64) -> EventId {
        self.schedule_entry_with_seq(at, event, true, seq)
    }

    fn schedule_entry(&mut self, at: SimTime, event: Event, cancellable: bool) -> EventId {
        let seq = self.next_seq;
        self.next_seq += 1;
        self.schedule_entry_with_seq(at, event, cancellable, seq)
    }

    fn schedule_entry_with_seq(
        &mut self,
        at: SimTime,
        event: Event,
        cancellable: bool,
        seq: u64,
    ) -> EventId {
        let t = at.as_nanos();
        assert!(
            t >= self.now,
            "cannot schedule an event in the past: {at} < {}",
            self.now()
        );
        self.live += 1;
        let idx = self.store_payload(event);
        let key = Key {
            time: t,
            seq,
            idx,
            cancellable,
        };
        if cancellable {
            let fresh = self.cancellable_pending.insert(seq);
            debug_assert!(
                fresh && !self.cancelled.contains(&seq),
                "cancellable seq {seq:#x} repeats a pending or tombstoned event"
            );
        }
        if t < self.cursor || self.front.back().is_some_and(|k| k.time == t) {
            // Behind the cursor (which a peek may have advanced), or joining
            // the bucket being drained. With the queue's own counter at the
            // bucket's time this is a plain append; seeded keys (boundary
            // messages drained at a barrier, inserts after a peek) may sort
            // earlier, so insert at the `(time, seq)`-sorted position —
            // *after* any equal key, so content-keyed duplicates pop in FIFO
            // (schedule) order.
            let pos = self.front.partition_point(|k| (k.time, k.seq) <= (t, seq));
            self.front.insert(pos, key);
        } else {
            self.insert_into_wheel(key);
        }
        EventId(seq)
    }

    /// Cancel a pending event previously scheduled with
    /// [`Self::schedule_cancellable`]. Returns `true` if the event was still
    /// pending (it will never be popped), `false` if it already fired or was
    /// already cancelled.
    ///
    /// Cancelling an id that came from plain [`Self::schedule`] returns
    /// `false` and has no effect.
    pub fn cancel(&mut self, id: EventId) -> bool {
        // `cancellable_pending` membership is exactly "cancellable, not yet
        // fired, not yet cancelled", so this is one hash removal — O(1).
        if !self.cancellable_pending.remove(&id.0) {
            return false;
        }
        self.cancelled.insert(id.0);
        self.live -= 1;
        true
    }

    /// If `key` is a cancelled tombstone, release its payload and return
    /// `true`.
    fn reap_if_cancelled(&mut self, key: &Key) -> bool {
        if key.cancellable && !self.cancelled.is_empty() && self.cancelled.remove(&key.seq) {
            self.drop_payload(key.idx);
            true
        } else {
            false
        }
    }

    /// Pop the next event, advancing the simulation clock to its timestamp.
    pub fn pop(&mut self) -> Option<(SimTime, Event)> {
        self.pop_entry().map(|(t, _, e)| (t, e))
    }

    /// Pop the next event together with its [`EventId`] (used by the network
    /// engine to tie fired timers back to their bookkeeping).
    pub fn pop_entry(&mut self) -> Option<(SimTime, EventId, Event)> {
        let key = self.pop_key()?;
        let event = self.take_payload(key.idx);
        Some((SimTime::from_nanos(key.time), EventId(key.seq), event))
    }

    /// Take the earliest live key off the front (refilling it from the
    /// wheel when empty) and advance the clock to it.
    fn pop_key(&mut self) -> Option<Key> {
        loop {
            let Some(key) = self.front.pop_front() else {
                if !self.refill_front() {
                    return None;
                }
                continue;
            };
            if self.reap_if_cancelled(&key) {
                continue;
            }
            if key.cancellable {
                // Fired: the id is no longer cancellable.
                self.cancellable_pending.remove(&key.seq);
            }
            self.live -= 1;
            self.now = key.time;
            return Some(key);
        }
    }

    /// The timestamp of the next pending event, if any.
    ///
    /// Takes `&mut self` because looking ahead may cascade higher wheel
    /// levels into nearer ones; the observable pop order is unaffected.
    pub fn peek_time(&mut self) -> Option<SimTime> {
        loop {
            // Purge cancelled tombstones so the reported time is that of a
            // live event.
            let Some(&key) = self.front.front() else {
                if !self.refill_front() {
                    return None;
                }
                continue;
            };
            if !self.reap_if_cancelled(&key) {
                return Some(SimTime::from_nanos(key.time));
            }
            self.front.pop_front();
        }
    }

    /// Remove every pending entry, returning `(time, seq, event,
    /// cancellable)` tuples in `(time, seq)` order and leaving the queue
    /// empty with its clock unchanged. Used when a network is re-partitioned
    /// before running: pending events migrate to the new per-partition
    /// wheels with their original sequence numbers.
    pub(crate) fn drain_entries(&mut self) -> Vec<(SimTime, u64, Event, bool)> {
        let saved_now = self.now;
        let mut out = Vec::with_capacity(self.live);
        while let Some(key) = self.pop_key() {
            let event = self.take_payload(key.idx);
            out.push((
                SimTime::from_nanos(key.time),
                key.seq,
                event,
                key.cancellable,
            ));
        }
        self.now = saved_now;
        out
    }

    /// Number of pending events.
    pub fn len(&self) -> usize {
        self.live
    }

    /// Whether there are no pending events.
    pub fn is_empty(&self) -> bool {
        self.live == 0
    }

    /// Check every internal invariant of the wheel (slot residency, bitmap
    /// consistency, revolution bounds, slab/key agreement). Test-only
    /// diagnostic; panics with a description on the first violation.
    #[doc(hidden)]
    pub fn debug_validate(&self) {
        let mut counted = 0usize;
        for level in 0..LEVELS {
            let shift = LEVEL_BITS * level as u32;
            for slot in 0..SLOTS {
                let occupied = self.occupancy[level] & (1 << slot) != 0;
                let keys = &self.levels[level][slot];
                counted += keys.len();
                assert_eq!(
                    occupied,
                    !keys.is_empty(),
                    "level {level} slot {slot}: occupancy bit {occupied} but {} entries",
                    keys.len()
                );
                assert_eq!(
                    self.slot_min[level][slot],
                    keys.iter().map(|k| k.time).min().unwrap_or(u64::MAX),
                    "level {level} slot {slot}: stale slot_min"
                );
                for k in keys {
                    assert!(
                        k.time >= self.cursor,
                        "level {level} slot {slot}: entry t={} seq={} behind cursor {}",
                        k.time,
                        k.seq,
                        self.cursor
                    );
                    assert_eq!(
                        ((k.time >> shift) & SLOT_MASK) as usize,
                        slot,
                        "entry t={} seq={} in wrong slot of level {level}",
                        k.time,
                        k.seq
                    );
                    // The top level's revolution spans the whole clock.
                    let revolution = 1u64.checked_shl(shift + LEVEL_BITS);
                    assert!(
                        revolution.is_none_or(|r| k.time - self.cursor < r),
                        "level {level} slot {slot}: entry t={} seq={} beyond one revolution of cursor {}",
                        k.time,
                        k.seq,
                        self.cursor
                    );
                    assert!(
                        self.payload_exists(k.idx),
                        "key seq={} points at an empty pool slot",
                        k.seq
                    );
                }
            }
        }
        assert_eq!(counted, self.wheel_count, "wheel_count out of sync");
        for k in &self.front {
            assert!(
                self.now <= k.time && k.time <= self.cursor,
                "front entry t={} seq={} outside [now {}, cursor {}]",
                k.time,
                k.seq,
                self.now,
                self.cursor
            );
            assert!(
                self.payload_exists(k.idx),
                "key seq={} points at an empty pool slot",
                k.seq
            );
        }
        for (a, b) in self.front.iter().zip(self.front.iter().skip(1)) {
            assert!(
                (a.time, a.seq) <= (b.time, b.seq),
                "front out of (time, seq) order: (t={},seq={}) before (t={},seq={})",
                a.time,
                a.seq,
                b.time,
                b.seq
            );
        }
    }

    /// Render the full internal state (test-only diagnostic).
    #[doc(hidden)]
    pub fn debug_dump(&self) -> String {
        use std::fmt::Write;
        let mut s = String::new();
        let _ = writeln!(
            s,
            "cursor={} now={} live={}",
            self.cursor, self.now, self.live
        );
        fn fmt<'a>(ks: impl Iterator<Item = &'a Key>) -> String {
            ks.map(|k| format!("(t={},seq={})", k.time, k.seq))
                .collect::<Vec<_>>()
                .join(" ")
        }
        for level in 0..LEVELS {
            for slot in 0..SLOTS {
                if !self.levels[level][slot].is_empty() {
                    let _ = writeln!(
                        s,
                        "  L{level} slot {slot}: {}",
                        fmt(self.levels[level][slot].iter())
                    );
                }
            }
        }
        let _ = writeln!(s, "  front: {}", fmt(self.front.iter()));
        s
    }

    // ---- wheel internals --------------------------------------------------

    fn insert_into_wheel(&mut self, key: Key) {
        debug_assert!(
            key.time >= self.cursor,
            "entry t={} seq={} behind cursor {}",
            key.time,
            key.seq,
            self.cursor
        );
        let delta = key.time - self.cursor;
        let level = if delta == 0 {
            0
        } else {
            ((63 - delta.leading_zeros()) / LEVEL_BITS) as usize
        };
        let slot = ((key.time >> (LEVEL_BITS * level as u32)) & SLOT_MASK) as usize;
        let min = &mut self.slot_min[level][slot];
        if key.time < *min {
            *min = key.time;
        }
        self.levels[level][slot].push(key);
        self.occupancy[level] |= 1 << slot;
        self.wheel_count += 1;
    }

    /// Redistribute one slot of level `l` into finer levels. The cursor must
    /// already be inside the slot's time range, which guarantees every
    /// non-wrapped event strictly descends.
    fn cascade(&mut self, level: usize, slot: usize) {
        let mut scratch = std::mem::take(&mut self.scratch);
        scratch.append(&mut self.levels[level][slot]);
        self.occupancy[level] &= !(1 << slot);
        self.slot_min[level][slot] = u64::MAX;
        self.wheel_count -= scratch.len();
        for key in scratch.drain(..) {
            if self.reap_if_cancelled(&key) {
                continue;
            }
            self.insert_into_wheel(key);
        }
        self.scratch = scratch;
    }

    /// The exact tick of the earliest occupied level-0 slot, if any. Within
    /// the active 64-tick window each level-0 slot holds events of exactly
    /// one timestamp.
    fn level0_first_tick(&self) -> Option<u64> {
        let occ = self.occupancy[0];
        if occ == 0 {
            return None;
        }
        let base = (self.cursor & SLOT_MASK) as u32;
        let distance = occ.rotate_right(base).trailing_zeros() as u64;
        Some(self.cursor + distance)
    }

    /// The `(lower bound, level, slot)` of the earliest-bounded occupied
    /// slot among levels 1.., if any.
    ///
    /// For slots ahead of the cursor the bound is the slot's range start
    /// (exact enough: every event inside is at or after it, and the
    /// delta-within-one-revolution invariant rules out wrapped residents —
    /// among those slots the first in cyclic order has the smallest start).
    /// The cursor's *own* slot is the one place the invariant allows events
    /// from the next wheel revolution, so its bound is its actual minimum
    /// event time — which can exceed the range starts of slots later in the
    /// cycle, so when the own slot is occupied both it and the next occupied
    /// slot are candidates. (Using the range start for the own slot would
    /// cascade a wrapped event back into the very same slot forever.)
    fn higher_first_slot(&self) -> Option<(u64, usize, usize)> {
        let mut best: Option<(u64, usize, usize)> = None;
        let consider = |bound: u64, level: usize, slot: usize, best: &mut Option<_>| {
            if best.is_none_or(|(b, _, _)| bound < b) {
                *best = Some((bound, level, slot));
            }
        };
        for level in 1..LEVELS {
            let occ = self.occupancy[level];
            if occ == 0 {
                continue;
            }
            let shift = LEVEL_BITS * level as u32;
            let base_slot = (self.cursor >> shift) & SLOT_MASK;
            let mut rotated = occ.rotate_right(base_slot as u32);
            if rotated & 1 != 0 {
                let slot = base_slot as usize;
                consider(self.slot_min[level][slot], level, slot, &mut best);
                rotated &= !1;
            }
            if rotated != 0 {
                let distance = rotated.trailing_zeros() as u64;
                let slot = ((base_slot + distance) & SLOT_MASK) as usize;
                // Cannot wrap: wheel keys never sit behind the cursor, so a
                // slot ahead of it starts at or before `u64::MAX`.
                debug_assert!((self.cursor >> shift) + distance <= u64::MAX >> shift);
                let start = ((self.cursor >> shift) + distance) << shift;
                consider(start, level, slot, &mut best);
            }
        }
        best
    }

    /// Refill the empty front with the wheel's next same-timestamp bucket,
    /// sorted by sequence number. Returns `false` when the queue is
    /// exhausted.
    fn refill_front(&mut self) -> bool {
        debug_assert!(self.front.is_empty());
        let mut iterations = 0u64;
        loop {
            // Defensive livelock guard: every iteration either returns,
            // empties a bucket, or strictly lowers an event's level, so
            // legitimate runs stay far below this bound.
            iterations += 1;
            assert!(
                iterations <= 1_000_000,
                "refill_front livelock: cursor={} occupancy={:?} live={}",
                self.cursor,
                self.occupancy,
                self.live
            );
            let tick0 = self.level0_first_tick();
            // A higher-level slot whose bound sits at or before the best
            // level-0 tick may hide an earlier event (or a tie): cascade it
            // and re-evaluate.
            if let Some((bound, level, slot)) = self.higher_first_slot() {
                let reachable = bound.max(self.cursor);
                if tick0.is_none_or(|t| reachable <= t) {
                    self.cursor = reachable;
                    self.cascade(level, slot);
                    continue;
                }
            }
            let Some(tick) = tick0 else {
                // No occupied slot on any level: the wheel is empty.
                debug_assert_eq!(self.wheel_count, 0);
                return false;
            };

            let slot = (tick & SLOT_MASK) as usize;
            self.occupancy[0] &= !(1 << slot);
            self.slot_min[0][slot] = u64::MAX;
            let mut bucket = std::mem::take(&mut self.scratch);
            bucket.append(&mut self.levels[0][slot]);
            self.wheel_count -= bucket.len();
            for key in bucket.drain(..) {
                debug_assert_eq!(key.time, tick);
                if self.reap_if_cancelled(&key) {
                    continue;
                }
                self.front.push_back(key);
            }
            self.scratch = bucket;
            self.cursor = tick;
            if self.front.is_empty() {
                continue; // the whole bucket had been cancelled
            }
            // Bucket FIFO == seq FIFO: direct inserts and cascades may have
            // interleaved, so restore the heap's (time, seq) order within
            // the same-timestamp bucket. Nearly always already sorted. The
            // sort must be *stable*: seeded (content-derived) keys may
            // repeat, and equal keys keep the order they reached the bucket
            // in.
            self.front.make_contiguous().sort_by_key(|k| k.seq);
            return true;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn start(flow: FlowId) -> Event {
        Event::FlowStart { flow }
    }

    fn popped_flows(q: &mut EventQueue) -> Vec<(u64, FlowId)> {
        std::iter::from_fn(|| q.pop())
            .map(|(t, e)| match e {
                Event::FlowStart { flow } => (t.as_nanos(), flow),
                other => panic!("unexpected event {other:?}"),
            })
            .collect()
    }

    #[test]
    fn pops_in_time_order() {
        let mut q = EventQueue::new();
        q.schedule(SimTime::from_micros(30), start(3));
        q.schedule(SimTime::from_micros(10), start(1));
        q.schedule(SimTime::from_micros(20), start(2));
        let order: Vec<u64> = std::iter::from_fn(|| q.pop())
            .map(|(t, _)| t.as_nanos() / 1000)
            .collect();
        assert_eq!(order, vec![10, 20, 30]);
    }

    #[test]
    fn ties_break_in_insertion_order() {
        let mut q = EventQueue::new();
        let t = SimTime::from_micros(5);
        for flow in 0..10 {
            q.schedule(t, start(flow));
        }
        let mut flows = Vec::new();
        while let Some((_, Event::FlowStart { flow })) = q.pop() {
            flows.push(flow);
        }
        assert_eq!(flows, (0..10).collect::<Vec<_>>());
    }

    #[test]
    fn ties_across_wheel_levels_still_pop_in_seq_order() {
        // Event 0 lands on wheel level 1 (delta 1000 ns) and stays there
        // while the cursor advances past 936 ns via two level-0 pops. Event
        // 3 then schedules at the same 1000 ns timestamp with delta < 64,
        // going straight into the level-0 bucket — *before* event 0 cascades
        // into it. The drain must still pop seq 0 first.
        let mut q = EventQueue::new();
        q.schedule(SimTime::from_nanos(1000), start(0));
        q.schedule(SimTime::from_nanos(900), start(1));
        q.schedule(SimTime::from_nanos(950), start(2));
        assert_eq!(q.pop().map(|(t, _)| t.as_nanos()), Some(900));
        assert_eq!(q.pop().map(|(t, _)| t.as_nanos()), Some(950));
        q.schedule(SimTime::from_nanos(1000), start(3));
        assert_eq!(popped_flows(&mut q), vec![(1000, 0), (1000, 3)]);
    }

    #[test]
    fn clock_advances_with_pops() {
        let mut q = EventQueue::new();
        q.schedule(SimTime::from_micros(7), start(0));
        assert_eq!(q.now(), SimTime::ZERO);
        assert_eq!(q.peek_time(), Some(SimTime::from_micros(7)));
        q.pop();
        assert_eq!(q.now(), SimTime::from_micros(7));
        assert!(q.is_empty());
        assert_eq!(q.len(), 0);
    }

    #[test]
    #[should_panic]
    fn scheduling_in_the_past_panics() {
        let mut q = EventQueue::new();
        q.schedule(SimTime::from_micros(10), start(0));
        q.pop();
        q.schedule(SimTime::from_micros(5), start(1));
    }

    #[test]
    fn peek_then_earlier_schedule_pops_in_order() {
        // Peeking may advance the wheel cursor; an event scheduled behind
        // the cursor afterwards (the add-flow-between-runs pattern) must
        // still pop first.
        let mut q = EventQueue::new();
        q.schedule(SimTime::from_millis(5), start(0));
        assert_eq!(q.peek_time(), Some(SimTime::from_millis(5)));
        q.schedule(SimTime::from_millis(1), start(1));
        q.schedule(SimTime::from_millis(2), start(2));
        assert_eq!(q.peek_time(), Some(SimTime::from_millis(1)));
        assert_eq!(
            popped_flows(&mut q),
            vec![(1_000_000, 1), (2_000_000, 2), (5_000_000, 0)]
        );
    }

    #[test]
    fn far_future_events_cascade_down_from_the_top_levels() {
        // 100 s and 200 s (~2^36.5 and ~2^37.5 ns) sit on level 6; both
        // must cascade level by level into the near wheels in (time, seq)
        // order, interleaved with near events.
        let mut q = EventQueue::new();
        let far_a = SimTime::from_secs_f64(100.0);
        let far_b = SimTime::from_secs_f64(200.0);
        q.schedule(far_b, start(0));
        q.schedule(far_a, start(1));
        q.schedule(far_a, start(2)); // tie inside one top-level slot
        q.schedule(SimTime::from_micros(3), start(3));
        assert_eq!(q.len(), 4);
        assert_eq!(q.pop().map(|(t, _)| t), Some(SimTime::from_micros(3)));
        q.schedule(SimTime::from_secs_f64(99.0), start(4));
        assert_eq!(
            popped_flows(&mut q),
            vec![
                (99_000_000_000, 4),
                (100_000_000_000, 1),
                (100_000_000_000, 2),
                (200_000_000_000, 0),
            ]
        );
    }

    #[test]
    fn an_event_at_the_end_of_the_clock_pops_last() {
        // u64::MAX ns lands on the top level (10); it must wait there while
        // near and 100 s events drain, then cascade all the way down.
        let mut q = EventQueue::new();
        let end = SimTime::from_nanos(u64::MAX);
        q.schedule(end, start(0));
        q.schedule(SimTime::from_secs_f64(100.0), start(1));
        q.schedule(SimTime::from_nanos(5), start(2));
        q.schedule(end, start(3));
        q.debug_validate();
        assert_eq!(q.peek_time(), Some(SimTime::from_nanos(5)));
        assert_eq!(q.pop().map(|(t, _)| t.as_nanos()), Some(5));
        q.schedule(SimTime::from_micros(1), start(4));
        assert_eq!(
            popped_flows(&mut q),
            vec![
                (1_000, 4),
                (100_000_000_000, 1),
                (u64::MAX, 0),
                (u64::MAX, 3)
            ]
        );
        assert_eq!(q.now(), end);
        q.debug_validate();
    }

    #[test]
    fn seeded_duplicates_behind_the_cursor_pop_in_schedule_order() {
        // A peek drains the 5 ms bucket into the front and moves the cursor
        // there. Two later schedules behind it share one content key; a
        // third joins the peeked instant with a smaller key. The duplicates
        // pop in schedule order, and all three ahead of the peeked event.
        let mut q = EventQueue::new();
        let peeked = SimTime::from_millis(5);
        q.schedule_seeded(peeked, start(0), 10);
        assert_eq!(q.peek_time(), Some(peeked));
        q.schedule_seeded(SimTime::from_millis(1), start(1), 7);
        q.schedule_seeded(SimTime::from_millis(1), start(2), 7);
        q.schedule_seeded(peeked, start(3), 3);
        q.debug_validate();
        assert_eq!(q.peek_time(), Some(SimTime::from_millis(1)));
        assert_eq!(
            popped_flows(&mut q),
            vec![
                (1_000_000, 1),
                (1_000_000, 2),
                (5_000_000, 3),
                (5_000_000, 0)
            ]
        );
    }

    #[test]
    fn wrapped_residents_of_the_cursor_slot_do_not_mask_other_slots() {
        // Regression for the hashed-wheel wrap bug: park the cursor at the
        // very end of its own level-1 slot range, leave a next-revolution
        // event in that slot, and schedule an earlier event that maps to a
        // *different* slot. The earlier event must still pop first.
        let mut q = EventQueue::new();
        // Cursor to 2111 (the last tick of level-1 slot [2048, 2112)).
        q.schedule(SimTime::from_nanos(2111), start(0));
        q.pop();
        // 6200 ∈ [2048, 2112) + 4096 → wraps into the cursor's own slot.
        q.schedule(SimTime::from_nanos(6200), start(1));
        // 4300 maps elsewhere and precedes 6200.
        q.schedule(SimTime::from_nanos(4300), start(2));
        assert_eq!(popped_flows(&mut q), vec![(4300, 2), (6200, 1)]);
    }

    #[test]
    fn cancellation_removes_pending_events() {
        let mut q = EventQueue::new();
        let a = q.schedule_cancellable(SimTime::from_micros(10), start(0));
        let b = q.schedule_cancellable(SimTime::from_micros(10), start(1));
        let c = q.schedule_cancellable(SimTime::from_micros(20), start(2));
        assert_eq!(q.len(), 3);
        assert!(q.cancel(b));
        assert!(!q.cancel(b), "double-cancel must be a no-op");
        assert_eq!(q.len(), 2);
        assert_eq!(popped_flows(&mut q), vec![(10_000, 0), (20_000, 2)]);
        assert!(!q.cancel(a), "fired events cannot be cancelled");
        assert!(!q.cancel(c));
        assert!(q.is_empty());
    }

    #[test]
    fn plain_events_are_not_cancellable() {
        let mut q = EventQueue::new();
        let id = q.schedule(SimTime::from_micros(5), start(0));
        assert!(!q.cancel(id));
        assert_eq!(q.len(), 1);
        assert_eq!(popped_flows(&mut q), vec![(5_000, 0)]);
    }

    #[test]
    fn cancelling_the_whole_bucket_skips_to_the_next_time() {
        let mut q = EventQueue::new();
        let ids: Vec<_> = (0..4)
            .map(|f| q.schedule_cancellable(SimTime::from_micros(10), start(f)))
            .collect();
        q.schedule(SimTime::from_micros(30), start(9));
        for id in ids {
            assert!(q.cancel(id));
        }
        assert_eq!(q.peek_time(), Some(SimTime::from_micros(30)));
        assert_eq!(popped_flows(&mut q), vec![(30_000, 9)]);
    }

    #[test]
    fn slab_slots_are_recycled() {
        let mut q = EventQueue::new();
        for round in 0..100u64 {
            let at = SimTime::from_nanos(round * 1000);
            q.schedule(at, start(0));
            q.schedule(at, start(1));
            q.pop();
            q.pop();
        }
        assert!(q.is_empty());
        q.debug_validate();
    }

    /// On a long schedule/cancel/pop churn the SoA pools must stay sized to
    /// the peak *live* population, not the total event count — a free-list
    /// leak would grow them monotonically.
    #[test]
    fn payload_pools_stay_bounded_under_churn() {
        let mut q = EventQueue::new();
        let mut rng: u64 = 0x9E37_79B9_7F4A_7C15;
        let mut step = move || {
            rng = rng
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            rng >> 33
        };
        let route =
            crate::routes::RouteTable::new().intern(crate::topology::Route::from_links(vec![0]));
        let mut live_peak = 0usize;
        for round in 0..2000u64 {
            let base = q.now().as_nanos();
            let mut cancellable = Vec::new();
            for i in 0..8 {
                let at = SimTime::from_nanos(base + 1 + (step() % 5000));
                if i % 2 == 0 {
                    cancellable.push(q.schedule_cancellable(at, start(i)));
                } else {
                    q.schedule(
                        at,
                        Event::Arrival {
                            link: 3,
                            packet: crate::packet::Packet::data(
                                0,
                                0,
                                1000,
                                route,
                                Default::default(),
                            ),
                        },
                    );
                }
            }
            live_peak = live_peak.max(q.len());
            for id in cancellable {
                if step() % 2 == 0 {
                    q.cancel(id);
                }
            }
            // Drain roughly half the backlog each round.
            for _ in 0..5 {
                q.pop();
            }
            if round % 100 == 0 {
                let (arrivals, small) = q.debug_pool_sizes();
                let bound = 2 * live_peak + 16;
                assert!(
                    arrivals + small <= bound,
                    "pools grew to {arrivals}+{small} (live peak {live_peak})"
                );
            }
        }
        while q.pop().is_some() {}
        let (arrivals, small) = q.debug_pool_sizes();
        assert!(arrivals + small <= 2 * live_peak + 16);
        q.debug_validate();
    }

    /// `reset()` rewinds a queue for reuse (the arena-per-simulation story):
    /// pending events vanish, the clock rewinds, and repeated
    /// fill/reset cycles never grow the pools past one cycle's footprint.
    #[test]
    fn reset_rewinds_and_keeps_memory_bounded() {
        let mut q = EventQueue::new();
        let mut footprint_after_first = None;
        for _cycle in 0..50 {
            for i in 0..64 {
                q.schedule(SimTime::from_nanos(100 + i as u64 * 37), start(i));
            }
            for _ in 0..20 {
                q.pop();
            }
            q.reset();
            assert!(q.is_empty());
            assert_eq!(q.len(), 0);
            assert_eq!(q.now(), SimTime::ZERO);
            assert_eq!(q.peek_time(), None);
            let fp = q.debug_pool_sizes();
            match footprint_after_first {
                None => footprint_after_first = Some(fp),
                Some(first) => assert_eq!(fp, first, "reset cycles must not grow the pools"),
            }
            // The rewound clock accepts early timestamps again.
            q.schedule(SimTime::from_nanos(1), start(0));
            assert_eq!(q.pop().map(|(t, _)| t.as_nanos()), Some(1));
            q.reset();
        }
    }
}
