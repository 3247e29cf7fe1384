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
//! * **Levels.** Level 0 is `L0_SLOTS` (4096) one-nanosecond slots: every
//!   key due within 4096 ns of the cursor goes straight to the slot of its
//!   own timestamp, so each level-0 slot holds keys of exactly one
//!   timestamp. That covers every hop of a packet (a serialization plus a
//!   propagation delay, 2–3.2 µs at the paper's speeds) and every link
//!   wake-up. The `LEVELS − 1` levels above have `SLOTS` (64) slots each,
//!   a level-`l` slot spanning `2^(12 + 6(l − 1))` ns, so the top level
//!   reaches the end of the `u64` clock: every timestamp has a slot, and
//!   there is no horizon. Scheduling picks the level from the magnitude of
//!   the delay and the slot from the absolute timestamp's bits — both O(1).
//! * **Level-0 storage.** A level-0 slot is a singly linked list threaded
//!   through one key arena (a `u32` head per slot; freed nodes go on a LIFO
//!   free list), found through a two-level occupancy bitmap: 64 words of
//!   slot bits plus one summary word of non-empty words. The first occupied
//!   slot after the cursor is two `trailing_zeros` away.
//! * **Cascading.** When the cursor reaches a higher-level slot whose range
//!   may hide the next event, the slot's keys are redistributed to finer
//!   levels (their remaining delay now fits them); the slot's buffer is
//!   swapped out whole, not copied. Each key cascades at most `LEVELS − 1`
//!   times, so scheduling stays amortized O(1), and only keys due more
//!   than 4096 ns ahead (timers, flow starts) cascade at all.
//! * **The front.** Every pending key at or behind the cursor waits in one
//!   `Vec` sorted by `(time, seq)` and read through an index: the
//!   same-timestamp bucket last drained from the wheel, plus anything
//!   scheduled behind the cursor after [`EventQueue::peek_time`] advanced
//!   it (but never behind [`EventQueue::now`] — scheduling into the past
//!   still panics). Pops read the front and refill it from the wheel only
//!   when it is exhausted; a refill walks one level-0 list straight into
//!   it.
//! * **SoA payload pools.** [`Event`]s are large (a [`Packet`] rides
//!   inline), and an `enum` slab would pad every timer to packet size. The
//!   payloads are split structure-of-arrays style into two free-listed
//!   pools: a dense arrival pool (`(LinkId, Packet)` — the dominant hot
//!   path) and a compact pool for everything else (timers, transmit
//!   completions, flow starts/stops, link changes — a few words each). The
//!   pool is encoded in the top bit of the payload index, so everything
//!   that moves through the level-0 arena, higher-level slots, cascades
//!   and the front is a 24-byte key `(time, seq, packed pool index)`, and
//!   popping a timer no longer drags a cacheline-spanning union through
//!   memory.
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

/// log2 of the number of level-0 slots.
const L0_BITS: u32 = 12;
/// Level-0 slots, one nanosecond each: the level-0 window is `[cursor,
/// cursor + L0_SLOTS)`.
const L0_SLOTS: usize = 1 << L0_BITS;
/// Bitmask extracting a level-0 slot index from a timestamp.
const L0_MASK: u64 = (L0_SLOTS - 1) as u64;
/// log2 of the number of slots per higher wheel level.
const LEVEL_BITS: u32 = 6;
/// Slots per higher wheel level.
const SLOTS: usize = 1 << LEVEL_BITS;
/// Bitmask extracting a slot index from a timestamp.
const SLOT_MASK: u64 = (SLOTS - 1) as u64;
/// Number of wheel levels: level 0 plus enough higher levels that the top
/// level's slots span the whole `u64` nanosecond clock (`L0_BITS +
/// LEVEL_BITS * (LEVELS - 1) >= 64`).
const LEVELS: usize = 10;
/// 64-bit level-0 occupancy words; one summary word covers them all.
const L0_WORDS: usize = L0_SLOTS / 64;
const _: () = assert!(L0_WORDS <= 64);
/// The end of a level-0 list (and of the arena's free list).
const NIL: u32 = u32::MAX;

/// The bit position where level `level >= 1`'s slot index starts.
const fn level_shift(level: usize) -> u32 {
    L0_BITS + LEVEL_BITS * (level as u32 - 1)
}

/// Index of higher-level slot `(level, slot)` in the flat per-slot arrays.
const fn higher_index(level: usize, slot: usize) -> usize {
    (level - 1) * SLOTS + slot
}

/// A level-0 list node in the key arena.
#[derive(Clone, Copy)]
struct Node {
    key: Key,
    /// The next node of the same slot's list (or of the free list).
    next: u32,
}

/// A deterministic priority queue of simulation events, implemented as a
/// hierarchical timing wheel (see the module docs for the layout and the
/// determinism contract).
pub struct EventQueue {
    /// `l0_head[s]`: the arena index of the first key of level-0 slot `s`,
    /// or `NIL`. A list runs newest key first.
    l0_head: Vec<u32>,
    /// Level-0 occupancy: bit `b` of word `w` set ⇔ slot `64w + b` is
    /// non-empty.
    l0_words: [u64; L0_WORDS],
    /// Bit `w` set ⇔ `l0_words[w]` is non-zero.
    l0_summary: u64,
    /// The level-0 key arena: list nodes, live or on the free list.
    nodes: Vec<Node>,
    /// Head of the arena's LIFO free list, threaded through `Node::next`.
    free_node: u32,
    /// `levels[higher_index(l, s)]`: the keys of slot `s` of level `l >= 1`.
    levels: Vec<Vec<Key>>,
    /// One occupancy bit per slot, per level `>= 1` (bit `s` set ⇔ slot
    /// non-empty); entry 0 stays zero.
    occupancy: [u64; LEVELS],
    /// `slot_min[higher_index(l, s)]`: minimum timestamp in that slot
    /// (`u64::MAX` when empty). Maintained on push and slot drain, so the
    /// cursor's own slot — whose lower bound is its actual minimum, not its
    /// range start — never needs scanning.
    slot_min: Vec<u64>,
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
    /// cursor`), from `front_read` on, sorted by `(time, seq)`: the bucket
    /// last drained from the wheel plus whatever was scheduled behind the
    /// cursor. Always popped before the wheel; entries before `front_read`
    /// were popped already and go at the next refill.
    front: Vec<Key>,
    /// Index of the front's next key.
    front_read: usize,
    /// Sequence numbers of cancellable events that are still pending (not
    /// fired, not cancelled) — what makes [`Self::cancel`] O(1).
    cancellable_pending: FixedHashSet<u64>,
    /// Sequence numbers of cancelled-but-not-yet-drained events.
    cancelled: FixedHashSet<u64>,
    /// The spare slot buffer a cascade swaps in for the slot it empties.
    scratch: Vec<Key>,
    /// Wheel cursor: `now <= cursor <=` the earliest pending wheel event.
    cursor: u64,
    /// Timestamp of the last popped event (the public clock).
    now: u64,
    next_seq: u64,
    /// Pending (scheduled − popped − cancelled) events.
    live: usize,
    /// Keys a cascade has moved to a finer level, over the queue's life.
    #[cfg(test)]
    cascaded: u64,
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
            l0_head: vec![NIL; L0_SLOTS],
            l0_words: [0; L0_WORDS],
            l0_summary: 0,
            nodes: Vec::new(),
            free_node: NIL,
            levels: (0..(LEVELS - 1) * SLOTS).map(|_| Vec::new()).collect(),
            occupancy: [0; LEVELS],
            slot_min: vec![u64::MAX; (LEVELS - 1) * SLOTS],
            wheel_count: 0,
            arrivals: Vec::new(),
            arrivals_free: Vec::new(),
            small: Vec::new(),
            small_free: Vec::new(),
            front: Vec::new(),
            front_read: 0,
            cancellable_pending: FixedHashSet::default(),
            cancelled: FixedHashSet::default(),
            scratch: Vec::new(),
            cursor: 0,
            now: 0,
            next_seq: 0,
            live: 0,
            #[cfg(test)]
            cascaded: 0,
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
        self.l0_head.fill(NIL);
        self.l0_words = [0; L0_WORDS];
        self.l0_summary = 0;
        self.nodes.clear();
        self.free_node = NIL;
        for slot in &mut self.levels {
            slot.clear();
        }
        self.occupancy = [0; LEVELS];
        self.slot_min.fill(u64::MAX);
        self.wheel_count = 0;
        self.arrivals.clear();
        self.arrivals_free.clear();
        self.small.clear();
        self.small_free.clear();
        self.front.clear();
        self.front_read = 0;
        self.cancellable_pending.clear();
        self.cancelled.clear();
        self.scratch.clear();
        self.cursor = 0;
        self.now = 0;
        self.next_seq = 0;
        self.live = 0;
    }

    /// `(arrival pool entries, small pool entries, key arena nodes)`
    /// currently allocated — the memory footprint of the payload stores and
    /// the level-0 arena, free or live, for the bounded-memory regression
    /// tests.
    #[cfg(test)]
    fn debug_pool_sizes(&self) -> (usize, usize, usize) {
        (self.arrivals.len(), self.small.len(), self.nodes.len())
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
        let pending = &self.front[self.front_read..];
        if t < self.cursor || pending.last().is_some_and(|k| k.time == t) {
            // Behind the cursor (which a peek may have advanced), or joining
            // the bucket being drained. With the queue's own counter at the
            // bucket's time this is a plain append; seeded keys (boundary
            // messages drained at a barrier, inserts after a peek) may sort
            // earlier, so insert at the `(time, seq)`-sorted position —
            // *after* any equal key, so content-keyed duplicates pop in FIFO
            // (schedule) order.
            let pos = pending.partition_point(|k| (k.time, k.seq) <= (t, seq));
            self.front.insert(self.front_read + pos, key);
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
    /// wheel when exhausted) and advance the clock to it.
    fn pop_key(&mut self) -> Option<Key> {
        loop {
            let Some(&key) = self.front.get(self.front_read) else {
                if !self.refill_front() {
                    return None;
                }
                continue;
            };
            self.front_read += 1;
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
            let Some(&key) = self.front.get(self.front_read) else {
                if !self.refill_front() {
                    return None;
                }
                continue;
            };
            if !self.reap_if_cancelled(&key) {
                return Some(SimTime::from_nanos(key.time));
            }
            self.front_read += 1;
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
    /// consistency, revolution bounds, arena and slab/key agreement).
    /// Test-only diagnostic; panics with a description on the first
    /// violation.
    #[doc(hidden)]
    pub fn debug_validate(&self) {
        let check_payload = |k: &Key| {
            assert!(
                self.payload_exists(k.idx),
                "key seq={} points at an empty pool slot",
                k.seq
            );
        };
        let mut counted = 0usize;
        let mut listed_nodes = 0usize;
        for slot in 0..L0_SLOTS {
            let occupied = self.l0_words[slot / 64] & (1 << (slot % 64)) != 0;
            assert_eq!(
                occupied,
                self.l0_head[slot] != NIL,
                "level 0 slot {slot}: occupancy bit {occupied} but head {}",
                self.l0_head[slot]
            );
            for k in self.level0_keys(slot) {
                counted += 1;
                listed_nodes += 1;
                assert!(
                    k.time >= self.cursor && k.time - self.cursor < L0_SLOTS as u64,
                    "level 0 slot {slot}: entry t={} seq={} outside [cursor {}, cursor + {L0_SLOTS})",
                    k.time,
                    k.seq,
                    self.cursor
                );
                assert_eq!(
                    (k.time & L0_MASK) as usize,
                    slot,
                    "entry t={} seq={} in wrong slot of level 0",
                    k.time,
                    k.seq
                );
                check_payload(k);
            }
        }
        for (w, &word) in self.l0_words.iter().enumerate() {
            assert_eq!(
                self.l0_summary & (1 << w) != 0,
                word != 0,
                "level 0 summary bit {w} disagrees with occupancy word {word:#x}"
            );
        }
        let mut free_nodes = 0usize;
        let mut i = self.free_node;
        while i != NIL {
            free_nodes += 1;
            assert!(free_nodes <= self.nodes.len(), "free list cycles");
            i = self.nodes[i as usize].next;
        }
        assert_eq!(
            listed_nodes + free_nodes,
            self.nodes.len(),
            "key arena leaks: {listed_nodes} listed + {free_nodes} free nodes of {}",
            self.nodes.len()
        );
        for level in 1..LEVELS {
            let shift = level_shift(level);
            for slot in 0..SLOTS {
                let occupied = self.occupancy[level] & (1 << slot) != 0;
                let keys = &self.levels[higher_index(level, slot)];
                counted += keys.len();
                assert_eq!(
                    occupied,
                    !keys.is_empty(),
                    "level {level} slot {slot}: occupancy bit {occupied} but {} entries",
                    keys.len()
                );
                assert_eq!(
                    self.slot_min[higher_index(level, slot)],
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
                    check_payload(k);
                }
            }
        }
        assert_eq!(self.occupancy[0], 0, "level 0 lives in the bitmap");
        assert_eq!(counted, self.wheel_count, "wheel_count out of sync");
        let pending = &self.front[self.front_read..];
        for k in pending {
            assert!(
                self.now <= k.time && k.time <= self.cursor,
                "front entry t={} seq={} outside [now {}, cursor {}]",
                k.time,
                k.seq,
                self.now,
                self.cursor
            );
            check_payload(k);
        }
        for (a, b) in pending.iter().zip(pending.iter().skip(1)) {
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

    /// The keys of level-0 slot `slot`, newest first (diagnostics only).
    fn level0_keys(&self, slot: usize) -> impl Iterator<Item = &Key> + '_ {
        let mut i = self.l0_head[slot];
        std::iter::from_fn(move || {
            let node = self.nodes.get(i as usize)?;
            i = node.next;
            Some(&node.key)
        })
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
        for slot in 0..L0_SLOTS {
            if self.l0_head[slot] != NIL {
                let _ = writeln!(s, "  L0 slot {slot}: {}", fmt(self.level0_keys(slot)));
            }
        }
        for level in 1..LEVELS {
            for slot in 0..SLOTS {
                let keys = &self.levels[higher_index(level, slot)];
                if !keys.is_empty() {
                    let _ = writeln!(s, "  L{level} slot {slot}: {}", fmt(keys.iter()));
                }
            }
        }
        let _ = writeln!(s, "  front: {}", fmt(self.front[self.front_read..].iter()));
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
        self.wheel_count += 1;
        let delta = key.time - self.cursor;
        if delta < L0_SLOTS as u64 {
            let slot = (key.time & L0_MASK) as usize;
            let next = self.l0_head[slot];
            let node = Node { key, next };
            self.l0_head[slot] = if self.free_node != NIL {
                let i = self.free_node;
                self.free_node = self.nodes[i as usize].next;
                self.nodes[i as usize] = node;
                i
            } else {
                let i = self.nodes.len();
                assert!(i < NIL as usize, "more than 2^32 - 1 keys in level 0");
                self.nodes.push(node);
                i as u32
            };
            self.l0_words[slot / 64] |= 1 << (slot % 64);
            self.l0_summary |= 1 << (slot / 64);
            return;
        }
        let level = 1 + ((63 - delta.leading_zeros() - L0_BITS) / LEVEL_BITS) as usize;
        let slot = ((key.time >> level_shift(level)) & SLOT_MASK) as usize;
        let i = higher_index(level, slot);
        self.slot_min[i] = self.slot_min[i].min(key.time);
        self.levels[i].push(key);
        self.occupancy[level] |= 1 << slot;
    }

    /// Redistribute one slot of level `l >= 1` into finer levels. The cursor
    /// must already be inside the slot's time range, which guarantees every
    /// non-wrapped event strictly descends.
    fn cascade(&mut self, level: usize, slot: usize) {
        let i = higher_index(level, slot);
        // Swap the spare buffer in: keys that wrap back into this very slot
        // land in it, and the emptied buffer becomes the next spare.
        let mut keys = std::mem::take(&mut self.scratch);
        std::mem::swap(&mut keys, &mut self.levels[i]);
        self.occupancy[level] &= !(1 << slot);
        self.slot_min[i] = u64::MAX;
        self.wheel_count -= keys.len();
        for key in keys.drain(..) {
            if self.reap_if_cancelled(&key) {
                continue;
            }
            #[cfg(test)]
            {
                self.cascaded += 1;
            }
            self.insert_into_wheel(key);
        }
        self.scratch = keys;
    }

    /// The exact tick of the earliest occupied level-0 slot, if any. Within
    /// the level-0 window each slot holds keys of exactly one timestamp.
    fn level0_first_tick(&self) -> Option<u64> {
        if self.l0_summary == 0 {
            return None;
        }
        let base = (self.cursor & L0_MASK) as usize;
        let word = base / 64;
        // The cursor's own word, from the cursor's bit on.
        let own = self.l0_words[word] & (u64::MAX << (base % 64));
        let slot = if own != 0 {
            word * 64 + own.trailing_zeros() as usize
        } else {
            // The next non-empty word in cyclic order. It may be the
            // cursor's own word again, whose bits below the cursor's are
            // the window's last ticks.
            let after = (word + 1) % L0_WORDS;
            let distance = self.l0_summary.rotate_right(after as u32).trailing_zeros() as usize;
            let next = (after + distance) % L0_WORDS;
            next * 64 + self.l0_words[next].trailing_zeros() as usize
        };
        Some(self.cursor + ((slot as u64).wrapping_sub(base as u64) & L0_MASK))
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
            let shift = level_shift(level);
            let base_slot = (self.cursor >> shift) & SLOT_MASK;
            let mut rotated = occ.rotate_right(base_slot as u32);
            if rotated & 1 != 0 {
                let slot = base_slot as usize;
                consider(
                    self.slot_min[higher_index(level, slot)],
                    level,
                    slot,
                    &mut best,
                );
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

    /// Refill the exhausted front with the wheel's next same-timestamp
    /// bucket, sorted by sequence number. Returns `false` when the queue is
    /// exhausted.
    fn refill_front(&mut self) -> bool {
        debug_assert_eq!(self.front_read, self.front.len());
        self.front.clear();
        self.front_read = 0;
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

            let slot = (tick & L0_MASK) as usize;
            let word = slot / 64;
            self.l0_words[word] &= !(1 << (slot % 64));
            if self.l0_words[word] == 0 {
                self.l0_summary &= !(1 << word);
            }
            // Walk the slot's list straight into the front, handing each
            // node back to the free list.
            let mut i = std::mem::replace(&mut self.l0_head[slot], NIL);
            while i != NIL {
                let Node { key, next } = self.nodes[i as usize];
                self.nodes[i as usize].next = self.free_node;
                self.free_node = i;
                i = next;
                self.wheel_count -= 1;
                debug_assert_eq!(key.time, tick);
                if !self.reap_if_cancelled(&key) {
                    self.front.push(key);
                }
            }
            self.cursor = tick;
            if self.front.is_empty() {
                continue; // the whole bucket had been cancelled
            }
            // Bucket FIFO == seq FIFO: the list ran newest first, so reverse
            // it into arrival order; direct inserts and cascades may have
            // interleaved, so then restore the heap's (time, seq) order
            // within the same-timestamp bucket. Nearly always already
            // sorted. The sort must be *stable*: seeded (content-derived)
            // keys may repeat, and equal keys keep the order they reached
            // the bucket in.
            self.front.reverse();
            self.front.sort_by_key(|k| k.seq);
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
        // Event 0 lands on wheel level 1 (delta 5000 ns) and stays there
        // while the cursor advances past 904 ns via two level-0 pops. Event
        // 3 then schedules at the same 5000 ns timestamp with delta < 4096,
        // going straight into the level-0 bucket — *before* event 0 cascades
        // into it. The drain must still pop seq 0 first.
        let mut q = EventQueue::new();
        q.schedule(SimTime::from_nanos(5000), start(0));
        q.schedule(SimTime::from_nanos(900), start(1));
        q.schedule(SimTime::from_nanos(950), start(2));
        assert_eq!(q.pop().map(|(t, _)| t.as_nanos()), Some(900));
        assert_eq!(q.pop().map(|(t, _)| t.as_nanos()), Some(950));
        q.schedule(SimTime::from_nanos(5000), start(3));
        assert_eq!(popped_flows(&mut q), vec![(5000, 0), (5000, 3)]);
        assert_eq!(q.cascaded, 1);
    }

    #[test]
    fn only_keys_beyond_the_level0_window_cascade() {
        // From a cursor at 1000 ns, keys due 1, 2100 and 4095 ns ahead go
        // straight to their final level-0 slot; 4096 ns ahead is the first
        // delay past the window, parked on level 1 and cascaded once.
        for (delta, cascades) in [(1, 0), (2_100, 0), (4_095, 0), (4_096, 1)] {
            let mut q = EventQueue::new();
            q.schedule(SimTime::from_nanos(1_000), start(0));
            q.pop();
            q.schedule(SimTime::from_nanos(1_000 + delta), start(1));
            q.debug_validate();
            assert_eq!(popped_flows(&mut q), vec![(1_000 + delta, 1)]);
            assert_eq!(q.cascaded, cascades, "delta {delta}");
        }
        // All four at once, with ties, still pop in (time, seq) order.
        let mut q = EventQueue::new();
        q.schedule(SimTime::from_nanos(1_000), start(0));
        q.pop();
        for (flow, delta) in [4_096, 1, 4_095, 2_100, 1, 4_096].into_iter().enumerate() {
            q.schedule(SimTime::from_nanos(1_000 + delta), start(flow + 1));
        }
        q.debug_validate();
        assert_eq!(
            popped_flows(&mut q),
            vec![
                (1_001, 2),
                (1_001, 5),
                (3_100, 4),
                (5_095, 3),
                (5_096, 1),
                (5_096, 6)
            ]
        );
        assert_eq!(q.cascaded, 2);
    }

    #[test]
    fn cancelled_tombstones_in_a_level0_list_are_reaped_at_drain() {
        // Five keys share one level-0 instant (no cascade reaps them on the
        // way down); cancelling three leaves tombstones in the slot's list
        // that the drain into the front must drop, payloads and all.
        let mut q = EventQueue::new();
        let at = SimTime::from_nanos(2_000);
        let ids: Vec<_> = (0..5)
            .map(|f| q.schedule_cancellable(at, start(f)))
            .collect();
        q.schedule(SimTime::from_nanos(2_001), start(9));
        for &i in &[0, 2, 3] {
            assert!(q.cancel(ids[i]));
        }
        assert_eq!(q.cancelled.len(), 3);
        q.debug_validate();
        assert_eq!(
            popped_flows(&mut q),
            vec![(2_000, 1), (2_000, 4), (2_001, 9)]
        );
        assert_eq!(q.cascaded, 0);
        assert!(q.cancelled.is_empty(), "every tombstone was reaped");
        assert!(q.cancellable_pending.is_empty());
        assert_eq!(q.small_free.len(), q.small.len(), "every payload freed");
        q.debug_validate();
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
        // 100 s and 200 s (~2^36.5 and ~2^37.5 ns) sit on level 5; both
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
        // u64::MAX ns lands on the top level (9); it must wait there while
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
        // Cursor to 8191 (the last tick of level-1 slot [4096, 8192)).
        q.schedule(SimTime::from_nanos(8191), start(0));
        q.pop();
        // 267000 ∈ [4096, 8192) + 2^18 → wraps into the cursor's own slot.
        q.schedule(SimTime::from_nanos(267_000), start(1));
        // 20000 maps elsewhere and precedes 267000.
        q.schedule(SimTime::from_nanos(20_000), start(2));
        q.debug_validate();
        assert_eq!(popped_flows(&mut q), vec![(20_000, 2), (267_000, 1)]);
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
                let (arrivals, small, arena) = q.debug_pool_sizes();
                let bound = 2 * live_peak + 16;
                assert!(
                    arrivals + small <= bound,
                    "pools grew to {arrivals}+{small} (live peak {live_peak})"
                );
                assert!(
                    arena <= bound,
                    "key arena grew to {arena} (live peak {live_peak})"
                );
                q.debug_validate();
            }
        }
        while q.pop().is_some() {}
        let (arrivals, small, arena) = q.debug_pool_sizes();
        assert!(arrivals + small <= 2 * live_peak + 16);
        assert!(arena <= 2 * live_peak + 16);
        assert!(arena > 0, "the churn ran through the level-0 arena");
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
            // Half inside the level-0 window (the key arena), half beyond
            // it (higher-level slots).
            for i in 0..64 {
                q.schedule(SimTime::from_nanos(100 + i as u64 * 137), start(i));
            }
            for _ in 0..20 {
                q.pop();
            }
            q.reset();
            assert!(q.is_empty());
            assert_eq!(q.len(), 0);
            assert_eq!(q.now(), SimTime::ZERO);
            assert_eq!(q.peek_time(), None);
            let fp = (q.debug_pool_sizes(), q.nodes.capacity());
            assert_eq!(fp.0, (0, 0, 0), "reset empties the pools and the key arena");
            assert!(fp.1 >= 30, "and keeps the arena's allocation");
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
