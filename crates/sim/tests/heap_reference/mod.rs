//! The binary-heap event queue the timing wheel replaced, kept as the
//! executable reference model: the differential tests pin the wheel's
//! observable behaviour — lexicographic `(time, seq)` pop order,
//! cancellation semantics, clock advancement — against this
//! implementation. Events are stored inline in the heap entries, exactly
//! as the pre-wheel implementation did.
//!
//! `EventId` has no public constructor, so ids here are the plain `u64`
//! sequence numbers; compare them against `EventId::as_u64`.

use numfabric_sim::event::Event;
use numfabric_sim::SimTime;
use std::cmp::Ordering;
use std::collections::{BinaryHeap, HashSet};

struct HeapEntry {
    time: u64,
    seq: u64,
    /// Insertion counter: equal seeded keys pop in schedule order, the
    /// order the wheel keeps among equal keys sharing a slot or its front.
    order: u64,
    cancellable: bool,
    event: Event,
}

impl PartialEq for HeapEntry {
    fn eq(&self, other: &Self) -> bool {
        self.cmp(other) == Ordering::Equal
    }
}
impl Eq for HeapEntry {}

impl PartialOrd for HeapEntry {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for HeapEntry {
    fn cmp(&self, other: &Self) -> Ordering {
        // BinaryHeap is a max-heap; invert so the earliest key pops first.
        (other.time, other.seq, other.order).cmp(&(self.time, self.seq, self.order))
    }
}

/// The reference queue; each method has the contract of its `EventQueue`
/// namesake.
#[derive(Default)]
pub struct HeapEventQueue {
    heap: BinaryHeap<HeapEntry>,
    cancellable_pending: HashSet<u64>,
    cancelled: HashSet<u64>,
    next_seq: u64,
    /// Entries ever pushed (the FIFO tie-breaker, see [`HeapEntry`]).
    pushed: u64,
    now: u64,
    live: usize,
}

impl HeapEventQueue {
    pub fn new() -> Self {
        Self::default()
    }

    /// The timestamp of the last popped event.
    pub fn now(&self) -> SimTime {
        SimTime::from_nanos(self.now)
    }

    pub fn schedule(&mut self, at: SimTime, event: Event) -> u64 {
        self.schedule_entry(at, event, false)
    }

    pub fn schedule_cancellable(&mut self, at: SimTime, event: Event) -> u64 {
        self.schedule_entry(at, event, true)
    }

    /// Schedule under an externally allocated sequence number; equal
    /// `(time, seq)` keys pop in schedule order.
    pub fn schedule_seeded(&mut self, at: SimTime, event: Event, seq: u64) -> u64 {
        self.schedule_entry_with_seq(at, event, false, seq)
    }

    pub fn schedule_cancellable_seeded(&mut self, at: SimTime, event: Event, seq: u64) -> u64 {
        self.schedule_entry_with_seq(at, event, true, seq)
    }

    fn schedule_entry(&mut self, at: SimTime, event: Event, cancellable: bool) -> u64 {
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
    ) -> u64 {
        assert!(
            at.as_nanos() >= self.now,
            "cannot schedule an event in the past: {at} < {}",
            self.now()
        );
        self.live += 1;
        if cancellable {
            self.cancellable_pending.insert(seq);
        }
        self.heap.push(HeapEntry {
            time: at.as_nanos(),
            seq,
            order: self.pushed,
            cancellable,
            event,
        });
        self.pushed += 1;
        seq
    }

    pub fn cancel(&mut self, id: u64) -> bool {
        if !self.cancellable_pending.remove(&id) {
            return false;
        }
        self.cancelled.insert(id);
        self.live -= 1;
        true
    }

    /// Pop the next event with its id, advancing the clock to its
    /// timestamp.
    pub fn pop_entry(&mut self) -> Option<(SimTime, u64, Event)> {
        while let Some(entry) = self.heap.pop() {
            if entry.cancellable && self.cancelled.remove(&entry.seq) {
                continue;
            }
            if entry.cancellable {
                self.cancellable_pending.remove(&entry.seq);
            }
            self.live -= 1;
            self.now = entry.time;
            return Some((SimTime::from_nanos(entry.time), entry.seq, entry.event));
        }
        None
    }

    /// The timestamp of the next pending event; tombstones are purged here.
    pub fn peek_time(&mut self) -> Option<SimTime> {
        while let Some(entry) = self.heap.peek() {
            if entry.cancellable && self.cancelled.contains(&entry.seq) {
                let entry = self.heap.pop().expect("peeked entry exists");
                self.cancelled.remove(&entry.seq);
                continue;
            }
            return Some(SimTime::from_nanos(entry.time));
        }
        None
    }

    pub fn len(&self) -> usize {
        self.live
    }

    pub fn is_empty(&self) -> bool {
        self.live == 0
    }
}
