//! Queue disciplines (packet schedulers) for switch egress ports.
//!
//! The paper's evaluation uses four schedulers:
//!
//! * [`DropTailFifo`] — plain FIFO with tail drop (DGD, RCP*, and as an
//!   ablation under NUMFabric weights).
//! * [`StfqQueue`] — Start-Time Fair Queueing, the WFQ approximation
//!   NUMFabric's Swift transport relies on (§5, Eqs. 12–13). Per-packet
//!   weights arrive in the `virtualPacketLen` header field.
//! * [`EcnFifo`] — FIFO with ECN marking above a threshold (DCTCP).
//! * [`PfabricQueue`] — priority queue keyed by remaining flow size with
//!   highest-priority-dequeue and lowest-priority-drop (pFabric).
//!
//! All disciplines are byte-capacity bounded (the paper uses 1 MB per port).

use crate::hash::FixedHashMap;
use crate::packet::{FlowId, Packet};
use crate::time::SimTime;
use std::cmp::{Ordering, Reverse};
use std::collections::{BinaryHeap, VecDeque};

/// Default per-port buffer size used in the paper's simulations (1 MB).
pub const DEFAULT_BUFFER_BYTES: usize = 1_000_000;

/// The outcome of an enqueue operation.
#[derive(Debug)]
pub enum EnqueueOutcome {
    /// The packet was accepted (and nothing was dropped).
    Accepted,
    /// The packet was accepted but an already-queued victim was dropped to
    /// make room (pFabric-style drop of the lowest-priority packet).
    AcceptedWithVictim(Packet),
    /// The arriving packet itself was dropped.
    Dropped(Packet),
}

impl EnqueueOutcome {
    /// The dropped packet, if any.
    pub fn dropped(self) -> Option<Packet> {
        match self {
            EnqueueOutcome::Accepted => None,
            EnqueueOutcome::AcceptedWithVictim(p) | EnqueueOutcome::Dropped(p) => Some(p),
        }
    }

    /// Whether the arriving packet was accepted.
    pub fn accepted(&self) -> bool {
        !matches!(self, EnqueueOutcome::Dropped(_))
    }
}

/// A packet scheduler for one switch egress port.
pub trait QueueDiscipline: Send {
    /// Offer a packet to the queue.
    fn enqueue(&mut self, packet: Packet, now: SimTime) -> EnqueueOutcome;

    /// Remove the next packet to transmit, if any.
    fn dequeue(&mut self, now: SimTime) -> Option<Packet>;

    /// Total bytes currently queued.
    fn backlog_bytes(&self) -> usize;

    /// Number of packets currently queued.
    fn backlog_packets(&self) -> usize;

    /// Whether the queue is empty.
    fn is_empty(&self) -> bool {
        self.backlog_packets() == 0
    }

    /// Forget all per-flow scheduler state for a flow that has finished
    /// (frees STFQ virtual-finish-time entries; a no-op for stateless queues).
    fn release_flow(&mut self, _flow: FlowId) {}
}

// ---------------------------------------------------------------------------
// DropTail FIFO
// ---------------------------------------------------------------------------

/// Plain FIFO with tail drop once the byte limit is exceeded.
#[derive(Debug)]
pub struct DropTailFifo {
    queue: VecDeque<Packet>,
    capacity_bytes: usize,
    backlog: usize,
}

impl DropTailFifo {
    /// A FIFO with the given byte capacity.
    pub fn new(capacity_bytes: usize) -> Self {
        Self {
            queue: VecDeque::new(),
            capacity_bytes,
            backlog: 0,
        }
    }

    /// A FIFO with the paper's default 1 MB buffer.
    pub fn with_default_buffer() -> Self {
        Self::new(DEFAULT_BUFFER_BYTES)
    }
}

impl QueueDiscipline for DropTailFifo {
    fn enqueue(&mut self, packet: Packet, _now: SimTime) -> EnqueueOutcome {
        if self.backlog + packet.wire_bytes as usize > self.capacity_bytes {
            return EnqueueOutcome::Dropped(packet);
        }
        self.backlog += packet.wire_bytes as usize;
        self.queue.push_back(packet);
        EnqueueOutcome::Accepted
    }

    fn dequeue(&mut self, _now: SimTime) -> Option<Packet> {
        let p = self.queue.pop_front()?;
        self.backlog -= p.wire_bytes as usize;
        Some(p)
    }

    fn backlog_bytes(&self) -> usize {
        self.backlog
    }

    fn backlog_packets(&self) -> usize {
        self.queue.len()
    }
}

// ---------------------------------------------------------------------------
// ECN-marking FIFO (DCTCP)
// ---------------------------------------------------------------------------

/// FIFO with tail drop plus ECN marking when the backlog exceeds a threshold
/// (DCTCP's single-threshold marking at the switch).
#[derive(Debug)]
pub struct EcnFifo {
    inner: DropTailFifo,
    /// Marking threshold in bytes.
    marking_threshold_bytes: usize,
}

impl EcnFifo {
    /// An ECN FIFO with the given capacity and marking threshold (bytes).
    pub fn new(capacity_bytes: usize, marking_threshold_bytes: usize) -> Self {
        Self {
            inner: DropTailFifo::new(capacity_bytes),
            marking_threshold_bytes,
        }
    }
}

impl QueueDiscipline for EcnFifo {
    fn enqueue(&mut self, mut packet: Packet, now: SimTime) -> EnqueueOutcome {
        if packet.data_header().is_some_and(|h| h.ecn_capable)
            && self.inner.backlog_bytes() >= self.marking_threshold_bytes
        {
            packet.stamps.ecn_marked = true;
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
}

// ---------------------------------------------------------------------------
// Slot slab and heap entries shared by the heap-ordered disciplines
// ---------------------------------------------------------------------------

/// Packet storage of [`StfqQueue`] and [`PfabricQueue`]: a `Vec` of slots,
/// each holding `(seq, packet)` or a link of the LIFO free list threaded
/// through the vacant slots. A heap entry carries its packet's slot beside
/// its ordering key, so serving the heap's top is one indexed `take` — no
/// hashing. Freed slots are reused first, so the slab stays sized to the
/// queue's peak depth, and since the free list lives in the slots
/// themselves, only that peak ever allocates.
///
/// The stored `seq` — not slot occupancy — is a packet's identity: a pFabric
/// tombstone can name a slot that was freed and since reused by a later
/// packet, and it must still read as dead.
#[derive(Debug, Default)]
struct PacketSlab {
    slots: Vec<Slot>,
    /// First vacant slot, if any.
    free_head: Option<u32>,
    live: usize,
}

/// One slot of a [`PacketSlab`].
#[derive(Debug)]
enum Slot {
    Full {
        seq: u64,
        packet: Packet,
    },
    /// Vacant; `next` is the next vacant slot, if any.
    Vacant {
        next: Option<u32>,
    },
}

impl PacketSlab {
    /// Store `packet` under `seq`; returns its slot.
    fn insert(&mut self, seq: u64, packet: Packet) -> u32 {
        self.live += 1;
        let full = Slot::Full { seq, packet };
        let Some(slot) = self.free_head else {
            let slot = u32::try_from(self.slots.len()).expect("more than 2^32 queued packets");
            self.slots.push(full);
            return slot;
        };
        match std::mem::replace(&mut self.slots[slot as usize], full) {
            Slot::Vacant { next } => self.free_head = next,
            Slot::Full { .. } => unreachable!("the free list names an occupied slot"),
        }
        slot
    }

    /// Whether `slot` still holds the packet stored under `seq`.
    fn holds(&self, slot: u32, seq: u64) -> bool {
        matches!(self.slots[slot as usize], Slot::Full { seq: stored, .. } if stored == seq)
    }

    /// Take the packet stored under `seq` out of `slot`, freeing the slot;
    /// `None` if the slot is vacant or holds another packet.
    fn take(&mut self, slot: u32, seq: u64) -> Option<Packet> {
        if !self.holds(slot, seq) {
            return None;
        }
        let vacant = Slot::Vacant {
            next: self.free_head,
        };
        match std::mem::replace(&mut self.slots[slot as usize], vacant) {
            Slot::Full { packet, .. } => {
                self.free_head = Some(slot);
                self.live -= 1;
                Some(packet)
            }
            Slot::Vacant { .. } => unreachable!("checked occupied above"),
        }
    }

    /// Number of packets stored.
    fn len(&self) -> usize {
        self.live
    }

    /// `(slot, seq, packet)` of every stored packet, in slot order.
    fn iter(&self) -> impl Iterator<Item = (u32, u64, &Packet)> {
        self.slots
            .iter()
            .enumerate()
            .filter_map(|(slot, stored)| match stored {
                Slot::Full { seq, packet } => Some((slot as u32, *seq, packet)),
                Slot::Vacant { .. } => None,
            })
    }
}

/// A heap entry: ordered by `(key, seq)` — the scheduling key (STFQ virtual
/// start, pFabric priority), then arrival order — and carrying the slab
/// slot of its packet. `Ord` is ascending; min-heaps wrap it in `Reverse`.
#[derive(Debug, Clone, Copy)]
struct SlotEntry {
    key: f64,
    seq: u64,
    slot: u32,
}

impl Ord for SlotEntry {
    fn cmp(&self, other: &Self) -> Ordering {
        // `total_cmp`: a total order even for keys `partial_cmp` cannot
        // compare. NaN keys are rejected at enqueue, and every seq is
        // distinct, so no two entries compare equal.
        self.key
            .total_cmp(&other.key)
            .then_with(|| self.seq.cmp(&other.seq))
    }
}

impl PartialOrd for SlotEntry {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl PartialEq for SlotEntry {
    fn eq(&self, other: &Self) -> bool {
        self.cmp(other) == Ordering::Equal
    }
}

impl Eq for SlotEntry {}

// ---------------------------------------------------------------------------
// Start-Time Fair Queueing (WFQ approximation used by Swift)
// ---------------------------------------------------------------------------

/// Start-Time Fair Queueing (Goyal, Vin & Cheng), the practical WFQ
/// approximation the paper sketches for NUMFabric switches (§5).
///
/// Each arriving data packet `p^k_i` of flow `i` is assigned
///
/// ```text
/// S(p^k_i) = max(V, F(p^{k-1}_i))          (virtual start, Eq. 12)
/// F(p^k_i) = S(p^k_i) + L(p^k_i) / w_i     (virtual finish, Eq. 13)
/// ```
///
/// where `V` is the port's virtual time (the virtual start of the packet in
/// service) and `L/w` arrives pre-divided in the `virtualPacketLen` header
/// field. Packets are served in increasing order of virtual start time.
/// Control packets (`virtualPacketLen == 0`) are scheduled at the current
/// virtual time, i.e. ahead of any backlogged data.
///
/// Layout: a min-heap of `(virtual start, seq, slot)` entries over a slot
/// slab of packets, so enqueue and dequeue hash nothing; only the per-flow
/// virtual finish times live in a (fixed-seed) map.
///
/// # Panics
/// [`QueueDiscipline::enqueue`] panics, naming the flow, on a packet whose
/// `virtualPacketLen` is NaN.
#[derive(Debug)]
pub struct StfqQueue {
    /// Min-heap of queued packets keyed by virtual start.
    heap: BinaryHeap<Reverse<SlotEntry>>,
    /// The queued packets, addressed by their heap entries' slots.
    packets: PacketSlab,
    /// Per-flow virtual finish time of the last *enqueued* packet.
    last_finish: FixedHashMap<FlowId, f64>,
    /// The port's virtual time: virtual start of the most recently dequeued packet.
    virtual_time: f64,
    capacity_bytes: usize,
    backlog: usize,
    next_seq: u64,
}

impl StfqQueue {
    /// An STFQ queue with the given byte capacity.
    pub fn new(capacity_bytes: usize) -> Self {
        Self {
            heap: BinaryHeap::new(),
            packets: PacketSlab::default(),
            last_finish: FixedHashMap::default(),
            virtual_time: 0.0,
            capacity_bytes,
            backlog: 0,
            next_seq: 0,
        }
    }

    /// An STFQ queue with the paper's default 1 MB buffer.
    pub fn with_default_buffer() -> Self {
        Self::new(DEFAULT_BUFFER_BYTES)
    }

    /// The port's current virtual time (exposed for tests and tracing).
    pub fn virtual_time(&self) -> f64 {
        self.virtual_time
    }
}

impl QueueDiscipline for StfqQueue {
    fn enqueue(&mut self, packet: Packet, _now: SimTime) -> EnqueueOutcome {
        let len = packet.data_header().map_or(0.0, |h| h.virtual_packet_len);
        assert!(
            !len.is_nan(),
            "STFQ: flow {} enqueued a packet whose virtualPacketLen is NaN",
            packet.flow
        );
        if self.backlog + packet.wire_bytes as usize > self.capacity_bytes {
            return EnqueueOutcome::Dropped(packet);
        }
        // Control packets (and data with virtualPacketLen == 0) are scheduled
        // at the current virtual time: they jump ahead of backlogged data but
        // never delay the virtual clock.
        let start = if len > 0.0 {
            let finish = self
                .last_finish
                .entry(packet.flow)
                .or_insert(self.virtual_time);
            let start = self.virtual_time.max(*finish);
            *finish = start + len;
            start
        } else {
            self.virtual_time
        };
        self.backlog += packet.wire_bytes as usize;
        let seq = self.next_seq;
        self.next_seq += 1;
        let slot = self.packets.insert(seq, packet);
        self.heap.push(Reverse(SlotEntry {
            key: start,
            seq,
            slot,
        }));
        EnqueueOutcome::Accepted
    }

    fn dequeue(&mut self, _now: SimTime) -> Option<Packet> {
        let Reverse(entry) = self.heap.pop()?;
        let packet = self
            .packets
            .take(entry.slot, entry.seq)
            .expect("STFQ heap entry without its packet");
        self.backlog -= packet.wire_bytes as usize;
        // Advance the port's virtual time to the served packet's virtual start.
        self.virtual_time = self.virtual_time.max(entry.key);
        Some(packet)
    }

    fn backlog_bytes(&self) -> usize {
        self.backlog
    }

    fn backlog_packets(&self) -> usize {
        self.packets.len()
    }

    fn release_flow(&mut self, flow: FlowId) {
        self.last_finish.remove(&flow);
    }
}

// ---------------------------------------------------------------------------
// pFabric priority queue
// ---------------------------------------------------------------------------

/// pFabric's switch behaviour: dequeue the packet with the smallest priority
/// value (remaining flow size); when the buffer is full, drop the queued
/// packet with the *largest* priority value to admit a higher-priority
/// arrival (or drop the arrival if it is itself the lowest priority).
///
/// Layout: the packets sit in a slot slab; two heaps of `(priority, seq,
/// slot)` entries order them — a min-heap for serving and a max-heap for
/// eviction, whose priority ties evict the youngest (largest seq) packet.
/// Both heaps use *lazy tombstone deletion*: evicting or serving a packet
/// leaves a stale entry in the other heap, which is skipped (and discarded)
/// when it surfaces. An entry is live only while its slot still holds the
/// packet with the entry's seq — the slot may have been reused by a later
/// packet. A heap is rebuilt from the live packets once tombstones
/// outnumber them 2:1 (tombstones at the "far end" of a heap would
/// otherwise never surface and accumulate for the queue's lifetime). Every
/// operation is O(log live) amortized, and none hashes.
///
/// # Panics
/// [`QueueDiscipline::enqueue`] panics, naming the flow, on a packet whose
/// `pfabric_priority` is NaN.
#[derive(Debug)]
pub struct PfabricQueue {
    /// Serve order: min-heap on (priority, seq).
    heap: BinaryHeap<Reverse<SlotEntry>>,
    /// Evict order: max-heap on (priority, seq).
    worst: BinaryHeap<SlotEntry>,
    /// Live packets; a heap entry whose slot no longer holds its seq is a
    /// tombstone.
    packets: PacketSlab,
    /// Persistent rebuild workspace: live entries are gathered here once
    /// per prune, so a rebuild walks the slab a single time even when both
    /// heaps need rebuilding, and steady-state pruning allocates nothing
    /// after warm-up.
    rebuild_scratch: Vec<SlotEntry>,
    capacity_bytes: usize,
    backlog: usize,
    next_seq: u64,
}

impl PfabricQueue {
    /// A pFabric queue with the given byte capacity. pFabric is designed for
    /// very shallow buffers (e.g. ~2×BDP), unlike the other schemes.
    pub fn new(capacity_bytes: usize) -> Self {
        Self {
            heap: BinaryHeap::new(),
            worst: BinaryHeap::new(),
            packets: PacketSlab::default(),
            rebuild_scratch: Vec::new(),
            capacity_bytes,
            backlog: 0,
            next_seq: 0,
        }
    }

    fn insert(&mut self, packet: Packet) {
        let seq = self.next_seq;
        self.next_seq += 1;
        self.backlog += packet.wire_bytes as usize;
        let key = packet.pfabric_priority();
        let slot = self.packets.insert(seq, packet);
        let entry = SlotEntry { key, seq, slot };
        self.heap.push(Reverse(entry));
        self.worst.push(entry);
    }

    /// The eviction-heap entry of the worst live packet, discarding any
    /// stale entries on the way.
    fn worst_queued(&mut self) -> Option<SlotEntry> {
        while let Some(&entry) = self.worst.peek() {
            if self.packets.holds(entry.slot, entry.seq) {
                return Some(entry);
            }
            self.worst.pop();
        }
        None
    }

    /// Rebuild a heap from the live packets once its tombstones outnumber
    /// them: served packets' eviction-heap entries (lowest priorities) and
    /// evicted packets' serve-heap entries (highest priorities) sit at the
    /// far end of their heap and would never surface to be discarded lazily.
    /// Each rebuild is O(slab) and runs at most once per O(live) stale-making
    /// operations, so the amortized cost stays O(1); pop order is unaffected
    /// because every (priority, seq) key is distinct.
    fn maybe_prune(&mut self) {
        let cap = 2 * self.packets.len() + 16;
        let serve_stale = self.heap.len() > cap;
        let worst_stale = self.worst.len() > cap;
        if !serve_stale && !worst_stale {
            return;
        }
        self.rebuild_scratch.clear();
        self.rebuild_scratch
            .extend(self.packets.iter().map(|(slot, seq, p)| SlotEntry {
                key: p.pfabric_priority(),
                seq,
                slot,
            }));
        if serve_stale {
            self.heap.clear();
            self.heap
                .extend(self.rebuild_scratch.iter().copied().map(Reverse));
        }
        if worst_stale {
            self.worst.clear();
            self.worst.extend(self.rebuild_scratch.iter().copied());
        }
    }
}

impl QueueDiscipline for PfabricQueue {
    fn enqueue(&mut self, packet: Packet, _now: SimTime) -> EnqueueOutcome {
        let priority = packet.pfabric_priority();
        assert!(
            !priority.is_nan(),
            "pFabric: flow {} enqueued a packet whose priority is NaN",
            packet.flow
        );
        if self.backlog + packet.wire_bytes as usize <= self.capacity_bytes {
            self.insert(packet);
            return EnqueueOutcome::Accepted;
        }
        // Buffer full: find the worst queued packet.
        match self.worst_queued() {
            Some(worst) if priority < worst.key => {
                // Evict the victim; its serve-heap entry becomes a tombstone.
                let victim = self
                    .packets
                    .take(worst.slot, worst.seq)
                    .expect("victim packet must exist");
                self.backlog -= victim.wire_bytes as usize;
                self.worst.pop();
                // Accept the new packet (there is now room, or at worst we
                // drop it below).
                let outcome = if self.backlog + packet.wire_bytes as usize <= self.capacity_bytes {
                    self.insert(packet);
                    EnqueueOutcome::AcceptedWithVictim(victim)
                } else {
                    EnqueueOutcome::Dropped(packet)
                };
                self.maybe_prune();
                outcome
            }
            _ => EnqueueOutcome::Dropped(packet),
        }
    }

    fn dequeue(&mut self, _now: SimTime) -> Option<Packet> {
        let packet = loop {
            let Reverse(entry) = self.heap.pop()?;
            if let Some(packet) = self.packets.take(entry.slot, entry.seq) {
                break packet;
            }
            // Tombstone for an evicted packet; skip it.
        };
        self.backlog -= packet.wire_bytes as usize;
        self.maybe_prune();
        Some(packet)
    }

    fn backlog_bytes(&self) -> usize {
        self.backlog
    }

    fn backlog_packets(&self) -> usize {
        self.packets.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::packet::{AckHeader, DataHeader, Packet, DEFAULT_PAYLOAD_BYTES, MTU_BYTES};
    use crate::routes::{RouteId, RouteTable};
    use crate::topology::Route;
    use proptest::prelude::*;
    use std::collections::HashMap;

    fn route() -> RouteId {
        RouteTable::new().intern(Route::from_links(vec![0]))
    }

    fn packet(flow: FlowId, header: DataHeader) -> Packet {
        Packet::data(flow, 0, DEFAULT_PAYLOAD_BYTES, route(), header)
    }

    fn data(flow: FlowId, weight: f64) -> Packet {
        packet(
            flow,
            DataHeader {
                virtual_packet_len: MTU_BYTES as f64 / weight,
                ..DataHeader::default()
            },
        )
    }

    fn ack(flow: FlowId) -> Packet {
        Packet::ack(flow, 0, route(), AckHeader::default())
    }

    fn now() -> SimTime {
        SimTime::ZERO
    }

    #[test]
    fn fifo_preserves_order_and_tracks_backlog() {
        let mut q = DropTailFifo::new(10_000);
        for flow in 0..3 {
            assert!(q.enqueue(data(flow, 1.0), now()).accepted());
        }
        assert_eq!(q.backlog_packets(), 3);
        assert_eq!(q.backlog_bytes(), 3 * 1500);
        let order: Vec<FlowId> = std::iter::from_fn(|| q.dequeue(now()))
            .map(|p| p.flow)
            .collect();
        assert_eq!(order, vec![0, 1, 2]);
        assert!(q.is_empty());
    }

    #[test]
    fn fifo_tail_drops_when_full() {
        let mut q = DropTailFifo::new(3_000);
        assert!(q.enqueue(data(0, 1.0), now()).accepted());
        assert!(q.enqueue(data(1, 1.0), now()).accepted());
        let outcome = q.enqueue(data(2, 1.0), now());
        assert!(!outcome.accepted());
        assert_eq!(q.backlog_packets(), 2);
    }

    #[test]
    fn ecn_marks_only_above_threshold_and_only_capable_packets() {
        let mut q = EcnFifo::new(100_000, 3_000);
        let capable = packet(
            0,
            DataHeader {
                ecn_capable: true,
                ..DataHeader::default()
            },
        );
        // Below threshold: no mark.
        assert!(q.enqueue(capable.clone(), now()).accepted());
        assert!(q.enqueue(capable.clone(), now()).accepted());
        // Backlog now 3000 >= threshold: next capable packet is marked.
        assert!(q.enqueue(capable.clone(), now()).accepted());
        let not_capable = data(1, 1.0);
        assert!(q.enqueue(not_capable, now()).accepted());
        let marks: Vec<bool> = std::iter::from_fn(|| q.dequeue(now()))
            .map(|p| p.stamps.ecn_marked)
            .collect();
        assert_eq!(marks, vec![false, false, true, false]);
    }

    #[test]
    fn stfq_shares_in_proportion_to_weights() {
        // Flow 0 with weight 1 and flow 1 with weight 3, continuously backlogged:
        // out of the first 8 dequeued data packets, flow 1 should get ~6.
        let mut q = StfqQueue::new(1_000_000);
        for _ in 0..20 {
            assert!(q.enqueue(data(0, 1.0), now()).accepted());
            assert!(q.enqueue(data(1, 3.0), now()).accepted());
        }
        let mut served = [0usize; 2];
        for _ in 0..8 {
            let p = q.dequeue(now()).unwrap();
            served[p.flow] += 1;
        }
        assert!(served[1] >= 5, "weighted service was {served:?}");
        assert!(served[0] >= 1, "low-weight flow starved: {served:?}");
    }

    #[test]
    fn stfq_equal_weights_alternate() {
        let mut q = StfqQueue::new(1_000_000);
        for _ in 0..4 {
            q.enqueue(data(0, 1.0), now());
            q.enqueue(data(1, 1.0), now());
        }
        let order: Vec<FlowId> = (0..8).map(|_| q.dequeue(now()).unwrap().flow).collect();
        let zero = order.iter().filter(|&&f| f == 0).count();
        assert_eq!(zero, 4);
        // No flow is served more than twice in a row under equal weights.
        let mut run = 1;
        for w in order.windows(2) {
            run = if w[0] == w[1] { run + 1 } else { 1 };
            assert!(run <= 2, "unfair run in {order:?}");
        }
    }

    #[test]
    fn stfq_control_packets_bypass_data_backlog() {
        let mut q = StfqQueue::new(1_000_000);
        for _ in 0..5 {
            q.enqueue(data(0, 1.0), now());
        }
        q.enqueue(ack(7), now());
        // The ACK was enqueued last but its virtual start equals the current
        // virtual time, so it is served before data packets whose virtual
        // start is strictly later. (The first data packet also has virtual
        // start == current virtual time; FIFO tie-break applies.)
        let kinds: Vec<bool> = (0..3)
            .map(|_| q.dequeue(now()).unwrap().is_data())
            .collect();
        assert!(kinds.iter().filter(|&&d| !d).count() == 1, "{kinds:?}");
    }

    #[test]
    fn stfq_weight_changes_take_effect_per_packet() {
        // The same flow sends with weight 1, then with weight 10; once the
        // heavier packets arrive they are spaced closer in virtual time, so a
        // competing flow's share drops accordingly. Here we just check the
        // virtual finish bookkeeping doesn't blow up and service stays
        // work-conserving.
        let mut q = StfqQueue::new(1_000_000);
        for i in 0..10 {
            let w = if i < 5 { 1.0 } else { 10.0 };
            q.enqueue(data(0, w), now());
        }
        let mut count = 0;
        while q.dequeue(now()).is_some() {
            count += 1;
        }
        assert_eq!(count, 10);
        assert_eq!(q.backlog_bytes(), 0);
    }

    #[test]
    fn stfq_release_flow_clears_state() {
        let mut q = StfqQueue::new(1_000_000);
        q.enqueue(data(0, 1.0), now());
        q.dequeue(now());
        assert!(q.last_finish.contains_key(&0));
        q.release_flow(0);
        assert!(!q.last_finish.contains_key(&0));
    }

    #[test]
    #[should_panic(expected = "flow 3 enqueued a packet whose virtualPacketLen is NaN")]
    fn stfq_rejects_nan_virtual_length_naming_the_flow() {
        let mut q = StfqQueue::new(1_000_000);
        q.enqueue(data(0, 1.0), now());
        q.enqueue(data(3, f64::NAN), now());
    }

    /// Heap entry of [`StfqReference`], with the pre-slab ordering
    /// (`partial_cmp`, inverted for a min-heap).
    #[derive(Debug, Clone, Copy, PartialEq)]
    struct ReferenceEntry {
        virtual_start: f64,
        seq: u64,
    }

    impl Eq for ReferenceEntry {}

    impl PartialOrd for ReferenceEntry {
        fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
            Some(self.cmp(other))
        }
    }

    impl Ord for ReferenceEntry {
        fn cmp(&self, other: &Self) -> Ordering {
            other
                .virtual_start
                .partial_cmp(&self.virtual_start)
                .unwrap_or(Ordering::Equal)
                .then_with(|| other.seq.cmp(&self.seq))
        }
    }

    /// The map-based STFQ queue the slot slab replaced, kept as the
    /// executable reference model: packets in a `HashMap` keyed by the heap
    /// entry's seq.
    struct StfqReference {
        heap: BinaryHeap<ReferenceEntry>,
        packets: HashMap<u64, Packet>,
        last_finish: HashMap<FlowId, f64>,
        virtual_time: f64,
        capacity_bytes: usize,
        backlog: usize,
        next_seq: u64,
    }

    impl StfqReference {
        fn new(capacity_bytes: usize) -> Self {
            Self {
                heap: BinaryHeap::new(),
                packets: HashMap::new(),
                last_finish: HashMap::new(),
                virtual_time: 0.0,
                capacity_bytes,
                backlog: 0,
                next_seq: 0,
            }
        }

        fn enqueue(&mut self, packet: Packet) -> bool {
            if self.backlog + packet.wire_bytes as usize > self.capacity_bytes {
                return false;
            }
            let len = packet.data_header().map_or(0.0, |h| h.virtual_packet_len);
            let start = if len > 0.0 {
                let prev_finish = self
                    .last_finish
                    .get(&packet.flow)
                    .copied()
                    .unwrap_or(self.virtual_time);
                let start = self.virtual_time.max(prev_finish);
                self.last_finish.insert(packet.flow, start + len);
                start
            } else {
                self.virtual_time
            };
            self.backlog += packet.wire_bytes as usize;
            let seq = self.next_seq;
            self.next_seq += 1;
            self.heap.push(ReferenceEntry {
                virtual_start: start,
                seq,
            });
            self.packets.insert(seq, packet);
            true
        }

        fn dequeue(&mut self) -> Option<Packet> {
            let entry = self.heap.pop()?;
            let packet = self.packets.remove(&entry.seq).expect("stored packet");
            self.backlog -= packet.wire_bytes as usize;
            self.virtual_time = self.virtual_time.max(entry.virtual_start);
            Some(packet)
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(48))]
        /// The slab queue serves exactly what the map-based reference
        /// serves, in the same order, with the same backlog and virtual
        /// clock, over random enqueue / dequeue / `release_flow` sequences:
        /// up to 300 flows, weights from a 3-value set (so equal virtual
        /// starts are common), ACKs, and data packets with
        /// `virtualPacketLen == 0`.
        #[test]
        fn stfq_slab_matches_hashmap_reference(
            seed in 0u64..u64::MAX,
            flows in 1usize..300,
            capacity_packets in 4usize..200,
            ops in 200usize..3000,
        ) {
            let capacity = capacity_packets * 1500;
            let mut q = StfqQueue::new(capacity);
            let mut reference = StfqReference::new(capacity);
            let mut state = seed;
            let mut next = move || {
                state = state
                    .wrapping_mul(6364136223846793005)
                    .wrapping_add(1442695040888963407);
                state >> 17
            };
            for op in 0..ops {
                let r = next();
                match r % 10 {
                    0..=4 => {
                        let flow = (next() % flows as u64) as FlowId;
                        let mut p = match next() % 8 {
                            0 => ack(flow),
                            1 => packet(flow, DataHeader::default()),
                            w => data(flow, [1.0, 2.0, 4.0][(w % 3) as usize]),
                        };
                        p.seq = op as u64;
                        let accepted = q.enqueue(p.clone(), now()).accepted();
                        prop_assert_eq!(accepted, reference.enqueue(p), "op {}", op);
                    }
                    5..=8 => {
                        let a = q.dequeue(now()).map(|p| (p.flow, p.seq));
                        let b = reference.dequeue().map(|p| (p.flow, p.seq));
                        prop_assert_eq!(a, b, "serve order diverged at op {}", op);
                    }
                    _ => {
                        let flow = (next() % flows as u64) as FlowId;
                        q.release_flow(flow);
                        reference.last_finish.remove(&flow);
                    }
                }
                prop_assert_eq!(q.backlog_bytes(), reference.backlog);
                prop_assert_eq!(q.backlog_packets(), reference.packets.len());
                prop_assert_eq!(
                    q.virtual_time().to_bits(),
                    reference.virtual_time.to_bits()
                );
            }
            loop {
                match (q.dequeue(now()), reference.dequeue()) {
                    (Some(x), Some(y)) => prop_assert_eq!((x.flow, x.seq), (y.flow, y.seq)),
                    (None, None) => break,
                    (a, b) => panic!("drain diverged: {a:?} vs {b:?}"),
                }
            }
            prop_assert_eq!(q.virtual_time().to_bits(), reference.virtual_time.to_bits());
        }
    }

    fn pfabric_pkt(flow: FlowId, priority: f64) -> Packet {
        packet(
            flow,
            DataHeader {
                pfabric_priority: priority,
                ..DataHeader::default()
            },
        )
    }

    #[test]
    fn pfabric_serves_smallest_priority_first() {
        let mut q = PfabricQueue::new(1_000_000);
        q.enqueue(pfabric_pkt(0, 5e6), now());
        q.enqueue(pfabric_pkt(1, 1e3), now());
        q.enqueue(pfabric_pkt(2, 2e4), now());
        let order: Vec<FlowId> = (0..3).map(|_| q.dequeue(now()).unwrap().flow).collect();
        assert_eq!(order, vec![1, 2, 0]);
    }

    #[test]
    fn pfabric_drops_lowest_priority_when_full() {
        let mut q = PfabricQueue::new(3_000);
        q.enqueue(pfabric_pkt(0, 100.0), now());
        q.enqueue(pfabric_pkt(1, 10.0), now());
        // Queue full. A higher-priority (smaller value) arrival evicts flow 0.
        let outcome = q.enqueue(pfabric_pkt(2, 1.0), now());
        match outcome {
            EnqueueOutcome::AcceptedWithVictim(victim) => assert_eq!(victim.flow, 0),
            other => panic!("expected eviction, got {other:?}"),
        }
        // A lower-priority (larger value) arrival is itself dropped.
        let outcome = q.enqueue(pfabric_pkt(3, 1e9), now());
        assert!(!outcome.accepted());
        let order: Vec<FlowId> = (0..2).map(|_| q.dequeue(now()).unwrap().flow).collect();
        assert_eq!(order, vec![2, 1]);
        assert_eq!(q.backlog_bytes(), 0);
    }

    #[test]
    fn pfabric_handles_stale_heap_entries_after_eviction() {
        let mut q = PfabricQueue::new(3_000);
        q.enqueue(pfabric_pkt(0, 50.0), now());
        q.enqueue(pfabric_pkt(1, 60.0), now());
        q.enqueue(pfabric_pkt(2, 1.0), now()); // evicts flow 1
        q.enqueue(pfabric_pkt(3, 2.0), now()); // evicts flow 0
        let order: Vec<FlowId> = std::iter::from_fn(|| q.dequeue(now()))
            .map(|p| p.flow)
            .collect();
        assert_eq!(order, vec![2, 3]);
    }

    /// The slot-reuse trap: a tombstone whose slab slot now holds a
    /// *different* live packet must stay a tombstone. Here flow 0's serve
    /// entry (priority 100) is orphaned by eviction, its slot is reused by
    /// flow 3 (priority 500), and the orphan surfaces while flow 4
    /// (priority 200) waits; a liveness check by slot occupancy alone would
    /// serve flow 3 in flow 0's place, ahead of flow 4.
    #[test]
    fn pfabric_tombstone_stays_dead_after_its_slot_is_reused() {
        let mut q = PfabricQueue::new(3_000);
        q.enqueue(pfabric_pkt(0, 100.0), now()); // slot 0
        q.enqueue(pfabric_pkt(1, 10.0), now()); // slot 1
        let evicted = q.enqueue(pfabric_pkt(2, 1.0), now()); // evicts flow 0; slot 0
        assert!(matches!(evicted, EnqueueOutcome::AcceptedWithVictim(v) if v.flow == 0));
        assert_eq!(q.dequeue(now()).map(|p| p.flow), Some(2)); // frees slot 0
        q.enqueue(pfabric_pkt(3, 500.0), now()); // reuses slot 0
        assert_eq!(q.dequeue(now()).map(|p| p.flow), Some(1)); // frees slot 1
        q.enqueue(pfabric_pkt(4, 200.0), now()); // reuses slot 1
        let order: Vec<FlowId> = std::iter::from_fn(|| q.dequeue(now()))
            .map(|p| p.flow)
            .collect();
        assert_eq!(order, vec![4, 3]);
        assert_eq!(q.backlog_bytes(), 0);
    }

    #[test]
    #[should_panic(expected = "flow 5 enqueued a packet whose priority is NaN")]
    fn pfabric_rejects_nan_priority_naming_the_flow() {
        let mut q = PfabricQueue::new(1_000_000);
        q.enqueue(pfabric_pkt(5, f64::NAN), now());
    }

    /// A straightforward O(n)-scan pFabric model with the same semantics the
    /// tombstone queue implements: serve smallest (priority, arrival), evict
    /// largest (priority, arrival).
    struct PfabricReference {
        queued: Vec<(f64, u64, Packet)>,
        capacity_bytes: usize,
        backlog: usize,
        next_seq: u64,
    }

    impl PfabricReference {
        fn new(capacity_bytes: usize) -> Self {
            Self {
                queued: Vec::new(),
                capacity_bytes,
                backlog: 0,
                next_seq: 0,
            }
        }

        fn enqueue(&mut self, packet: Packet) -> EnqueueOutcome {
            if self.backlog + packet.wire_bytes as usize <= self.capacity_bytes {
                self.backlog += packet.wire_bytes as usize;
                self.queued
                    .push((packet.pfabric_priority(), self.next_seq, packet));
                self.next_seq += 1;
                return EnqueueOutcome::Accepted;
            }
            let worst = self
                .queued
                .iter()
                .enumerate()
                .max_by(|(_, a), (_, b)| a.0.total_cmp(&b.0).then_with(|| a.1.cmp(&b.1)))
                .map(|(i, &(p, _, _))| (i, p));
            match worst {
                Some((i, worst_priority)) if packet.pfabric_priority() < worst_priority => {
                    let (_, _, victim) = self.queued.remove(i);
                    self.backlog -= victim.wire_bytes as usize;
                    if self.backlog + packet.wire_bytes as usize <= self.capacity_bytes {
                        self.backlog += packet.wire_bytes as usize;
                        self.queued
                            .push((packet.pfabric_priority(), self.next_seq, packet));
                        self.next_seq += 1;
                        EnqueueOutcome::AcceptedWithVictim(victim)
                    } else {
                        EnqueueOutcome::Dropped(packet)
                    }
                }
                _ => EnqueueOutcome::Dropped(packet),
            }
        }

        fn dequeue(&mut self) -> Option<Packet> {
            let best = self
                .queued
                .iter()
                .enumerate()
                .min_by(|(_, a), (_, b)| a.0.total_cmp(&b.0).then_with(|| a.1.cmp(&b.1)))?;
            let i = best.0;
            let (_, _, packet) = self.queued.remove(i);
            self.backlog -= packet.wire_bytes as usize;
            Some(packet)
        }
    }

    /// Tombstones must not accumulate for the queue's lifetime: served
    /// packets leave never-surfacing entries at the bottom of the eviction
    /// max-heap (and evicted packets at the bottom of the serve min-heap),
    /// so both heaps are periodically rebuilt from the live set.
    #[test]
    fn pfabric_tombstones_stay_bounded() {
        let mut q = PfabricQueue::new(8 * 1500);
        let mut state = 7u64;
        for i in 0..50_000u64 {
            state = state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            let priority = ((state >> 8) % 1_000_000) as f64;
            q.enqueue(pfabric_pkt((i % 16) as usize, priority), now());
            if i % 3 == 0 {
                q.dequeue(now());
            }
            let bound = 2 * q.packets.len() + 16;
            assert!(q.heap.len() <= bound, "serve heap grew to {}", q.heap.len());
            assert!(
                q.worst.len() <= bound,
                "evict heap grew to {}",
                q.worst.len()
            );
        }
    }

    /// Regression test for the tombstone rewrite: on a long pseudo-random
    /// overload sequence (the worst-drop path fires constantly), accept /
    /// evict / drop decisions, victim identities, serve order and backlog
    /// accounting all match the O(n) reference model packet-for-packet.
    #[test]
    fn pfabric_tombstone_matches_reference_scan() {
        let mut q = PfabricQueue::new(8 * 1500);
        let mut reference = PfabricReference::new(8 * 1500);
        // Deterministic pseudo-random priorities with repeats (ties matter).
        let mut state = 0x2545_F491_4F6C_DD1Du64;
        let mut next = || {
            state = state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            state
        };
        for i in 0..4_000u64 {
            let r = next();
            if r % 5 == 0 {
                let a = q.dequeue(now());
                let b = reference.dequeue();
                match (&a, &b) {
                    (Some(x), Some(y)) => {
                        assert_eq!(x.flow, y.flow, "serve order diverged at op {i}");
                        assert_eq!(x.seq, y.seq, "serve order diverged at op {i}");
                    }
                    (None, None) => {}
                    _ => panic!("dequeue presence diverged at op {i}: {a:?} vs {b:?}"),
                }
            } else {
                // Coarse priorities force frequent exact ties.
                let priority = ((r >> 8) % 32) as f64 * 100.0;
                let mut p = pfabric_pkt((i % 16) as usize, priority);
                p.seq = i * 1460;
                let a = q.enqueue(p.clone(), now());
                let b = reference.enqueue(p);
                match (&a, &b) {
                    (EnqueueOutcome::Accepted, EnqueueOutcome::Accepted) => {}
                    (
                        EnqueueOutcome::AcceptedWithVictim(x),
                        EnqueueOutcome::AcceptedWithVictim(y),
                    ) => {
                        assert_eq!(
                            (x.flow, x.seq),
                            (y.flow, y.seq),
                            "victims diverged at op {i}"
                        );
                    }
                    (EnqueueOutcome::Dropped(x), EnqueueOutcome::Dropped(y)) => {
                        assert_eq!((x.flow, x.seq), (y.flow, y.seq));
                    }
                    _ => panic!("enqueue outcome diverged at op {i}: {a:?} vs {b:?}"),
                }
            }
            assert_eq!(q.backlog_bytes(), reference.backlog);
            assert_eq!(q.backlog_packets(), reference.queued.len());
        }
        // Drain and compare the tail.
        loop {
            match (q.dequeue(now()), reference.dequeue()) {
                (Some(x), Some(y)) => assert_eq!((x.flow, x.seq), (y.flow, y.seq)),
                (None, None) => break,
                (a, b) => panic!("drain diverged: {a:?} vs {b:?}"),
            }
        }
    }
}
