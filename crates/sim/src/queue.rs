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
//!
//! The two FIFOs hold their packets in a `VecDeque`. STFQ and pFabric keep
//! theirs in a shared slot slab and order them by `(key, seq, slot)`
//! entries: STFQ in a min-heap on virtual start, pFabric in one deque kept
//! sorted by priority, whose front is served and whose back is evicted.

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
// Slot slab and ordering entries shared by STFQ and pFabric
// ---------------------------------------------------------------------------

/// Packet storage of [`StfqQueue`] and [`PfabricQueue`]: a `Vec` of slots,
/// each holding a packet or a link of the LIFO free list threaded through
/// the vacant slots. An ordering entry (STFQ's heap, pFabric's sorted
/// deque) carries its packet's slot beside its key, so serving it is one
/// indexed `take` — no hashing. Every entry names a live packet, so the
/// slot alone identifies it. Freed slots are reused first, so the slab
/// stays sized to the queue's peak depth, and since the free list lives in
/// the slots themselves, only that peak ever allocates.
#[derive(Debug, Default)]
struct PacketSlab {
    slots: Vec<Slot>,
    /// First vacant slot, if any.
    free_head: Option<u32>,
}

/// One slot of a [`PacketSlab`].
#[derive(Debug)]
enum Slot {
    Full(Packet),
    /// Vacant; `next` is the next vacant slot, if any.
    Vacant {
        next: Option<u32>,
    },
}

impl PacketSlab {
    /// Store `packet`; returns its slot.
    fn insert(&mut self, packet: Packet) -> u32 {
        let Some(slot) = self.free_head else {
            let slot = u32::try_from(self.slots.len()).expect("more than 2^32 queued packets");
            self.slots.push(Slot::Full(packet));
            return slot;
        };
        match std::mem::replace(&mut self.slots[slot as usize], Slot::Full(packet)) {
            Slot::Vacant { next } => self.free_head = next,
            Slot::Full(_) => unreachable!("the free list names an occupied slot"),
        }
        slot
    }

    /// The packet in `slot`, which must be occupied.
    fn get(&self, slot: u32) -> &Packet {
        match &self.slots[slot as usize] {
            Slot::Full(packet) => packet,
            Slot::Vacant { .. } => unreachable!("an ordering entry names a vacant slot"),
        }
    }

    /// Take the packet out of `slot`, which must be occupied, freeing it.
    fn take(&mut self, slot: u32) -> Packet {
        let vacant = Slot::Vacant {
            next: self.free_head,
        };
        match std::mem::replace(&mut self.slots[slot as usize], vacant) {
            Slot::Full(packet) => {
                self.free_head = Some(slot);
                packet
            }
            Slot::Vacant { .. } => unreachable!("an ordering entry names a vacant slot"),
        }
    }
}

/// An ordering entry: ordered by `(key, seq)` — the scheduling key (STFQ
/// virtual start, pFabric priority), then arrival order — and carrying the
/// slab slot of its packet. `Ord` is ascending; STFQ's min-heap wraps it in
/// `Reverse`.
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
        let slot = self.packets.insert(packet);
        self.heap.push(Reverse(SlotEntry {
            key: start,
            seq,
            slot,
        }));
        EnqueueOutcome::Accepted
    }

    fn dequeue(&mut self, _now: SimTime) -> Option<Packet> {
        let Reverse(entry) = self.heap.pop()?;
        let packet = self.packets.take(entry.slot);
        self.backlog -= packet.wire_bytes as usize;
        // Advance the port's virtual time to the served packet's virtual start.
        self.virtual_time = self.virtual_time.max(entry.key);
        Some(packet)
    }

    fn backlog_bytes(&self) -> usize {
        self.backlog
    }

    fn backlog_packets(&self) -> usize {
        self.heap.len()
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
/// arrival, provided that makes room for it. Otherwise the arrival itself
/// is dropped and the queue is left as it was.
///
/// Layout: the packets sit in a slot slab, and one deque of `(priority,
/// seq, slot)` entries keeps them in ascending `(priority, seq)` order. The
/// front is served next; the back is the eviction victim — the largest
/// priority, ties going to the youngest packet. pFabric buffers hold a few
/// dozen packets, so an enqueue's binary search and shift cost less than
/// a heap's upkeep, and serving and evicting are a pop at either end.
///
/// # Panics
/// [`QueueDiscipline::enqueue`] panics, naming the flow, on a packet whose
/// `pfabric_priority` is NaN.
#[derive(Debug)]
pub struct PfabricQueue {
    /// Entries of the queued packets in ascending `(priority, seq)` order.
    order: VecDeque<SlotEntry>,
    /// The queued packets, addressed by their entries' slots.
    packets: PacketSlab,
    capacity_bytes: usize,
    backlog: usize,
    next_seq: u64,
}

impl PfabricQueue {
    /// A pFabric queue with the given byte capacity. pFabric is designed for
    /// very shallow buffers (e.g. ~2×BDP), unlike the other schemes.
    pub fn new(capacity_bytes: usize) -> Self {
        Self {
            order: VecDeque::new(),
            packets: PacketSlab::default(),
            capacity_bytes,
            backlog: 0,
            next_seq: 0,
        }
    }

    /// Queue `packet` under `priority`, after every entry that orders
    /// before it: all those with a smaller priority or an equal one, since
    /// its seq is the largest yet.
    fn insert(&mut self, priority: f64, packet: Packet) {
        self.backlog += packet.wire_bytes as usize;
        let entry = SlotEntry {
            key: priority,
            seq: self.next_seq,
            slot: self.packets.insert(packet),
        };
        self.next_seq += 1;
        let at = self.order.partition_point(|queued| *queued < entry);
        self.order.insert(at, entry);
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
        let bytes = packet.wire_bytes as usize;
        if self.backlog + bytes <= self.capacity_bytes {
            self.insert(priority, packet);
            return EnqueueOutcome::Accepted;
        }
        // Buffer full: evict the worst queued packet, but only if the
        // arrival outranks it and evicting it makes room; otherwise the
        // arrival is dropped and the queue is left as it was.
        match self.order.back() {
            Some(worst)
                if priority < worst.key
                    && self.backlog - self.packets.get(worst.slot).wire_bytes as usize + bytes
                        <= self.capacity_bytes =>
            {
                let worst = self.order.pop_back().expect("checked non-empty above");
                let victim = self.packets.take(worst.slot);
                self.backlog -= victim.wire_bytes as usize;
                self.insert(priority, packet);
                EnqueueOutcome::AcceptedWithVictim(victim)
            }
            _ => EnqueueOutcome::Dropped(packet),
        }
    }

    fn dequeue(&mut self, _now: SimTime) -> Option<Packet> {
        let entry = self.order.pop_front()?;
        let packet = self.packets.take(entry.slot);
        self.backlog -= packet.wire_bytes as usize;
        Some(packet)
    }

    fn backlog_bytes(&self) -> usize {
        self.backlog
    }

    fn backlog_packets(&self) -> usize {
        self.order.len()
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

    /// Back-to-back evictions each take the worst packet queued at the time,
    /// and the evicted packets never come out of a later dequeue.
    #[test]
    fn pfabric_successive_evictions_each_take_the_worst() {
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

    /// Serve order follows priority, not slab slots: flows 3 (priority 500)
    /// and 4 (priority 200) reuse, in that order, the slots that evicted
    /// flow 0 and served flows 2 and 1 left behind, and flow 4 is still
    /// served first.
    #[test]
    fn pfabric_serve_order_survives_slot_reuse() {
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

    /// Evicting the worst packet must make room for the arrival, or the
    /// queue is left alone: here the worst packet is a 140 B one, and a
    /// 1 500 B arrival still would not fit without it. The arrival is
    /// dropped and both queued packets stay, rather than the small victim
    /// vanishing unreported.
    #[test]
    fn pfabric_drops_the_arrival_when_eviction_would_not_make_room() {
        let mut q = PfabricQueue::new(2_900);
        q.enqueue(pfabric_pkt(0, 10.0), now());
        let small = Packet::data(
            1,
            0,
            100,
            route(),
            DataHeader {
                pfabric_priority: 100.0,
                ..DataHeader::default()
            },
        );
        assert_eq!(small.wire_bytes, 140);
        assert!(q.enqueue(small, now()).accepted());
        let outcome = q.enqueue(pfabric_pkt(2, 1.0), now());
        assert!(
            matches!(&outcome, EnqueueOutcome::Dropped(p) if p.flow == 2),
            "expected the arrival dropped, got {outcome:?}"
        );
        assert_eq!(q.backlog_bytes(), 1_640);
        assert_eq!(q.backlog_packets(), 2);
        let order: Vec<FlowId> = std::iter::from_fn(|| q.dequeue(now()))
            .map(|p| p.flow)
            .collect();
        assert_eq!(order, vec![0, 1]);
    }

    #[test]
    #[should_panic(expected = "flow 5 enqueued a packet whose priority is NaN")]
    fn pfabric_rejects_nan_priority_naming_the_flow() {
        let mut q = PfabricQueue::new(1_000_000);
        q.enqueue(pfabric_pkt(5, f64::NAN), now());
    }

    /// A straightforward O(n)-scan pFabric model with the same semantics the
    /// sorted queue implements: serve smallest (priority, arrival), evict
    /// largest (priority, arrival) if that makes room for the arrival.
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
                Some((i, worst_priority))
                    if packet.pfabric_priority() < worst_priority
                        && self.backlog - self.queued[i].2.wire_bytes as usize
                            + packet.wire_bytes as usize
                            <= self.capacity_bytes =>
                {
                    let (_, _, victim) = self.queued.remove(i);
                    self.backlog -= victim.wire_bytes as usize;
                    self.backlog += packet.wire_bytes as usize;
                    self.queued
                        .push((packet.pfabric_priority(), self.next_seq, packet));
                    self.next_seq += 1;
                    EnqueueOutcome::AcceptedWithVictim(victim)
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

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(48))]
        /// The sorted queue makes exactly the reference scan's accept /
        /// evict / drop decisions, with the same victims, serve order and
        /// backlog, over random enqueue / dequeue sequences: payloads from
        /// 1 to 1 460 B, buffers of 2 to 30 full-size packets, and
        /// priorities from a 16-value set, so ties are common. Every
        /// offered packet comes back exactly once — served, returned as the
        /// victim or the dropped arrival, or drained at the end.
        #[test]
        fn pfabric_sorted_queue_matches_scan_reference(
            seed in 0u64..u64::MAX,
            capacity_packets in 2usize..=30,
            ops in 200usize..3000,
        ) {
            let capacity = capacity_packets * MTU_BYTES as usize;
            let mut q = PfabricQueue::new(capacity);
            let mut reference = PfabricReference::new(capacity);
            let mut state = seed;
            let mut next = move || {
                state = state
                    .wrapping_mul(6364136223846793005)
                    .wrapping_add(1442695040888963407);
                state >> 17
            };
            // Packets are identified by their seq, which is the op that
            // offered them; each must come back exactly once.
            let mut returned = vec![false; ops];
            let mut give_back = |p: &Packet| {
                prop_assert!(!returned[p.seq as usize], "packet {} came back twice", p.seq);
                returned[p.seq as usize] = true;
            };
            let mut offered = Vec::new();
            for op in 0..ops {
                if next() % 10 < 7 {
                    let payload = 1 + (next() % DEFAULT_PAYLOAD_BYTES as u64) as u32;
                    let header = DataHeader {
                        pfabric_priority: (next() % 16) as f64 * 100.0,
                        ..DataHeader::default()
                    };
                    let flow = (next() % 16) as FlowId;
                    let p = Packet::data(flow, op as u64, payload, route(), header);
                    offered.push(op);
                    match (q.enqueue(p.clone(), now()), reference.enqueue(p)) {
                        (EnqueueOutcome::Accepted, EnqueueOutcome::Accepted) => {}
                        (
                            EnqueueOutcome::AcceptedWithVictim(x),
                            EnqueueOutcome::AcceptedWithVictim(y),
                        ) => {
                            prop_assert_eq!(x.seq, y.seq, "victims diverged at op {}", op);
                            give_back(&x);
                        }
                        (EnqueueOutcome::Dropped(x), EnqueueOutcome::Dropped(y)) => {
                            prop_assert_eq!(x.seq, y.seq, "drops diverged at op {}", op);
                            give_back(&x);
                        }
                        (a, b) => panic!("enqueue outcome diverged at op {op}: {a:?} vs {b:?}"),
                    }
                } else {
                    let a = q.dequeue(now());
                    let b = reference.dequeue();
                    prop_assert_eq!(
                        a.as_ref().map(|p| p.seq),
                        b.map(|p| p.seq),
                        "serve order diverged at op {}",
                        op
                    );
                    if let Some(p) = &a {
                        give_back(p);
                    }
                }
                prop_assert_eq!(q.backlog_bytes(), reference.backlog);
                prop_assert_eq!(q.backlog_packets(), reference.queued.len());
                prop_assert!(q.backlog_bytes() <= capacity);
            }
            loop {
                match (q.dequeue(now()), reference.dequeue()) {
                    (Some(x), Some(y)) => {
                        prop_assert_eq!(x.seq, y.seq);
                        give_back(&x);
                    }
                    (None, None) => break,
                    (a, b) => panic!("drain diverged: {a:?} vs {b:?}"),
                }
            }
            prop_assert!(
                offered.iter().all(|&op| returned[op]),
                "an offered packet never came back"
            );
        }
    }
}
