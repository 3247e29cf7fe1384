//! The hash-free packet path's allocation gates, counted exactly by the
//! shared counting allocator (`alloc_counter/`), so held at zero tolerance:
//!
//! 1. **Steady state allocates nothing.** After warm-up, 10 000
//!    enqueue/dequeue cycles at constant depth allocate exactly 0 times on
//!    STFQ and on pFabric (whose cycles run at a full buffer, so they evict
//!    and drop too): packets live in slot slabs with free lists, not in
//!    hash maps.
//! 2. **Allocation counts repeat.** A small fat-tree:k=4 run — flows
//!    arming and cancelling an RTO timer on every send, completed flows
//!    retired and replaced mid-run — allocates exactly the same number of
//!    times and bytes when run twice in one process, under STFQ and under
//!    pFabric. With per-map `RandomState` seeds the hash tables' growth
//!    depended on the seed, and so did the count.

mod alloc_counter;

use alloc_counter::counted;
use numfabric_sim::packet::DEFAULT_PAYLOAD_BYTES;
use numfabric_sim::queue::{PfabricQueue, QueueDiscipline, StfqQueue};
use numfabric_sim::routes::{RouteId, RouteTable};
use numfabric_sim::topology::{FatTreeConfig, Route, Topology};
use numfabric_sim::{
    AgentCtx, DataHeader, FlowAgent, FlowId, Network, Packet, SimDuration, SimTime, TimerHandle,
};

/// A deterministic pseudo-random stream (64-bit LCG, high bits).
fn lcg(seed: u64) -> impl FnMut() -> u64 {
    let mut state = seed;
    move || {
        state = state
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        state >> 24
    }
}

/// A full-size data packet of `flow` with STFQ length `len` and pFabric
/// priority `priority`.
fn packet(route: RouteId, flow: FlowId, len: f64, priority: f64) -> Packet {
    let header = DataHeader {
        virtual_packet_len: len,
        pfabric_priority: priority,
        ..DataHeader::default()
    };
    Packet::data(flow, 0, DEFAULT_PAYLOAD_BYTES, route, header)
}

/// `cycles` rounds of the steady-state pattern on `queue`: offer two
/// packets of random flows (out of 32), STFQ lengths and pFabric
/// priorities, then serve one. On a full buffer one offer is dropped (or,
/// under pFabric, evicts the worst packet), so the depth holds.
fn cycle(
    queue: &mut dyn QueueDiscipline,
    route: RouteId,
    next: &mut impl FnMut() -> u64,
    cycles: usize,
) {
    let now = SimTime::ZERO;
    for _ in 0..cycles {
        for _ in 0..2 {
            let r = next();
            let p = packet(
                route,
                (r % 32) as FlowId,
                1500.0 / (1 + r % 3) as f64,
                ((r >> 8) % 64) as f64,
            );
            std::hint::black_box(queue.enqueue(p, now));
        }
        std::hint::black_box(queue.dequeue(now));
    }
}

#[test]
fn steady_state_enqueue_dequeue_allocates_nothing() {
    let route = RouteTable::new().intern(Route::from_links(vec![0]));
    let disciplines: [(&str, Box<dyn QueueDiscipline>); 2] = [
        ("STFQ", Box::new(StfqQueue::new(64 * 1500))),
        ("pFabric", Box::new(PfabricQueue::new(24 * 1500))),
    ];
    for (name, mut queue) in disciplines {
        let mut next = lcg(0x5EED);
        // Fill to the buffer, then warm up at that depth: every slab slot,
        // heap, free list and per-flow entry reaches its peak size.
        for _ in 0..64 {
            queue.enqueue(packet(route, 0, 1500.0, 32.0), SimTime::ZERO);
        }
        cycle(queue.as_mut(), route, &mut next, 5_000);
        let depth = queue.backlog_packets();
        let (allocations, _) = counted(|| cycle(queue.as_mut(), route, &mut next, 10_000));
        assert_eq!(
            queue.backlog_packets(),
            depth,
            "{name}: the cycles must hold the queue at constant depth"
        );
        assert_eq!(
            allocations, 0,
            "{name}: 10 000 warm enqueue/dequeue cycles allocated {allocations} times"
        );
    }
}

/// A window-limited sender that stamps every data packet with an STFQ
/// virtual length (payload / weight) and a pFabric priority (remaining
/// bytes), and re-arms an RTO timer on every send — cancelling the
/// previous one, which exercises the event core's cancellation sets. An
/// expired RTO goes back to the cumulative ACK and refills the window.
struct Windowed {
    window: usize,
    in_flight: usize,
    weight: f64,
    rto: Option<TimerHandle>,
}

impl Windowed {
    fn boxed(flow: usize) -> Box<Self> {
        Box::new(Self {
            window: 12,
            in_flight: 0,
            weight: (1 + flow % 4) as f64,
            rto: None,
        })
    }

    fn fill(&mut self, ctx: &mut AgentCtx<'_>) {
        while self.in_flight < self.window {
            let Some(payload) = ctx.next_payload() else {
                break;
            };
            let remaining = ctx.remaining_bytes().unwrap_or(u64::MAX);
            let weight = self.weight;
            ctx.send_next(payload, |h| {
                h.virtual_packet_len = payload as f64 / weight;
                h.pfabric_priority = remaining as f64;
            });
            self.in_flight += 1;
            if let Some(rto) = self.rto.take() {
                ctx.cancel_timer(rto);
            }
            self.rto = Some(ctx.set_timer(SimDuration::from_micros(200), 0));
        }
    }
}

impl FlowAgent for Windowed {
    fn on_start(&mut self, ctx: &mut AgentCtx<'_>) {
        self.fill(ctx);
    }

    fn on_ack(&mut self, _packet: &Packet, ctx: &mut AgentCtx<'_>) {
        self.in_flight = self.in_flight.saturating_sub(1);
        self.fill(ctx);
    }

    fn on_timer(&mut self, _tag: u64, ctx: &mut AgentCtx<'_>) {
        self.rto = None;
        self.in_flight = 0;
        ctx.go_back_n();
        self.fill(ctx);
    }
}

type QueueFactory = fn() -> Box<dyn QueueDiscipline>;

/// One complete run on a k=4 fat-tree: 48 flows of 40–160 kB, then every
/// completed flow retired and replaced by a new one, then more simulated
/// time. Returns the number of flows that completed (so the run is known
/// to exercise retirement).
fn fat_tree_run(queue: QueueFactory) -> usize {
    let topo = Topology::fat_tree(&FatTreeConfig::new(4));
    let hosts = topo.hosts().to_vec();
    let mut net = Network::new(topo, |_| queue());
    let n = hosts.len();
    let add = |net: &mut Network, i: usize, at: SimTime| {
        net.add_flow(
            hosts[i % n],
            hosts[(i * 7 + 3) % n],
            Some(40_000 * (1 + i as u64 % 4)),
            at,
            i,
            None,
            Windowed::boxed(i),
        )
    };
    let mut flows: Vec<FlowId> = (0..48).map(|i| add(&mut net, i, SimTime::ZERO)).collect();
    net.run_until(SimTime::from_millis(1));
    let mut completed = 0;
    let now = net.now();
    for (i, flow) in flows.iter_mut().enumerate() {
        if net.flow_stats(*flow).completed_at.is_some() && net.try_retire_flow(*flow) {
            completed += 1;
            *flow = add(&mut net, 48 + i, now);
        }
    }
    net.run_until(SimTime::from_millis(3));
    completed
}

#[test]
fn repeated_fat_tree_runs_allocate_identically() {
    let disciplines: [(&str, QueueFactory); 2] = [
        ("STFQ", || Box::new(StfqQueue::with_default_buffer())),
        ("pFabric", || Box::new(PfabricQueue::new(30 * 1500))),
    ];
    for (name, queue) in disciplines {
        let mut completed = [0; 2];
        let first = counted(|| completed[0] = fat_tree_run(queue));
        let second = counted(|| completed[1] = fat_tree_run(queue));
        assert!(first.0 > 0, "the allocator is not counting");
        assert!(
            completed[0] > 0,
            "{name}: no flow completed, so none was retired"
        );
        assert_eq!(completed[0], completed[1], "{name}: the runs diverged");
        assert_eq!(
            first, second,
            "{name}: two identical runs allocated (count, bytes) {first:?} then {second:?}"
        );
    }
}
