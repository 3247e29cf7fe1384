//! Differential tests of the timing-wheel event core against the
//! binary-heap reference model ([`HeapEventQueue`]).
//!
//! The determinism contract — pops in lexicographic `(time, seq)` order,
//! FIFO for timestamp ties, cancellation tombstones, clock advancement —
//! must be bit-identical between the two implementations on *any* sequence
//! of schedule / schedule_cancellable / cancel / pop / peek operations,
//! including timestamp ties, zero-delay schedules, pacing-like spacings and
//! far-future (overflow-level) timestamps.

use numfabric_sim::event::{Event, EventId, EventQueue, HeapEventQueue};
use numfabric_sim::{SimDuration, SimTime};
use proptest::prelude::*;
use rand::{Rng, SeedableRng};
use rand_chacha::ChaCha8Rng;

fn start(flow: usize) -> Event {
    Event::FlowStart { flow }
}

fn flow_of(event: &Event) -> usize {
    match event {
        Event::FlowStart { flow } => *flow,
        other => panic!("unexpected event {other:?}"),
    }
}

/// One randomized differential run: apply an identical operation sequence
/// to the wheel and the heap and compare every observable.
fn differential_run(seed: u64, ops: usize) {
    let mut rng = ChaCha8Rng::seed_from_u64(seed);
    let mut wheel = EventQueue::new();
    let mut heap = HeapEventQueue::new();
    // Ids of cancellable events that have not been cancelled yet (they may
    // have fired — cancelling a fired id must be a no-op in both).
    let mut handles: Vec<(EventId, EventId)> = Vec::new();

    for op in 0..ops {
        match rng.gen_range(0u32..100) {
            // Near-future schedule, heavily tie-prone: deltas in {0..8} µs
            // quantized to 400 ns so equal timestamps are common.
            0..=34 => {
                let delta = SimDuration::from_nanos(rng.gen_range(0u64..20) * 400);
                let at = wheel.now() + delta;
                let a = wheel.schedule(at, start(op));
                let b = heap.schedule(at, start(op));
                assert_eq!(a, b, "seq allocation diverged");
            }
            // Pacing-like spacing: ~1.2 µs with jitter (the DGD/RCP* shape).
            35..=54 => {
                let delta = SimDuration::from_nanos(1_232 + rng.gen_range(0u64..64));
                let at = wheel.now() + delta;
                wheel.schedule(at, start(op));
                heap.schedule(at, start(op));
            }
            // Mid-range (link-timer / RTO shape) cancellable schedule.
            55..=69 => {
                let delta = SimDuration::from_micros(rng.gen_range(1u64..100));
                let at = wheel.now() + delta;
                let a = wheel.schedule_cancellable(at, start(op));
                let b = heap.schedule_cancellable(at, start(op));
                assert_eq!(a, b);
                handles.push((a, b));
            }
            // Far-future schedule, some beyond the 2^36 ns wheel horizon.
            70..=74 => {
                let delta = SimDuration::from_secs_f64(rng.gen_range(1.0f64..200.0));
                let at = wheel.now() + delta;
                wheel.schedule(at, start(op));
                heap.schedule(at, start(op));
            }
            // Cancel a random outstanding handle (possibly already fired).
            75..=82 => {
                if !handles.is_empty() {
                    let i = rng.gen_range(0..handles.len());
                    let (a, b) = handles.swap_remove(i);
                    assert_eq!(wheel.cancel(a), heap.cancel(b), "cancel diverged");
                }
            }
            // Peek.
            83..=87 => {
                assert_eq!(wheel.peek_time(), heap.peek_time(), "peek diverged");
            }
            // Pop a small burst.
            _ => {
                for _ in 0..rng.gen_range(1usize..6) {
                    let state = wheel.debug_dump();
                    let a = wheel.pop_entry();
                    let b = heap.pop_entry();
                    match (a, b) {
                        (None, None) => break,
                        (Some((ta, ia, ea)), Some((tb, ib, eb))) => {
                            assert_eq!(
                                (ta, ia, flow_of(&ea)),
                                (tb, ib, flow_of(&eb)),
                                "pop diverged at op {op}; pre-pop state:\n{state}"
                            );
                            assert_eq!(wheel.now(), heap.now());
                        }
                        (a, b) => panic!(
                            "pop presence diverged at op {op}: wheel={:?} heap={:?}",
                            a.map(|(t, i, _)| (t, i)),
                            b.map(|(t, i, _)| (t, i))
                        ),
                    }
                }
            }
        }
        assert_eq!(wheel.len(), heap.len(), "len diverged at op {op}");
        wheel.debug_validate();
    }

    // Drain both completely and compare the full tail.
    loop {
        let state = wheel.debug_dump();
        let a = wheel.pop_entry();
        let b = heap.pop_entry();
        match (a, b) {
            (None, None) => break,
            (Some((ta, ia, ea)), Some((tb, ib, eb))) => {
                assert_eq!(
                    (ta, ia, flow_of(&ea)),
                    (tb, ib, flow_of(&eb)),
                    "drain diverged; pre-pop state:\n{state}"
                );
            }
            (a, b) => panic!(
                "drain diverged: wheel={:?} heap={:?}",
                a.map(|(t, i, _)| (t, i)),
                b.map(|(t, i, _)| (t, i))
            ),
        }
    }
    assert!(wheel.is_empty() && heap.is_empty());
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]
    #[test]
    fn wheel_matches_heap_reference(seed in 0u64..u64::MAX) {
        differential_run(seed, 400);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(4))]
    #[test]
    fn wheel_matches_heap_reference_long_runs(seed in 0u64..u64::MAX) {
        differential_run(seed ^ 0xdead_beef, 6_000);
    }
}

// ---- handlers scheduling and cancelling mid-drain -------------------------
//
// A dispatch loop's handlers schedule and cancel while the queue drains: at
// the current instant (joining the same-timestamp group being popped), just
// ahead of it, and cancelling events that may belong to that very group.
// The harness drains the wheel and the heap in lockstep on a tie-heavy
// population and applies every handler decision to both, so the first pop
// that differs fails the run.

/// The "handler": on every dispatched event, maybe schedule (often at the
/// *current* timestamp), maybe cancel an outstanding cancellable id
/// (possibly one still pending in the group being drained).
struct DispatchPolicy {
    rng: ChaCha8Rng,
    handles: Vec<(EventId, EventId)>,
    next_flow: usize,
    budget: usize,
}

impl DispatchPolicy {
    fn new(seed: u64, budget: usize) -> Self {
        Self {
            rng: ChaCha8Rng::seed_from_u64(seed ^ 0x5ca1_ab1e),
            handles: Vec::new(),
            next_flow: 10_000,
            budget,
        }
    }

    fn on_dispatch(&mut self, wheel: &mut EventQueue, heap: &mut HeapEventQueue) {
        let (delay_ns, cancellable) = match self.rng.gen_range(0u32..100) {
            // Same-timestamp schedule: joins the group being drained and
            // must pop at its exact seq position.
            0..=29 if self.budget > 0 => (0, false),
            // Tie-prone near-future schedule.
            30..=49 if self.budget > 0 => (self.rng.gen_range(0u64..6) * 200, false),
            // Cancellable schedule, sometimes at the current instant.
            50..=64 if self.budget > 0 => (self.rng.gen_range(0u64..4) * 400, true),
            // Cancel something outstanding — possibly a not-yet-popped
            // member of the group currently being drained.
            65..=79 if !self.handles.is_empty() => {
                let i = self.rng.gen_range(0..self.handles.len());
                let (a, b) = self.handles.swap_remove(i);
                assert_eq!(wheel.cancel(a), heap.cancel(b), "cancel diverged");
                return;
            }
            _ => return,
        };
        self.budget -= 1;
        let flow = self.next_flow;
        self.next_flow += 1;
        let at = wheel.now() + SimDuration::from_nanos(delay_ns);
        if cancellable {
            let ids = (
                wheel.schedule_cancellable(at, start(flow)),
                heap.schedule_cancellable(at, start(flow)),
            );
            assert_eq!(ids.0, ids.1, "seq allocation diverged");
            self.handles.push(ids);
        } else {
            let ids = (
                wheel.schedule(at, start(flow)),
                heap.schedule(at, start(flow)),
            );
            assert_eq!(ids.0, ids.1, "seq allocation diverged");
        }
    }
}

/// Seed both queues with an identical tie-heavy population.
fn seed_population(wheel: &mut EventQueue, heap: &mut HeapEventQueue, seed: u64, events: usize) {
    let mut rng = ChaCha8Rng::seed_from_u64(seed);
    for flow in 0..events {
        // Quantized to 500 ns over a 10 µs window: long same-timestamp runs.
        let at = SimTime::from_nanos(rng.gen_range(0u64..20) * 500);
        if rng.gen_bool(0.2) {
            wheel.schedule_cancellable(at, start(flow));
            heap.schedule_cancellable(at, start(flow));
        } else {
            wheel.schedule(at, start(flow));
            heap.schedule(at, start(flow));
        }
    }
}

/// Drain both queues with `pop_entry`, the network dispatcher's structure,
/// invoking the policy after every dispatched event.
fn mid_drain_differential_run(seed: u64, events: usize, budget: usize) {
    let mut wheel = EventQueue::new();
    let mut heap = HeapEventQueue::new();
    seed_population(&mut wheel, &mut heap, seed, events);
    let mut policy = DispatchPolicy::new(seed, budget);
    for k in 0.. {
        match (wheel.pop_entry(), heap.pop_entry()) {
            (None, None) => break,
            (Some((ta, ia, ea)), Some((tb, ib, eb))) => {
                assert_eq!(
                    (ta, ia, flow_of(&ea)),
                    (tb, ib, flow_of(&eb)),
                    "dispatch {k} diverged"
                );
                assert_eq!(wheel.now(), heap.now());
            }
            (a, b) => panic!(
                "dispatch {k} presence diverged: wheel={:?} heap={:?}",
                a.map(|(t, i, _)| (t, i)),
                b.map(|(t, i, _)| (t, i))
            ),
        }
        policy.on_dispatch(&mut wheel, &mut heap);
        assert_eq!(wheel.len(), heap.len(), "len diverged after dispatch {k}");
    }
    assert!(wheel.is_empty() && heap.is_empty());
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]
    #[test]
    fn wheel_matches_heap_with_mid_drain_handlers(seed in 0u64..u64::MAX) {
        mid_drain_differential_run(seed, 300, 200);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(4))]
    #[test]
    fn wheel_matches_heap_with_mid_drain_handlers_long(seed in 0u64..u64::MAX) {
        mid_drain_differential_run(seed ^ 0xbadc_0ffe, 3_000, 2_000);
    }
}

/// The add-flow-between-runs pattern: peek far ahead (advancing the wheel
/// cursor), then schedule behind the peeked time.
#[test]
fn peek_ahead_then_schedule_behind_matches_heap() {
    let mut wheel = EventQueue::new();
    let mut heap = HeapEventQueue::new();
    for (i, t) in [5_000_000u64, 40, 40, 9_000].into_iter().enumerate() {
        if i == 1 {
            // Force the cursor forward before the remaining schedules.
            assert_eq!(wheel.peek_time(), heap.peek_time());
        }
        wheel.schedule(SimTime::from_nanos(t), start(i));
        heap.schedule(SimTime::from_nanos(t), start(i));
    }
    loop {
        match (wheel.pop_entry(), heap.pop_entry()) {
            (None, None) => break,
            (a, b) => assert_eq!(
                a.map(|(t, i, e)| (t, i, flow_of(&e))),
                b.map(|(t, i, e)| (t, i, flow_of(&e)))
            ),
        }
    }
}
