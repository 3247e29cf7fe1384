//! Differential tests of the timing-wheel event core against the
//! binary-heap reference model (`heap_reference/`).
//!
//! The determinism contract — pops in lexicographic `(time, seq)` order,
//! FIFO for timestamp ties, cancellation tombstones, clock advancement —
//! must be bit-identical between the two implementations on *any* sequence
//! of schedule / schedule_cancellable / cancel / pop / peek operations,
//! including timestamp ties, zero-delay schedules, pacing-like spacings and
//! far-future (top-level) timestamps — and likewise for the seeded entry
//! points a `Network` uses, where keys may repeat.

mod heap_reference;

use heap_reference::HeapEventQueue;
use numfabric_sim::event::{Event, EventId, EventQueue};
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
    let mut handles: Vec<(EventId, u64)> = Vec::new();

    for op in 0..ops {
        match rng.gen_range(0u32..100) {
            // Near-future schedule, heavily tie-prone: deltas in {0..8} µs
            // quantized to 400 ns so equal timestamps are common.
            0..=34 => {
                let delta = SimDuration::from_nanos(rng.gen_range(0u64..20) * 400);
                let at = wheel.now() + delta;
                let a = wheel.schedule(at, start(op));
                let b = heap.schedule(at, start(op));
                assert_eq!(a.as_u64(), b, "seq allocation diverged");
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
                assert_eq!(a.as_u64(), b);
                handles.push((a, b));
            }
            // Far-future schedule, up to ~2^37.5 ns (wheel level 6).
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
                                (ta, ia.as_u64(), flow_of(&ea)),
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
                    (ta, ia.as_u64(), flow_of(&ea)),
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
    handles: Vec<(EventId, u64)>,
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
            assert_eq!(ids.0.as_u64(), ids.1, "seq allocation diverged");
            self.handles.push(ids);
        } else {
            let ids = (
                wheel.schedule(at, start(flow)),
                heap.schedule(at, start(flow)),
            );
            assert_eq!(ids.0.as_u64(), ids.1, "seq allocation diverged");
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
                    (ta, ia.as_u64(), flow_of(&ea)),
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

// ---- the network's entry points: seeded keys ------------------------------
//
// A `Network` schedules only through `schedule_seeded` and
// `schedule_cancellable_seeded`, under content-derived keys: plain events
// may repeat a key at one instant, cancellable ones are unique. Seeded and
// unseeded scheduling never mix on one queue, so this run uses the seeded
// entry points only.
//
// Equal keys pop in schedule order when they were scheduled under one
// cursor position (they share a slot) or behind the cursor (they share the
// front). Equal keys scheduled into the wheel under *different* cursor
// positions can sit on different levels, and the finer one drains first;
// the heap model does not reproduce that, so wheel-bound repeats draw
// their keys from a space private to the current cursor epoch.

/// Keys repeated behind the cursor: a tiny space, so equal `(time, key)`
/// pairs are common.
const REPEATED_KEYS: u64 = 8;

/// One randomized differential run through the seeded entry points.
fn seeded_differential_run(seed: u64, ops: usize) {
    let mut rng = ChaCha8Rng::seed_from_u64(seed ^ 0x5eed_ed00);
    let mut wheel = EventQueue::new();
    let mut heap = HeapEventQueue::new();
    let mut handles: Vec<(EventId, u64)> = Vec::new();
    // Peeks and pops are the only operations that move the wheel cursor;
    // `epoch` counts them so wheel-bound repeats stay within one position.
    let mut epoch = 1u64;
    // Cancellable keys are unique and disjoint from every repeated one.
    let mut next_unique_key = 1u64 << 40;

    for op in 0..ops {
        let now = wheel.now().as_nanos();
        let epoch_key = epoch * REPEATED_KEYS + rng.gen_range(0..REPEATED_KEYS);
        let plain: Option<(u64, u64)> = match rng.gen_range(0u32..100) {
            // Tie-prone near-future schedule under a repeated key.
            0..=34 => Some((now.saturating_add(rng.gen_range(0u64..20) * 400), epoch_key)),
            // Behind the cursor right after a peek (the peek drains the next
            // bucket into the front and moves the cursor to it), often at
            // the peeked instant itself.
            35..=49 => {
                let peeked = wheel.peek_time();
                assert_eq!(peeked, heap.peek_time(), "peek diverged at op {op}");
                epoch += 1;
                peeked.map(|p| {
                    let p = p.as_nanos();
                    let at = if rng.gen_bool(0.4) {
                        p
                    } else {
                        rng.gen_range(now..=p)
                    };
                    (at, rng.gen_range(0..REPEATED_KEYS))
                })
            }
            // Far-future absolute timestamps, up to the end of the clock.
            50..=54 => {
                let at = match rng.gen_range(0u32..3) {
                    0 => (u64::MAX - rng.gen_range(0u64..3)).max(now),
                    1 => rng.gen_range(now..=u64::MAX),
                    _ => now.saturating_add(rng.gen_range(1u64..200) * 1_000_000_000),
                };
                Some((at, epoch_key))
            }
            // Unique-keyed cancellable schedule (the RTO / link-timer shape).
            55..=69 => {
                let delta = rng.gen_range(0u64..100) * 1_000;
                let at = SimTime::from_nanos(now.saturating_add(delta));
                let key = next_unique_key;
                next_unique_key += 1;
                let a = wheel.schedule_cancellable_seeded(at, start(op), key);
                let b = heap.schedule_cancellable_seeded(at, start(op), key);
                assert_eq!(a.as_u64(), b, "id diverged at op {op}");
                handles.push((a, b));
                None
            }
            // Cancel a random outstanding handle (possibly already fired).
            70..=77 => {
                if !handles.is_empty() {
                    let i = rng.gen_range(0..handles.len());
                    let (a, b) = handles.swap_remove(i);
                    assert_eq!(
                        wheel.cancel(a),
                        heap.cancel(b),
                        "cancel diverged at op {op}"
                    );
                }
                None
            }
            // Peek.
            78..=82 => {
                assert_eq!(
                    wheel.peek_time(),
                    heap.peek_time(),
                    "peek diverged at op {op}"
                );
                epoch += 1;
                None
            }
            // Pop a small burst.
            _ => {
                epoch += 1;
                for _ in 0..rng.gen_range(1usize..6) {
                    let state = wheel.debug_dump();
                    match (wheel.pop_entry(), heap.pop_entry()) {
                        (None, None) => break,
                        (Some((ta, ia, ea)), Some((tb, ib, eb))) => {
                            assert_eq!(
                                (ta, ia.as_u64(), flow_of(&ea)),
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
                None
            }
        };
        if let Some((at, key)) = plain {
            let at = SimTime::from_nanos(at);
            let a = wheel.schedule_seeded(at, start(op), key);
            let b = heap.schedule_seeded(at, start(op), key);
            assert_eq!(a.as_u64(), b, "id diverged at op {op}");
        }
        assert_eq!(wheel.len(), heap.len(), "len diverged at op {op}");
        wheel.debug_validate();
    }

    loop {
        let state = wheel.debug_dump();
        match (wheel.pop_entry(), heap.pop_entry()) {
            (None, None) => break,
            (a, b) => assert_eq!(
                a.map(|(t, i, e)| (t, i.as_u64(), flow_of(&e))),
                b.map(|(t, i, e)| (t, i, flow_of(&e))),
                "drain diverged; pre-pop state:\n{state}"
            ),
        }
    }
    assert!(wheel.is_empty() && heap.is_empty());
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]
    #[test]
    fn seeded_wheel_matches_heap_reference(seed in 0u64..u64::MAX) {
        seeded_differential_run(seed, 400);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(4))]
    #[test]
    fn seeded_wheel_matches_heap_reference_long_runs(seed in 0u64..u64::MAX) {
        seeded_differential_run(seed ^ 0xfeed_f00d, 6_000);
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
                a.map(|(t, i, e)| (t, i.as_u64(), flow_of(&e))),
                b.map(|(t, i, e)| (t, i, flow_of(&e)))
            ),
        }
    }
}

#[test]
fn heap_reference_matches_on_a_smoke_sequence() {
    let mut wheel = EventQueue::new();
    let mut heap = HeapEventQueue::new();
    let times = [7u64, 3, 3, 900_000, 3, 64, 65, 4096, 1 << 37, 12, u64::MAX];
    for (i, &t) in times.iter().enumerate() {
        let at = SimTime::from_nanos(t);
        wheel.schedule(at, start(i));
        heap.schedule(at, start(i));
    }
    loop {
        assert_eq!(wheel.peek_time(), heap.peek_time());
        match (wheel.pop_entry(), heap.pop_entry()) {
            (None, None) => break,
            (Some((ta, ia, _)), Some((tb, ib, _))) => {
                assert_eq!((ta, ia.as_u64()), (tb, ib));
                assert_eq!(wheel.now(), heap.now());
            }
            (a, b) => panic!(
                "queues diverged: wheel popped {:?}, heap popped {:?}",
                a.map(|(t, i, _)| (t, i)),
                b.map(|(t, i, _)| (t, i))
            ),
        }
    }
}
