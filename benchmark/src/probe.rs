//! Stand-alone probes of layers the benchmark cannot wrap: the timing wheel
//! (private to `Network`, but `EventQueue` itself is public) and ECMP route
//! enumeration. They run after the timed phase of a traced run.

use numfabric_sim::event::{Event, EventQueue};
use numfabric_sim::{SimDuration, SimTime, Topology};
use numfabric_workloads::PathSpec;
use std::hint::black_box;
use std::time::Instant;

/// Deterministic increments in 0.5–32 µs: the spread between a
/// serialization time and a price-update interval.
struct Increments(u64);

impl Increments {
    fn next(&mut self) -> SimDuration {
        // Knuth's MMIX LCG; the high bits are the well-mixed ones.
        self.0 = self
            .0
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        SimDuration::from_nanos(500 + (self.0 >> 33) % 31_500)
    }
}

fn filled_queue(population: usize, increments: &mut Increments) -> EventQueue {
    let mut queue = EventQueue::new();
    for link in 0..population.max(1) {
        queue.schedule(
            SimTime::ZERO + increments.next(),
            Event::TransmitComplete { link },
        );
    }
    queue
}

/// What the wheel costs at a given population of pending events.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct WheelCost {
    /// Nanoseconds per hold operation: pop the earliest event, schedule one
    /// a short increment later.
    pub hold_ns: f64,
    /// Nanoseconds per `schedule_cancellable` + `cancel` pair — the RTO
    /// arm/disarm pattern of a timer-driven sender.
    pub cancel_ns: f64,
}

/// Probe a stand-alone wheel kept at `population` pending events.
///
/// Cancellation is lazy (a tombstone is reaped when the wheel reaches it),
/// so the cancel loop interleaves one hold operation per pair to keep the
/// clock moving, and the pair's cost is what that loop takes beyond a bare
/// hold loop.
pub fn wheel_cost(population: usize) -> WheelCost {
    const OPS: u64 = 2_000_000;
    let mut increments = Increments(1);
    let mut queue = filled_queue(population, &mut increments);
    let mut hold = |queue: &mut EventQueue| {
        let (now, event) = queue.pop().expect("population stays constant");
        queue.schedule(now + increments.next(), black_box(event));
    };

    let start = Instant::now();
    for _ in 0..OPS {
        hold(&mut queue);
    }
    let hold_ns = start.elapsed().as_nanos() as f64 / OPS as f64;

    let mut arm_delays = Increments(2);
    let start = Instant::now();
    for flow in 0..OPS / 2 {
        let at = queue.now() + arm_delays.next();
        let id = queue.schedule_cancellable(
            at,
            Event::FlowTimer {
                flow: flow as usize,
                tag: 0,
            },
        );
        black_box(queue.cancel(id));
        hold(&mut queue);
    }
    let with_cancel_ns = start.elapsed().as_nanos() as f64 / (OPS / 2) as f64;
    black_box(queue.len());
    WheelCost {
        hold_ns,
        cancel_ns: (with_cancel_ns - hold_ns).max(0.0),
    }
}

/// Nanoseconds per `Topology::host_route` over (at most 2048 of) the
/// workload's own pairs.
pub fn host_route_ns(topo: &Topology, pairs: &[PathSpec]) -> f64 {
    let sample = &pairs[..pairs.len().min(2048)];
    if sample.is_empty() {
        return 0.0;
    }
    let start = Instant::now();
    for pair in sample {
        black_box(topo.host_route(pair.src, pair.dst, pair.spine_choice));
    }
    start.elapsed().as_nanos() as f64 / sample.len() as f64
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn increments_stay_in_range_and_repeat() {
        let draw = |seed| {
            let mut inc = Increments(seed);
            (0..1000).map(|_| inc.next()).collect::<Vec<_>>()
        };
        let a = draw(1);
        assert_eq!(a, draw(1));
        assert!(a.iter().all(|d| (500..32_000).contains(&d.as_nanos())));
    }
}
