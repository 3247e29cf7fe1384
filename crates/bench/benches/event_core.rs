//! Benchmarks of the timing-wheel event core against the binary-heap
//! reference, in events per second.
//!
//! Three workload shapes:
//!
//! * **schedule/pop churn** — the hold model every discrete-event simulator
//!   lives in: a standing population of pending events where each pop
//!   schedules a successor a short, jittered delay ahead. This is the
//!   acceptance workload for the heap→wheel swap (target ≥ 1.3× the heap).
//! * **timer arm/cancel churn** — cancellable schedules where half the
//!   events are revoked before firing, the pattern flow stop/completion
//!   produces.
//! * **packet_sim churn** — a real NUMFabric run; paired with
//!   `Network::events_processed` it yields end-to-end events/sec.
//!
//! The criterion shim prints mean wall time per iteration; divide the fixed
//! event counts below by it to get events/sec.

use criterion::{criterion_group, criterion_main, Criterion};
use numfabric_core::protocol::numfabric_network;
use numfabric_core::{NumFabricAgent, NumFabricConfig};
use numfabric_num::utility::LogUtility;
use numfabric_sim::event::{Event, EventQueue, HeapEventQueue};
use numfabric_sim::topology::{LeafSpineConfig, Topology};
use numfabric_sim::SimTime;
use numfabric_sim::{SimDuration, TimerService};
use std::hint::black_box;

/// Standing population of the churn benchmarks.
const CHURN_POPULATION: u64 = 10_000;
/// Pop/schedule pairs per churn iteration.
const CHURN_OPS: u64 = 200_000;

/// Deterministic jittered delay in [200 ns, ~13 µs) — the spacing mix of
/// packet serialization, pacing and link timers.
fn churn_delay(i: u64) -> SimDuration {
    SimDuration::from_nanos(200 + (i.wrapping_mul(0x9E37_79B9_7F4A_7C15) >> 51))
}

fn bench_schedule_pop_churn(c: &mut Criterion) {
    let mut group = c.benchmark_group("event_core_churn");
    group.sample_size(10);
    group.bench_function("wheel_schedule_pop_200k", |b| {
        b.iter(|| {
            let mut q = EventQueue::new();
            for i in 0..CHURN_POPULATION {
                q.schedule(SimTime::ZERO + churn_delay(i), Event::FlowStart { flow: 0 });
            }
            let mut popped = 0u64;
            for i in 0..CHURN_OPS {
                let (t, _) = q.pop().expect("population never drains");
                q.schedule(t + churn_delay(i ^ 0x5bd1), Event::FlowStart { flow: 0 });
                popped += 1;
            }
            black_box(popped)
        })
    });
    group.bench_function("heap_schedule_pop_200k", |b| {
        b.iter(|| {
            let mut q = HeapEventQueue::new();
            for i in 0..CHURN_POPULATION {
                q.schedule(SimTime::ZERO + churn_delay(i), Event::FlowStart { flow: 0 });
            }
            let mut popped = 0u64;
            for i in 0..CHURN_OPS {
                let (t, _) = q.pop().expect("population never drains");
                q.schedule(t + churn_delay(i ^ 0x5bd1), Event::FlowStart { flow: 0 });
                popped += 1;
            }
            black_box(popped)
        })
    });
    group.finish();
}

fn bench_timer_cancel_churn(c: &mut Criterion) {
    let mut group = c.benchmark_group("event_core_timers");
    group.sample_size(10);
    // Arm two timers per round through the TimerService, cancel one, let
    // the other fire — the RTX-timer lifecycle at flow churn.
    group.bench_function("arm_cancel_fire_100k", |b| {
        b.iter(|| {
            let mut q = EventQueue::new();
            let mut timers = TimerService::new();
            timers.register_flow();
            let mut fired = 0u64;
            for i in 0..100_000u64 {
                let now = q.now();
                let keep = timers.arm(&mut q, now, 2 * i, 0, churn_delay(i), 1);
                let drop = timers.arm(&mut q, now, 2 * i + 1, 0, churn_delay(i ^ 0xabcd), 2);
                timers.cancel(&mut q, drop);
                let _ = keep;
                let (_, id, event) = q.pop_entry().expect("one timer pending");
                match event {
                    Event::FlowTimer { flow, .. } => timers.fired(flow, id),
                    other => panic!("unexpected {other:?}"),
                }
                fired += 1;
            }
            black_box(fired)
        })
    });
    group.finish();
}

fn bench_packet_sim_churn(c: &mut Criterion) {
    let mut group = c.benchmark_group("event_core_packet_sim");
    group.sample_size(10);
    group.bench_function("numfabric_16hosts_8flows_2ms_events", |b| {
        b.iter(|| {
            let topo = Topology::leaf_spine(&LeafSpineConfig::small(16, 2, 2));
            let cfg = NumFabricConfig::default();
            let mut net = numfabric_network(topo, &cfg);
            let hosts: Vec<_> = net.topology().hosts().to_vec();
            for i in 0..8 {
                net.add_flow(
                    hosts[i],
                    hosts[8 + i],
                    None,
                    SimTime::ZERO,
                    i,
                    None,
                    Box::new(NumFabricAgent::new(cfg.clone(), LogUtility::new())),
                );
            }
            net.run_until(SimTime::from_millis(2));
            // The event count (≈ constant across runs) over this
            // iteration's wall time is the end-to-end events/sec figure.
            black_box(net.events_processed())
        })
    });
    group.finish();
}

criterion_group!(
    benches,
    bench_schedule_pop_churn,
    bench_timer_cancel_churn,
    bench_packet_sim_churn
);
criterion_main!(benches);
