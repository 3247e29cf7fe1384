//! Micro-benchmarks of the substrates: route lookup and interning, event
//! queue, STFQ scheduler, weighted max-min solver, NUM oracle, and end-to-end
//! packet simulation throughput.
//! These back the engineering claims (the simulator and solvers are fast
//! enough to run the paper-scale experiments) and catch performance
//! regressions.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use numfabric_core::protocol::numfabric_network;
use numfabric_core::{NumFabricAgent, NumFabricConfig};
use numfabric_num::fluid::{FluidAlgorithm, XwiFluid};
use numfabric_num::utility::LogUtility;
use numfabric_num::{weighted_max_min, FluidFlow, FluidNetwork, Oracle};
use numfabric_sim::event::{Event, EventQueue};
use numfabric_sim::packet::{DataHeader, Packet, DEFAULT_PAYLOAD_BYTES};
use numfabric_sim::queue::{PfabricQueue, QueueDiscipline, StfqQueue};
use numfabric_sim::topology::{FatTreeConfig, LeafSpineConfig, Route, Topology};
use numfabric_sim::{RouteTable, SimTime};
use rand::{Rng, SeedableRng};
use rand_chacha::ChaCha8Rng;
use std::hint::black_box;

fn bench_event_queue(c: &mut Criterion) {
    c.bench_function("event_queue_schedule_pop_10k", |b| {
        b.iter(|| {
            let mut q = EventQueue::new();
            for i in 0..10_000u64 {
                q.schedule(
                    SimTime::from_nanos((i * 7919) % 1_000_000),
                    Event::FlowStart { flow: i as usize },
                );
            }
            let mut count = 0;
            while q.pop().is_some() {
                count += 1;
            }
            black_box(count)
        })
    });
}

fn bench_stfq(c: &mut Criterion) {
    c.bench_function("stfq_enqueue_dequeue_1k_packets_8_flows", |b| {
        let route = RouteTable::new().intern(Route::from_links(vec![0]));
        b.iter(|| {
            let mut q = StfqQueue::new(10_000_000);
            for i in 0..1_000u64 {
                let header = DataHeader {
                    virtual_packet_len: 1500.0 / ((i % 8) + 1) as f64,
                    ..DataHeader::default()
                };
                let p = Packet::data(
                    (i % 8) as usize,
                    i * 1460,
                    DEFAULT_PAYLOAD_BYTES,
                    route,
                    header,
                );
                q.enqueue(p, SimTime::ZERO);
            }
            let mut served = 0;
            while q.dequeue(SimTime::ZERO).is_some() {
                served += 1;
            }
            black_box(served)
        })
    });
}

fn random_fluid_network(seed: u64, links: usize, flows: usize) -> (FluidNetwork, Vec<f64>) {
    let mut rng = ChaCha8Rng::seed_from_u64(seed);
    let mut net = FluidNetwork::new();
    for _ in 0..links {
        net.add_link(rng.gen_range(5.0..40.0));
    }
    let mut weights = Vec::new();
    for _ in 0..flows {
        let a = rng.gen_range(0..links);
        let b = loop {
            let b = rng.gen_range(0..links);
            if b != a {
                break b;
            }
        };
        net.add_flow(FluidFlow::new(vec![a, b], LogUtility::new()));
        weights.push(rng.gen_range(0.1..4.0));
    }
    (net, weights)
}

fn bench_solvers(c: &mut Criterion) {
    let mut group = c.benchmark_group("fluid_solvers");
    for &flows in &[50usize, 200, 500] {
        let (net, weights) = random_fluid_network(1, 20, flows);
        group.bench_with_input(
            BenchmarkId::new("weighted_max_min", flows),
            &flows,
            |b, _| b.iter(|| black_box(weighted_max_min(&net, &weights))),
        );
        group.bench_with_input(BenchmarkId::new("oracle_solve", flows), &flows, |b, _| {
            let oracle = Oracle::with_tolerance(1e-4);
            b.iter(|| black_box(oracle.solve(&net).rates))
        });
    }
    group.finish();
}

fn bench_pfabric_churn(c: &mut Criterion) {
    // The pFabric worst-drop path: a shallow buffer under heavy overload, so
    // almost every enqueue evicts the lowest-priority queued packet.
    c.bench_function("pfabric_worst_drop_churn_10k", |b| {
        let route = RouteTable::new().intern(Route::from_links(vec![0]));
        let mut rng = ChaCha8Rng::seed_from_u64(42);
        let priorities: Vec<f64> = (0..10_000).map(|_| rng.gen_range(1.0..1e7)).collect();
        b.iter(|| {
            let mut q = PfabricQueue::new(64 * 1500);
            let mut outcomes = 0u64;
            for (i, &prio) in priorities.iter().enumerate() {
                let header = DataHeader {
                    pfabric_priority: prio,
                    ..DataHeader::default()
                };
                let p = Packet::data(
                    i % 32,
                    i as u64 * 1460,
                    DEFAULT_PAYLOAD_BYTES,
                    route,
                    header,
                );
                if q.enqueue(p, SimTime::ZERO).accepted() {
                    outcomes += 1;
                }
                if i % 8 == 0 {
                    q.dequeue(SimTime::ZERO);
                }
            }
            black_box(outcomes)
        })
    });
}

fn bench_fluid_step(c: &mut Criterion) {
    // One synchronous xWI iteration on a mid-sized network — the inner loop
    // of every fluid convergence comparison. The `step` variant includes the
    // FluidState snapshot clone; `step_in_place` is the allocation-free path
    // the convergence loops actually use.
    c.bench_function("xwi_fluid_step_20links_500flows", |b| {
        let (net, _) = random_fluid_network(3, 20, 500);
        let mut xwi = XwiFluid::with_defaults(net);
        b.iter(|| black_box(xwi.step().rates[0]))
    });
    c.bench_function("xwi_fluid_step_in_place_20links_500flows", |b| {
        let (net, _) = random_fluid_network(3, 20, 500);
        let mut xwi = XwiFluid::with_defaults(net);
        b.iter(|| {
            xwi.step_in_place();
            black_box(FluidAlgorithm::rates(&xwi)[0])
        })
    });
}

fn bench_packet_sim(c: &mut Criterion) {
    let mut group = c.benchmark_group("packet_sim");
    group.sample_size(10);
    group.bench_function("numfabric_32hosts_16flows_5ms", |b| {
        b.iter(|| {
            let topo = Topology::leaf_spine(&LeafSpineConfig::small(32, 4, 2));
            let cfg = NumFabricConfig::default();
            let mut net = numfabric_network(topo, &cfg);
            let hosts: Vec<_> = net.topology().hosts().to_vec();
            for i in 0..16 {
                net.add_flow(
                    hosts[i],
                    hosts[16 + i],
                    None,
                    SimTime::ZERO,
                    i,
                    None,
                    Box::new(NumFabricAgent::new(cfg.clone(), LogUtility::new())),
                );
            }
            net.run_until(SimTime::from_millis(5));
            black_box(net.flow_rate_estimate(0))
        })
    });
    group.bench_function("numfabric_8hosts_4flows_2ms", |b| {
        b.iter(|| {
            let topo = Topology::leaf_spine(&LeafSpineConfig::small(8, 2, 2));
            let cfg = NumFabricConfig::default();
            let mut net = numfabric_network(topo, &cfg);
            let hosts: Vec<_> = net.topology().hosts().to_vec();
            for i in 0..4 {
                net.add_flow(
                    hosts[i],
                    hosts[4 + i],
                    None,
                    SimTime::ZERO,
                    i,
                    None,
                    Box::new(NumFabricAgent::new(cfg.clone(), LogUtility::new())),
                );
            }
            net.run_until(SimTime::from_millis(2));
            black_box(net.flow_rate_estimate(0))
        })
    });
    group.finish();
}

/// `Topology::host_route` on the two 128-host benchmark fabrics. *Cold* is
/// the first query on a freshly built topology — it pays for the route
/// index's adjacency and one destination table (the fabric build is in the
/// measured closure too; subtract `build_only`). *Warm* is the steady
/// state of flow admission: a table read and a walk, no allocation.
/// Diagnostic only — the headline is `setup_s` on the `shuffle-ft8`
/// benchmark row.
fn bench_host_route(c: &mut Criterion) {
    let mut group = c.benchmark_group("host_route");
    let mut on = |name: &str, build: fn() -> Topology| {
        group.bench_function(BenchmarkId::new("build_only", name), |b| {
            b.iter(|| black_box(build()))
        });
        group.bench_function(BenchmarkId::new("cold", name), |b| {
            b.iter(|| {
                let topo = build();
                let hosts = topo.hosts();
                black_box(topo.host_route(hosts[0], hosts[hosts.len() - 1], 5))
            })
        });
        group.bench_function(BenchmarkId::new("warm_1k_pairs", name), |b| {
            let topo = build();
            let hosts = topo.hosts().to_vec();
            let n = hosts.len();
            for (i, &dst) in hosts.iter().enumerate() {
                black_box(topo.host_route(hosts[(i + 1) % n], dst, 0));
            }
            b.iter(|| {
                for i in 0..1_000 {
                    let (src, dst) = (hosts[(i * 37) % n], hosts[(i * 37 + 1 + i % (n - 1)) % n]);
                    black_box(topo.host_route(src, dst, i));
                }
            })
        });
    };
    on("ft8", || Topology::fat_tree(&FatTreeConfig::new(8)));
    on("leaf_spine_128", || {
        Topology::leaf_spine(&LeafSpineConfig::paper_default())
    });
    group.finish();
}

/// Enumerate and re-intern every ECMP host route of a sample of fat-tree:k=8
/// host pairs. Fat-tree host routes are at most 6 hops, so with the inline
/// route representation interning allocates only on first sight of each
/// distinct route, and lookups hash inline arrays instead of chasing heap
/// pointers.
fn bench_route_intern_churn(c: &mut Criterion) {
    let topo = Topology::fat_tree(&FatTreeConfig::new(8));
    let hosts = topo.hosts().to_vec();
    // A representative slice of host pairs: every route set from host 0's
    // pod corner plus a stride sample across pods.
    let pairs: Vec<_> = hosts
        .iter()
        .step_by(7)
        .flat_map(|&src| hosts.iter().step_by(13).map(move |&dst| (src, dst)))
        .filter(|(s, d)| s != d)
        .collect();
    let mut group = c.benchmark_group("route_intern_churn");
    group.sample_size(10);
    group.bench_function("fat_tree_k8_ecmp_intern", |b| {
        b.iter(|| {
            let mut table = RouteTable::new();
            let mut interned = 0u64;
            // Two passes: the first populates the table (allocating per
            // distinct route), the second is pure inline-hash lookups.
            for _ in 0..2 {
                for &(src, dst) in &pairs {
                    for route in topo.host_routes(src, dst) {
                        black_box(table.intern(route));
                        interned += 1;
                    }
                }
            }
            black_box((interned, table.len()))
        })
    });
    group.finish();
}

criterion_group!(
    benches,
    bench_host_route,
    bench_route_intern_churn,
    bench_event_queue,
    bench_stfq,
    bench_solvers,
    bench_pfabric_churn,
    bench_fluid_step,
    bench_packet_sim
);
criterion_main!(benches);
