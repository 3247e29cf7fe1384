//! The determinism contract of `numfabric-sim`, exercised end-to-end:
//! given the same seeds, a full NUMFabric scenario — seeded workload
//! generation, packet-level simulation, EWMA rate measurement — must
//! reproduce **bit-identical** results run-to-run (see the crate docs of
//! `numfabric::sim`). Every scaling PR is measured against this baseline:
//! parallelism or batching changes must preserve it or explicitly revise it.
//!
//! These are *replay* pins (a build agrees with itself). The cross-commit
//! pins — FNV-1a digests of whole `numfabric-run … --json` reports recorded
//! at a named parent commit — live in `crates/bench/tests/report_digests.rs`,
//! the package that owns the binary.

use numfabric::baselines::{pfabric_network, PfabricAgent, PfabricConfig};
use numfabric::core::{numfabric_network, NumFabricAgent, NumFabricConfig};
use numfabric::num::utility::LogUtility;
use numfabric::sim::topology::{FatTreeConfig, LeafSpineConfig, Topology};
use numfabric::sim::{FlowId, FlowPhase, Network, SimDuration, SimTime};
use numfabric::workloads::scenarios::{
    incast_pairs, shuffle_pairs, EventKind, PathSpec, SemiDynamicConfig, SemiDynamicScenario,
};
use numfabric::workloads::{poisson_arrivals, random_pairs, FixedSize, PoissonWorkloadConfig};
use std::collections::HashMap;

/// One sampled point of a flow-rate trace. `f64` compared bit-for-bit via
/// `to_bits`, so even sub-ULP divergence fails the test.
#[derive(Debug, PartialEq, Eq)]
struct TracePoint {
    at_nanos: u128,
    flow: usize,
    rate_bits: u64,
}

/// Run the seeded leaf-spine NUMFabric scenario and sample every flow's
/// rate estimate on a fixed grid, returning the full trace.
fn run_scenario(seed: u64) -> (Vec<TracePoint>, Vec<(u64, u64)>) {
    let topo = Topology::leaf_spine(&LeafSpineConfig::small(16, 2, 2));
    let config = NumFabricConfig::paper_default();
    let mut net = numfabric_network(topo.clone(), &config);

    // 8 long-running flows plus a seeded Poisson burst of finite flows.
    let mut ids: Vec<FlowId> = Vec::new();
    for p in &random_pairs(topo.hosts(), 8, seed) {
        ids.push(net.add_flow(
            p.src,
            p.dst,
            None,
            SimTime::ZERO,
            p.spine_choice,
            None,
            Box::new(NumFabricAgent::new(config.clone(), LogUtility::new())),
        ));
    }
    for a in poisson_arrivals(
        topo.hosts(),
        &FixedSize(80_000),
        &PoissonWorkloadConfig::new(0.2, SimDuration::from_millis(2), seed ^ 0xa5a5),
    ) {
        ids.push(net.add_flow(
            a.src,
            a.dst,
            Some(a.size_bytes),
            a.start,
            a.spine_choice,
            None,
            Box::new(NumFabricAgent::new(config.clone(), LogUtility::new())),
        ));
    }

    let mut trace = Vec::new();
    sample_rates(&mut net, &ids, &mut trace);
    let bytes: Vec<(u64, u64)> = ids
        .iter()
        .map(|&f| {
            let st = net.flow_stats(f);
            (st.bytes_sent, st.bytes_acked)
        })
        .collect();
    (trace, bytes)
}

fn sample_rates(net: &mut Network, ids: &[FlowId], trace: &mut Vec<TracePoint>) {
    let step = SimDuration::from_micros(100);
    for _ in 0..40 {
        net.run_for(step);
        for (i, &f) in ids.iter().enumerate() {
            trace.push(TracePoint {
                at_nanos: net.now().as_nanos() as u128,
                flow: i,
                rate_bits: net.flow_rate_estimate(f).to_bits(),
            });
        }
    }
}

#[test]
fn replaying_a_seeded_scenario_is_bit_identical() {
    let (trace_a, bytes_a) = run_scenario(2024);
    let (trace_b, bytes_b) = run_scenario(2024);
    assert_eq!(trace_a.len(), trace_b.len());
    for (a, b) in trace_a.iter().zip(trace_b.iter()) {
        assert_eq!(a, b, "rate traces diverged");
    }
    assert_eq!(bytes_a, bytes_b, "per-flow byte counters diverged");
}

#[test]
fn different_seeds_produce_different_traces() {
    // Guards against the samplers silently ignoring the seed (which would
    // make the replay test vacuous).
    let (trace_a, _) = run_scenario(1);
    let (trace_b, _) = run_scenario(2);
    assert_ne!(trace_a, trace_b, "seed does not influence the scenario");
}

/// A dynamic flow-churn scenario exercising the interned-route hot path
/// (flows started, stopped and completed — every stop/completion walks its
/// interned route to release per-flow queue state) under NUMFabric, sampled
/// on a fixed grid.
fn run_churn_scenario(seed: u64) -> Vec<TracePoint> {
    let topo = Topology::leaf_spine(&LeafSpineConfig::small(16, 2, 2));
    let config = NumFabricConfig::paper_default();
    let mut net = numfabric_network(topo.clone(), &config);
    let scenario = SemiDynamicScenario::generate(&topo, &SemiDynamicConfig::scaled(40, 5, 6, seed));

    let mut active: HashMap<usize, FlowId> = HashMap::new();
    let mut ids: Vec<FlowId> = Vec::new();
    for &p in &scenario.initial_active {
        let spec = scenario.paths[p];
        let id = net.add_flow(
            spec.src,
            spec.dst,
            None,
            SimTime::ZERO,
            spec.spine_choice,
            None,
            Box::new(NumFabricAgent::new(config.clone(), LogUtility::new())),
        );
        active.insert(p, id);
        ids.push(id);
    }

    let mut trace = Vec::new();
    for event in &scenario.events {
        match event.kind {
            EventKind::Start => {
                for &p in &event.paths {
                    let spec = scenario.paths[p];
                    let id = net.add_flow(
                        spec.src,
                        spec.dst,
                        None,
                        net.now(),
                        spec.spine_choice,
                        None,
                        Box::new(NumFabricAgent::new(config.clone(), LogUtility::new())),
                    );
                    active.insert(p, id);
                    ids.push(id);
                }
            }
            EventKind::Stop => {
                for &p in &event.paths {
                    if let Some(id) = active.remove(&p) {
                        net.stop_flow(id);
                    }
                }
            }
        }
        sample_rates(&mut net, &ids, &mut trace);
    }
    trace
}

#[test]
fn replaying_a_dynamic_churn_scenario_is_bit_identical() {
    let a = run_churn_scenario(77);
    let b = run_churn_scenario(77);
    assert_eq!(a.len(), b.len());
    for (x, y) in a.iter().zip(b.iter()) {
        assert_eq!(x, y, "churn traces diverged");
    }
}

/// Inject one finite NUMFabric transfer of `size_bytes` per pair at `t = 0`,
/// sample every flow's rate on the fixed grid, and collect the per-flow byte
/// counters — the shared skeleton of the generalized-fabric replay pins.
fn run_pairs_scenario(
    topo: Topology,
    pairs: &[PathSpec],
    size_bytes: u64,
) -> (Vec<TracePoint>, Vec<(u64, u64)>) {
    let config = NumFabricConfig::paper_default();
    let mut net = numfabric_network(topo, &config);
    let ids: Vec<FlowId> = pairs
        .iter()
        .map(|p| {
            net.add_flow(
                p.src,
                p.dst,
                Some(size_bytes),
                SimTime::ZERO,
                p.spine_choice,
                None,
                Box::new(NumFabricAgent::new(config.clone(), LogUtility::new())),
            )
        })
        .collect();
    let mut trace = Vec::new();
    sample_rates(&mut net, &ids, &mut trace);
    let bytes = ids
        .iter()
        .map(|&f| {
            let st = net.flow_stats(f);
            (st.bytes_sent, st.bytes_acked)
        })
        .collect();
    (trace, bytes)
}

/// Seeded incast on an oversubscribed leaf-spine: finite transfers from 8
/// senders converge on one receiver NIC — the same bit-identical-replay
/// contract as the churn scenario, now exercising the generalized-fabric
/// workload family.
fn run_incast_scenario(seed: u64) -> (Vec<TracePoint>, Vec<(u64, u64)>) {
    let topo = Topology::leaf_spine(&LeafSpineConfig::oversubscribed(16, 2, 2, 4.0));
    let pairs = incast_pairs(&topo, 8, seed);
    run_pairs_scenario(topo, &pairs, 150_000)
}

#[test]
fn replaying_an_incast_scenario_is_bit_identical() {
    let (trace_a, bytes_a) = run_incast_scenario(31);
    let (trace_b, bytes_b) = run_incast_scenario(31);
    assert_eq!(trace_a, trace_b, "incast rate traces diverged");
    assert_eq!(bytes_a, bytes_b, "incast byte counters diverged");
    // The workload must actually have run (every sender moved bytes).
    assert!(bytes_a.iter().all(|&(sent, _)| sent > 0));
}

/// Seeded all-to-all shuffle on a fat-tree: every ordered host pair among 6
/// participants transfers across multi-tier ECMP paths.
fn run_fat_tree_shuffle_scenario(seed: u64) -> (Vec<TracePoint>, Vec<(u64, u64)>) {
    let topo = Topology::fat_tree(&FatTreeConfig::new(4));
    let pairs = shuffle_pairs(&topo, Some(6), seed);
    run_pairs_scenario(topo, &pairs, 60_000)
}

#[test]
fn replaying_a_fat_tree_shuffle_scenario_is_bit_identical() {
    let (trace_a, bytes_a) = run_fat_tree_shuffle_scenario(17);
    let (trace_b, bytes_b) = run_fat_tree_shuffle_scenario(17);
    assert_eq!(trace_a, trace_b, "fat-tree shuffle rate traces diverged");
    assert_eq!(bytes_a, bytes_b, "fat-tree shuffle byte counters diverged");
    assert_eq!(bytes_a.len(), 30, "6-host shuffle is 30 ordered pairs");
}

/// An impairment-heavy scenario: long-lived stride flows on a fat-tree with
/// a cable flap (down + restore), 2% wire loss and 5 µs delay jitter all
/// active in one run. Flaps drain queues and reroute ECMP flows, loss and
/// jitter consume the network's seeded impairment RNG — every piece of the
/// failure layer that could plausibly break the replay contract.
fn run_impaired_scenario(seed: u64, impair_seed: u64) -> (Vec<TracePoint>, Vec<(u64, u64)>) {
    run_impaired_partitioned(seed, impair_seed, 1, 1)
}

/// [`run_impaired_scenario`] with the network decomposed into `partitions`
/// event cores advancing on `partition_threads` epoch workers. Loss and
/// jitter draw from per-link impairment streams, so even the randomized
/// pieces of the failure layer must reproduce the single-core run
/// bit-for-bit at any decomposition.
fn run_impaired_partitioned(
    seed: u64,
    impair_seed: u64,
    partitions: usize,
    partition_threads: usize,
) -> (Vec<TracePoint>, Vec<(u64, u64)>) {
    use numfabric::sim::{LinkChange, SimDuration as Dur};
    use numfabric::workloads::impairments::fabric_cables;
    use numfabric::workloads::stride_pairs;

    let topo = Topology::fat_tree(&FatTreeConfig::new(4));
    let pairs = stride_pairs(&topo, 8, seed);
    let cables = fabric_cables(&topo);
    let (flap_fwd, flap_rev) = cables[0];
    let (loss_fwd, loss_rev) = cables[cables.len() / 2];
    let (jit_fwd, jit_rev) = cables[cables.len() - 1];

    let config = NumFabricConfig::paper_default();
    let mut net = numfabric_network(topo, &config);
    net.set_partitions(partitions);
    net.set_partition_threads(partition_threads);
    net.set_impairment_seed(impair_seed);
    for link in [flap_fwd, flap_rev] {
        net.schedule_link_change(SimTime::from_micros(500), link, LinkChange::Down);
        net.schedule_link_change(SimTime::from_micros(1_500), link, LinkChange::Up);
    }
    for link in [loss_fwd, loss_rev] {
        net.schedule_link_change(SimTime::ZERO, link, LinkChange::Loss(0.02));
    }
    for link in [jit_fwd, jit_rev] {
        net.schedule_link_change(SimTime::ZERO, link, LinkChange::Jitter(Dur::from_micros(5)));
    }

    let ids: Vec<FlowId> = pairs
        .iter()
        .map(|p| {
            net.add_flow(
                p.src,
                p.dst,
                None,
                SimTime::ZERO,
                p.spine_choice,
                None,
                Box::new(NumFabricAgent::new(config.clone(), LogUtility::new())),
            )
        })
        .collect();
    let mut trace = Vec::new();
    sample_rates(&mut net, &ids, &mut trace);
    let bytes = ids
        .iter()
        .map(|&f| {
            let st = net.flow_stats(f);
            (st.bytes_sent, st.bytes_acked)
        })
        .collect();
    (trace, bytes)
}

#[test]
fn replaying_an_impairment_heavy_scenario_is_bit_identical() {
    let (trace_a, bytes_a) = run_impaired_scenario(9, 1234);
    let (trace_b, bytes_b) = run_impaired_scenario(9, 1234);
    assert_eq!(trace_a, trace_b, "impaired rate traces diverged");
    assert_eq!(bytes_a, bytes_b, "impaired byte counters diverged");
    // Every flow kept moving bytes through flap + loss + jitter.
    assert!(bytes_a.iter().all(|&(sent, _)| sent > 0));
}

#[test]
fn impairment_seed_actually_drives_the_loss_and_jitter_draws() {
    // Guards against the loss/jitter path silently ignoring the seeded RNG,
    // which would make the replay pin above vacuous.
    let (trace_a, _) = run_impaired_scenario(9, 1);
    let (trace_b, _) = run_impaired_scenario(9, 2);
    assert_ne!(trace_a, trace_b, "impairment seed has no effect");
}

/// The `--partitions × --partition-threads` grid every partitioned replay
/// pin sweeps: each combo must reproduce the `(1, 1)` run bit-for-bit.
const PARTITION_MATRIX: [(usize, usize); 8] = [
    (1, 2),
    (1, 4),
    (2, 1),
    (2, 2),
    (2, 4),
    (4, 1),
    (4, 2),
    (4, 4),
];

/// [`run_pairs_scenario`] with the network domain-decomposed into
/// `partitions` per-partition event cores advancing on `partition_threads`
/// epoch workers. The partition-conformance contract: the trace and the
/// byte counters are a pure function of the seed, so *any* partition and
/// thread count must reproduce the single-queue run bit-for-bit.
fn run_pairs_partitioned(
    topo: Topology,
    pairs: &[PathSpec],
    size_bytes: u64,
    partitions: usize,
    partition_threads: usize,
) -> (Vec<TracePoint>, Vec<(u64, u64)>) {
    let config = NumFabricConfig::paper_default();
    let mut net = numfabric_network(topo, &config);
    net.set_partitions(partitions);
    net.set_partition_threads(partition_threads);
    let ids: Vec<FlowId> = pairs
        .iter()
        .map(|p| {
            net.add_flow(
                p.src,
                p.dst,
                Some(size_bytes),
                SimTime::ZERO,
                p.spine_choice,
                None,
                Box::new(NumFabricAgent::new(config.clone(), LogUtility::new())),
            )
        })
        .collect();
    let mut trace = Vec::new();
    sample_rates(&mut net, &ids, &mut trace);
    let bytes = ids
        .iter()
        .map(|&f| {
            let st = net.flow_stats(f);
            (st.bytes_sent, st.bytes_acked)
        })
        .collect();
    (trace, bytes)
}

#[test]
fn partition_matrix_never_changes_a_leaf_spine_report() {
    let run = |partitions, threads| {
        let topo = Topology::leaf_spine(&LeafSpineConfig::small(16, 2, 2));
        let pairs = incast_pairs(&topo, 8, 5);
        run_pairs_partitioned(topo, &pairs, 120_000, partitions, threads)
    };
    let (trace_1, bytes_1) = run(1, 1);
    assert!(bytes_1.iter().all(|&(sent, _)| sent > 0));
    for (partitions, threads) in PARTITION_MATRIX {
        let (trace_n, bytes_n) = run(partitions, threads);
        assert_eq!(
            trace_1, trace_n,
            "leaf-spine trace diverged at {partitions} partitions x {threads} threads"
        );
        assert_eq!(
            bytes_1, bytes_n,
            "leaf-spine byte counters diverged at {partitions} partitions x {threads} threads"
        );
    }
}

#[test]
fn partition_matrix_never_changes_a_fat_tree_report() {
    let run = |partitions, threads| {
        let topo = Topology::fat_tree(&FatTreeConfig::new(4));
        let pairs = shuffle_pairs(&topo, Some(6), 11);
        run_pairs_partitioned(topo, &pairs, 60_000, partitions, threads)
    };
    let (trace_1, bytes_1) = run(1, 1);
    assert!(bytes_1.iter().all(|&(sent, _)| sent > 0));
    for (partitions, threads) in PARTITION_MATRIX {
        let (trace_n, bytes_n) = run(partitions, threads);
        assert_eq!(
            trace_1, trace_n,
            "fat-tree trace diverged at {partitions} partitions x {threads} threads"
        );
        assert_eq!(
            bytes_1, bytes_n,
            "fat-tree byte counters diverged at {partitions} partitions x {threads} threads"
        );
    }
}

#[test]
fn partition_matrix_never_changes_a_seeded_loss_jitter_run() {
    // The headline fix of the per-link impairment streams: randomized
    // loss/jitter draws used to vary with the partition split; now the
    // whole impaired report is pinned across the matrix too.
    let (trace_1, bytes_1) = run_impaired_partitioned(9, 1234, 1, 1);
    assert!(bytes_1.iter().all(|&(sent, _)| sent > 0));
    for (partitions, threads) in PARTITION_MATRIX {
        let (trace_n, bytes_n) = run_impaired_partitioned(9, 1234, partitions, threads);
        assert_eq!(
            trace_1, trace_n,
            "impaired trace diverged at {partitions} partitions x {threads} threads"
        );
        assert_eq!(
            bytes_1, bytes_n,
            "impaired byte counters diverged at {partitions} partitions x {threads} threads"
        );
    }
}

/// A cable-cut run on a fat-tree, decomposed into `partitions` cores on
/// `partition_threads` epoch workers: the busiest-cable flap (down +
/// restore, both directions) drains queues, reroutes ECMP flows and
/// crosses partition boundaries — and must stay bit-identical for every
/// partition and thread count.
fn run_cable_cut_partitioned(
    partitions: usize,
    partition_threads: usize,
) -> (Vec<TracePoint>, Vec<(u64, u64)>) {
    use numfabric::sim::LinkChange;
    use numfabric::workloads::impairments::fabric_cables;
    use numfabric::workloads::stride_pairs;

    let topo = Topology::fat_tree(&FatTreeConfig::new(4));
    let pairs = stride_pairs(&topo, 8, 3);
    let (cut_fwd, cut_rev) = fabric_cables(&topo)[0];

    let config = NumFabricConfig::paper_default();
    let mut net = numfabric_network(topo, &config);
    net.set_partitions(partitions);
    net.set_partition_threads(partition_threads);
    for link in [cut_fwd, cut_rev] {
        net.schedule_link_change(SimTime::from_micros(500), link, LinkChange::Down);
        net.schedule_link_change(SimTime::from_micros(1_500), link, LinkChange::Up);
    }
    let ids: Vec<FlowId> = pairs
        .iter()
        .map(|p| {
            net.add_flow(
                p.src,
                p.dst,
                None,
                SimTime::ZERO,
                p.spine_choice,
                None,
                Box::new(NumFabricAgent::new(config.clone(), LogUtility::new())),
            )
        })
        .collect();
    let mut trace = Vec::new();
    sample_rates(&mut net, &ids, &mut trace);
    let bytes = ids
        .iter()
        .map(|&f| {
            let st = net.flow_stats(f);
            (st.bytes_sent, st.bytes_acked)
        })
        .collect();
    (trace, bytes)
}

#[test]
fn partition_count_never_changes_a_cable_cut_run() {
    let (trace_1, bytes_1) = run_cable_cut_partitioned(1, 1);
    assert!(bytes_1.iter().all(|&(sent, _)| sent > 0));
    for (partitions, threads) in [(2, 1), (2, 2), (4, 4)] {
        let (trace_n, bytes_n) = run_cable_cut_partitioned(partitions, threads);
        assert_eq!(
            trace_1, trace_n,
            "cable-cut trace diverged at {partitions} partitions x {threads} threads"
        );
        assert_eq!(
            bytes_1, bytes_n,
            "cable-cut byte counters diverged at {partitions} partitions x {threads} threads"
        );
    }
}

/// Replay a seeded workload through pFabric's sorted priority queue with
/// buffers shallow enough that the worst-drop (evict) path fires constantly;
/// drop decisions feed back into retransmission timing, so any
/// nondeterminism in the victim choice would diverge the byte counters.
fn run_pfabric_scenario(seed: u64) -> Vec<(u64, u64, u64, bool)> {
    let topo = Topology::leaf_spine(&LeafSpineConfig::small(16, 2, 2));
    let config = PfabricConfig::default();
    let mut net = pfabric_network(topo.clone(), &config);
    let mut ids: Vec<FlowId> = Vec::new();
    for a in poisson_arrivals(
        topo.hosts(),
        &FixedSize(60_000),
        &PoissonWorkloadConfig::new(0.5, SimDuration::from_millis(1), seed),
    ) {
        ids.push(net.add_flow(
            a.src,
            a.dst,
            Some(a.size_bytes),
            a.start,
            a.spine_choice,
            None,
            Box::new(PfabricAgent::new(config.clone())),
        ));
    }
    net.run_until(SimTime::from_millis(6));
    ids.iter()
        .map(|&f| {
            let st = net.flow_stats(f);
            (
                st.bytes_delivered,
                st.packets_dropped,
                st.packets_sent,
                net.flow_phase(f) == FlowPhase::Completed,
            )
        })
        .collect()
}

#[test]
fn pfabric_worst_drop_replay_is_bit_identical() {
    let a = run_pfabric_scenario(404);
    let b = run_pfabric_scenario(404);
    assert_eq!(a, b, "pFabric drop decisions diverged between replays");
    // The scenario must actually exercise the eviction path.
    let drops: u64 = a.iter().map(|&(_, d, _, _)| d).sum();
    assert!(
        drops > 0,
        "scenario produced no drops; eviction path untested"
    );
}

/// Render the churn engine's full `--json` report for one execution-knob
/// combination. Everything observable — per-class sketches, slab
/// high-water, goodput — is folded into the rendered bytes.
fn churn_engine_report(seed: u64, partitions: usize, partition_threads: usize) -> String {
    use numfabric::workloads::TopologySpec;
    use numfabric_bench::{
        churn_flows, churn_report_json, run_experiment, Experiment, Protocol, RunSetup,
    };
    let topo = TopologySpec::LeafSpine.build(false);
    let window = SimDuration::from_millis(6);
    let flows = churn_flows(&topo, 0.6, 0.25, window, seed);
    let protocol = Protocol::NumFabric(NumFabricConfig::default());
    let exp = Experiment {
        setup: RunSetup {
            partitions,
            partition_threads,
            ..RunSetup::default()
        },
        ..Experiment::new(protocol, topo, flows, window + SimDuration::from_millis(40))
    };
    let summary = run_experiment(&exp).churn;
    assert!(summary.completed > 0, "churn run completed no flows");
    churn_report_json("leaf-spine", exp.protocol.name(), 0.6, 6, seed, &summary).render()
}

#[test]
fn partition_matrix_never_changes_a_churn_report() {
    let baseline = churn_engine_report(21, 1, 1);
    for partitions in [1usize, 2, 4] {
        for threads in [1usize, 2] {
            if (partitions, threads) == (1, 1) {
                continue;
            }
            let got = churn_engine_report(21, partitions, threads);
            assert_eq!(
                baseline, got,
                "churn report bytes changed at partitions={partitions} threads={threads}"
            );
        }
    }
}

#[test]
fn churn_report_is_seed_sensitive() {
    // The matrix invariance above must not be vacuous: a different seed
    // has to produce a genuinely different trace.
    assert_ne!(
        churn_engine_report(21, 2, 2),
        churn_engine_report(22, 2, 2),
        "different seeds produced identical churn reports"
    );
}
