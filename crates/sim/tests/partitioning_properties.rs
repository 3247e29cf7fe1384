//! Property tests for the deterministic graph partitioner behind the
//! domain-decomposed network (`Topology::partition`), plus the epoch-worker
//! conformance contract: running the partition cores on a thread pool must
//! pop the exact same `(time, key)` event sequence as the sequential
//! barrier loop.
//!
//! The partitioner is the root of the partition-conformance contract: event
//! ownership, timer routing and the per-link impairment streams all key
//! off the node → partition assignment, so it must (1) be a pure function of
//! the topology and the partition count, (2) assign **every** node exactly
//! one partition in range, and (3) keep each host attached to the same
//! partition as the chunked `i * n / num_hosts` rule promises, so the
//! assignment never depends on construction order or hashing.

use numfabric_sim::queue::DropTailFifo;
use numfabric_sim::reference::SimpleWindowAgent;
use numfabric_sim::topology::{FatTreeConfig, LeafSpineConfig, Topology};
use numfabric_sim::{Network, SimDuration, SimTime};
use proptest::prelude::*;

/// Assert the coverage contract on one topology/partition-count pair:
/// every node is owned by exactly one in-range partition, hosts follow the
/// chunk rule, and a second partitioning call reproduces the first.
fn assert_partitioning_contract(topo: &Topology, partitions: usize) {
    let parts = topo.partition(partitions);
    assert_eq!(parts.partitions(), partitions);
    // Exactly-once coverage: the assignment is total (one slot per node)
    // and every slot is in range — no node unassigned, none assigned twice.
    assert_eq!(parts.assignment().len(), topo.nodes().len());
    for (node, &p) in parts.assignment().iter().enumerate() {
        assert!(
            p < partitions,
            "node {node} assigned out-of-range partition {p}"
        );
    }
    // Hosts follow the contiguous chunk rule.
    let num_hosts = topo.hosts().len();
    for (i, &host) in topo.hosts().iter().enumerate() {
        assert_eq!(
            parts.of(host),
            i * partitions / num_hosts,
            "host {host} not in its chunk partition"
        );
    }
    // Determinism: a fresh partitioning of the same topology is identical.
    let again = topo.partition(partitions);
    assert_eq!(
        parts.assignment(),
        again.assignment(),
        "partitioner is not deterministic"
    );
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// Fat-trees of arity 2–6 partition deterministically with exact node
    /// coverage for any partition count 1–8.
    #[test]
    fn prop_fat_tree_partitioning_is_total_and_deterministic(
        half_k in 1usize..=3,
        partitions in 1usize..=8,
    ) {
        let topo = Topology::fat_tree(&FatTreeConfig::new(2 * half_k));
        assert_partitioning_contract(&topo, partitions);
    }

    /// Leaf-spine fabrics (including oversubscribed shapes) partition
    /// deterministically with exact node coverage.
    #[test]
    fn prop_leaf_spine_partitioning_is_total_and_deterministic(
        leaves in 2usize..=5,
        per_leaf in 1usize..=6,
        spines in 1usize..=5,
        ratio in 1.0f64..8.0,
        partitions in 1usize..=8,
    ) {
        let cfg = LeafSpineConfig::oversubscribed(leaves * per_leaf, leaves, spines, ratio);
        let topo = Topology::leaf_spine(&cfg);
        assert_partitioning_contract(&topo, partitions);
    }
}

#[test]
fn single_partition_owns_everything() {
    let topo = Topology::fat_tree(&FatTreeConfig::new(4));
    let parts = topo.partition(1);
    assert!(parts.assignment().iter().all(|&p| p == 0));
}

/// Run a small leaf-spine fabric carrying `flows` stride-patterned window
/// flows for 300 µs, decomposed into `partitions` cores advancing on
/// `threads` epoch workers, and return the per-partition `(time, key)`
/// event traces.
fn traced_run(
    flows: usize,
    window: usize,
    partitions: usize,
    threads: usize,
) -> Vec<Vec<(SimTime, u64)>> {
    let topo = Topology::leaf_spine(&LeafSpineConfig::small(8, 2, 2));
    let hosts = topo.hosts().to_vec();
    let mut net = Network::new(topo, |_| Box::new(DropTailFifo::with_default_buffer()));
    net.set_partitions(partitions);
    net.set_partition_threads(threads);
    net.set_event_trace(true);
    for i in 0..flows {
        let src = hosts[i % hosts.len()];
        let dst = hosts[(i + hosts.len() / 2) % hosts.len()];
        net.add_flow(
            src,
            dst,
            None,
            SimTime::ZERO,
            i,
            None,
            Box::new(SimpleWindowAgent::new(window)),
        );
    }
    net.run_until(SimTime::ZERO + SimDuration::from_micros(300));
    net.take_event_traces()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// Threaded epoch execution is a pure scheduling change: for any flow
    /// mix and any worker count, every partition core pops the exact same
    /// `(time, key)` event sequence as the sequential barrier loop.
    #[test]
    fn prop_threaded_epochs_pop_the_sequential_event_trace(
        flows in 1usize..=8,
        window in 1usize..=4,
        partitions in 1usize..=4,
        threads in 2usize..=4,
    ) {
        let sequential = traced_run(flows, window, partitions, 1);
        let threaded = traced_run(flows, window, partitions, threads);
        prop_assert!(
            sequential.iter().map(|t| t.len()).sum::<usize>() > 0,
            "run popped no events"
        );
        prop_assert_eq!(
            sequential,
            threaded,
            "event traces diverged at {} partitions x {} threads",
            partitions,
            threads
        );
    }
}
