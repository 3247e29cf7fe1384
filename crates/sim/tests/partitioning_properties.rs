//! Property tests for the deterministic graph partitioner behind the
//! domain-decomposed network (`Topology::partition`).
//!
//! The partitioner is the root of the partition-conformance contract: event
//! ownership, timer routing and the per-link impairment streams all key
//! off the node → partition assignment, so it must (1) be a pure function of
//! the topology and the partition count, (2) assign **every** node exactly
//! one partition in range, and (3) keep each host attached to the same
//! partition as the chunked `i * n / num_hosts` rule promises, so the
//! assignment never depends on construction order or hashing.

use numfabric_sim::topology::{FatTreeConfig, LeafSpineConfig, Topology};
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
