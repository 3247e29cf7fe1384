//! The route index's two resource gates, measured by a counting global
//! allocator (exact, so gated with zero tolerance):
//!
//! 1. **Warm queries never allocate.** After one query per destination,
//!    `host_route` + `reverse_route` + `base_rtt` — everything flow
//!    admission asks of the topology — allocate exactly 0 times.
//! 2. **The warm index stays small.** On a k = 8 fat-tree it holds one
//!    8-byte entry per (node, edge switch) — not per (node, host) — plus
//!    adjacency; the small benchmark rows peak at a few MiB, so a fatter
//!    index shows up as a `peak_rss_mb` regression.
//!
//! Allocations are counted by the shared counting allocator in
//! `alloc_counter/`.

mod alloc_counter;

use alloc_counter::counted;
use numfabric_sim::topology::{FatTreeConfig, Topology};
use std::hint::black_box;

#[test]
fn warm_route_queries_allocate_nothing_and_the_index_stays_small() {
    let topo = Topology::fat_tree(&FatTreeConfig::new(8));
    let hosts = topo.hosts().to_vec();
    let n = hosts.len();

    // Warm-up: the first query builds the adjacency, each first query
    // towards an edge switch fills that switch's table.
    let (warm_allocations, index_bytes) = counted(|| {
        for (i, &dst) in hosts.iter().enumerate() {
            black_box(topo.host_route(hosts[(i + n / 2) % n], dst, i));
        }
    });
    assert!(warm_allocations > 0, "the allocator is not counting");
    let table_bytes = (topo.leaves().len() * topo.nodes().len() * 8) as i64;
    let adjacency_bytes = (24 * topo.num_links() + 48 * topo.nodes().len()) as i64;
    assert!(
        (table_bytes..=table_bytes + adjacency_bytes).contains(&index_bytes),
        "warm index holds {index_bytes} B; expected one 8-byte entry per (node, edge switch) = \
         {table_bytes} B plus at most {adjacency_bytes} B of adjacency"
    );

    // 10 000 admissions' worth of topology queries over every kind of pair
    // (same edge, same pod, inter-pod) and every ECMP choice.
    let (allocations, _) = counted(|| {
        let mut x = 0x9e37_79b9_7f4a_7c15u64;
        for _ in 0..10_000 {
            x = x
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            let src = (x >> 33) as usize % n;
            let dst = (src + 1 + (x >> 13) as usize % (n - 1)) % n;
            let route = topo.host_route(hosts[src], hosts[dst], (x >> 3) as usize);
            black_box(topo.reverse_route(&route));
            black_box(topo.base_rtt(&route, 1500, 40));
        }
    });
    assert_eq!(allocations, 0, "warm route queries must not allocate");
}
