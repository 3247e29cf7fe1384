//! The route index's two resource gates, measured by a counting global
//! allocator (exact, so gated with zero tolerance):
//!
//! 1. **Warm admission never allocates.** Once every destination's table
//!    is warm, the buffers have room and the routes are interned, what
//!    flow admission does with a route — `host_route_into` and
//!    `reverse_route_into` into reused buffers, `base_rtt`, and `intern`
//!    of both — allocates exactly 0 times.
//! 2. **The warm index stays small.** On a k = 8 fat-tree it holds one
//!    8-byte entry per (node, edge switch) — not per (node, host) — plus
//!    adjacency; the small benchmark rows peak at a few MiB, so a fatter
//!    index shows up as a `peak_rss_mb` regression.
//! 3. **The route table stores each route once.** Interning the forward
//!    and reverse routes of all 16 256 host pairs of the k = 8 fat-tree
//!    fills the table within a bound stated from the hop total, and
//!    interning them all again allocates exactly 0 times.
//!
//! Allocations are counted by the shared counting allocator in
//! `alloc_counter/`.

mod alloc_counter;

use alloc_counter::counted;
use numfabric_sim::topology::{FatTreeConfig, LinkId, Topology};
use numfabric_sim::RouteTable;
use rand::{Rng, SeedableRng};
use rand_chacha::ChaCha8Rng;
use std::collections::BTreeSet;
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

    // 10 000 admissions' worth of route work over every kind of pair (same
    // edge, same pod, inter-pod) and every ECMP choice, the way
    // `Network::add_flow` does it: two reused buffers and one route table.
    // The first pass interns the routes and sizes the buffers; the second,
    // on known routes, is counted.
    let mut table = RouteTable::new();
    let (mut route, mut reverse) = (Vec::new(), Vec::new());
    let mut admit_all = || {
        let mut x = 0x9e37_79b9_7f4a_7c15u64;
        for _ in 0..10_000 {
            x = x
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            let src = (x >> 33) as usize % n;
            let dst = (src + 1 + (x >> 13) as usize % (n - 1)) % n;
            route.clear();
            topo.host_route_into(hosts[src], hosts[dst], (x >> 3) as usize, &mut route);
            reverse.clear();
            topo.reverse_route_into(&route, &mut reverse);
            black_box(topo.base_rtt(&route, 1500, 40));
            black_box(table.intern(&route));
            black_box(table.intern(&reverse));
        }
    };
    admit_all();
    let (allocations, _) = counted(admit_all);
    assert_eq!(
        allocations, 0,
        "a warm admission's route work must not allocate"
    );
}

/// The route set of the `shuffle-ft8` benchmark row: every ordered pair of
/// the 128 hosts, each with an ECMP choice drawn as `shuffle_pairs` draws
/// it at seed 1, and the reverse of each route.
#[test]
fn shuffle_routes_are_stored_once_and_re_interning_allocates_nothing() {
    let topo = Topology::fat_tree(&FatTreeConfig::new(8));
    let hosts = topo.hosts().to_vec();
    let mut rng = ChaCha8Rng::seed_from_u64(1);
    let mut routes = Vec::new();
    for &src in &hosts {
        for &dst in &hosts {
            if src != dst {
                let forward = topo.host_route(src, dst, rng.gen_range(0..64));
                routes.push(topo.reverse_route(&forward));
                routes.push(forward);
            }
        }
    }
    assert_eq!(routes.len(), 2 * 16_256);
    let distinct: BTreeSet<Vec<LinkId>> = routes.iter().cloned().collect();
    let hop_total: usize = distinct.iter().map(Vec::len).sum();

    let mut table = RouteTable::new();
    let (_, table_bytes) = counted(|| {
        for route in &routes {
            table.intern(route);
        }
    });
    assert_eq!(distinct.len(), 30_796, "shuffle-ft8 interns 30 796 routes");
    assert_eq!(table.len(), distinct.len());

    // Each hop is one 8-byte `LinkId`; each route adds a 4-byte start
    // offset, a 4-byte chain link and a 16-byte index entry with a control
    // byte at a load of at least 7/16. Growth at most doubles each vector.
    let bound = (2 * 8 * hop_total + 2 * 8 * distinct.len() + 17 * 16 / 7 * distinct.len()) as i64;
    assert!(
        table_bytes <= bound,
        "the route table holds {table_bytes} B for {} routes of {hop_total} hops; \
         the bound is {bound} B",
        distinct.len()
    );

    let (allocations, _) = counted(|| {
        for route in &routes {
            black_box(table.intern(route));
        }
    });
    assert_eq!(
        allocations, 0,
        "re-interning known routes must not allocate"
    );
    assert_eq!(table.len(), distinct.len());
}
