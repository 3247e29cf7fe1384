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
//! Only the test's own thread is counted, so the harness cannot disturb the
//! numbers.

use numfabric_sim::topology::{FatTreeConfig, Topology};
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::hint::black_box;
use std::sync::atomic::{AtomicI64, AtomicU64, Ordering::Relaxed};

thread_local! {
    static COUNTING: Cell<bool> = const { Cell::new(false) };
}
static ALLOCATIONS: AtomicU64 = AtomicU64::new(0);
static LIVE_BYTES: AtomicI64 = AtomicI64::new(0);

struct CountingAllocator;

fn count(allocations: u64, bytes: i64) {
    // Statistics only: nothing is published through these counters.
    if COUNTING.with(Cell::get) {
        ALLOCATIONS.fetch_add(allocations, Relaxed);
        LIVE_BYTES.fetch_add(bytes, Relaxed);
    }
}

// SAFETY: every method forwards its arguments unchanged to `System`, which
// upholds the `GlobalAlloc` contract; the counters touch no allocator state
// and the thread-local is const-initialised and has no destructor, so
// reading it never allocates.
unsafe impl GlobalAlloc for CountingAllocator {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count(1, layout.size() as i64);
        // SAFETY: the caller guarantees `layout` has non-zero size.
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        count(0, -(layout.size() as i64));
        // SAFETY: the caller guarantees `ptr` came from this allocator —
        // that is, from `System` — with this `layout`.
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count(1, new_size as i64 - layout.size() as i64);
        // SAFETY: the caller guarantees `ptr`/`layout` as for `dealloc` and
        // a non-zero `new_size` that does not overflow when aligned.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static ALLOCATOR: CountingAllocator = CountingAllocator;

/// Run `work` with this thread counted; returns `(allocations, live bytes
/// gained)`.
fn counted(work: impl FnOnce()) -> (u64, i64) {
    let before = (ALLOCATIONS.load(Relaxed), LIVE_BYTES.load(Relaxed));
    COUNTING.with(|c| c.set(true));
    work();
    COUNTING.with(|c| c.set(false));
    (
        ALLOCATIONS.load(Relaxed) - before.0,
        LIVE_BYTES.load(Relaxed) - before.1,
    )
}

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
