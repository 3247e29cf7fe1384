//! Route interning: an arena of deduplicated routes addressed by a copyable
//! [`RouteId`].
//!
//! Forwarding is the hottest path of the simulator — every packet at every
//! hop needs its route. Storing the route inline (or behind an `Arc`) in
//! each packet means per-packet refcount traffic and, worse, per-call clones
//! wherever the borrow checker forces the route out of `self`. Instead the
//! [`crate::network::Network`] interns every route once at flow-registration
//! time and passes a plain `u32` handle around; packets, flow specs and the
//! forwarding loop all operate on `RouteId` + hop index and resolve links
//! through the table with a bounds-checked slice lookup.
//!
//! Interning also deduplicates, but the arena is not small at scale: the
//! 128-host all-to-all shuffle on a k = 8 fat-tree (`shuffle-ft8`) interns
//! 30 796 distinct routes. So each route's hops are stored exactly once, in
//! one flat vector, and the dedup index holds only ids keyed by a hash of
//! the hops; a lookup compares candidates against the arena itself.

use std::collections::hash_map::Entry;
use std::hash::{BuildHasher, BuildHasherDefault};

use crate::hash::{FixedHashMap, FixedHasher};
use crate::topology::{LinkId, Partitioning, Route, Topology};

/// A copyable handle to a route interned in a [`RouteTable`].
///
/// Only meaningful together with the table that produced it; the network
/// resolves ids through [`crate::network::Network::route`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct RouteId(u32);

impl RouteId {
    /// The arena index of this route.
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

/// Ends a collision chain in [`RouteTable::chain`].
const NONE: u32 = u32::MAX;

/// An arena of interned, deduplicated routes: every route's hops back to
/// back in one vector, delimited by start offsets, and a hash index of ids.
/// On `shuffle-ft8`'s 30 796 routes that is about 3.5 MB of capacity.
#[derive(Debug)]
pub struct RouteTable {
    /// The hops of every route, in intern order.
    hops: Vec<LinkId>,
    /// Route `i` is `hops[starts[i]..starts[i + 1]]`; `starts[0] == 0`.
    starts: Vec<u32>,
    /// Hash of a hop sequence → the first id interned with that hash.
    heads: FixedHashMap<u64, u32>,
    /// `chain[i]`: the next id whose hops hash like route `i`'s, or `NONE`.
    chain: Vec<u32>,
    /// Test seam: hash every route to the same key, so every lookup walks
    /// one collision chain.
    #[cfg(test)]
    one_bucket: bool,
}

impl Default for RouteTable {
    fn default() -> Self {
        Self {
            hops: Vec::new(),
            starts: vec![0],
            heads: FixedHashMap::default(),
            chain: Vec::new(),
            #[cfg(test)]
            one_bucket: false,
        }
    }
}

impl RouteTable {
    /// An empty table.
    pub fn new() -> Self {
        Self::default()
    }

    /// Intern `route`, returning the id of the existing entry if an identical
    /// route was interned before. A new route's hops are appended to the
    /// arena; a known one allocates nothing.
    ///
    /// # Panics
    /// Panics, in release builds too, on a route longer than `u16::MAX`
    /// links: a packet's hop index is a `u16`, and incrementing it past
    /// its range would wrap silently.
    pub fn intern(&mut self, route: Route) -> RouteId {
        let links = route.links();
        assert!(
            links.len() <= u16::MAX as usize,
            "a route of {} links is longer than a packet's u16 hop index can address",
            links.len()
        );
        let id = u32::try_from(self.len())
            .ok()
            .filter(|&id| id != NONE)
            .expect("more than u32::MAX - 1 routes");
        match self.heads.entry(self.key(links)) {
            Entry::Vacant(slot) => {
                slot.insert(id);
            }
            Entry::Occupied(slot) => {
                let mut at = *slot.get();
                loop {
                    let (start, end) = (self.starts[at as usize], self.starts[at as usize + 1]);
                    if self.hops[start as usize..end as usize] == *links {
                        return RouteId(at);
                    }
                    match self.chain[at as usize] {
                        NONE => break,
                        next => at = next,
                    }
                }
                self.chain[at as usize] = id;
            }
        }
        self.hops.extend_from_slice(links);
        self.starts
            .push(u32::try_from(self.hops.len()).expect("more than u32::MAX interned hops"));
        self.chain.push(NONE);
        RouteId(id)
    }

    /// The dedup index's key for a hop sequence.
    fn key(&self, links: &[LinkId]) -> u64 {
        #[cfg(test)]
        if self.one_bucket {
            return 0;
        }
        BuildHasherDefault::<FixedHasher>::default().hash_one(links)
    }

    /// The link sequence of a route.
    ///
    /// # Panics
    /// Panics if `id` was not produced by this table.
    #[inline]
    pub fn links(&self, id: RouteId) -> &[LinkId] {
        let i = id.index();
        &self.hops[self.starts[i] as usize..self.starts[i + 1] as usize]
    }

    /// Link `i` of a route, or `None` past its last hop (the hot-path
    /// accessor).
    #[inline]
    pub fn hop(&self, id: RouteId, i: usize) -> Option<LinkId> {
        self.links(id).get(i).copied()
    }

    /// Number of distinct routes interned.
    pub fn len(&self) -> usize {
        self.chain.len()
    }

    /// Whether the table is empty.
    pub fn is_empty(&self) -> bool {
        self.chain.is_empty()
    }

    /// The hop indices of `route` that cross a partition boundary under
    /// `parts` — the hops where a packet following this route becomes a
    /// boundary message between per-partition event cores. An empty result
    /// means the whole path stays inside one partition (always the case for
    /// a single-partition network).
    pub fn crossing_hops(
        &self,
        route: RouteId,
        topo: &Topology,
        parts: &Partitioning,
    ) -> Vec<usize> {
        self.links(route)
            .iter()
            .enumerate()
            .filter(|&(_, &l)| {
                let spec = &topo.links()[l];
                parts.of(spec.from) != parts.of(spec.to)
            })
            .map(|(hop, _)| hop)
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn interning_deduplicates_identical_routes() {
        let mut table = RouteTable::new();
        let a = table.intern(Route::from_links(vec![1, 2, 3]));
        let b = table.intern(Route::from_links(vec![4]));
        let c = table.intern(Route::from_links(vec![1, 2, 3]));
        assert_eq!(a, c);
        assert_ne!(a, b);
        assert_eq!(table.len(), 2);
        assert_eq!(table.links(a), &[1, 2, 3]);
        assert_eq!(table.links(b), &[4]);
    }

    #[test]
    fn ids_are_stable_and_dense() {
        let mut table = RouteTable::new();
        assert!(table.is_empty());
        for i in 0..10usize {
            let id = table.intern(Route::from_links(vec![i]));
            assert_eq!(id.index(), i);
        }
        assert_eq!(table.len(), 10);
    }

    #[test]
    #[should_panic(expected = "a route of 65536 links is longer than a packet's u16 hop index")]
    fn a_route_beyond_the_hop_index_is_a_hard_error() {
        let mut table = RouteTable::new();
        table.intern(Route::from_links(vec![0; u16::MAX as usize]));
        table.intern(Route::from_links(vec![0; u16::MAX as usize + 1]));
    }

    #[test]
    fn crossing_hops_marks_exactly_the_boundary_links() {
        use crate::topology::LeafSpineConfig;
        let topo = Topology::leaf_spine(&LeafSpineConfig::small(8, 2, 2));
        let hosts = topo.hosts().to_vec();
        let mut table = RouteTable::new();
        // Inter-rack: host in rack 0 to host in rack 1, via a spine.
        let inter = table.intern(topo.host_route(hosts[0], hosts[7], 0));
        // Intra-rack: both endpoints under leaf 0.
        let intra = table.intern(topo.host_route(hosts[0], hosts[1], 0));
        let one = topo.partition(1);
        assert!(table.crossing_hops(inter, &topo, &one).is_empty());
        let two = topo.partition(2);
        assert!(table.crossing_hops(intra, &topo, &two).is_empty());
        let crossings = table.crossing_hops(inter, &topo, &two);
        assert!(!crossings.is_empty(), "inter-rack route must cross the cut");
        for hop in crossings {
            let l = table.links(inter)[hop];
            let spec = &topo.links()[l];
            assert_ne!(two.of(spec.from), two.of(spec.to));
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(48))]
        /// Interning random routes of 1–20 hops (so both sides of
        /// `ROUTE_INLINE_HOPS`) over a small link alphabet, with repeats:
        /// equal hop sequences get equal ids and only those, every id's
        /// slice round-trips, `hop` agrees with the slice up to one past its
        /// end, and `len` counts the distinct routes. `one_bucket` hashes
        /// every route alike, so each lookup walks one collision chain.
        #[test]
        fn arena_interning_round_trips(
            seed in 0u64..u64::MAX,
            count in 1usize..400,
            alphabet in 1u64..6,
            one_bucket in 0u8..2,
        ) {
            let mut state = seed;
            let mut next = move || {
                state = state
                    .wrapping_mul(6364136223846793005)
                    .wrapping_add(1442695040888963407);
                state >> 17
            };
            let mut table = RouteTable::new();
            table.one_bucket = one_bucket == 1;
            let mut seen: Vec<(Vec<LinkId>, RouteId)> = Vec::new();
            for _ in 0..count {
                let len = 1 + (next() % 20) as usize;
                let links: Vec<LinkId> = (0..len).map(|_| (next() % alphabet) as LinkId).collect();
                let id = table.intern(Route::from_links(links.clone()));
                for (other, other_id) in &seen {
                    prop_assert_eq!(*other == links, *other_id == id);
                }
                seen.push((links, id));
            }
            for (links, id) in &seen {
                prop_assert_eq!(table.links(*id), links.as_slice());
                for i in 0..=links.len() {
                    prop_assert_eq!(table.hop(*id, i), links.get(i).copied());
                }
            }
            seen.sort();
            seen.dedup();
            prop_assert_eq!(table.len(), seen.len());
        }
    }
}
