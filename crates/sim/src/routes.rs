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
//! Interning also deduplicates: in the paper's scenarios thousands of flows
//! share a handful of leaf-spine paths, so the arena stays tiny even for
//! very large workloads.

use crate::hash::FixedHashMap;
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

/// An arena of interned, deduplicated routes.
#[derive(Debug, Default)]
pub struct RouteTable {
    routes: Vec<Route>,
    interned: FixedHashMap<Route, RouteId>,
}

impl RouteTable {
    /// An empty table.
    pub fn new() -> Self {
        Self::default()
    }

    /// Intern `route`, returning the id of the existing entry if an identical
    /// route was interned before. Routes at most [`crate::topology::ROUTE_INLINE_HOPS`]
    /// hops long are stored inline, so interning a fabric path allocates
    /// nothing beyond the table's own growth.
    ///
    /// # Panics
    /// Panics, in release builds too, on a route longer than `u16::MAX`
    /// links: a packet's hop index is a `u16`, and incrementing it past
    /// its range would wrap silently.
    pub fn intern(&mut self, route: Route) -> RouteId {
        assert!(
            route.len() <= u16::MAX as usize,
            "a route of {} links is longer than a packet's u16 hop index can address",
            route.len()
        );
        if let Some(&id) = self.interned.get(&route) {
            return id;
        }
        let id = RouteId(u32::try_from(self.routes.len()).expect("more than u32::MAX routes"));
        self.interned.insert(route.clone(), id);
        self.routes.push(route);
        id
    }

    /// The route behind an id.
    ///
    /// # Panics
    /// Panics if `id` was not produced by this table.
    pub fn get(&self, id: RouteId) -> &Route {
        &self.routes[id.index()]
    }

    /// The link sequence of a route (the hot-path accessor).
    #[inline]
    pub fn links(&self, id: RouteId) -> &[LinkId] {
        self.routes[id.index()].links()
    }

    /// Number of distinct routes interned.
    pub fn len(&self) -> usize {
        self.routes.len()
    }

    /// Whether the table is empty.
    pub fn is_empty(&self) -> bool {
        self.routes.is_empty()
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
        assert_eq!(table.get(b).links(), &[4]);
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
}
