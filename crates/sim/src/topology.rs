//! Network topology: nodes, links and routes.
//!
//! The paper's evaluation uses leaf-spine fabrics: 128 servers, 8 leaf
//! switches and 4 spine switches with 10 Gbps host links and 40 Gbps fabric
//! links (full bisection bandwidth) for most experiments, and a 16-spine /
//! 10 Gbps-everywhere variant for the resource-pooling experiment (§6.3).
//! [`Topology::leaf_spine`] builds both. Beyond the paper's fabrics, the
//! module provides [`Topology::fat_tree`] (k-ary fat-trees with edge /
//! aggregation / core tiers) and [`LeafSpineConfig::oversubscribed`]
//! (leaf-spine with a configurable host:fabric bandwidth ratio), so
//! workloads can be evaluated on heterogeneous bottleneck structures.
//!
//! Links are unidirectional; the builders create both directions of every
//! physical cable. Routes are precomputed per flow (the simulator does not
//! model hop-by-hop forwarding-table lookups), which matches how the paper
//! pins each flow or subflow to a path chosen by ECMP hashing.
//!
//! # ECMP: the ordering contract
//!
//! The equal-cost paths between two hosts are *all* shortest paths, ordered
//! **lexicographically by node id** (at every hop the lower-numbered next
//! node comes first). [`Topology::host_route`] pins a flow to path number
//! `choice % n` of the `n` paths ([`Topology::num_host_routes`]);
//! [`Topology::host_routes`] lists them all in that order. Where parallel
//! links join the same two nodes a route takes the **lowest link id**
//! (the first-match rule of [`Topology::link_between`]). On a leaf-spine
//! fabric this yields one path per spine, in spine order, for inter-rack
//! pairs; on a k-ary fat-tree `(k/2)²` paths for inter-pod pairs and `k/2`
//! for intra-pod pairs. Seeded scenarios pin flows by `choice`, so this
//! order is part of every report's bytes.
//!
//! # The route index
//!
//! Routing is a lookup, as it is in a switch. The first route query on a
//! topology builds a private route index (held in a [`OnceLock`], so a
//! shared `&Topology` stays `Send + Sync`): per-node adjacency sorted by
//! `(neighbour, link id)` and a per-link reverse-twin table. Per
//! destination, the first query towards it runs one breadth-first search
//! and keeps, for every node, its hop distance to the destination and the
//! number of shortest paths from there (saturating at `u32::MAX` on
//! adversarial graphs). `host_route` then walks straight to path number
//! `choice % n`: at each hop it scans the neighbours one hop closer in
//! ascending id order, subtracting each one's path count until the
//! remaining index falls inside a neighbour's sub-DAG. Nothing is
//! enumerated and nothing is allocated (routes of up to
//! [`ROUTE_INLINE_HOPS`] links are inline). A single-homed destination
//! shares the table of its attachment switch, so a fabric keeps one 8-byte
//! entry per (node, edge switch), not per (node, host).
//!
//! The index is **lazy** — building a topology or a `Network` costs
//! nothing extra; the index is born on the first query — and it is
//! **invalidated by mutation**: [`Topology::add_node`] and
//! [`Topology::add_link`] drop it, and the next query rebuilds it. A cloned
//! topology owns an independent copy.
//!
//! Failure re-selection ([`Topology::host_route_avoiding`] and friends) runs
//! the same search and the same walker over a *valley-free* state graph
//! that skips banned links; its tables depend on the ban set and are not
//! cached.

use crate::time::SimDuration;
use serde::{Deserialize, Serialize};
use std::borrow::Cow;
use std::collections::{HashSet, VecDeque};
use std::sync::OnceLock;

/// Identifier of a node (host or switch).
pub type NodeId = usize;
/// Identifier of a unidirectional link.
pub type LinkId = usize;

/// What role a node plays in the fabric.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum NodeKind {
    /// A server / end-host.
    Host,
    /// A top-of-rack (edge / leaf) switch.
    Leaf,
    /// A pod-level aggregation switch (fat-tree middle tier).
    Aggregation,
    /// A spine switch (leaf-spine top tier).
    Spine,
    /// A core switch (fat-tree top tier).
    Core,
}

impl NodeKind {
    /// The node's height in the fabric hierarchy: hosts are tier 0, each
    /// switch layer above adds one. Leaf-spine tops out at tier 2 (spines),
    /// fat-trees at tier 3 (cores). Valley-free (up-then-down) routing is
    /// defined in terms of this tier.
    pub fn tier(self) -> u8 {
        match self {
            NodeKind::Host => 0,
            NodeKind::Leaf => 1,
            NodeKind::Aggregation | NodeKind::Spine => 2,
            NodeKind::Core => 3,
        }
    }

    /// Whether the node is a switch (any non-host kind).
    pub fn is_switch(self) -> bool {
        self != NodeKind::Host
    }
}

/// Static description of a node.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct Node {
    /// The node's role.
    pub kind: NodeKind,
    /// Human-readable name (e.g. `host-17`, `leaf-2`, `spine-0`).
    pub name: String,
}

/// Static description of a unidirectional link.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct LinkSpec {
    /// Transmitting node.
    pub from: NodeId,
    /// Receiving node.
    pub to: NodeId,
    /// Capacity in bits per second.
    pub capacity_bps: f64,
    /// Propagation delay.
    pub delay: SimDuration,
}

/// Hops stored inline in a [`Route`] before it spills to the heap. Every
/// supported fabric (leaf-spine, oversubscribed leaf-spine, k-ary fat-tree)
/// produces host routes of at most `2·tiers + 1 ≤ 7` hops, so eight inline
/// slots cover them all with headroom; exotic topologies with longer paths
/// still work via the spill variant.
pub const ROUTE_INLINE_HOPS: usize = 8;

/// Internal hop storage of a [`Route`]: a fixed inline array for the
/// overwhelmingly common short path, a heap vector only when a path exceeds
/// [`ROUTE_INLINE_HOPS`]. The representation is canonical — `len <=
/// ROUTE_INLINE_HOPS` is always `Inline` — but equality and hashing go
/// through [`Route::links`] regardless, so only the hop sequence matters.
#[derive(Debug, Clone)]
enum Hops {
    Inline {
        len: u8,
        hops: [LinkId; ROUTE_INLINE_HOPS],
    },
    Spilled(Vec<LinkId>),
}

/// A precomputed route: the sequence of links a packet traverses.
///
/// Hops are stored inline (no heap allocation) for paths of up to
/// [`ROUTE_INLINE_HOPS`] links — every route on the supported fabrics — so
/// building, cloning and interning candidate routes during ECMP enumeration
/// and failure re-selection never allocates; longer paths transparently
/// spill to a heap vector.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct Route {
    hops: Hops,
}

impl Route {
    /// The empty route (same-host communication).
    pub fn new() -> Self {
        Route {
            hops: Hops::Inline {
                len: 0,
                hops: [0; ROUTE_INLINE_HOPS],
            },
        }
    }

    /// A route over `links` in traversal order. Reuses the given vector as
    /// spill storage when the path is longer than [`ROUTE_INLINE_HOPS`].
    pub fn from_links(links: Vec<LinkId>) -> Self {
        if links.len() <= ROUTE_INLINE_HOPS {
            links.iter().copied().collect()
        } else {
            Route {
                hops: Hops::Spilled(links),
            }
        }
    }

    /// The links of the route, in traversal order.
    #[inline]
    pub fn links(&self) -> &[LinkId] {
        match &self.hops {
            Hops::Inline { len, hops } => &hops[..*len as usize],
            Hops::Spilled(v) => v,
        }
    }

    /// Append one link to the route, spilling to the heap if the inline
    /// capacity is exceeded.
    pub fn push(&mut self, link: LinkId) {
        match &mut self.hops {
            Hops::Inline { len, hops } => {
                if (*len as usize) < ROUTE_INLINE_HOPS {
                    hops[*len as usize] = link;
                    *len += 1;
                } else {
                    let mut v = hops.to_vec();
                    v.push(link);
                    self.hops = Hops::Spilled(v);
                }
            }
            Hops::Spilled(v) => v.push(link),
        }
    }

    /// Number of links on the route.
    pub fn len(&self) -> usize {
        match &self.hops {
            Hops::Inline { len, .. } => *len as usize,
            Hops::Spilled(v) => v.len(),
        }
    }

    /// Whether the route is empty (same-host communication).
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

impl Default for Route {
    fn default() -> Self {
        Self::new()
    }
}

impl FromIterator<LinkId> for Route {
    fn from_iter<I: IntoIterator<Item = LinkId>>(iter: I) -> Self {
        let mut route = Route::new();
        for link in iter {
            route.push(link);
        }
        route
    }
}

impl PartialEq for Route {
    fn eq(&self, other: &Self) -> bool {
        self.links() == other.links()
    }
}
impl Eq for Route {}

impl std::hash::Hash for Route {
    fn hash<H: std::hash::Hasher>(&self, state: &mut H) {
        self.links().hash(state);
    }
}

/// One adjacency entry: `link` joins the owning node and `peer`.
#[derive(Debug, Clone, Copy)]
struct Hop {
    peer: u32,
    link: u32,
}

/// Marks "no link" in [`RouteIndex::twin`] and "no node yet" in
/// [`Search::hops`]; node and link counts are asserted to stay below it.
const NONE: u32 = u32::MAX;

/// Compressed adjacency lists: the hops of node `n` are
/// `hops[start[n]..start[n + 1]]`, sorted by `(peer, link)` — so the first
/// entry per peer carries the lowest link id, [`Topology::link_between`]'s
/// first-match rule.
#[derive(Debug, Clone)]
struct Adjacency {
    start: Vec<u32>,
    hops: Vec<Hop>,
}

impl Adjacency {
    /// Adjacency over `nodes` nodes from `(owner, peer)` pairs in link-id
    /// order.
    fn new(nodes: usize, ends: impl Iterator<Item = (NodeId, NodeId)>) -> Self {
        let mut sorted: Vec<(NodeId, NodeId, LinkId)> = ends
            .enumerate()
            .map(|(link, (owner, peer))| (owner, peer, link))
            .collect();
        sorted.sort_unstable();
        let mut start = vec![0u32; nodes + 1];
        for &(owner, _, _) in &sorted {
            start[owner + 1] += 1;
        }
        for n in 0..nodes {
            start[n + 1] += start[n];
        }
        let hops = sorted
            .into_iter()
            .map(|(_, peer, link)| Hop {
                peer: peer as u32,
                link: link as u32,
            })
            .collect();
        Adjacency { start, hops }
    }

    fn of(&self, node: NodeId) -> &[Hop] {
        &self.hops[self.start[node] as usize..self.start[node + 1] as usize]
    }
}

/// Where a search state stands relative to the search's goal: hop distance
/// and number of shortest paths (saturating). Eight bytes — the per-
/// destination tables are the bulk of the route index, and the small
/// benchmark rows peak at a few MiB.
#[derive(Debug, Clone, Copy)]
struct ToGoal {
    hops: u32,
    paths: u32,
}

const UNREACHABLE: ToGoal = ToGoal {
    hops: u32::MAX,
    paths: 0,
};

/// The lazily built routing state of a [`Topology`] (see the module docs).
#[derive(Debug, Clone)]
struct RouteIndex {
    /// Links leaving each node.
    out: Adjacency,
    /// Links entering each node.
    into: Adjacency,
    /// Per link, the lowest-id link in the opposite direction, or [`NONE`].
    twin: Vec<u32>,
    /// Per destination node, every node's [`ToGoal`] on the healthy
    /// fabric; filled by the first query towards that destination.
    to_dst: Vec<OnceLock<Box<[ToGoal]>>>,
}

impl RouteIndex {
    fn new(nodes: usize, links: &[LinkSpec]) -> Self {
        assert!(
            nodes < NONE as usize && links.len() < NONE as usize,
            "route index supports fewer than 2^32 - 1 nodes and links"
        );
        let out = Adjacency::new(nodes, links.iter().map(|l| (l.from, l.to)));
        let into = Adjacency::new(nodes, links.iter().map(|l| (l.to, l.from)));
        let twin = links
            .iter()
            .map(|l| first_link_to(out.of(l.to), l.from).map_or(NONE, |id| id as u32))
            .collect();
        RouteIndex {
            out,
            into,
            twin,
            to_dst: vec![OnceLock::new(); nodes],
        }
    }

    /// The goal to search towards for destination `dst`, and the final link
    /// from that goal onto `dst` if the goal is not `dst` itself. A node
    /// with a single in-neighbour (every single-homed host) is only
    /// reachable through it, and no shortest path *to* that neighbour
    /// passes through the node, so the node shares its neighbour's table:
    /// one hop further, same path count.
    fn approach(&self, dst: NodeId) -> (NodeId, Option<LinkId>) {
        let hops = self.into.of(dst);
        match (hops.first(), hops.last()) {
            (Some(first), Some(last)) if first.peer == last.peer => {
                (first.peer as usize, Some(first.link as usize))
            }
            _ => (dst, None),
        }
    }
}

/// The lowest-id link to `to` among `hops` (sorted by `(peer, link)`).
fn first_link_to(hops: &[Hop], to: NodeId) -> Option<LinkId> {
    let at = hops.partition_point(|h| (h.peer as usize) < to);
    hops.get(at)
        .filter(|h| h.peer as usize == to)
        .map(|h| h.link as usize)
}

/// A shortest-path search over the route index: the one BFS helper and the
/// one DAG walker behind every route query.
///
/// With `banned: None` the states are the nodes and every hop is allowed:
/// plain shortest paths on the healthy fabric. With `banned: Some(set)` the
/// search is **valley-free** over the links outside `set`: state
/// `2·node + phase`, phase 0 while still ascending tiers and 1 once
/// descending; a hop either rises (staying in phase 0) or falls (entering
/// or staying in phase 1), and flat hops are not allowed. From any one
/// state each neighbour is reachable in at most one phase, so ordering next
/// hops by neighbour id orders paths lexicographically by node id in both
/// modes.
#[derive(Clone, Copy)]
struct Search<'a> {
    nodes: &'a [Node],
    index: &'a RouteIndex,
    banned: Option<&'a HashSet<LinkId>>,
}

impl<'a> Search<'a> {
    fn phases(&self) -> usize {
        if self.banned.is_some() {
            2
        } else {
            1
        }
    }

    /// The state a packet in state `at` is in after hopping to node `to`,
    /// or `None` if the search does not allow the hop.
    fn step(&self, at: usize, to: NodeId) -> Option<usize> {
        if self.banned.is_none() {
            return Some(to);
        }
        let (from, descending) = (at / 2, at % 2 == 1);
        let (tier_from, tier_to) = (self.nodes[from].kind.tier(), self.nodes[to].kind.tier());
        if tier_to > tier_from && !descending {
            Some(2 * to)
        } else if tier_to < tier_from {
            Some(2 * to + 1)
        } else {
            None
        }
    }

    /// The usable hops among `hops`, one per distinct neighbour (its
    /// lowest-id usable link), in ascending neighbour order.
    fn hops(&self, hops: &'a [Hop]) -> impl Iterator<Item = Hop> + 'a {
        let banned = self.banned;
        let mut last_peer = NONE;
        hops.iter().copied().filter(move |hop| {
            let usable = hop.peer != last_peer
                && banned.is_none_or(|set| !set.contains(&(hop.link as usize)));
            if usable {
                last_peer = hop.peer;
            }
            usable
        })
    }

    /// Breadth-first search backwards from `goal`: every state's distance
    /// to it and its number of shortest paths there.
    fn table_to(&self, goal: usize) -> Vec<ToGoal> {
        let phases = self.phases();
        let mut table = vec![UNREACHABLE; self.nodes.len() * phases];
        table[goal] = ToGoal { hops: 0, paths: 1 };
        let mut frontier = VecDeque::from([goal]);
        while let Some(at) = frontier.pop_front() {
            // `here` is final: only states one hop closer to the goal add
            // to it, and all of those were popped before `at`.
            let here = table[at];
            let node = at / phases;
            for hop in self.hops(self.index.into.of(node)) {
                // A predecessor is any state of the in-neighbour whose step
                // onto `node` lands in `at`.
                for phase in 0..phases {
                    let prev = hop.peer as usize * phases + phase;
                    if self.step(prev, node) != Some(at) {
                        continue;
                    }
                    let entry = &mut table[prev];
                    if entry.hops == u32::MAX {
                        *entry = ToGoal {
                            hops: here.hops + 1,
                            paths: here.paths,
                        };
                        frontier.push_back(prev);
                    } else if entry.hops == here.hops + 1 {
                        entry.paths = entry.paths.saturating_add(here.paths);
                    }
                }
            }
        }
        table
    }

    /// Append to `route` the links of shortest path number `k` from `at` to
    /// `goal`, in lexicographic node order: at each hop, skip whole
    /// sub-DAGs (by their path counts) until `k` falls inside one. Exact
    /// for every `k` below the saturation point of the counts.
    fn walk(&self, table: &[ToGoal], mut at: usize, goal: usize, mut k: u32, route: &mut Route) {
        debug_assert!(k < table[at].paths);
        while at != goal {
            let closer = table[at].hops - 1;
            let mut chosen = None;
            for hop in self.hops(self.index.out.of(at / self.phases())) {
                let Some(next) = self.step(at, hop.peer as usize) else {
                    continue;
                };
                let ahead = table[next];
                if ahead.hops != closer {
                    continue;
                }
                if k < ahead.paths {
                    chosen = Some((hop.link, next));
                    break;
                }
                k -= ahead.paths;
            }
            let (link, next) = chosen.expect("path counts cover every index below the total");
            route.push(link as usize);
            at = next;
        }
    }
}

/// The equal-cost paths one search found between a pair of hosts: how many
/// there are, and any one of them by number.
struct PathSet<'a> {
    search: Search<'a>,
    /// Cached per destination on the healthy fabric, owned when the search
    /// went around a ban set.
    table: Cow<'a, [ToGoal]>,
    start: usize,
    goal: usize,
    /// The final link from `goal` onto the destination, when the search
    /// stopped at the destination's attachment switch.
    last: Option<LinkId>,
}

impl PathSet<'_> {
    fn len(&self) -> u32 {
        self.table[self.start].paths
    }

    /// Path number `k < len()` in lexicographic node order.
    fn route(&self, k: u32) -> Route {
        let mut route = Route::new();
        self.search
            .walk(&self.table, self.start, self.goal, k, &mut route);
        if let Some(last) = self.last {
            route.push(last);
        }
        route
    }

    /// Path number `choice % len()`, or `None` if there is no path.
    fn pinned(&self, choice: usize) -> Option<Route> {
        let len = self.len() as usize;
        (len > 0).then(|| self.route((choice % len) as u32))
    }

    fn all(&self) -> Vec<Route> {
        (0..self.len()).map(|k| self.route(k)).collect()
    }
}

/// A static network topology.
#[derive(Debug, Clone, Default, Serialize, Deserialize)]
pub struct Topology {
    nodes: Vec<Node>,
    links: Vec<LinkSpec>,
    /// Host nodes in creation order (convenience index).
    hosts: Vec<NodeId>,
    leaves: Vec<NodeId>,
    aggregations: Vec<NodeId>,
    spines: Vec<NodeId>,
    cores: Vec<NodeId>,
    /// Built by the first route query, dropped by every mutation.
    index: OnceLock<RouteIndex>,
}

/// Parameters for [`Topology::leaf_spine`].
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct LeafSpineConfig {
    /// Total number of servers (must be divisible by `leaves`).
    pub hosts: usize,
    /// Number of leaf (top-of-rack) switches.
    pub leaves: usize,
    /// Number of spine switches.
    pub spines: usize,
    /// Host ↔ leaf link speed in bits per second.
    pub host_link_bps: f64,
    /// Leaf ↔ spine link speed in bits per second.
    pub fabric_link_bps: f64,
    /// Per-link propagation delay.
    pub link_delay: SimDuration,
}

impl LeafSpineConfig {
    /// The paper's main topology: 128 servers, 8 leaves, 4 spines, 10 Gbps
    /// host links, 40 Gbps fabric links, ~16 µs base RTT.
    pub fn paper_default() -> Self {
        Self {
            hosts: 128,
            leaves: 8,
            spines: 4,
            host_link_bps: 10e9,
            fabric_link_bps: 40e9,
            link_delay: SimDuration::from_micros(2),
        }
    }

    /// The resource-pooling topology of §6.3: 128 servers, 8 leaves,
    /// 16 spines, all links 10 Gbps.
    pub fn resource_pooling() -> Self {
        Self {
            hosts: 128,
            leaves: 8,
            spines: 16,
            host_link_bps: 10e9,
            fabric_link_bps: 10e9,
            link_delay: SimDuration::from_micros(2),
        }
    }

    /// A scaled-down topology with the same shape, for fast tests and the
    /// default (non `--full`) benchmark runs.
    pub fn small(hosts: usize, leaves: usize, spines: usize) -> Self {
        Self {
            hosts,
            leaves,
            spines,
            host_link_bps: 10e9,
            fabric_link_bps: 40e9,
            link_delay: SimDuration::from_micros(2),
        }
    }

    /// An oversubscribed leaf-spine fabric: the aggregate uplink bandwidth of
    /// each leaf is `1/ratio` of its aggregate downlink (host-facing)
    /// bandwidth. `ratio = 1.0` reproduces full bisection; `ratio = 4.0` is
    /// the classic 4:1 oversubscription where 8 hosts × 10 Gbps behind a leaf
    /// share 20 Gbps of fabric capacity.
    ///
    /// # Panics
    /// Panics if `ratio < 1.0` or any count is zero / does not divide evenly.
    pub fn oversubscribed(hosts: usize, leaves: usize, spines: usize, ratio: f64) -> Self {
        assert!(
            ratio >= 1.0 && ratio.is_finite(),
            "oversubscription ratio must be >= 1"
        );
        assert!(hosts > 0 && leaves > 0 && spines > 0, "empty fabric");
        assert_eq!(hosts % leaves, 0, "hosts must divide evenly across leaves");
        let host_link_bps = 10e9;
        let per_leaf = (hosts / leaves) as f64;
        let fabric_link_bps = per_leaf * host_link_bps / (ratio * spines as f64);
        Self {
            hosts,
            leaves,
            spines,
            host_link_bps,
            fabric_link_bps,
            link_delay: SimDuration::from_micros(2),
        }
    }

    /// The leaf downlink : uplink bandwidth ratio this configuration yields
    /// (1.0 = full bisection, larger = oversubscribed).
    pub fn oversubscription_ratio(&self) -> f64 {
        let per_leaf = (self.hosts / self.leaves) as f64;
        per_leaf * self.host_link_bps / (self.spines as f64 * self.fabric_link_bps)
    }
}

/// Parameters for [`Topology::fat_tree`]: a canonical k-ary fat-tree
/// (Al-Fares et al.). `k` pods each hold `k/2` edge and `k/2` aggregation
/// switches; `(k/2)²` core switches connect the pods; every edge switch
/// serves `k/2` hosts, for `k³/4` hosts total (k=4 → 16 hosts, k=8 → 128).
/// All links share one speed, so the fabric has full bisection bandwidth.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct FatTreeConfig {
    /// The arity `k` (must be even and ≥ 2).
    pub k: usize,
    /// Speed of every link in bits per second.
    pub link_bps: f64,
    /// Per-link propagation delay.
    pub link_delay: SimDuration,
}

impl FatTreeConfig {
    /// A k-ary fat-tree with 10 Gbps links and 2 µs per-link delay (the
    /// paper's link parameters on the fat-tree shape).
    pub fn new(k: usize) -> Self {
        Self {
            k,
            link_bps: 10e9,
            link_delay: SimDuration::from_micros(2),
        }
    }

    /// Number of hosts this configuration yields (`k³/4`).
    pub fn num_hosts(&self) -> usize {
        self.k * self.k * self.k / 4
    }
}

impl Topology {
    /// An empty topology.
    pub fn new() -> Self {
        Self::default()
    }

    /// Add a node of the given kind; returns its id.
    pub fn add_node(&mut self, kind: NodeKind, name: impl Into<String>) -> NodeId {
        self.index = OnceLock::new();
        let id = self.nodes.len();
        self.nodes.push(Node {
            kind,
            name: name.into(),
        });
        match kind {
            NodeKind::Host => self.hosts.push(id),
            NodeKind::Leaf => self.leaves.push(id),
            NodeKind::Aggregation => self.aggregations.push(id),
            NodeKind::Spine => self.spines.push(id),
            NodeKind::Core => self.cores.push(id),
        }
        id
    }

    /// Add a unidirectional link; returns its id.
    ///
    /// # Panics
    /// Panics if either endpoint does not exist, the endpoints are equal, or
    /// the capacity is not strictly positive.
    pub fn add_link(
        &mut self,
        from: NodeId,
        to: NodeId,
        capacity_bps: f64,
        delay: SimDuration,
    ) -> LinkId {
        assert!(from < self.nodes.len(), "unknown node {from}");
        assert!(to < self.nodes.len(), "unknown node {to}");
        assert_ne!(from, to, "self-links are not allowed");
        assert!(
            capacity_bps.is_finite() && capacity_bps > 0.0,
            "capacity must be positive"
        );
        self.index = OnceLock::new();
        self.links.push(LinkSpec {
            from,
            to,
            capacity_bps,
            delay,
        });
        self.links.len() - 1
    }

    /// Add both directions of a physical cable; returns `(forward, reverse)`.
    pub fn add_duplex_link(
        &mut self,
        a: NodeId,
        b: NodeId,
        capacity_bps: f64,
        delay: SimDuration,
    ) -> (LinkId, LinkId) {
        (
            self.add_link(a, b, capacity_bps, delay),
            self.add_link(b, a, capacity_bps, delay),
        )
    }

    /// The nodes.
    pub fn nodes(&self) -> &[Node] {
        &self.nodes
    }

    /// The links.
    pub fn links(&self) -> &[LinkSpec] {
        &self.links
    }

    /// Host node ids in creation order.
    pub fn hosts(&self) -> &[NodeId] {
        &self.hosts
    }

    /// Leaf switch node ids.
    pub fn leaves(&self) -> &[NodeId] {
        &self.leaves
    }

    /// Aggregation switch node ids (fat-tree topologies).
    pub fn aggregations(&self) -> &[NodeId] {
        &self.aggregations
    }

    /// Spine switch node ids.
    pub fn spines(&self) -> &[NodeId] {
        &self.spines
    }

    /// Core switch node ids (fat-tree topologies).
    pub fn cores(&self) -> &[NodeId] {
        &self.cores
    }

    /// Number of links.
    pub fn num_links(&self) -> usize {
        self.links.len()
    }

    /// The route index, built on first use (see the module docs).
    fn index(&self) -> &RouteIndex {
        self.index
            .get_or_init(|| RouteIndex::new(self.nodes.len(), &self.links))
    }

    /// Find the link from `from` to `to`, if one exists; the lowest link id
    /// if several do.
    pub fn link_between(&self, from: NodeId, to: NodeId) -> Option<LinkId> {
        if from >= self.nodes.len() {
            return None;
        }
        first_link_to(self.index().out.of(from), to)
    }

    /// The link in the opposite direction of `link` — the other half of its
    /// cable — if one exists; the lowest link id if several do.
    pub fn reverse_link(&self, link: LinkId) -> Option<LinkId> {
        let twin = self.index().twin[link];
        (twin != NONE).then_some(twin as usize)
    }

    /// Build a route as the concatenation of links along the node sequence
    /// `path` (panics if some consecutive pair has no link).
    pub fn route_via(&self, path: &[NodeId]) -> Route {
        path.windows(2)
            .map(|w| {
                self.link_between(w[0], w[1])
                    .unwrap_or_else(|| panic!("no link between {} and {}", w[0], w[1]))
            })
            .collect()
    }

    /// Build a leaf-spine fabric.
    ///
    /// # Panics
    /// Panics if `hosts` is not divisible by `leaves` or any count is zero.
    pub fn leaf_spine(cfg: &LeafSpineConfig) -> Self {
        assert!(
            cfg.hosts > 0 && cfg.leaves > 0 && cfg.spines > 0,
            "empty fabric"
        );
        assert_eq!(
            cfg.hosts % cfg.leaves,
            0,
            "hosts must divide evenly across leaves"
        );
        let mut topo = Topology::new();
        let hosts: Vec<NodeId> = (0..cfg.hosts)
            .map(|i| topo.add_node(NodeKind::Host, format!("host-{i}")))
            .collect();
        let leaves: Vec<NodeId> = (0..cfg.leaves)
            .map(|i| topo.add_node(NodeKind::Leaf, format!("leaf-{i}")))
            .collect();
        let spines: Vec<NodeId> = (0..cfg.spines)
            .map(|i| topo.add_node(NodeKind::Spine, format!("spine-{i}")))
            .collect();
        let per_leaf = cfg.hosts / cfg.leaves;
        for (i, &h) in hosts.iter().enumerate() {
            let leaf = leaves[i / per_leaf];
            topo.add_duplex_link(h, leaf, cfg.host_link_bps, cfg.link_delay);
        }
        for &leaf in &leaves {
            for &spine in &spines {
                topo.add_duplex_link(leaf, spine, cfg.fabric_link_bps, cfg.link_delay);
            }
        }
        topo
    }

    /// Build a canonical k-ary fat-tree (see [`FatTreeConfig`]).
    ///
    /// Hosts are created first (so `hosts()[i]` is host `i` globally), then
    /// the edge switches of every pod (as [`NodeKind::Leaf`]), the
    /// aggregation switches, and finally the cores. Host `h` lives in pod
    /// `h / (k²/4)` under edge switch `(h % (k²/4)) / (k/2)`; aggregation
    /// switch `a` of each pod uplinks to cores `a·k/2 .. (a+1)·k/2`.
    ///
    /// # Panics
    /// Panics if `k` is odd or smaller than 2.
    pub fn fat_tree(cfg: &FatTreeConfig) -> Self {
        let k = cfg.k;
        assert!(
            k >= 2 && k.is_multiple_of(2),
            "fat-tree arity must be even and >= 2"
        );
        let half = k / 2;
        let mut topo = Topology::new();
        let hosts: Vec<NodeId> = (0..cfg.num_hosts())
            .map(|i| topo.add_node(NodeKind::Host, format!("host-{i}")))
            .collect();
        let edges: Vec<Vec<NodeId>> = (0..k)
            .map(|p| {
                (0..half)
                    .map(|e| topo.add_node(NodeKind::Leaf, format!("edge-{p}-{e}")))
                    .collect()
            })
            .collect();
        let aggs: Vec<Vec<NodeId>> = (0..k)
            .map(|p| {
                (0..half)
                    .map(|a| topo.add_node(NodeKind::Aggregation, format!("agg-{p}-{a}")))
                    .collect()
            })
            .collect();
        let cores: Vec<NodeId> = (0..half * half)
            .map(|c| topo.add_node(NodeKind::Core, format!("core-{c}")))
            .collect();

        let hosts_per_pod = half * half;
        for (h, &host) in hosts.iter().enumerate() {
            let pod = h / hosts_per_pod;
            let edge = (h % hosts_per_pod) / half;
            topo.add_duplex_link(host, edges[pod][edge], cfg.link_bps, cfg.link_delay);
        }
        for p in 0..k {
            for &edge in &edges[p] {
                for &agg in &aggs[p] {
                    topo.add_duplex_link(edge, agg, cfg.link_bps, cfg.link_delay);
                }
            }
            for (a, &agg) in aggs[p].iter().enumerate() {
                for &core in &cores[a * half..(a + 1) * half] {
                    topo.add_duplex_link(agg, core, cfg.link_bps, cfg.link_delay);
                }
            }
        }
        topo
    }

    /// The leaf switch a host is attached to (leaf-spine topologies only).
    pub fn leaf_of(&self, host: NodeId) -> Option<NodeId> {
        assert_eq!(
            self.nodes[host].kind,
            NodeKind::Host,
            "{host} is not a host"
        );
        self.index()
            .out
            .of(host)
            .iter()
            .min_by_key(|hop| hop.link)
            .map(|hop| hop.peer as usize)
            .filter(|&n| self.nodes[n].kind == NodeKind::Leaf)
    }

    /// A search over the healthy fabric (`banned: None`) or a valley-free
    /// search over the links outside `banned`.
    fn search<'a>(&'a self, banned: Option<&'a HashSet<LinkId>>) -> Search<'a> {
        Search {
            nodes: &self.nodes,
            index: self.index(),
            banned,
        }
    }

    fn assert_host_pair(&self, src: NodeId, dst: NodeId) {
        assert_eq!(self.nodes[src].kind, NodeKind::Host, "{src} is not a host");
        assert_eq!(self.nodes[dst].kind, NodeKind::Host, "{dst} is not a host");
        assert_ne!(src, dst, "a path needs distinct endpoints");
    }

    /// The equal-cost paths between two hosts on the healthy fabric, read
    /// from the destination's cached table (filled on its first query).
    ///
    /// # Panics
    /// Panics if either endpoint is not a host, they are equal, or no path
    /// exists.
    fn healthy(&self, src: NodeId, dst: NodeId) -> PathSet<'_> {
        self.assert_host_pair(src, dst);
        let search = self.search(None);
        let (goal, last) = search.index.approach(dst);
        let table =
            search.index.to_dst[goal].get_or_init(|| search.table_to(goal).into_boxed_slice());
        let paths = PathSet {
            search,
            table: Cow::Borrowed(table),
            start: src,
            goal,
            last,
        };
        assert!(paths.len() > 0, "no path from {src} to {dst}");
        paths
    }

    /// Number of equal-cost (shortest) paths between two hosts — the range
    /// [`Topology::host_route`] folds its `choice` into. One table read
    /// once the destination's table is warm. Saturates at `u32::MAX`.
    ///
    /// # Panics
    /// Panics if `src` or `dst` is not a host, `src == dst`, or no path
    /// exists.
    pub fn num_host_routes(&self, src: NodeId, dst: NodeId) -> usize {
        self.healthy(src, dst).len() as usize
    }

    /// The route from `src` host to `dst` host pinned to equal-cost path
    /// number `choice % num_paths` (ECMP hash stand-in) in the module's
    /// lexicographic path order. On a leaf-spine fabric inter-rack flows
    /// pick spine `choice % spines` and intra-rack flows route through the
    /// shared leaf regardless of `choice`.
    ///
    /// # Panics
    /// Panics if `src` or `dst` is not a host, `src == dst`, or no path
    /// exists.
    pub fn host_route(&self, src: NodeId, dst: NodeId, choice: usize) -> Route {
        self.healthy(src, dst)
            .pinned(choice)
            .expect("`healthy` checked that a path exists")
    }

    /// All distinct equal-cost routes from `src` to `dst` (one per spine for
    /// inter-rack leaf-spine pairs, `(k/2)²` for inter-pod fat-tree pairs, a
    /// single route for same-switch pairs), in the module's lexicographic
    /// path order. Subflows of a multipath flow are spread across these.
    ///
    /// # Panics
    /// As [`Topology::host_route`].
    pub fn host_routes(&self, src: NodeId, dst: NodeId) -> Vec<Route> {
        self.healthy(src, dst).all()
    }

    /// Expand `down` with each member's reverse twin — the conservative ban
    /// set for symmetric failures (a flow cannot use a path its ACKs cannot
    /// retrace). Asymmetric ([`crate::impairment::LinkChange::DownFwd`])
    /// failures skip this expansion and ban only the dead direction.
    fn twin_expanded(&self, down: &HashSet<LinkId>) -> HashSet<LinkId> {
        let mut banned = down.clone();
        banned.extend(down.iter().filter_map(|&id| self.reverse_link(id)));
        banned
    }

    /// All surviving equal-cost routes between two hosts after the links in
    /// `down` (and their reverse twins) failed: the shortest **valley-free**
    /// paths over the remaining links, in lexicographic node order. Paths
    /// must ascend the tier hierarchy monotonically to a single peak and
    /// then descend (up/down routing — no valleys, no flat hops). On a
    /// healthy hierarchical fabric every shortest path is valley-free, so an
    /// empty `down` set reproduces [`Topology::host_routes`] exactly. Empty
    /// when the failures disconnect the pair (in the valley-free sense).
    ///
    /// Where parallel links join two nodes a route takes the lowest
    /// *surviving* link id.
    ///
    /// # Panics
    /// Panics if `src` or `dst` is not a host, or `src == dst`.
    pub fn host_routes_avoiding(
        &self,
        src: NodeId,
        dst: NodeId,
        down: &HashSet<LinkId>,
    ) -> Vec<Route> {
        self.host_routes_avoiding_directed(src, dst, &self.twin_expanded(down))
    }

    /// [`Topology::host_routes_avoiding`] with the ban set taken
    /// **literally**: a directed link is unusable exactly when it is in
    /// `banned`, with no reverse-twin expansion. This is the
    /// asymmetric-failure primitive — the caller decides per failed link
    /// whether its twin is banned too.
    pub fn host_routes_avoiding_directed(
        &self,
        src: NodeId,
        dst: NodeId,
        banned: &HashSet<LinkId>,
    ) -> Vec<Route> {
        self.survivors(src, dst, banned).all()
    }

    /// The surviving route pinned to ECMP choice `choice % num_surviving`,
    /// or `None` when the failures disconnect the pair. With an empty `down`
    /// set this is exactly [`Topology::host_route`] on a hierarchical
    /// fabric.
    pub fn host_route_avoiding(
        &self,
        src: NodeId,
        dst: NodeId,
        choice: usize,
        down: &HashSet<LinkId>,
    ) -> Option<Route> {
        self.host_route_avoiding_directed(src, dst, choice, &self.twin_expanded(down))
    }

    /// [`Topology::host_route_avoiding`] with the ban set taken literally
    /// (no reverse-twin expansion) — the asymmetric-failure route
    /// re-selection used for [`crate::impairment::LinkChange::DownFwd`].
    pub fn host_route_avoiding_directed(
        &self,
        src: NodeId,
        dst: NodeId,
        choice: usize,
        banned: &HashSet<LinkId>,
    ) -> Option<Route> {
        self.survivors(src, dst, banned).pinned(choice)
    }

    /// The shortest valley-free paths from host `src` to host `dst` over the
    /// links outside `banned`: one uncached search.
    fn survivors<'a>(
        &'a self,
        src: NodeId,
        dst: NodeId,
        banned: &'a HashSet<LinkId>,
    ) -> PathSet<'a> {
        self.assert_host_pair(src, dst);
        let search = self.search(Some(banned));
        // A route leaves `src` ascending and can only land on `dst` (a
        // host, the lowest tier) descending.
        let goal = 2 * dst + 1;
        PathSet {
            search,
            table: Cow::Owned(search.table_to(goal)),
            start: 2 * src,
            goal,
            last: None,
        }
    }

    /// The reverse of `route` (the path ACKs take), assuming every link has a
    /// reverse twin.
    pub fn reverse_route(&self, route: &Route) -> Route {
        route
            .links()
            .iter()
            .rev()
            .map(|&l| self.ack_link(l))
            .collect()
    }

    /// The link ACKs of data on `link` travel.
    fn ack_link(&self, link: LinkId) -> LinkId {
        self.reverse_link(link)
            .expect("every link must have a reverse twin for ACK routing")
    }

    /// Base (zero-queue) round-trip time along `route` and back for a packet
    /// of `data_bytes` and an ACK of `ack_bytes`: propagation both ways plus
    /// serialization at every hop.
    pub fn base_rtt(&self, route: &Route, data_bytes: u64, ack_bytes: u64) -> SimDuration {
        let hop = |link: LinkId, bytes: u64| {
            let spec = &self.links[link];
            spec.delay + SimDuration::transmission(bytes, spec.capacity_bps)
        };
        route.links().iter().fold(SimDuration::ZERO, |total, &l| {
            total + hop(l, data_bytes) + hop(self.ack_link(l), ack_bytes)
        })
    }

    /// Deterministically assign every node to one of `partitions` spatial
    /// domains — the graph partitioner behind the partitioned `Network`.
    ///
    /// The assignment is a pure function of the topology and the partition
    /// count (no randomness, no iteration-order dependence):
    ///
    /// 1. Hosts are chunked contiguously by host index — host `h` of `H`
    ///    goes to partition `h·n / H` — so a rack's hosts stay together.
    /// 2. Switches are processed in ascending tier order and join the
    ///    partition of their lowest-id neighbor in a strictly lower tier
    ///    (a leaf follows its hosts, an aggregation its first leaf, a
    ///    core its first aggregation).
    /// 3. A switch with no lower-tier neighbor (degenerate topologies)
    ///    falls back to `node_id % n`.
    ///
    /// Every node is covered exactly once; partitions may be empty when
    /// `partitions` exceeds the host count.
    ///
    /// # Panics
    /// Panics if `partitions` is zero.
    pub fn partition(&self, partitions: usize) -> Partitioning {
        assert!(partitions >= 1, "partition count must be at least 1");
        let mut assignment = vec![usize::MAX; self.nodes.len()];
        let num_hosts = self.hosts.len().max(1);
        for (i, &h) in self.hosts.iter().enumerate() {
            assignment[h] = i * partitions / num_hosts;
        }
        let mut switches: Vec<NodeId> = (0..self.nodes.len())
            .filter(|&n| self.nodes[n].kind.is_switch())
            .collect();
        switches.sort_by_key(|&n| (self.nodes[n].kind.tier(), n));
        for node in switches {
            let tier = self.nodes[node].kind.tier();
            let anchor = self
                .links
                .iter()
                .filter(|spec| spec.from == node && self.nodes[spec.to].kind.tier() < tier)
                .map(|spec| spec.to)
                .min();
            assignment[node] = match anchor {
                // Lower tiers are assigned before higher ones, so the
                // anchor's slot is always filled by now.
                Some(n) => assignment[n],
                None => node % partitions,
            };
        }
        debug_assert!(assignment.iter().all(|&p| p < partitions));
        Partitioning {
            assignment,
            partitions,
        }
    }
}

/// A deterministic assignment of every topology node to one of a fixed
/// number of spatial partitions, produced by [`Topology::partition`]. The
/// partitioned `Network` derives everything else from it: link ownership
/// (a link belongs to its tail node's partition), the boundary-link set
/// (links whose endpoints differ), and the conservative lookahead window
/// (the minimum propagation delay over boundary links).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Partitioning {
    assignment: Vec<usize>,
    partitions: usize,
}

impl Partitioning {
    /// Number of partitions (some may own no nodes).
    pub fn partitions(&self) -> usize {
        self.partitions
    }

    /// The partition that owns `node`.
    pub fn of(&self, node: NodeId) -> usize {
        self.assignment[node]
    }

    /// The full node → partition assignment, indexed by node id.
    pub fn assignment(&self) -> &[usize] {
        &self.assignment
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_leaf_spine_dimensions() {
        let topo = Topology::leaf_spine(&LeafSpineConfig::paper_default());
        assert_eq!(topo.hosts().len(), 128);
        assert_eq!(topo.leaves().len(), 8);
        assert_eq!(topo.spines().len(), 4);
        // 128 duplex host links + 8*4 duplex fabric links = 2*(128+32) links.
        assert_eq!(topo.num_links(), 2 * (128 + 32));
        // Full bisection: each leaf has 16 * 10G down and 4 * 40G up.
        let leaf0 = topo.leaves()[0];
        let uplinks: f64 = topo
            .links()
            .iter()
            .filter(|l| l.from == leaf0 && topo.nodes()[l.to].kind == NodeKind::Spine)
            .map(|l| l.capacity_bps)
            .sum();
        assert_eq!(uplinks, 160e9);
    }

    #[test]
    fn intra_rack_route_has_two_hops() {
        let topo = Topology::leaf_spine(&LeafSpineConfig::small(8, 2, 2));
        let hosts = topo.hosts();
        // hosts 0..3 share leaf 0.
        let r = topo.host_route(hosts[0], hosts[1], 0);
        assert_eq!(r.len(), 2);
    }

    #[test]
    fn inter_rack_route_has_four_hops_and_uses_chosen_spine() {
        let topo = Topology::leaf_spine(&LeafSpineConfig::small(8, 2, 2));
        let hosts = topo.hosts();
        let r0 = topo.host_route(hosts[0], hosts[7], 0);
        let r1 = topo.host_route(hosts[0], hosts[7], 1);
        assert_eq!(r0.len(), 4);
        assert_eq!(r1.len(), 4);
        assert_ne!(r0, r1, "different spine choices must give different routes");
        assert_eq!(topo.host_routes(hosts[0], hosts[7]).len(), 2);
        assert_eq!(topo.host_routes(hosts[0], hosts[1]).len(), 1);
    }

    #[test]
    fn reverse_route_retraces_the_path() {
        let topo = Topology::leaf_spine(&LeafSpineConfig::small(8, 2, 2));
        let hosts = topo.hosts();
        let fwd = topo.host_route(hosts[0], hosts[7], 1);
        let rev = topo.reverse_route(&fwd);
        assert_eq!(rev.len(), fwd.len());
        // The reverse of the reverse is the original.
        assert_eq!(topo.reverse_route(&rev), fwd);
        // First reverse link starts where the forward route ended.
        let last_fwd = &topo.links()[*fwd.links().last().unwrap()];
        let first_rev = &topo.links()[rev.links()[0]];
        assert_eq!(first_rev.from, last_fwd.to);
    }

    #[test]
    fn base_rtt_matches_paper_scale() {
        // Paper: "The network RTT is 16 µs." With 2 µs/link propagation and 8
        // link traversals per round trip, propagation alone is 16 µs; header
        // serialization adds a little.
        let topo = Topology::leaf_spine(&LeafSpineConfig::paper_default());
        let hosts = topo.hosts();
        let route = topo.host_route(hosts[0], hosts[127], 0);
        let rtt = topo.base_rtt(&route, 40, 40);
        assert!(rtt >= SimDuration::from_micros(16), "rtt = {rtt}");
        assert!(rtt < SimDuration::from_micros(18), "rtt = {rtt}");
    }

    #[test]
    fn route_via_and_link_between_agree() {
        let mut topo = Topology::new();
        let a = topo.add_node(NodeKind::Host, "a");
        let s = topo.add_node(NodeKind::Leaf, "s");
        let b = topo.add_node(NodeKind::Host, "b");
        topo.add_duplex_link(a, s, 10e9, SimDuration::from_micros(1));
        topo.add_duplex_link(s, b, 10e9, SimDuration::from_micros(1));
        let r = topo.route_via(&[a, s, b]);
        assert_eq!(r.len(), 2);
        assert_eq!(topo.links()[r.links()[0]].from, a);
        assert_eq!(topo.links()[r.links()[1]].to, b);
        assert_eq!(topo.leaf_of(a), Some(s));
    }

    #[test]
    #[should_panic]
    fn self_link_rejected() {
        let mut topo = Topology::new();
        let a = topo.add_node(NodeKind::Host, "a");
        topo.add_link(a, a, 1e9, SimDuration::ZERO);
    }

    #[test]
    #[should_panic]
    fn uneven_hosts_per_leaf_rejected() {
        Topology::leaf_spine(&LeafSpineConfig::small(7, 2, 2));
    }

    #[test]
    fn fat_tree_k4_has_canonical_shape() {
        let topo = Topology::fat_tree(&FatTreeConfig::new(4));
        assert_eq!(topo.hosts().len(), 16);
        assert_eq!(topo.leaves().len(), 8); // edge switches
        assert_eq!(topo.aggregations().len(), 8);
        assert_eq!(topo.cores().len(), 4);
        // Cables: 16 host-edge + 4 pods * 4 edge-agg + 4 pods * 4 agg-core.
        assert_eq!(topo.num_links(), 2 * (16 + 16 + 16));
        // Every node's kind maps to the expected tier.
        assert_eq!(NodeKind::Host.tier(), 0);
        assert_eq!(NodeKind::Leaf.tier(), 1);
        assert_eq!(NodeKind::Aggregation.tier(), 2);
        assert_eq!(NodeKind::Core.tier(), 3);
        assert!(NodeKind::Core.is_switch() && !NodeKind::Host.is_switch());
    }

    #[test]
    fn fat_tree_k8_has_128_hosts() {
        let cfg = FatTreeConfig::new(8);
        assert_eq!(cfg.num_hosts(), 128);
        let topo = Topology::fat_tree(&cfg);
        assert_eq!(topo.hosts().len(), 128);
        assert_eq!(topo.leaves().len(), 32);
        assert_eq!(topo.aggregations().len(), 32);
        assert_eq!(topo.cores().len(), 16);
    }

    #[test]
    #[should_panic]
    fn fat_tree_rejects_odd_arity() {
        Topology::fat_tree(&FatTreeConfig::new(3));
    }

    #[test]
    fn fat_tree_ecmp_path_counts() {
        let topo = Topology::fat_tree(&FatTreeConfig::new(4));
        let hosts = topo.hosts();
        // Hosts 0 and 1 share an edge switch: one 2-hop path.
        assert_eq!(topo.host_routes(hosts[0], hosts[1]).len(), 1);
        assert_eq!(topo.host_route(hosts[0], hosts[1], 5).len(), 2);
        // Hosts 0 and 2 share a pod but not an edge: k/2 = 2 four-hop paths.
        let intra_pod = topo.host_routes(hosts[0], hosts[2]);
        assert_eq!(intra_pod.len(), 2);
        assert!(intra_pod.iter().all(|r| r.len() == 4));
        // Hosts 0 and 15 are in different pods: (k/2)² = 4 six-hop paths.
        let inter_pod = topo.host_routes(hosts[0], hosts[15]);
        assert_eq!(inter_pod.len(), 4);
        assert!(inter_pod.iter().all(|r| r.len() == 6));
        // All inter-pod paths are distinct and choice wraps modulo.
        for i in 0..inter_pod.len() {
            for j in i + 1..inter_pod.len() {
                assert_ne!(inter_pod[i], inter_pod[j]);
            }
            assert_eq!(topo.host_route(hosts[0], hosts[15], i), inter_pod[i]);
            assert_eq!(topo.host_route(hosts[0], hosts[15], i + 4), inter_pod[i]);
        }
    }

    #[test]
    fn leaf_spine_routes_match_legacy_construction() {
        // Generalized ECMP must reproduce the original
        // leaf-spine routes exactly (same links, same spine order), because
        // seeded scenarios pin flows by `spine_choice`.
        let topo = Topology::leaf_spine(&LeafSpineConfig::small(16, 4, 3));
        let hosts = topo.hosts().to_vec();
        for &src in &hosts {
            for &dst in &hosts {
                if src == dst {
                    continue;
                }
                let src_leaf = topo.leaf_of(src).unwrap();
                let dst_leaf = topo.leaf_of(dst).unwrap();
                for choice in 0..6 {
                    let got = topo.host_route(src, dst, choice);
                    let want = if src_leaf == dst_leaf {
                        topo.route_via(&[src, src_leaf, dst])
                    } else {
                        let spine = topo.spines()[choice % topo.spines().len()];
                        topo.route_via(&[src, src_leaf, spine, dst_leaf, dst])
                    };
                    assert_eq!(got, want, "src={src} dst={dst} choice={choice}");
                }
            }
        }
    }

    #[test]
    fn oversubscribed_leaf_spine_scales_fabric_links_down() {
        let cfg = LeafSpineConfig::oversubscribed(32, 4, 2, 4.0);
        // 8 hosts/leaf * 10G down, 20G up => 10G per spine link.
        assert_eq!(cfg.fabric_link_bps, 10e9);
        assert!((cfg.oversubscription_ratio() - 4.0).abs() < 1e-9);
        let full = LeafSpineConfig::oversubscribed(32, 4, 2, 1.0);
        assert_eq!(full.fabric_link_bps, 40e9);
        assert!((LeafSpineConfig::paper_default().oversubscription_ratio() - 1.0).abs() < 1e-9);
        let topo = Topology::leaf_spine(&cfg);
        let leaf0 = topo.leaves()[0];
        let up: f64 = topo
            .links()
            .iter()
            .filter(|l| l.from == leaf0 && topo.nodes()[l.to].kind == NodeKind::Spine)
            .map(|l| l.capacity_bps)
            .sum();
        assert_eq!(up, 20e9);
    }

    #[test]
    #[should_panic]
    fn oversubscription_below_one_rejected() {
        LeafSpineConfig::oversubscribed(32, 4, 2, 0.5);
    }

    #[test]
    fn resource_pooling_topology_shape() {
        let topo = Topology::leaf_spine(&LeafSpineConfig::resource_pooling());
        assert_eq!(topo.spines().len(), 16);
        let leaf0 = topo.leaves()[0];
        let up: Vec<_> = topo
            .links()
            .iter()
            .filter(|l| l.from == leaf0 && topo.nodes()[l.to].kind == NodeKind::Spine)
            .collect();
        assert_eq!(up.len(), 16);
        assert!(up.iter().all(|l| l.capacity_bps == 10e9));
    }

    #[test]
    fn partitioner_covers_every_node_exactly_once() {
        for topo in [
            Topology::leaf_spine(&LeafSpineConfig::small(32, 4, 2)),
            Topology::fat_tree(&FatTreeConfig::new(4)),
        ] {
            for n in [1, 2, 3, 4, 7] {
                let parts = topo.partition(n);
                assert_eq!(parts.partitions(), n);
                assert_eq!(parts.assignment().len(), topo.nodes().len());
                assert!(parts.assignment().iter().all(|&p| p < n));
                // Deterministic: same topology, same count, same assignment.
                assert_eq!(parts, topo.partition(n));
            }
        }
    }

    #[test]
    fn single_partition_owns_everything_and_hosts_chunk_contiguously() {
        let topo = Topology::leaf_spine(&LeafSpineConfig::small(32, 4, 2));
        let one = topo.partition(1);
        assert!(one.assignment().iter().all(|&p| p == 0));
        let two = topo.partition(2);
        // Host chunks are contiguous and both halves are used.
        let host_parts: Vec<usize> = topo.hosts().iter().map(|&h| two.of(h)).collect();
        assert!(host_parts.windows(2).all(|w| w[0] <= w[1]));
        assert_eq!(host_parts.first(), Some(&0));
        assert_eq!(host_parts.last(), Some(&1));
        // A leaf sits with its own hosts' partition.
        for &leaf in topo.leaves() {
            let first_host = topo
                .hosts()
                .iter()
                .copied()
                .find(|&h| topo.leaf_of(h) == Some(leaf))
                .unwrap();
            assert_eq!(two.of(leaf), two.of(first_host));
        }
    }
}
