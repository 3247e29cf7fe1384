//! The route index against the code it replaced.
//!
//! `Topology` used to answer every route query by rebuilding adjacency
//! lists, running two BFS passes, enumerating *all* equal-cost paths
//! depth-first and resolving each hop with a linear scan over every link.
//! That code is kept here, verbatim in substance, as the **reference
//! model**: the index may change how a route is found, never which. The
//! tests compare the two exhaustively on every fabric family the scenarios
//! use and on random small custom graphs (parallel links, multi-homed
//! hosts, unreachable pairs), for healthy routing and for valley-free
//! re-selection around random failure sets, and pin the index's laziness
//! contract: mutation invalidates it, a clone owns its own.

use numfabric_sim::topology::{FatTreeConfig, LeafSpineConfig, LinkId, NodeId, NodeKind, Topology};
use numfabric_sim::SimDuration;
use proptest::prelude::*;
use rand::{Rng, SeedableRng};
use rand_chacha::ChaCha8Rng;
use std::collections::{HashSet, VecDeque};

// ---- the reference model: the pre-index implementation ---------------------

fn bfs(start: usize, adj: &[Vec<usize>]) -> Vec<u32> {
    let mut dist = vec![u32::MAX; adj.len()];
    dist[start] = 0;
    let mut frontier = VecDeque::from([start]);
    while let Some(u) = frontier.pop_front() {
        for &v in &adj[u] {
            if dist[v] == u32::MAX {
                dist[v] = dist[u] + 1;
                frontier.push_back(v);
            }
        }
    }
    dist
}

/// Every shortest path from `start` to `goal` over `fwd` (sorted, deduped
/// adjacency; `rev` its transpose), enumerated depth-first with next hops
/// in ascending order — so the result is lexicographically sorted. Empty
/// when `goal` is unreachable.
fn enumerate_shortest(
    fwd: &[Vec<usize>],
    rev: &[Vec<usize>],
    start: usize,
    goal: usize,
) -> Vec<Vec<usize>> {
    let dist_from_src = bfs(start, fwd);
    let dist_to_dst = bfs(goal, rev);
    let total = dist_from_src[goal];
    if total == u32::MAX {
        return Vec::new();
    }
    let on_dag = |u: usize, v: usize| {
        dist_from_src[v] == dist_from_src[u] + 1
            && dist_to_dst[v] != u32::MAX
            && dist_from_src[v] + dist_to_dst[v] == total
    };
    let mut paths = Vec::new();
    let mut path = vec![start];
    let mut cursors = vec![0usize];
    while let Some(&u) = path.last() {
        if u == goal {
            paths.push(path.clone());
            path.pop();
            cursors.pop();
            continue;
        }
        let cursor = cursors.last_mut().expect("one cursor per path node");
        match fwd[u][*cursor..].iter().position(|&v| on_dag(u, v)) {
            Some(offset) => {
                let v = fwd[u][*cursor + offset];
                *cursor += offset + 1;
                path.push(v);
                cursors.push(0);
            }
            None => {
                path.pop();
                cursors.pop();
            }
        }
    }
    paths
}

fn sorted_dedup(mut adj: Vec<Vec<usize>>) -> Vec<Vec<usize>> {
    for a in &mut adj {
        a.sort_unstable();
        a.dedup();
    }
    adj
}

/// The old `Topology::equal_cost_node_paths`.
fn reference_node_paths(topo: &Topology, src: NodeId, dst: NodeId) -> Vec<Vec<NodeId>> {
    let n = topo.nodes().len();
    let mut out_adj = vec![Vec::new(); n];
    let mut in_adj = vec![Vec::new(); n];
    for l in topo.links() {
        out_adj[l.from].push(l.to);
        in_adj[l.to].push(l.from);
    }
    enumerate_shortest(&sorted_dedup(out_adj), &in_adj, src, dst)
}

/// The old `Topology::surviving_node_paths_directed`: shortest valley-free
/// paths over the state graph `2·node + phase`, skipping `banned` links.
fn reference_surviving_node_paths(
    topo: &Topology,
    src: NodeId,
    dst: NodeId,
    banned: &HashSet<LinkId>,
) -> Vec<Vec<NodeId>> {
    let n = topo.nodes().len();
    let tier = |node: NodeId| topo.nodes()[node].kind.tier();
    let state = |node: NodeId, phase: usize| node * 2 + phase;
    let mut fwd = vec![Vec::new(); 2 * n];
    for (id, l) in topo.links().iter().enumerate() {
        if banned.contains(&id) {
            continue;
        }
        if tier(l.to) > tier(l.from) {
            fwd[state(l.from, 0)].push(state(l.to, 0));
        } else if tier(l.to) < tier(l.from) {
            fwd[state(l.from, 0)].push(state(l.to, 1));
            fwd[state(l.from, 1)].push(state(l.to, 1));
        }
    }
    let fwd = sorted_dedup(fwd);
    let mut rev = vec![Vec::new(); 2 * n];
    for (s, outs) in fwd.iter().enumerate() {
        for &t in outs {
            rev[t].push(s);
        }
    }
    enumerate_shortest(&fwd, &rev, state(src, 0), state(dst, 1))
        .into_iter()
        .map(|states| states.into_iter().map(|s| s / 2).collect())
        .collect()
}

/// The old `Topology::link_between`: first match of a linear scan.
fn reference_link_between(topo: &Topology, from: NodeId, to: NodeId) -> Option<LinkId> {
    topo.links()
        .iter()
        .position(|l| l.from == from && l.to == to)
}

/// The old `Topology::route_via` over [`reference_link_between`].
fn reference_routes(topo: &Topology, node_paths: &[Vec<NodeId>]) -> Vec<Vec<LinkId>> {
    node_paths
        .iter()
        .map(|path| {
            path.windows(2)
                .map(|w| reference_link_between(topo, w[0], w[1]).expect("adjacent nodes"))
                .collect()
        })
        .collect()
}

// ---- helpers ---------------------------------------------------------------

fn host_pairs(topo: &Topology) -> impl Iterator<Item = (NodeId, NodeId)> + '_ {
    let hosts = topo.hosts();
    hosts
        .iter()
        .flat_map(move |&src| hosts.iter().map(move |&dst| (src, dst)))
        .filter(|&(src, dst)| src != dst)
}

/// Every public healthy-fabric query agrees with the reference for the pair.
fn assert_pair_matches_reference(topo: &Topology, src: NodeId, dst: NodeId) {
    let want = reference_routes(topo, &reference_node_paths(topo, src, dst));
    assert!(!want.is_empty(), "fabric pairs are connected");
    let n = want.len();
    assert_eq!(topo.num_host_routes(src, dst), n, "{src} -> {dst}");
    assert_eq!(topo.host_routes(src, dst), want, "{src} -> {dst}");
    for choice in 0..n + 3 {
        assert_eq!(
            topo.host_route(src, dst, choice),
            want[choice % n],
            "{src} -> {dst} choice {choice}"
        );
    }
}

fn panic_message(result: std::thread::Result<Vec<LinkId>>) -> String {
    let payload = result.expect_err("query must panic");
    payload
        .downcast_ref::<String>()
        .cloned()
        .or_else(|| payload.downcast_ref::<&str>().map(|s| s.to_string()))
        .expect("panic carries a message")
}

/// A random small custom graph: 2–5 hosts and 2–5 switches of mixed tiers,
/// joined by random cables — some one-way, some laid twice (parallel
/// links), hosts possibly multi-homed or cut off.
fn random_graph(seed: u64) -> Topology {
    let mut rng = ChaCha8Rng::seed_from_u64(seed);
    let mut topo = Topology::new();
    for h in 0..rng.gen_range(2..=5) {
        topo.add_node(NodeKind::Host, format!("h{h}"));
    }
    let kinds = [NodeKind::Leaf, NodeKind::Aggregation, NodeKind::Core];
    for s in 0..rng.gen_range(2..=5) {
        topo.add_node(kinds[rng.gen_range(0..kinds.len())], format!("s{s}"));
    }
    let n = topo.nodes().len();
    let delay = SimDuration::from_micros(1);
    for _ in 0..rng.gen_range(n..3 * n) {
        let (a, b) = (rng.gen_range(0..n), rng.gen_range(0..n));
        if a == b {
            continue;
        }
        match rng.gen_range(0..4) {
            0 => {
                topo.add_link(a, b, 10e9, delay);
            }
            1 => {
                topo.add_duplex_link(a, b, 10e9, delay);
                topo.add_duplex_link(a, b, 40e9, delay);
            }
            _ => {
                topo.add_duplex_link(a, b, 10e9, delay);
            }
        }
    }
    topo
}

// ---- healthy routing -------------------------------------------------------

#[test]
fn index_matches_the_enumerator_on_every_pair_of_every_fabric() {
    for topo in [
        Topology::fat_tree(&FatTreeConfig::new(4)),
        Topology::fat_tree(&FatTreeConfig::new(8)),
        Topology::leaf_spine(&LeafSpineConfig::paper_default()),
        Topology::leaf_spine(&LeafSpineConfig::oversubscribed(32, 4, 4, 4.0)),
        Topology::leaf_spine(&LeafSpineConfig::resource_pooling()),
    ] {
        for (src, dst) in host_pairs(&topo) {
            assert_pair_matches_reference(&topo, src, dst);
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(200))]

    /// On random custom graphs the index returns the reference's routes for
    /// reachable pairs — parallel links resolve to the lowest id, multi-homed
    /// hosts get their own table — and panics with the enumerator's message
    /// for unreachable ones.
    #[test]
    fn prop_index_matches_the_enumerator_on_random_graphs(seed in 0u64..1_000_000) {
        let topo = random_graph(seed);
        for (from, to) in (0..topo.nodes().len()).flat_map(|a| (0..topo.nodes().len()).map(move |b| (a, b))) {
            prop_assert_eq!(topo.link_between(from, to), reference_link_between(&topo, from, to));
        }
        for (id, l) in topo.links().iter().enumerate() {
            prop_assert_eq!(topo.reverse_link(id), reference_link_between(&topo, l.to, l.from));
        }
        for (src, dst) in host_pairs(&topo) {
            if reference_node_paths(&topo, src, dst).is_empty() {
                let message = panic_message(std::panic::catch_unwind(|| topo.host_route(src, dst, 0)));
                prop_assert!(
                    message.contains(&format!("no path from {src} to {dst}")),
                    "unexpected panic message: {message}"
                );
            } else {
                assert_pair_matches_reference(&topo, src, dst);
            }
        }
    }
}

#[test]
fn parallel_links_resolve_to_the_lowest_id() {
    let mut topo = Topology::new();
    let a = topo.add_node(NodeKind::Host, "a");
    let s = topo.add_node(NodeKind::Leaf, "s");
    let b = topo.add_node(NodeKind::Host, "b");
    let delay = SimDuration::from_micros(1);
    let (up, down) = topo.add_duplex_link(a, s, 10e9, delay);
    topo.add_duplex_link(a, s, 40e9, delay);
    let (to_b, from_b) = topo.add_duplex_link(s, b, 10e9, delay);
    topo.add_duplex_link(s, b, 40e9, delay);
    assert_eq!(topo.link_between(a, s), Some(up));
    assert_eq!(topo.reverse_link(up), Some(down));
    assert_eq!(topo.num_host_routes(a, b), 1, "parallel links are one path");
    let route = topo.host_route(a, b, 7);
    assert_eq!(route, [up, to_b]);
    assert_eq!(topo.reverse_route(&route), [from_b, down]);
    // With the first cable cut, re-selection takes the surviving parallel one.
    let cut = HashSet::from([up, down]);
    let detour = topo
        .host_route_avoiding(a, b, 7, &cut)
        .expect("second cable");
    assert_eq!(detour, [up + 2, to_b]);
}

// ---- failure re-selection --------------------------------------------------

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Around random failure sets (the empty one included) — symmetric
    /// (twin-expanded) and literal — the index's valley-free search returns
    /// the old enumerator's routes.
    /// (The fabrics have no parallel links, where the two differ by design:
    /// the old code resolved hops to the lowest link id even if banned.)
    #[test]
    fn prop_reselection_matches_the_enumerator(seed in 0u64..1_000_000) {
        let mut rng = ChaCha8Rng::seed_from_u64(seed);
        for topo in [
            Topology::fat_tree(&FatTreeConfig::new(4)),
            Topology::leaf_spine(&LeafSpineConfig::oversubscribed(16, 4, 2, 4.0)),
        ] {
            let failures = rng.gen_range(0..=6);
            let down: HashSet<LinkId> = (0..failures)
                .map(|_| rng.gen_range(0..topo.num_links()))
                .collect();
            let with_twins: HashSet<LinkId> = down
                .iter()
                .flat_map(|&id| [Some(id), topo.reverse_link(id)])
                .flatten()
                .collect();
            for (src, dst) in host_pairs(&topo) {
                let literal = reference_routes(
                    &topo,
                    &reference_surviving_node_paths(&topo, src, dst, &down),
                );
                prop_assert_eq!(&topo.host_routes_avoiding(src, dst, &down), &literal);
                let symmetric = reference_routes(
                    &topo,
                    &reference_surviving_node_paths(&topo, src, dst, &with_twins),
                );
                prop_assert_eq!(&topo.host_routes_avoiding(src, dst, &with_twins), &symmetric);
                let choice = rng.gen_range(0..1_000);
                prop_assert_eq!(
                    topo.host_route_avoiding(src, dst, choice, &with_twins),
                    (!symmetric.is_empty()).then(|| symmetric[choice % symmetric.len()].clone())
                );
            }
        }
    }
}

// ---- laziness and invalidation ---------------------------------------------

#[test]
fn mutation_invalidates_the_index_and_a_clone_keeps_its_own() {
    // a - s1 - s2 - b: one three-hop path.
    let mut topo = Topology::new();
    let a = topo.add_node(NodeKind::Host, "a");
    let b = topo.add_node(NodeKind::Host, "b");
    let s1 = topo.add_node(NodeKind::Leaf, "s1");
    let s2 = topo.add_node(NodeKind::Leaf, "s2");
    let delay = SimDuration::from_micros(1);
    topo.add_duplex_link(a, s1, 10e9, delay);
    topo.add_duplex_link(s1, s2, 10e9, delay);
    topo.add_duplex_link(s2, b, 10e9, delay);
    assert_eq!(topo.host_route(a, b, 0).len(), 3);
    assert_eq!(topo.link_between(s1, b), None);

    // The clone carries the warm index; mutating the original must not
    // reach into it.
    let before = topo.clone();
    let (shortcut, _) = topo.add_duplex_link(s1, b, 10e9, delay);
    assert_eq!(topo.link_between(s1, b), Some(shortcut));
    let route = topo.host_route(a, b, 0);
    assert_eq!(route.len(), 2, "the new cable makes a shorter path");
    assert_eq!(route[1], shortcut);
    // `b` is now dual-homed: it no longer shares a switch's table.
    assert_eq!(topo.num_host_routes(a, b), 1);
    assert_eq!(before.host_route(a, b, 0).len(), 3);
    assert_eq!(before.link_between(s1, b), None);

    // A node added after a query is routable once linked.
    let c = topo.add_node(NodeKind::Host, "c");
    topo.add_duplex_link(c, s2, 10e9, delay);
    assert_eq!(topo.host_route(a, c, 0).len(), 3);
    assert_eq!(topo.leaf_of(c), Some(s2));
}

#[test]
fn a_shared_topology_is_send_and_sync() {
    fn assert_send_sync<T: Send + Sync>() {}
    assert_send_sync::<Topology>();
    // Threads that share one `&Topology` race to fill the same tables
    // with their first queries, and must agree.
    let topo = Topology::fat_tree(&FatTreeConfig::new(4));
    let want = reference_routes(&topo, &reference_node_paths(&topo, 0, 15));
    std::thread::scope(|scope| {
        for _ in 0..4 {
            scope.spawn(|| assert_eq!(topo.host_routes(0, 15), want));
        }
    });
}
