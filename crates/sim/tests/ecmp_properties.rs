//! Property tests for generalized ECMP routing.
//!
//! Two families of pins:
//!
//! 1. **Route validity** — every route produced on fat-tree and
//!    oversubscribed leaf-spine fabrics is a contiguous path (consecutive
//!    links share a node), leaves the source host on its first link, enters
//!    the destination host on its last link, and is valley-free: node tiers
//!    rise monotonically to a single peak and then fall (no down-then-up).
//! 2. **ECMP behavior** — the same `(src, dst, choice)` triple always
//!    produces the identical route (and thus interns to the same `RouteId`),
//!    and uniformly drawn choices spread across the equal-cost path set
//!    within a 2x uniformity bound over 10k draws.
//! 3. **Failure re-selection** — routes re-selected over the surviving DAG
//!    after arbitrary link failures keep every validity invariant, never
//!    traverse a banned cable (a failed link or one whose reverse twin
//!    failed), and reduce exactly to the healthy enumeration when nothing
//!    failed.

use numfabric_sim::routes::RouteTable;
use numfabric_sim::topology::{FatTreeConfig, LeafSpineConfig, NodeId, Topology};
use proptest::prelude::*;
use rand::{Rng, SeedableRng};
use rand_chacha::ChaCha8Rng;

/// Check the route invariants of satellite pin #1 for one route.
fn assert_valid_route(topo: &Topology, src: NodeId, dst: NodeId, route: &numfabric_sim::Route) {
    assert!(!route.is_empty(), "route must traverse at least one link");
    let links = topo.links();
    // First link leaves the source, last link enters the destination.
    assert_eq!(
        links[route.links()[0]].from,
        src,
        "first link must leave src"
    );
    assert_eq!(
        links[*route.links().last().unwrap()].to,
        dst,
        "last link must enter dst"
    );
    // Contiguity: consecutive links share a node.
    for w in route.links().windows(2) {
        assert_eq!(
            links[w[0]].to, links[w[1]].from,
            "consecutive links must share a node"
        );
    }
    // Valley-freedom: the tier sequence rises strictly to one peak, then
    // falls strictly — once the path starts descending it never ascends.
    let mut tiers = vec![topo.nodes()[src].kind.tier()];
    for &l in route.links() {
        tiers.push(topo.nodes()[links[l].to].kind.tier());
    }
    let mut descending = false;
    for w in tiers.windows(2) {
        if w[1] > w[0] {
            assert!(
                !descending,
                "valley: tier sequence {tiers:?} ascends after descending"
            );
        } else if w[1] < w[0] {
            descending = true;
        } else {
            panic!("flat hop between equal tiers in {tiers:?}");
        }
    }
}

proptest! {
    /// Every ECMP route on a k-ary fat-tree is a valid valley-free path,
    /// for arities 2–6, all host pairs drawn from the generated indices and
    /// arbitrary choice values.
    #[test]
    fn prop_fat_tree_routes_are_valid(
        half_k in 1usize..=3,
        src_pick in 0usize..10_000,
        dst_pick in 0usize..10_000,
        choice in 0usize..1_000,
    ) {
        let k = 2 * half_k;
        let topo = Topology::fat_tree(&FatTreeConfig::new(k));
        let hosts = topo.hosts();
        let src = hosts[src_pick % hosts.len()];
        let dst = hosts[dst_pick % hosts.len()];
        if src != dst {
            assert_valid_route(&topo, src, dst, &topo.host_route(src, dst, choice));
            for route in topo.host_routes(src, dst) {
                assert_valid_route(&topo, src, dst, &route);
            }
        }
    }

    /// Every ECMP route on an oversubscribed leaf-spine fabric is a valid
    /// valley-free path, across fabric shapes and oversubscription ratios.
    #[test]
    fn prop_oversubscribed_routes_are_valid(
        leaves in 2usize..=5,
        per_leaf in 1usize..=6,
        spines in 1usize..=5,
        ratio in 1.0f64..8.0,
        src_pick in 0usize..10_000,
        dst_pick in 0usize..10_000,
        choice in 0usize..1_000,
    ) {
        let hosts_total = leaves * per_leaf;
        let cfg = LeafSpineConfig::oversubscribed(hosts_total, leaves, spines, ratio);
        let topo = Topology::leaf_spine(&cfg);
        let hosts = topo.hosts();
        let src = hosts[src_pick % hosts.len()];
        let dst = hosts[dst_pick % hosts.len()];
        if src != dst {
            assert_valid_route(&topo, src, dst, &topo.host_route(src, dst, choice));
            for route in topo.host_routes(src, dst) {
                assert_valid_route(&topo, src, dst, &route);
            }
        }
    }

    /// Flow stability: the same `(src, dst, choice)` always yields the
    /// identical route, so repeated interning returns the same `RouteId` —
    /// on both fabric families.
    #[test]
    fn prop_ecmp_choice_is_flow_stable(
        src_pick in 0usize..10_000,
        dst_pick in 0usize..10_000,
        choice in 0usize..1_000,
    ) {
        for topo in [
            Topology::fat_tree(&FatTreeConfig::new(4)),
            Topology::leaf_spine(&LeafSpineConfig::oversubscribed(16, 4, 2, 4.0)),
        ] {
            let hosts = topo.hosts();
            let src = hosts[src_pick % hosts.len()];
            let dst = hosts[dst_pick % hosts.len()];
            if src == dst {
                continue;
            }
            let mut table = RouteTable::new();
            let first = topo.host_route(src, dst, choice);
            let id = table.intern(first.clone());
            // Re-deriving the route must produce the identical link sequence
            // and re-interning must return the identical id.
            for _ in 0..3 {
                let again = topo.host_route(src, dst, choice);
                assert_eq!(again, first, "route derivation is not stable");
                assert_eq!(table.intern(again), id, "interning is not stable");
            }
        }
    }
}

proptest! {
    /// Surviving-DAG re-selection (the impairment layer's route recovery):
    /// after failing an arbitrary subset of fabric links, every re-selected
    /// route is still a valid valley-free path over the remaining graph and
    /// never touches a banned cable — a down link or a link whose reverse
    /// twin is down (its ACKs could not return). When the failures partition
    /// the pair, the enumeration is empty and `host_route_avoiding` reports
    /// `None` instead of fabricating a route.
    #[test]
    fn prop_failure_reselection_is_valid_and_avoids_banned_cables(
        half_k in 1usize..=3,
        src_pick in 0usize..10_000,
        dst_pick in 0usize..10_000,
        choice in 0usize..1_000,
        fail_seed in 0u64..10_000,
        fail_count in 1usize..=6,
    ) {
        let k = 2 * half_k;
        let topo = Topology::fat_tree(&FatTreeConfig::new(k));
        let hosts = topo.hosts();
        let src = hosts[src_pick % hosts.len()];
        let dst = hosts[dst_pick % hosts.len()];
        if src != dst {
            // Fail a random subset of switch-to-switch links (host NIC
            // failures always partition and are uninteresting here).
            let mut rng = ChaCha8Rng::seed_from_u64(fail_seed);
            let fabric_links: Vec<usize> = topo
                .links()
                .iter()
                .enumerate()
                .filter(|(_, l)| {
                    topo.nodes()[l.from].kind.is_switch() && topo.nodes()[l.to].kind.is_switch()
                })
                .map(|(id, _)| id)
                .collect();
            let mut down = std::collections::HashSet::new();
            for _ in 0..fail_count {
                down.insert(fabric_links[rng.gen_range(0..fabric_links.len())]);
            }
            let banned = |l: usize| {
                let spec = &topo.links()[l];
                down.contains(&l)
                    || topo
                        .link_between(spec.to, spec.from)
                        .is_some_and(|twin| down.contains(&twin))
            };
            let surviving = topo.host_routes_avoiding(src, dst, &down);
            for route in &surviving {
                assert_valid_route(&topo, src, dst, route);
                for &l in route.links() {
                    prop_assert!(!banned(l), "surviving route uses banned link {l}");
                }
            }
            match topo.host_route_avoiding(src, dst, choice, &down) {
                Some(route) => {
                    prop_assert!(!surviving.is_empty());
                    prop_assert_eq!(&route, &surviving[choice % surviving.len()]);
                }
                None => prop_assert!(surviving.is_empty(), "route withheld despite survivors"),
            }
        }
    }

    /// With no failures, the surviving enumeration reduces exactly to the
    /// healthy ECMP enumeration on both fabric families — same paths, same
    /// deterministic order.
    #[test]
    fn prop_empty_failure_set_reproduces_healthy_routes(
        src_pick in 0usize..10_000,
        dst_pick in 0usize..10_000,
    ) {
        for topo in [
            Topology::fat_tree(&FatTreeConfig::new(4)),
            Topology::leaf_spine(&LeafSpineConfig::oversubscribed(16, 4, 2, 4.0)),
        ] {
            let hosts = topo.hosts();
            let src = hosts[src_pick % hosts.len()];
            let dst = hosts[dst_pick % hosts.len()];
            if src == dst {
                continue;
            }
            let none = std::collections::HashSet::new();
            prop_assert_eq!(
                topo.host_routes_avoiding(src, dst, &none),
                topo.host_routes(src, dst)
            );
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(4))]

    /// Uniformly drawn choice values spread flows across the equal-cost
    /// path set within a 2x uniformity bound over 10k draws (fat-tree
    /// inter-pod pairs and oversubscribed inter-rack pairs).
    #[test]
    fn prop_ecmp_spreads_within_2x_over_10k_draws(seed in 0u64..1_000) {
        let cases: [(Topology, usize, usize); 2] = [
            // Inter-pod fat-tree pair: (k/2)² = 4 equal-cost paths.
            (Topology::fat_tree(&FatTreeConfig::new(4)), 0, 15),
            // Inter-rack oversubscribed pair: one path per spine.
            (
                Topology::leaf_spine(&LeafSpineConfig::oversubscribed(16, 4, 4, 4.0)),
                0,
                15,
            ),
        ];
        for (topo, s, d) in cases {
            let hosts = topo.hosts();
            let (src, dst) = (hosts[s], hosts[d]);
            let num_paths = topo.host_routes(src, dst).len();
            prop_assert!(num_paths > 1, "pair must have equal-cost alternatives");
            let mut table = RouteTable::new();
            let mut rng = ChaCha8Rng::seed_from_u64(seed);
            let mut counts = std::collections::HashMap::new();
            for _ in 0..10_000 {
                let choice = rng.gen_range(0..1 << 30);
                let id = table.intern(topo.host_route(src, dst, choice));
                *counts.entry(id).or_insert(0u32) += 1;
            }
            prop_assert_eq!(counts.len(), num_paths, "all equal-cost paths must be hit");
            let max = *counts.values().max().unwrap();
            let min = *counts.values().min().unwrap();
            prop_assert!(
                max <= 2 * min,
                "2x uniformity violated: min {min}, max {max} over {num_paths} paths"
            );
        }
    }
}
