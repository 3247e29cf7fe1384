//! Exact network-wide **weighted max-min** allocation.
//!
//! This is the allocation Swift (the bottom layer of NUMFabric) realizes in
//! the network: every flow `i` has a weight `w_i`; all flows grow their rate
//! proportionally to their weight until a link saturates; flows crossing a
//! saturated link are frozen at their current rate; the remaining flows keep
//! growing; and so on until every flow is frozen (progressive filling /
//! water-filling, cf. Bertsekas & Gallager).
//!
//! The solver here is exact (up to floating point) and is used (a) as the
//! inner step of the fluid xWI iteration, (b) as the ground truth against
//! which the packet-level Swift transport is validated, and (c) to compute
//! ideal allocations for the resource-pooling experiments.

use crate::topology::{FlowId, FluidNetwork};
use crate::EPS;

/// Reusable state for [`weighted_max_min_into`]: the per-link flow lists and
/// capacities of a fixed network plus the solver's scratch vectors, so
/// repeated solves (e.g. one per fluid-model iteration) allocate nothing.
#[derive(Debug, Clone, Default)]
pub struct MaxMinWorkspace {
    flows_per_link: Vec<Vec<FlowId>>,
    capacities: Vec<f64>,
    frozen: Vec<bool>,
    consumed: Vec<f64>,
    live_weight: Vec<f64>,
}

impl MaxMinWorkspace {
    /// Precompute the per-link structure of `net`.
    pub fn for_network(net: &FluidNetwork) -> Self {
        Self {
            flows_per_link: net.flows_per_link(),
            capacities: net.capacities(),
            frozen: Vec::new(),
            consumed: Vec::new(),
            live_weight: Vec::new(),
        }
    }

    /// The flows crossing each link (index = link id).
    pub fn flows_per_link(&self) -> &[Vec<FlowId>] {
        &self.flows_per_link
    }

    /// The link capacities (index = link id).
    pub fn capacities(&self) -> &[f64] {
        &self.capacities
    }
}

/// Compute the weighted max-min allocation for `weights` on `net`.
///
/// Returns one rate per flow. Flows whose paths only cross links that never
/// saturate get an unbounded fair share in theory; in practice every flow
/// crosses at least one finite-capacity link (enforced by
/// [`FluidNetwork::add_flow`]), so every flow is frozen at some bottleneck
/// and the result is finite.
///
/// # Panics
/// Panics if `weights.len() != net.num_flows()` or any weight is not finite
/// or not strictly positive.
pub fn weighted_max_min(net: &FluidNetwork, weights: &[f64]) -> Vec<f64> {
    let mut workspace = MaxMinWorkspace::for_network(net);
    let mut rates = Vec::new();
    weighted_max_min_into(net, weights, &mut workspace, &mut rates);
    rates
}

/// Allocation-free variant of [`weighted_max_min`]: writes the rates into
/// `rates` (resized as needed) using buffers in `workspace`, which must have
/// been built with [`MaxMinWorkspace::for_network`] for this `net`.
///
/// Produces bit-identical results to [`weighted_max_min`] — the operation
/// order is unchanged, only the buffer reuse differs.
///
/// # Panics
/// As [`weighted_max_min`].
pub fn weighted_max_min_into(
    net: &FluidNetwork,
    weights: &[f64],
    workspace: &mut MaxMinWorkspace,
    rates: &mut Vec<f64>,
) {
    assert_eq!(weights.len(), net.num_flows(), "one weight per flow");
    for (i, &w) in weights.iter().enumerate() {
        assert!(
            w.is_finite() && w > 0.0,
            "weight of flow {i} must be positive, got {w}"
        );
    }
    let n = net.num_flows();
    let m = net.num_links();
    rates.clear();
    if n == 0 {
        return;
    }
    rates.resize(n, 0.0);

    let MaxMinWorkspace {
        flows_per_link,
        capacities,
        frozen,
        consumed,
        live_weight,
    } = workspace;
    frozen.clear();
    frozen.resize(n, false);
    // Capacity already consumed on each link by frozen flows.
    consumed.clear();
    consumed.resize(m, 0.0);
    // Sum of weights of unfrozen flows on each link.
    live_weight.clear();
    live_weight.extend((0..m).map(|l| flows_per_link[l].iter().map(|&i| weights[i]).sum::<f64>()));

    // Common water level: every unfrozen flow has rate w_i * level.
    let mut level = 0.0_f64;

    for _round in 0..n {
        if frozen.iter().all(|&f| f) {
            break;
        }
        // The water level at which each link with live flows saturates:
        // consumed_l + level * live_weight_l == capacity_l.
        let mut next_level = f64::INFINITY;
        for l in 0..m {
            if live_weight[l] <= EPS {
                continue;
            }
            let lvl = (capacities[l] - consumed[l]) / live_weight[l];
            if lvl < next_level {
                next_level = lvl;
            }
        }
        if !next_level.is_finite() {
            // No live link constrains the remaining flows (cannot happen for
            // valid networks, but guard against pathological inputs): freeze
            // the remaining flows at the current level.
            for i in 0..n {
                if !frozen[i] {
                    rates[i] = weights[i] * level;
                    frozen[i] = true;
                }
            }
            break;
        }
        // Numerical guard: the level never decreases.
        level = next_level.max(level);

        // Freeze every unfrozen flow that crosses a link saturated at `level`.
        let mut froze_any = false;
        for l in 0..m {
            if live_weight[l] <= EPS {
                continue;
            }
            let slack = capacities[l] - consumed[l] - level * live_weight[l];
            if slack <= 1e-9 * capacities[l].max(1.0) {
                for &i in &flows_per_link[l] {
                    if frozen[i] {
                        continue;
                    }
                    rates[i] = weights[i] * level;
                    frozen[i] = true;
                    froze_any = true;
                    // Move the flow's contribution from "live" to "consumed"
                    // on every link of its path.
                    for &k in &net.flows()[i].path {
                        consumed[k] += rates[i];
                        live_weight[k] -= weights[i];
                        if live_weight[k] < 0.0 {
                            live_weight[k] = 0.0;
                        }
                    }
                }
            }
        }
        if !froze_any {
            // Shouldn't happen; avoid an infinite loop by freezing everything.
            for i in 0..n {
                if !frozen[i] {
                    rates[i] = weights[i] * level;
                    frozen[i] = true;
                }
            }
            break;
        }
    }
}

/// Check whether `rates` is a weighted max-min allocation for `weights` on
/// `net`, up to relative tolerance `rel_tol`.
///
/// The characterization used: the allocation is feasible, and every flow has
/// at least one *bottleneck* link — a saturated link on its path where the
/// flow's normalized rate `x_i / w_i` is (weakly) maximal among the flows
/// crossing that link.
pub fn is_weighted_max_min(
    net: &FluidNetwork,
    weights: &[f64],
    rates: &[f64],
    rel_tol: f64,
) -> bool {
    assert_eq!(weights.len(), net.num_flows());
    assert_eq!(rates.len(), net.num_flows());
    if !net.is_feasible(rates, rel_tol) {
        return false;
    }
    let loads = net.link_loads(rates);
    let caps = net.capacities();
    let flows_per_link = net.flows_per_link();
    for (i, flow) in net.flows().iter().enumerate() {
        let norm_i = rates[i] / weights[i];
        let has_bottleneck = flow.path.iter().any(|&l| {
            let saturated = loads[l] >= caps[l] * (1.0 - rel_tol) - 1e-12;
            if !saturated {
                return false;
            }
            flows_per_link[l]
                .iter()
                .all(|&j| rates[j] / weights[j] <= norm_i * (1.0 + rel_tol) + 1e-12)
        });
        if !has_bottleneck {
            return false;
        }
    }
    true
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::topology::{FluidFlow, FluidNetwork};
    use crate::utility::LogUtility;
    use proptest::prelude::*;
    use rand::{seq::SliceRandom, Rng, SeedableRng};
    use rand_chacha::ChaCha8Rng;

    fn close(a: f64, b: f64, tol: f64) -> bool {
        (a - b).abs() <= tol * (1.0 + a.abs().max(b.abs()))
    }

    #[test]
    fn single_link_splits_in_proportion_to_weights() {
        let mut net = FluidNetwork::new();
        let l = net.add_link(12.0);
        for _ in 0..3 {
            net.add_simple_flow(vec![l], LogUtility::new());
        }
        let rates = weighted_max_min(&net, &[1.0, 2.0, 3.0]);
        assert!(close(rates[0], 2.0, 1e-9), "{rates:?}");
        assert!(close(rates[1], 4.0, 1e-9), "{rates:?}");
        assert!(close(rates[2], 6.0, 1e-9), "{rates:?}");
    }

    #[test]
    fn classic_parking_lot() {
        // Three links in a row; one long flow over all three, one short flow
        // per link. Max-min: every link splits 50/50 between the long flow and
        // its local short flow => long = 5, shorts = 5 (capacity 10 each).
        let mut net = FluidNetwork::new();
        let links: Vec<_> = (0..3).map(|_| net.add_link(10.0)).collect();
        net.add_simple_flow(links.clone(), LogUtility::new());
        for &l in &links {
            net.add_simple_flow(vec![l], LogUtility::new());
        }
        let rates = weighted_max_min(&net, &[1.0; 4]);
        assert!(close(rates[0], 5.0, 1e-9), "{rates:?}");
        for i in 1..4 {
            assert!(close(rates[i], 5.0, 1e-9), "{rates:?}");
        }
        assert!(is_weighted_max_min(&net, &[1.0; 4], &rates, 1e-6));
    }

    #[test]
    fn unequal_links_create_cascading_bottlenecks() {
        // Flow A on link0 (cap 2) and link1 (cap 10); flow B on link1 only.
        // A is bottlenecked at 2 on link0; B then gets 8 on link1.
        let mut net = FluidNetwork::new();
        let l0 = net.add_link(2.0);
        let l1 = net.add_link(10.0);
        net.add_simple_flow(vec![l0, l1], LogUtility::new());
        net.add_simple_flow(vec![l1], LogUtility::new());
        let rates = weighted_max_min(&net, &[1.0; 2]);
        assert!(close(rates[0], 2.0, 1e-9), "{rates:?}");
        assert!(close(rates[1], 8.0, 1e-9), "{rates:?}");
    }

    #[test]
    fn weights_shift_the_bottleneck_split() {
        let mut net = FluidNetwork::new();
        let l = net.add_link(10.0);
        net.add_simple_flow(vec![l], LogUtility::new());
        net.add_simple_flow(vec![l], LogUtility::new());
        let rates = weighted_max_min(&net, &[9.0, 1.0]);
        assert!(close(rates[0], 9.0, 1e-9));
        assert!(close(rates[1], 1.0, 1e-9));
    }

    #[test]
    fn checker_detects_non_max_min() {
        let mut net = FluidNetwork::new();
        let l = net.add_link(10.0);
        net.add_simple_flow(vec![l], LogUtility::new());
        net.add_simple_flow(vec![l], LogUtility::new());
        // Feasible but not max-min: unequal split with equal weights while the
        // link is saturated works (it *is* saturated so each flow does have a
        // saturated link, but the smaller flow's normalized rate is not maximal).
        assert!(!is_weighted_max_min(&net, &[1.0, 1.0], &[7.0, 3.0], 1e-6));
        // Underutilized: no flow has a bottleneck.
        assert!(!is_weighted_max_min(&net, &[1.0, 1.0], &[3.0, 3.0], 1e-6));
        assert!(is_weighted_max_min(&net, &[1.0, 1.0], &[5.0, 5.0], 1e-6));
    }

    #[test]
    fn empty_network_returns_empty() {
        let net = FluidNetwork::new();
        assert!(weighted_max_min(&net, &[]).is_empty());
    }

    #[test]
    #[should_panic]
    fn rejects_nonpositive_weight() {
        let mut net = FluidNetwork::new();
        let l = net.add_link(1.0);
        net.add_simple_flow(vec![l], LogUtility::new());
        weighted_max_min(&net, &[0.0]);
    }

    /// Build a random leaf-spine-ish network with random single-path flows.
    fn random_network(seed: u64, links: usize, flows: usize) -> (FluidNetwork, Vec<f64>) {
        let mut rng = ChaCha8Rng::seed_from_u64(seed);
        let mut net = FluidNetwork::new();
        for _ in 0..links {
            net.add_link(rng.gen_range(1.0..20.0));
        }
        let mut weights = Vec::with_capacity(flows);
        for _ in 0..flows {
            let path_len = rng.gen_range(1..=3.min(links));
            let mut path: Vec<usize> = (0..links).collect();
            path.shuffle(&mut rng);
            path.truncate(path_len);
            net.add_flow(FluidFlow::new(path, LogUtility::new()));
            weights.push(rng.gen_range(0.1..4.0));
        }
        (net, weights)
    }

    #[test]
    fn random_networks_satisfy_max_min_characterization() {
        for seed in 0..30 {
            let (net, weights) = random_network(seed, 6, 12);
            let rates = weighted_max_min(&net, &weights);
            assert!(
                is_weighted_max_min(&net, &weights, &rates, 1e-6),
                "seed {seed}: {rates:?}"
            );
        }
    }

    proptest! {
        /// The allocation is always feasible and work-conserving on at least
        /// one link per flow (every flow has a saturated link on its path).
        #[test]
        fn prop_weighted_max_min_valid(seed in 0u64..500, links in 2usize..8, flows in 1usize..20) {
            let (net, weights) = random_network(seed, links, flows);
            let rates = weighted_max_min(&net, &weights);
            prop_assert!(net.is_feasible(&rates, 1e-6));
            prop_assert!(is_weighted_max_min(&net, &weights, &rates, 1e-5));
        }

        /// Scaling all weights by a constant does not change the allocation.
        #[test]
        fn prop_weight_scale_invariance(seed in 0u64..200, scale in 0.1f64..50.0) {
            let (net, weights) = random_network(seed, 5, 10);
            let a = weighted_max_min(&net, &weights);
            let scaled: Vec<f64> = weights.iter().map(|w| w * scale).collect();
            let b = weighted_max_min(&net, &scaled);
            for i in 0..a.len() {
                prop_assert!(close(a[i], b[i], 1e-6), "{} vs {}", a[i], b[i]);
            }
        }

        /// Increasing one flow's weight never decreases its rate.
        #[test]
        fn prop_weight_monotonicity(seed in 0u64..200, boost in 1.1f64..10.0) {
            let (net, weights) = random_network(seed, 5, 8);
            let base = weighted_max_min(&net, &weights);
            let mut boosted = weights.clone();
            boosted[0] *= boost;
            let after = weighted_max_min(&net, &boosted);
            prop_assert!(after[0] + 1e-9 >= base[0] * (1.0 - 1e-9));
        }
    }
}
