//! The NUM **Oracle**: ground-truth optimal allocations.
//!
//! The paper's evaluation compares every transport against "a numerical fluid
//! model simulation that takes the current network state ... and outputs the
//! optimal rate allocation according to the NUM problem" (§6). This module is
//! that oracle.
//!
//! The solver is a **dual coordinate-ascent (Gauss–Seidel) method**: cycling
//! over links, each link's price is set (by bisection) to the exact value
//! that makes the link either saturated or free with zero price, holding the
//! other prices fixed. For smooth strictly-concave utilities the dual is
//! differentiable and concave, so exact coordinate maximization converges to
//! the dual optimum; the corresponding primal rates `x_i = U'⁻¹(Σ p_l)` then
//! solve the NUM problem. No step-size parameter is involved, which is what
//! makes this solver a trustworthy reference (unlike DGD, whose tuning is the
//! very thing the paper criticizes).
//!
//! Every solution is validated with [`kkt_residuals`] before being returned.

use crate::kkt::{kkt_residuals, KktResiduals};
use crate::topology::FluidNetwork;
use crate::{EPS, MAX_RATE};

/// Configuration for the oracle solver.
#[derive(Debug, Clone)]
pub struct Oracle {
    /// Maximum number of Gauss–Seidel sweeps over the links.
    pub max_sweeps: usize,
    /// Target on the maximum KKT residual.
    pub tolerance: f64,
    /// Bisection iterations per link-price update.
    pub bisection_iters: usize,
}

impl Default for Oracle {
    fn default() -> Self {
        Self {
            max_sweeps: 2_000,
            tolerance: 1e-6,
            bisection_iters: 100,
        }
    }
}

/// The result of an oracle solve.
#[derive(Debug, Clone)]
pub struct OracleSolution {
    /// Optimal flow rates (one per flow, same order as the network's flows).
    pub rates: Vec<f64>,
    /// Optimal link prices (dual variables, one per link).
    pub prices: Vec<f64>,
    /// KKT residuals of the returned point.
    pub residuals: KktResiduals,
    /// Number of Gauss–Seidel sweeps performed.
    pub sweeps: usize,
    /// Whether the KKT residuals met the requested tolerance.
    pub converged: bool,
}

impl Oracle {
    /// An oracle with default settings (tolerance `1e-6`).
    pub fn new() -> Self {
        Self::default()
    }

    /// An oracle with a custom KKT tolerance.
    pub fn with_tolerance(tolerance: f64) -> Self {
        Self {
            tolerance,
            ..Self::default()
        }
    }

    /// Solve the NUM problem for `net`.
    ///
    /// Utilities must be strictly concave (all of the catalogue in
    /// [`crate::utility`] except α-fair with `α = 0`); a purely linear
    /// utility makes the primal solution non-unique and the bisection
    /// degenerate.
    ///
    /// Returns an empty solution for a network with no flows.
    pub fn solve(&self, net: &FluidNetwork) -> OracleSolution {
        let n = net.num_flows();
        let m = net.num_links();
        if n == 0 {
            return OracleSolution {
                rates: Vec::new(),
                prices: vec![0.0; m],
                residuals: KktResiduals {
                    stationarity: 0.0,
                    primal_feasibility: 0.0,
                    complementary_slackness: 0.0,
                    dual_feasibility: 0.0,
                },
                sweeps: 0,
                converged: true,
            };
        }

        let flows_per_link = net.flows_per_link();
        let caps = net.capacities();

        // Initial prices: pretend each link is the only bottleneck of the
        // flows crossing it and each flow gets an equal share of it. This is
        // a warm start, not a requirement for convergence.
        let mut prices = vec![0.0_f64; m];
        for l in 0..m {
            let flows = &flows_per_link[l];
            if flows.is_empty() {
                continue;
            }
            let share = caps[l] / flows.len() as f64;
            let avg_marginal = flows
                .iter()
                .map(|&i| net.flows()[i].utility.marginal(share))
                .sum::<f64>()
                / flows.len() as f64;
            prices[l] = avg_marginal / net.flows()[flows[0]].path.len().max(1) as f64;
        }

        // Rates implied by a price vector.
        let rates_for = |prices: &[f64]| -> Vec<f64> {
            (0..n)
                .map(|i| {
                    let p = net.path_price(prices, i);
                    net.flows()[i].utility.inverse_marginal(p.max(0.0))
                })
                .collect()
        };

        let mut sweeps = 0;
        let mut best: Option<(Vec<f64>, Vec<f64>, KktResiduals)> = None;

        for sweep in 0..self.max_sweeps {
            sweeps = sweep + 1;
            for l in 0..m {
                let flows = &flows_per_link[l];
                if flows.is_empty() {
                    prices[l] = 0.0;
                    continue;
                }
                // Load through link l as a function of its own price `q`,
                // with every other price fixed.
                let load_at = |q: f64, prices: &[f64]| -> f64 {
                    flows
                        .iter()
                        .map(|&i| {
                            let rest = net.path_price(prices, i) - prices[l];
                            net.flows()[i]
                                .utility
                                .inverse_marginal((rest + q).max(0.0))
                                .min(MAX_RATE)
                        })
                        .sum()
                };
                if load_at(0.0, &prices) <= caps[l] + EPS {
                    prices[l] = 0.0;
                    continue;
                }
                // Find an upper bound where the link is no longer saturated.
                let mut hi = prices[l].max(1e-9);
                let mut guard = 0;
                while load_at(hi, &prices) > caps[l] && guard < 200 {
                    hi *= 2.0;
                    guard += 1;
                }
                let mut lo = 0.0_f64;
                for _ in 0..self.bisection_iters {
                    let mid = 0.5 * (lo + hi);
                    if load_at(mid, &prices) > caps[l] {
                        lo = mid;
                    } else {
                        hi = mid;
                    }
                }
                prices[l] = 0.5 * (lo + hi);
            }

            let rates = rates_for(&prices);
            let res = kkt_residuals(net, &rates, &prices);
            let better = match &best {
                Some((_, _, b)) => res.max() < b.max(),
                None => true,
            };
            if better {
                best = Some((rates.clone(), prices.clone(), res));
            }
            if res.within(self.tolerance) {
                return OracleSolution {
                    rates,
                    prices,
                    residuals: res,
                    sweeps,
                    converged: true,
                };
            }
        }

        let (rates, prices, residuals) =
            best.expect("at least one sweep ran because the network has flows");
        let converged = residuals.within(self.tolerance);
        OracleSolution {
            rates,
            prices,
            residuals,
            sweeps,
            converged,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::maxmin::weighted_max_min;
    use crate::topology::{FluidFlow, FluidNetwork};
    use crate::utility::{AlphaFair, FctUtility, LogUtility};
    use proptest::prelude::*;
    use rand::{seq::SliceRandom, Rng, SeedableRng};
    use rand_chacha::ChaCha8Rng;

    fn close(a: f64, b: f64, tol: f64) -> bool {
        (a - b).abs() <= tol * (1.0 + a.abs().max(b.abs()))
    }

    #[test]
    fn single_link_proportional_fairness_splits_evenly() {
        let mut net = FluidNetwork::new();
        let l = net.add_link(10.0);
        net.add_simple_flow(vec![l], LogUtility::new());
        net.add_simple_flow(vec![l], LogUtility::new());
        let sol = Oracle::new().solve(&net);
        assert!(sol.converged, "{:?}", sol.residuals);
        assert!(close(sol.rates[0], 5.0, 1e-4), "{:?}", sol.rates);
        assert!(close(sol.rates[1], 5.0, 1e-4), "{:?}", sol.rates);
        assert!(close(sol.prices[0], 0.2, 1e-3), "{:?}", sol.prices);
    }

    #[test]
    fn weighted_proportional_fairness_splits_by_weight() {
        let mut net = FluidNetwork::new();
        let l = net.add_link(12.0);
        net.add_simple_flow(vec![l], LogUtility::weighted(1.0));
        net.add_simple_flow(vec![l], LogUtility::weighted(2.0));
        net.add_simple_flow(vec![l], LogUtility::weighted(3.0));
        let sol = Oracle::new().solve(&net);
        assert!(sol.converged);
        assert!(close(sol.rates[0], 2.0, 1e-3), "{:?}", sol.rates);
        assert!(close(sol.rates[1], 4.0, 1e-3), "{:?}", sol.rates);
        assert!(close(sol.rates[2], 6.0, 1e-3), "{:?}", sol.rates);
    }

    #[test]
    fn parking_lot_proportional_fairness() {
        // Known closed form: long flow gets 1/3, short flows get 2/3 (cap 1).
        let mut net = FluidNetwork::new();
        let l0 = net.add_link(1.0);
        let l1 = net.add_link(1.0);
        net.add_simple_flow(vec![l0, l1], LogUtility::new());
        net.add_simple_flow(vec![l0], LogUtility::new());
        net.add_simple_flow(vec![l1], LogUtility::new());
        let sol = Oracle::new().solve(&net);
        assert!(sol.converged);
        assert!(close(sol.rates[0], 1.0 / 3.0, 1e-3), "{:?}", sol.rates);
        assert!(close(sol.rates[1], 2.0 / 3.0, 1e-3), "{:?}", sol.rates);
        assert!(close(sol.rates[2], 2.0 / 3.0, 1e-3), "{:?}", sol.rates);
    }

    #[test]
    fn alpha_two_parking_lot_biases_toward_short_flows_less_than_alpha_one() {
        // As alpha grows the allocation approaches max-min (1/2, 1/2, 1/2).
        let build = |alpha: f64| {
            let mut net = FluidNetwork::new();
            let l0 = net.add_link(1.0);
            let l1 = net.add_link(1.0);
            net.add_simple_flow(vec![l0, l1], AlphaFair::new(alpha));
            net.add_simple_flow(vec![l0], AlphaFair::new(alpha));
            net.add_simple_flow(vec![l1], AlphaFair::new(alpha));
            net
        };
        let x1 = Oracle::new().solve(&build(1.0)).rates[0];
        let x4 = Oracle::new().solve(&build(4.0)).rates[0];
        let x16 = Oracle::new().solve(&build(16.0)).rates[0];
        assert!(x1 < x4 && x4 < x16, "{x1} {x4} {x16}");
        assert!(x16 < 0.5 + 1e-3);
    }

    #[test]
    fn fct_utility_gives_small_flow_most_of_the_link() {
        let mut net = FluidNetwork::new();
        let l = net.add_link(10.0);
        net.add_simple_flow(vec![l], FctUtility::new(1e4));
        net.add_simple_flow(vec![l], FctUtility::new(1e7));
        let sol = Oracle::new().solve(&net);
        assert!(sol.converged);
        assert!(sol.rates[0] > 9.0 * sol.rates[1], "{:?}", sol.rates);
        assert!(close(sol.rates[0] + sol.rates[1], 10.0, 1e-3));
    }

    #[test]
    fn empty_network_is_trivially_converged() {
        let net = FluidNetwork::new();
        let sol = Oracle::new().solve(&net);
        assert!(sol.converged);
        assert!(sol.rates.is_empty());
    }

    #[test]
    fn unconstrained_flows_get_zero_price_links() {
        // One flow on a huge link alongside a tiny link that nobody uses.
        let mut net = FluidNetwork::new();
        let big = net.add_link(100.0);
        let _unused = net.add_link(1.0);
        net.add_simple_flow(vec![big], LogUtility::new());
        let sol = Oracle::new().solve(&net);
        assert!(sol.converged);
        // Proportional fairness on a single flow: it takes the whole link.
        assert!(close(sol.rates[0], 100.0, 1e-3), "{:?}", sol.rates);
        assert!(sol.prices[1].abs() < 1e-9);
    }

    fn random_instance(seed: u64, links: usize, flows: usize, alpha: f64) -> FluidNetwork {
        let mut rng = ChaCha8Rng::seed_from_u64(seed);
        let mut net = FluidNetwork::new();
        for _ in 0..links {
            net.add_link(rng.gen_range(1.0..20.0));
        }
        for _ in 0..flows {
            let path_len = rng.gen_range(1..=3.min(links));
            let mut path: Vec<usize> = (0..links).collect();
            path.shuffle(&mut rng);
            path.truncate(path_len);
            net.add_flow(FluidFlow::new(path, AlphaFair::new(alpha)));
        }
        net
    }

    #[test]
    fn random_instances_reach_kkt_tolerance() {
        for seed in 0..20 {
            let net = random_instance(seed, 6, 15, 1.0);
            let sol = Oracle::new().solve(&net);
            assert!(sol.converged, "seed {seed} residuals {:?}", sol.residuals);
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(32))]

        /// The oracle's allocation is feasible and KKT-optimal on random
        /// proportional-fairness instances.
        #[test]
        fn prop_oracle_kkt_optimal(seed in 0u64..300, links in 2usize..6, flows in 1usize..12) {
            let net = random_instance(seed, links, flows, 1.0);
            let sol = Oracle::with_tolerance(1e-5).solve(&net);
            prop_assert!(net.is_feasible(&sol.rates, 1e-4));
            prop_assert!(sol.residuals.within(1e-3), "residuals {:?}", sol.residuals);
        }

        /// The oracle beats (or matches) any feasible random allocation in
        /// total utility — i.e. it really is a maximizer.
        #[test]
        fn prop_oracle_dominates_random_feasible_points(seed in 0u64..200) {
            let net = random_instance(seed, 4, 8, 1.0);
            let sol = Oracle::new().solve(&net);
            let mut rng = ChaCha8Rng::seed_from_u64(seed ^ 0xdead_beef);
            // Random feasible point: scale a random positive vector until it fits.
            let mut rates: Vec<f64> = (0..net.num_flows()).map(|_| rng.gen_range(0.01..1.0)).collect();
            let loads = net.link_loads(&rates);
            let caps = net.capacities();
            let worst = loads.iter().zip(caps.iter()).map(|(l, c)| l / c).fold(0.0f64, f64::max);
            if worst > 0.0 {
                for r in rates.iter_mut() { *r /= worst * 1.001; }
            }
            prop_assert!(net.is_feasible(&rates, 1e-6));
            prop_assert!(net.total_utility(&sol.rates) >= net.total_utility(&rates) - 1e-6);
        }

        /// On a single-bottleneck topology, the NUM optimum for pure
        /// (weighted) log utilities IS the weighted max-min allocation —
        /// proportional fairness splits one link in proportion to weight,
        /// which is exactly what `weighted_max_min` computes. This pins the
        /// two solvers to each other on the one case with a closed form.
        #[test]
        fn prop_oracle_matches_weighted_maxmin_on_single_bottleneck(
            seed in 0u64..300,
            flows in 1usize..10,
            cap in 1.0f64..50.0,
        ) {
            let mut rng = ChaCha8Rng::seed_from_u64(seed ^ 0x51_b0);
            let mut net = FluidNetwork::new();
            let l = net.add_link(cap);
            let weights: Vec<f64> =
                (0..flows).map(|_| rng.gen_range(0.1..5.0)).collect();
            for &w in &weights {
                net.add_simple_flow(vec![l], LogUtility::weighted(w));
            }
            let sol = Oracle::with_tolerance(1e-7).solve(&net);
            prop_assert!(sol.converged, "oracle did not converge: {:?}", sol.residuals);
            let mm = weighted_max_min(&net, &weights);
            for (i, (&o, &m)) in sol.rates.iter().zip(mm.iter()).enumerate() {
                prop_assert!(
                    close(o, m, 1e-4),
                    "flow {i}: oracle {o} vs weighted max-min {m} (weights {weights:?})"
                );
            }
            // And the KKT residuals of that solution are below tolerance.
            prop_assert!(sol.residuals.within(1e-4), "residuals {:?}", sol.residuals);
        }
    }
}
