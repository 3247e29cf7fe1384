//! Fluid-model (synchronous, idealized) iterations of the three distributed
//! NUM algorithms the paper studies:
//!
//! * [`XwiFluid`] — NUMFabric's **eXplicit Weight Inference** on top of an
//!   ideal weighted max-min transport (§4.2, Eqs. 7–11).
//! * [`DgdFluid`] — the **Dual Gradient Descent** baseline of Low & Lapsley
//!   (§3, Eqs. 3–4).
//! * [`RcpStarFluid`] — the **RCP\*** baseline: per-link fair-share rates
//!   generalized to α-fairness (§6, Eqs. 15–16).
//!
//! These are *not* packet-level models (those live in `numfabric-core` and
//! `numfabric-baselines`): an iteration here corresponds to one idealized
//! control interval with perfect, delay-free measurement. The fluid models
//! are used (a) to study convergence dynamics in isolation from queueing
//! noise (the paper's extended-version numerical simulations), (b) as
//! property-test subjects — the xWI fixed point must solve the NUM problem —
//! and (c) by `fig4a`'s fluid-level table of iterations to the oracle.

use crate::maxmin::{weighted_max_min_into, MaxMinWorkspace};
use crate::topology::FluidNetwork;
use crate::{clamp_rate, MAX_RATE};

/// A fluid-model NUM algorithm that can be stepped one synchronous iteration
/// at a time.
///
/// Implementors provide the allocation-free [`Self::step_in_place`] plus
/// borrowing accessors, so a loop iterates without per-step clones.
pub trait FluidAlgorithm {
    /// Advance one iteration, updating the internal rate and price vectors
    /// without allocating.
    fn step_in_place(&mut self);

    /// The current flow rates.
    fn rates(&self) -> &[f64];

    /// The current link prices (per-link fair-share rates for RCP*).
    fn prices(&self) -> &[f64];

    /// The iteration counter (0 = initial state).
    fn iteration(&self) -> usize;

    /// A short name for reports.
    fn name(&self) -> &'static str;

    /// Run until the rates are within `rel_tol` of `target` for every flow
    /// (relative to the target, with an absolute floor), or until `max_iters`
    /// iterations have elapsed. Returns the number of iterations used, or
    /// `None` if it did not converge.
    fn iterations_to_reach(
        &mut self,
        target: &[f64],
        rel_tol: f64,
        max_iters: usize,
    ) -> Option<usize> {
        for it in 1..=max_iters {
            self.step_in_place();
            let ok = self
                .rates()
                .iter()
                .zip(target.iter())
                .all(|(&x, &t)| (x - t).abs() <= rel_tol * t.max(1e-9));
            if ok {
                return Some(it);
            }
        }
        None
    }
}

/// Parameters of the fluid xWI iteration.
#[derive(Debug, Clone)]
pub struct XwiParams {
    /// Under-utilization decay gain η (Eq. 10). The paper uses 5 and notes
    /// the algorithm is largely insensitive to it.
    pub eta: f64,
    /// Price-averaging factor β (Eq. 11). The paper uses 0.5.
    pub beta: f64,
}

impl Default for XwiParams {
    fn default() -> Self {
        Self {
            eta: 5.0,
            beta: 0.5,
        }
    }
}

/// Fluid-model xWI: weights from prices (Eq. 7), rates from an exact weighted
/// max-min allocation (Eq. 8), prices from the minimum normalized residual
/// plus the under-utilization term (Eqs. 9–11).
#[derive(Debug, Clone)]
pub struct XwiFluid {
    net: FluidNetwork,
    params: XwiParams,
    prices: Vec<f64>,
    rates: Vec<f64>,
    iteration: usize,
    // Reusable buffers: step_in_place allocates nothing after construction.
    weights: Vec<f64>,
    prices_next: Vec<f64>,
    loads: Vec<f64>,
    maxmin: MaxMinWorkspace,
}

impl XwiFluid {
    /// Create the iteration with all prices initialized to `initial_price`.
    pub fn new(net: FluidNetwork, params: XwiParams, initial_price: f64) -> Self {
        assert!(initial_price >= 0.0, "prices are non-negative");
        let m = net.num_links();
        let n = net.num_flows();
        let maxmin = MaxMinWorkspace::for_network(&net);
        Self {
            net,
            params,
            prices: vec![initial_price; m],
            rates: vec![0.0; n],
            iteration: 0,
            weights: Vec::with_capacity(n),
            prices_next: vec![0.0; m],
            loads: vec![0.0; m],
            maxmin,
        }
    }

    /// Create with the paper's default parameters and a small positive price.
    pub fn with_defaults(net: FluidNetwork) -> Self {
        Self::new(net, XwiParams::default(), 1e-3)
    }

    /// The network this iteration runs on.
    pub fn network(&self) -> &FluidNetwork {
        &self.net
    }

    /// Current link prices.
    pub fn prices(&self) -> &[f64] {
        &self.prices
    }

    /// Replace the flow population (e.g. a flow arrival/departure event) while
    /// keeping the link prices — this is exactly what makes xWI fast in
    /// dynamic settings: prices are already near the new optimum.
    pub fn replace_flows(&mut self, net: FluidNetwork) {
        assert_eq!(
            net.num_links(),
            self.net.num_links(),
            "replace_flows keeps the link set"
        );
        self.rates.clear();
        self.rates.resize(net.num_flows(), 0.0);
        self.maxmin = MaxMinWorkspace::for_network(&net);
        self.net = net;
    }
}

impl FluidAlgorithm for XwiFluid {
    fn step_in_place(&mut self) {
        let net = &self.net;
        let n = net.num_flows();
        let m = net.num_links();
        self.iteration += 1;

        if n == 0 {
            // No flows: all prices decay toward zero via the utilization term.
            for p in self.prices.iter_mut() {
                let new = (*p - self.params.eta * *p).max(0.0);
                *p = self.params.beta * *p + (1.0 - self.params.beta) * new;
            }
            return;
        }

        // Eq. 7: weights from path prices.
        let prices = &self.prices;
        self.weights.clear();
        self.weights.extend((0..n).map(|i| {
            let p = net.path_price(prices, i);
            let w = net.flows()[i].utility.inverse_marginal(p.max(0.0));
            // Swift weights must be positive and finite.
            clamp_rate(w).min(MAX_RATE)
        }));

        // Eq. 8: Swift's weighted max-min allocation.
        weighted_max_min_into(net, &self.weights, &mut self.maxmin, &mut self.rates);

        // Eqs. 9–11: price update per link.
        net.link_loads_into(&self.rates, &mut self.loads);
        let caps = self.maxmin.capacities();
        let flows_per_link = self.maxmin.flows_per_link();
        let rates = &self.rates;
        self.prices_next.clear();
        self.prices_next.resize(m, 0.0);
        for l in 0..m {
            let flows = &flows_per_link[l];
            if flows.is_empty() {
                // No flows: decay to zero.
                let res = (self.prices[l] - self.params.eta * self.prices[l]).max(0.0);
                self.prices_next[l] =
                    self.params.beta * self.prices[l] + (1.0 - self.params.beta) * res;
                continue;
            }
            // Minimum normalized residual over the flows crossing this link.
            let min_res = flows
                .iter()
                .map(|&i| {
                    let marginal = net.flows()[i].utility.marginal(rates[i]);
                    let path_price = net.path_price(&self.prices, i);
                    (marginal - path_price) / net.flows()[i].path.len() as f64
                })
                .fold(f64::INFINITY, f64::min);
            let p_res = self.prices[l] + min_res;
            let utilization = (self.loads[l] / caps[l]).min(1.0);
            let p_new = (p_res - self.params.eta * (1.0 - utilization) * self.prices[l]).max(0.0);
            self.prices_next[l] =
                self.params.beta * self.prices[l] + (1.0 - self.params.beta) * p_new;
        }
        std::mem::swap(&mut self.prices, &mut self.prices_next);
    }

    fn rates(&self) -> &[f64] {
        &self.rates
    }

    fn prices(&self) -> &[f64] {
        &self.prices
    }

    fn iteration(&self) -> usize {
        self.iteration
    }

    fn name(&self) -> &'static str {
        "xWI"
    }
}

/// Parameters of the fluid DGD iteration (Eq. 4).
#[derive(Debug, Clone)]
pub struct DgdParams {
    /// Gradient step size γ. The paper's central criticism of DGD is the
    /// difficulty of choosing this value.
    pub gamma: f64,
}

impl Default for DgdParams {
    fn default() -> Self {
        Self { gamma: 1e-2 }
    }
}

/// Fluid-model Dual Gradient Descent (Low & Lapsley): rates from prices
/// (Eq. 3), prices from the rate–capacity mismatch (Eq. 4).
#[derive(Debug, Clone)]
pub struct DgdFluid {
    net: FluidNetwork,
    params: DgdParams,
    prices: Vec<f64>,
    rates: Vec<f64>,
    iteration: usize,
    /// Reusable link-load buffer (step_in_place allocates nothing).
    loads: Vec<f64>,
}

impl DgdFluid {
    /// Create the iteration with all prices initialized to `initial_price`.
    pub fn new(net: FluidNetwork, params: DgdParams, initial_price: f64) -> Self {
        assert!(initial_price >= 0.0, "prices are non-negative");
        let m = net.num_links();
        let n = net.num_flows();
        Self {
            net,
            params,
            prices: vec![initial_price; m],
            rates: vec![0.0; n],
            iteration: 0,
            loads: vec![0.0; m],
        }
    }

    /// Default parameters and a small positive initial price.
    pub fn with_defaults(net: FluidNetwork) -> Self {
        Self::new(net, DgdParams::default(), 1e-3)
    }
}

impl FluidAlgorithm for DgdFluid {
    fn step_in_place(&mut self) {
        let net = &self.net;
        let n = net.num_flows();
        self.iteration += 1;

        // Eq. 3: rates directly from prices. DGD can pick infeasible rates
        // when prices are wrong — that is precisely its weakness; we cap the
        // per-flow rate at the largest link capacity on its path to model the
        // 2×BDP cap the paper's implementation uses.
        let prices = &self.prices;
        self.rates.clear();
        self.rates.extend((0..n).map(|i| {
            let p = net.path_price(prices, i);
            let cap = net.flows()[i]
                .path
                .iter()
                .map(|&l| net.links()[l].capacity)
                .fold(f64::INFINITY, f64::min);
            net.flows()[i]
                .utility
                .inverse_marginal(p.max(0.0))
                .min(2.0 * cap)
        }));

        // Eq. 4: gradient step on each link price.
        net.link_loads_into(&self.rates, &mut self.loads);
        for l in 0..net.num_links() {
            self.prices[l] = (self.prices[l]
                + self.params.gamma * (self.loads[l] - net.links()[l].capacity))
                .max(0.0);
        }
    }

    fn rates(&self) -> &[f64] {
        &self.rates
    }

    fn prices(&self) -> &[f64] {
        &self.prices
    }

    fn iteration(&self) -> usize {
        self.iteration
    }

    fn name(&self) -> &'static str {
        "DGD"
    }
}

/// Parameters of the fluid RCP* iteration (Eq. 15 with no queue term).
#[derive(Debug, Clone)]
pub struct RcpStarParams {
    /// Utilization gain `a`.
    pub a: f64,
    /// The α of the α-fair objective the links advertise rates for.
    pub alpha: f64,
}

impl Default for RcpStarParams {
    fn default() -> Self {
        Self { a: 0.5, alpha: 1.0 }
    }
}

/// Fluid-model RCP*: each link advertises a fair-share rate `R_l`, updated
/// multiplicatively from the spare capacity (Eq. 15, fluid version without
/// the queue term), and each flow sets its rate to
/// `(Σ_l R_l^{-α})^{-1/α}` (Eq. 16).
#[derive(Debug, Clone)]
pub struct RcpStarFluid {
    net: FluidNetwork,
    params: RcpStarParams,
    /// Per-link advertised fair-share rates.
    shares: Vec<f64>,
    rates: Vec<f64>,
    iteration: usize,
    /// Reusable link-load buffer (step_in_place allocates nothing).
    loads: Vec<f64>,
}

impl RcpStarFluid {
    /// Create the iteration; advertised rates start at an equal split of each
    /// link among the flows crossing it (or the full capacity if none).
    pub fn new(net: FluidNetwork, params: RcpStarParams) -> Self {
        let flows_per_link = net.flows_per_link();
        let shares: Vec<f64> = net
            .links()
            .iter()
            .enumerate()
            .map(|(l, link)| link.capacity / flows_per_link[l].len().max(1) as f64)
            .collect();
        let n = net.num_flows();
        let m = net.num_links();
        Self {
            net,
            params,
            shares,
            rates: vec![0.0; n],
            iteration: 0,
            loads: vec![0.0; m],
        }
    }

    /// Default parameters (α = 1).
    pub fn with_defaults(net: FluidNetwork) -> Self {
        Self::new(net, RcpStarParams::default())
    }
}

impl FluidAlgorithm for RcpStarFluid {
    fn step_in_place(&mut self) {
        let net = &self.net;
        let n = net.num_flows();
        self.iteration += 1;

        // Eq. 16: flow rates from the advertised per-link shares.
        let alpha = self.params.alpha;
        let shares = &self.shares;
        self.rates.clear();
        self.rates.extend((0..n).map(|i| {
            let sum: f64 = net.flows()[i]
                .path
                .iter()
                .map(|&l| shares[l].max(1e-12).powf(-alpha))
                .sum();
            if sum <= 0.0 {
                MAX_RATE
            } else {
                clamp_rate(sum.powf(-1.0 / alpha))
            }
        }));

        // Eq. 15 (fluid): multiplicative update from spare capacity.
        net.link_loads_into(&self.rates, &mut self.loads);
        for (l, link) in net.links().iter().enumerate() {
            let spare = (link.capacity - self.loads[l]) / link.capacity;
            let factor = 1.0 + self.params.a * spare;
            self.shares[l] = (self.shares[l] * factor.max(0.1)).clamp(1e-9, MAX_RATE);
        }
    }

    fn rates(&self) -> &[f64] {
        &self.rates
    }

    fn prices(&self) -> &[f64] {
        &self.shares
    }

    fn iteration(&self) -> usize {
        self.iteration
    }

    fn name(&self) -> &'static str {
        "RCP*"
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::oracle::Oracle;
    use crate::topology::{FluidFlow, FluidNetwork};
    use crate::utility::{AlphaFair, LogUtility};
    use rand::{seq::SliceRandom, Rng, SeedableRng};
    use rand_chacha::ChaCha8Rng;

    fn close(a: f64, b: f64, tol: f64) -> bool {
        (a - b).abs() <= tol * (1.0 + a.abs().max(b.abs()))
    }

    fn parking_lot(cap: f64) -> FluidNetwork {
        let mut net = FluidNetwork::new();
        let l0 = net.add_link(cap);
        let l1 = net.add_link(cap);
        net.add_simple_flow(vec![l0, l1], LogUtility::new());
        net.add_simple_flow(vec![l0], LogUtility::new());
        net.add_simple_flow(vec![l1], LogUtility::new());
        net
    }

    fn random_network(seed: u64, links: usize, flows: usize) -> FluidNetwork {
        let mut rng = ChaCha8Rng::seed_from_u64(seed);
        let mut net = FluidNetwork::new();
        for _ in 0..links {
            net.add_link(rng.gen_range(5.0..20.0));
        }
        for _ in 0..flows {
            let path_len = rng.gen_range(1..=3.min(links));
            let mut path: Vec<usize> = (0..links).collect();
            path.shuffle(&mut rng);
            path.truncate(path_len);
            net.add_flow(FluidFlow::new(path, LogUtility::new()));
        }
        net
    }

    #[test]
    fn xwi_converges_to_oracle_on_parking_lot() {
        let net = parking_lot(1.0);
        let oracle = Oracle::new().solve(&net);
        let mut xwi = XwiFluid::with_defaults(net);
        let iters = xwi
            .iterations_to_reach(&oracle.rates, 0.01, 500)
            .expect("xWI should converge on the parking lot");
        assert!(iters < 200, "took {iters} iterations");
        assert_eq!(xwi.iteration(), iters);
        let rates = xwi.rates();
        assert!(close(rates[0], 1.0 / 3.0, 0.02), "{rates:?}");
    }

    #[test]
    fn xwi_rates_are_always_feasible() {
        // The decisive property vs DGD: xWI never oversubscribes a link,
        // because Swift's weighted max-min is feasible by construction.
        let net = random_network(7, 5, 12);
        let mut xwi = XwiFluid::with_defaults(net.clone());
        for _ in 0..100 {
            xwi.step_in_place();
            assert!(net.is_feasible(xwi.rates(), 1e-6));
        }
    }

    #[test]
    fn dgd_can_overshoot_but_converges_with_small_step() {
        let net = parking_lot(1.0);
        let oracle = Oracle::new().solve(&net);
        let mut dgd = DgdFluid::new(net.clone(), DgdParams { gamma: 0.05 }, 1.0);
        let mut oversubscribed = false;
        for _ in 0..500 {
            dgd.step_in_place();
            if !net.is_feasible(dgd.rates(), 1e-6) {
                oversubscribed = true;
            }
        }
        // With a fresh start DGD transits through infeasible allocations.
        assert!(
            oversubscribed,
            "DGD never oversubscribed — unexpected for a cold start"
        );
        let rates = dgd.rates();
        for (x, t) in rates.iter().zip(oracle.rates.iter()) {
            assert!(close(*x, *t, 0.05), "{rates:?} vs {:?}", oracle.rates);
        }
    }

    #[test]
    fn dgd_diverges_or_oscillates_with_large_step() {
        // The brittleness the paper describes: a too-large γ keeps DGD from
        // settling. We check it has not converged after many iterations.
        let net = parking_lot(1.0);
        let oracle = Oracle::new().solve(&net);
        let mut dgd = DgdFluid::new(net, DgdParams { gamma: 50.0 }, 1.0);
        let converged = dgd.iterations_to_reach(&oracle.rates, 0.01, 2_000);
        assert!(
            converged.is_none(),
            "huge step size should not converge cleanly"
        );
    }

    #[test]
    fn rcp_star_converges_to_max_min_for_alpha_one_single_link() {
        // On a single link, RCP*'s advertised-rate allocation equals the
        // proportional-fair (equal) split.
        let mut net = FluidNetwork::new();
        let l = net.add_link(10.0);
        for _ in 0..4 {
            net.add_simple_flow(vec![l], LogUtility::new());
        }
        let mut rcp = RcpStarFluid::with_defaults(net);
        for _ in 0..300 {
            rcp.step_in_place();
        }
        for &r in rcp.rates() {
            assert!(close(r, 2.5, 0.02), "{:?}", rcp.rates());
        }
    }

    #[test]
    fn xwi_converges_faster_than_dgd_on_random_networks() {
        // The headline claim, in fluid form: median speed-up > 1.
        let mut xwi_wins = 0;
        let mut total = 0;
        for seed in 0..10 {
            let net = random_network(seed, 5, 10);
            let oracle = Oracle::new().solve(&net);
            if !oracle.converged {
                continue;
            }
            let mut xwi = XwiFluid::with_defaults(net.clone());
            let mut dgd = DgdFluid::with_defaults(net.clone());
            let xi = xwi.iterations_to_reach(&oracle.rates, 0.05, 5_000);
            let di = dgd.iterations_to_reach(&oracle.rates, 0.05, 5_000);
            total += 1;
            match (xi, di) {
                (Some(x), Some(d)) if x <= d => xwi_wins += 1,
                (Some(_), None) => xwi_wins += 1,
                _ => {}
            }
        }
        assert!(total >= 8, "oracle failed too often");
        assert!(
            xwi_wins * 2 > total,
            "xWI won only {xwi_wins}/{total} comparisons"
        );
    }

    #[test]
    fn xwi_fixed_point_satisfies_kkt() {
        // Run long enough to reach (approximately) the fixed point and verify
        // it solves the NUM problem — the paper's central theoretical claim.
        for seed in [1, 3, 9] {
            let net = random_network(seed, 4, 8);
            let mut xwi = XwiFluid::with_defaults(net.clone());
            for _ in 0..3_000 {
                xwi.step_in_place();
            }
            let res = crate::kkt::kkt_residuals(&net, xwi.rates(), xwi.prices());
            assert!(
                res.within(0.05),
                "seed {seed}: xWI fixed point violates KKT: {res:?}"
            );
        }
    }

    #[test]
    fn xwi_warm_start_after_flow_churn_is_fast() {
        // After a flow arrival, xWI restarted with the old prices should
        // typically converge in fewer iterations than from a cold start.
        // Individual instances can go either way (the new flow may move the
        // equilibrium far from the old prices), so the claim is aggregate:
        // warm starts win a majority of instances and in total iterations.
        let mut wins = 0usize;
        let mut total = 0usize;
        let (mut warm_total, mut cold_total) = (0usize, 0usize);
        for seed in 0..10u64 {
            let mut net = random_network(seed, 4, 8);
            let mut xwi = XwiFluid::with_defaults(net.clone());
            for _ in 0..500 {
                xwi.step_in_place();
            }
            // Add one flow on links 0 and 1.
            net.add_simple_flow(vec![0, 1], LogUtility::new());
            let oracle = Oracle::new().solve(&net);
            if !oracle.converged {
                continue;
            }

            let mut warm = xwi.clone();
            warm.replace_flows(net.clone());
            let warm_iters = warm.iterations_to_reach(&oracle.rates, 0.05, 5_000);

            let mut cold = XwiFluid::with_defaults(net.clone());
            let cold_iters = cold.iterations_to_reach(&oracle.rates, 0.05, 5_000);

            let (Some(w), Some(c)) = (warm_iters, cold_iters) else {
                panic!(
                    "seed {seed}: xWI failed to converge: warm={warm_iters:?} cold={cold_iters:?}"
                );
            };
            total += 1;
            if w <= c {
                wins += 1;
            }
            warm_total += w;
            cold_total += c;
        }
        assert!(total >= 8, "oracle failed too often ({total}/10)");
        assert!(
            wins * 2 > total,
            "warm start won only {wins}/{total} instances"
        );
        assert!(
            warm_total < cold_total,
            "warm starts used {warm_total} total iterations vs {cold_total} cold"
        );
    }

    #[test]
    fn empty_network_steps_do_not_panic() {
        let mut net = FluidNetwork::new();
        net.add_link(10.0);
        let mut xwi = XwiFluid::with_defaults(net.clone());
        xwi.step_in_place();
        assert!(xwi.rates().is_empty());
        assert_eq!(xwi.iteration(), 1);
        let mut dgd = DgdFluid::with_defaults(net.clone());
        dgd.step_in_place();
        let mut rcp = RcpStarFluid::with_defaults(net);
        rcp.step_in_place();
    }

    #[test]
    fn alpha_two_fixed_point_matches_oracle() {
        let mut net = FluidNetwork::new();
        let l0 = net.add_link(10.0);
        let l1 = net.add_link(10.0);
        net.add_simple_flow(vec![l0, l1], AlphaFair::new(2.0));
        net.add_simple_flow(vec![l0], AlphaFair::new(2.0));
        net.add_simple_flow(vec![l1], AlphaFair::new(2.0));
        let oracle = Oracle::new().solve(&net);
        let mut xwi = XwiFluid::with_defaults(net);
        let iters = xwi.iterations_to_reach(&oracle.rates, 0.02, 2_000);
        assert!(iters.is_some(), "xWI did not reach the α=2 oracle");
    }
}
