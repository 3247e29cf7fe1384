//! Fluid-model network description shared by all solvers in this crate.
//!
//! A [`FluidNetwork`] is just a set of capacitated links and a set of flows,
//! each with a path (list of link indices) and a utility function. It is the
//! input to the weighted max-min solver, the NUM oracle and the fluid
//! iterations of xWI / DGD / RCP*.

use crate::utility::{Utility, UtilityRef};
use std::sync::Arc;

/// Index of a link in a [`FluidNetwork`].
pub type LinkId = usize;
/// Index of a flow in a [`FluidNetwork`].
pub type FlowId = usize;

/// A capacitated link in the fluid model.
#[derive(Debug, Clone, PartialEq)]
pub struct FluidLink {
    /// Capacity in the same units flows' rates are expressed in.
    pub capacity: f64,
}

impl FluidLink {
    /// A link with the given capacity.
    ///
    /// # Panics
    /// Panics if `capacity` is not finite or not strictly positive.
    pub fn new(capacity: f64) -> Self {
        assert!(
            capacity.is_finite() && capacity > 0.0,
            "link capacity must be positive and finite"
        );
        Self { capacity }
    }
}

/// A flow in the fluid model: a path through the network plus the utility
/// function describing the benefit it derives from bandwidth.
#[derive(Debug, Clone)]
pub struct FluidFlow {
    /// The links this flow traverses (order is irrelevant to the solvers).
    pub path: Vec<LinkId>,
    /// The flow's utility function.
    pub utility: UtilityRef,
}

impl FluidFlow {
    /// A single-path flow with the given path and utility.
    pub fn new(path: Vec<LinkId>, utility: impl Utility + 'static) -> Self {
        Self {
            path,
            utility: Arc::new(utility),
        }
    }

    /// A single-path flow from a shared utility handle.
    pub fn with_utility_ref(path: Vec<LinkId>, utility: UtilityRef) -> Self {
        Self { path, utility }
    }
}

/// A fluid-model network: links plus flows.
#[derive(Debug, Clone, Default)]
pub struct FluidNetwork {
    links: Vec<FluidLink>,
    flows: Vec<FluidFlow>,
}

impl FluidNetwork {
    /// An empty network.
    pub fn new() -> Self {
        Self::default()
    }

    /// Add a link with the given capacity; returns its [`LinkId`].
    pub fn add_link(&mut self, capacity: f64) -> LinkId {
        self.links.push(FluidLink::new(capacity));
        self.links.len() - 1
    }

    /// Add a flow; returns its [`FlowId`].
    ///
    /// # Panics
    /// Panics if the flow's path is empty or references an unknown link.
    pub fn add_flow(&mut self, flow: FluidFlow) -> FlowId {
        assert!(
            !flow.path.is_empty(),
            "a flow must traverse at least one link"
        );
        for &l in &flow.path {
            assert!(l < self.links.len(), "flow references unknown link {l}");
        }
        self.flows.push(flow);
        self.flows.len() - 1
    }

    /// Convenience: add a single-path flow with a utility.
    pub fn add_simple_flow(
        &mut self,
        path: Vec<LinkId>,
        utility: impl Utility + 'static,
    ) -> FlowId {
        self.add_flow(FluidFlow::new(path, utility))
    }

    /// The links.
    pub fn links(&self) -> &[FluidLink] {
        &self.links
    }

    /// The flows.
    pub fn flows(&self) -> &[FluidFlow] {
        &self.flows
    }

    /// Number of links.
    pub fn num_links(&self) -> usize {
        self.links.len()
    }

    /// Number of flows.
    pub fn num_flows(&self) -> usize {
        self.flows.len()
    }

    /// Link capacities as a vector (index = [`LinkId`]).
    pub fn capacities(&self) -> Vec<f64> {
        self.links.iter().map(|l| l.capacity).collect()
    }

    /// For each link, the flows that traverse it.
    pub fn flows_per_link(&self) -> Vec<Vec<FlowId>> {
        let mut per_link = vec![Vec::new(); self.links.len()];
        for (i, f) in self.flows.iter().enumerate() {
            for &l in &f.path {
                per_link[l].push(i);
            }
        }
        per_link
    }

    /// Total traffic placed on each link by the rate vector `rates`.
    ///
    /// # Panics
    /// Panics if `rates.len() != num_flows()`.
    pub fn link_loads(&self, rates: &[f64]) -> Vec<f64> {
        let mut loads = Vec::new();
        self.link_loads_into(rates, &mut loads);
        loads
    }

    /// Allocation-free variant of [`Self::link_loads`]: writes the loads into
    /// `loads`, resizing it to `num_links()`.
    ///
    /// # Panics
    /// Panics if `rates.len() != num_flows()`.
    pub fn link_loads_into(&self, rates: &[f64], loads: &mut Vec<f64>) {
        assert_eq!(rates.len(), self.flows.len(), "one rate per flow");
        loads.clear();
        loads.resize(self.links.len(), 0.0);
        for (i, f) in self.flows.iter().enumerate() {
            for &l in &f.path {
                loads[l] += rates[i];
            }
        }
    }

    /// Whether the rate vector respects every link capacity up to a relative
    /// tolerance `rel_tol`.
    pub fn is_feasible(&self, rates: &[f64], rel_tol: f64) -> bool {
        self.link_loads(rates)
            .iter()
            .zip(self.links.iter())
            .all(|(&load, link)| load <= link.capacity * (1.0 + rel_tol) + 1e-12)
    }

    /// The aggregate utility `Σ_i U_i(x_i)` of a rate vector.
    pub fn total_utility(&self, rates: &[f64]) -> f64 {
        assert_eq!(rates.len(), self.flows.len(), "one rate per flow");
        self.flows
            .iter()
            .zip(rates.iter())
            .map(|(f, &x)| f.utility.value(x))
            .sum()
    }

    /// Sum of the prices along flow `i`'s path.
    pub fn path_price(&self, prices: &[f64], i: FlowId) -> f64 {
        self.flows[i].path.iter().map(|&l| prices[l]).sum()
    }
}

/// Incrementally derives a [`FluidNetwork`] from flows routed over an
/// arbitrary external topology.
///
/// Packet-simulator link ids (or any other external link identifiers) are
/// interned into dense fluid [`LinkId`]s on first use, so the resulting
/// instance contains exactly the links some flow traverses — no assumption
/// about the fabric's layout (leaf-spine, fat-tree, oversubscribed, custom)
/// is made. This is the single mapping used by the convergence oracle and
/// the ideal fluid simulator in `numfabric-workloads`.
#[derive(Debug, Default)]
pub struct FluidNetworkBuilder {
    net: FluidNetwork,
    link_map: std::collections::HashMap<usize, LinkId>,
}

impl FluidNetworkBuilder {
    /// An empty builder.
    pub fn new() -> Self {
        Self::default()
    }

    /// Intern an external link, adding a fluid link with `capacity` the
    /// first time it is seen. Subsequent calls with the same `external` id
    /// return the existing fluid link (the capacity argument is ignored
    /// then — external ids are assumed stable).
    pub fn intern_link(&mut self, external: usize, capacity: f64) -> LinkId {
        *self
            .link_map
            .entry(external)
            .or_insert_with(|| self.net.add_link(capacity))
    }

    /// Add a flow whose path is given as `(external_link_id, capacity)`
    /// pairs; links are interned as needed. Returns the flow's id (flows are
    /// in insertion order, matching the caller's flow list).
    pub fn add_flow_on(
        &mut self,
        path: impl IntoIterator<Item = (usize, f64)>,
        utility: UtilityRef,
    ) -> FlowId {
        let path: Vec<LinkId> = path
            .into_iter()
            .map(|(external, capacity)| self.intern_link(external, capacity))
            .collect();
        self.net
            .add_flow(FluidFlow::with_utility_ref(path, utility))
    }

    /// Number of distinct external links interned so far.
    pub fn num_links(&self) -> usize {
        self.link_map.len()
    }

    /// Finish building and return the fluid network.
    pub fn finish(self) -> FluidNetwork {
        self.net
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::utility::LogUtility;

    fn two_link_net() -> FluidNetwork {
        let mut net = FluidNetwork::new();
        let a = net.add_link(10.0);
        let b = net.add_link(5.0);
        net.add_simple_flow(vec![a], LogUtility::new());
        net.add_simple_flow(vec![a, b], LogUtility::new());
        net.add_simple_flow(vec![b], LogUtility::new());
        net
    }

    #[test]
    fn builds_and_indexes_links_and_flows() {
        let net = two_link_net();
        assert_eq!(net.num_links(), 2);
        assert_eq!(net.num_flows(), 3);
        assert_eq!(net.capacities(), vec![10.0, 5.0]);
        let per_link = net.flows_per_link();
        assert_eq!(per_link[0], vec![0, 1]);
        assert_eq!(per_link[1], vec![1, 2]);
    }

    #[test]
    fn link_loads_and_feasibility() {
        let net = two_link_net();
        let rates = vec![4.0, 2.0, 3.0];
        assert_eq!(net.link_loads(&rates), vec![6.0, 5.0]);
        assert!(net.is_feasible(&rates, 1e-9));
        let too_much = vec![9.0, 2.0, 4.0];
        assert!(!net.is_feasible(&too_much, 1e-9));
    }

    #[test]
    fn path_price_sums_along_path() {
        let net = two_link_net();
        let prices = vec![0.25, 1.5];
        assert_eq!(net.path_price(&prices, 0), 0.25);
        assert_eq!(net.path_price(&prices, 1), 1.75);
        assert_eq!(net.path_price(&prices, 2), 1.5);
    }

    #[test]
    fn total_utility_sums_logs() {
        let net = two_link_net();
        let rates = vec![1.0, std::f64::consts::E, 1.0];
        assert!((net.total_utility(&rates) - 1.0).abs() < 1e-12);
    }

    #[test]
    #[should_panic]
    fn rejects_flow_with_unknown_link() {
        let mut net = FluidNetwork::new();
        net.add_link(1.0);
        net.add_simple_flow(vec![3], LogUtility::new());
    }

    #[test]
    #[should_panic]
    fn rejects_empty_path() {
        let mut net = FluidNetwork::new();
        net.add_link(1.0);
        net.add_simple_flow(vec![], LogUtility::new());
    }

    #[test]
    #[should_panic]
    fn rejects_nonpositive_capacity() {
        FluidLink::new(0.0);
    }

    #[test]
    fn builder_interns_external_links_once() {
        let mut b = FluidNetworkBuilder::new();
        let u: UtilityRef = Arc::new(LogUtility::new());
        // Two flows sharing external link 17 (capacity 10), one private link.
        let f0 = b.add_flow_on([(17, 10.0), (40, 5.0)], u.clone());
        let f1 = b.add_flow_on([(17, 10.0)], u.clone());
        assert_eq!((f0, f1), (0, 1));
        assert_eq!(b.num_links(), 2);
        let net = b.finish();
        assert_eq!(net.num_links(), 2);
        assert_eq!(net.num_flows(), 2);
        // The shared link carries both flows.
        let per_link = net.flows_per_link();
        assert!(per_link.iter().any(|fs| fs == &vec![0, 1]));
        // Capacity recorded from first sighting.
        assert!(net
            .links()
            .iter()
            .any(|l| (l.capacity - 10.0).abs() < 1e-12));
        assert!(net.links().iter().any(|l| (l.capacity - 5.0).abs() < 1e-12));
    }
}
