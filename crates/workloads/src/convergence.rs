//! Convergence measurement (§6.1).
//!
//! The paper defines the convergence time of a network event as "the time it
//! takes for the rates of at least 95% of the flows to reach within 10% of
//! the optimal NUM allocation", holding for at least 5 ms, with the rate
//! filter's rise time subtracted. This module provides:
//!
//! * [`fluid_instance`] — map a set of packet-simulator flows onto a fluid
//!   NUM instance (Gbps capacities) so the [`Oracle`] can compute the target
//!   allocation;
//! * [`ConvergenceCriterion`] / [`measure_convergence`] — drive the packet
//!   simulation forward, polling destination-side rate estimates until the
//!   criterion holds.

use numfabric_num::utility::UtilityRef;
use numfabric_num::{FluidNetwork, FluidNetworkBuilder, Oracle};
use numfabric_sim::network::Network;
use numfabric_sim::topology::{LinkId, Topology};
use numfabric_sim::tracer::EwmaRateTracer;
use numfabric_sim::{FlowId, SimDuration, SimTime};

/// Build a fluid NUM instance for a set of flows on a packet topology.
///
/// Link capacities are converted to Gbps (the unit all utility functions in
/// this repository operate in). Only links actually traversed by at least one
/// flow are included, keeping the oracle solve small; the mapping is interned
/// by [`FluidNetworkBuilder`] (so it works over any topology — leaf-spine,
/// fat-tree, oversubscribed or custom) and the returned instance's flows are
/// in the same order as `flows`.
pub fn fluid_instance(topo: &Topology, flows: &[(Vec<LinkId>, UtilityRef)]) -> FluidNetwork {
    let mut builder = FluidNetworkBuilder::new();
    for (route, utility) in flows {
        builder.add_flow_on(
            route
                .iter()
                .map(|&l| (l, topo.links()[l].capacity_bps / 1e9)),
            utility.clone(),
        );
    }
    builder.finish()
}

/// Solve the NUM instance for `flows` and return the optimal rate of each, in
/// bits per second (same order as the input).
pub fn oracle_rates_bps(topo: &Topology, flows: &[(Vec<LinkId>, UtilityRef)]) -> Vec<f64> {
    let net = fluid_instance(topo, flows);
    let solution = Oracle::with_tolerance(1e-4).solve(&net);
    solution.rates.iter().map(|r| r * 1e9).collect()
}

/// The convergence criterion of §6.1.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ConvergenceCriterion {
    /// Fraction of flows that must be close to their target (0.95).
    pub fraction: f64,
    /// Relative rate tolerance (0.10).
    pub tolerance: f64,
    /// How long the condition must hold before convergence is declared (5 ms).
    pub hold: SimDuration,
    /// How often to poll the rate estimates.
    pub poll_interval: SimDuration,
    /// The measurement filter's rise time, subtracted from the result
    /// (≈184 µs for the paper's 80 µs EWMA).
    pub filter_rise_time: SimDuration,
}

impl Default for ConvergenceCriterion {
    fn default() -> Self {
        Self {
            fraction: 0.95,
            tolerance: 0.10,
            hold: SimDuration::from_millis(5),
            poll_interval: SimDuration::from_micros(10),
            filter_rise_time: EwmaRateTracer::paper_default().rise_time(),
        }
    }
}

/// The outcome of a convergence measurement.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ConvergenceOutcome {
    /// Convergence time (rise time already subtracted), if the criterion was
    /// met within the allowed window.
    pub convergence_time: Option<SimDuration>,
    /// Simulation time at which the measurement ended.
    pub measured_until: SimTime,
}

/// Run `net` forward until the rates of `flows` satisfy the criterion with
/// respect to `targets_bps`, or `max_wait` elapses.
///
/// The convergence time is measured from the current simulation time (the
/// caller should invoke this immediately after injecting the network event)
/// and the filter rise time is subtracted, exactly as in the paper.
///
/// # Panics
/// Panics if `flows` and `targets_bps` have different lengths or are empty.
pub fn measure_convergence(
    net: &mut Network,
    flows: &[FlowId],
    targets_bps: &[f64],
    criterion: &ConvergenceCriterion,
    max_wait: SimDuration,
) -> ConvergenceOutcome {
    assert_eq!(flows.len(), targets_bps.len(), "one target per flow");
    assert!(!flows.is_empty(), "need at least one flow to measure");
    let event_time = net.now();
    let deadline = event_time + max_wait;

    let satisfied = |net: &Network| -> bool {
        let ok = flows
            .iter()
            .zip(targets_bps.iter())
            .filter(|(&f, &t)| {
                let rate = net.flow_rate_estimate(f);
                (rate - t).abs() <= criterion.tolerance * t.max(1.0)
            })
            .count();
        ok as f64 >= criterion.fraction * flows.len() as f64
    };

    let mut first_satisfied: Option<SimTime> = None;
    loop {
        let now = net.now();
        if satisfied(net) {
            let since = *first_satisfied.get_or_insert(now);
            if now.duration_since(since) >= criterion.hold {
                let raw = since.duration_since(event_time);
                return ConvergenceOutcome {
                    convergence_time: Some(raw.saturating_sub(criterion.filter_rise_time)),
                    measured_until: now,
                };
            }
        } else {
            first_satisfied = None;
            if now >= deadline {
                return ConvergenceOutcome {
                    convergence_time: None,
                    measured_until: now,
                };
            }
        }
        // Keep simulating: past the deadline we only continue if we are inside
        // a promising hold window.
        if now >= deadline + criterion.hold {
            return ConvergenceOutcome {
                convergence_time: None,
                measured_until: now,
            };
        }
        net.run_for(criterion.poll_interval);
    }
}

/// Summary statistics over a set of convergence times.
#[derive(Debug, Clone, PartialEq)]
pub struct ConvergenceStats {
    /// Number of events that converged.
    pub converged: usize,
    /// Number of events measured.
    pub total: usize,
    /// Median convergence time among converged events.
    pub median: Option<SimDuration>,
    /// 95th-percentile convergence time among converged events.
    pub p95: Option<SimDuration>,
}

/// Compute median / p95 statistics from per-event convergence times.
pub fn convergence_stats(times: &[Option<SimDuration>]) -> ConvergenceStats {
    let mut converged: Vec<SimDuration> = times.iter().filter_map(|t| *t).collect();
    converged.sort_unstable();
    let pick = |q: f64| -> Option<SimDuration> {
        if converged.is_empty() {
            None
        } else {
            let idx = ((converged.len() as f64 - 1.0) * q).round() as usize;
            Some(converged[idx])
        }
    };
    ConvergenceStats {
        converged: converged.len(),
        total: times.len(),
        median: pick(0.5),
        p95: pick(0.95),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use numfabric_num::utility::LogUtility;
    use numfabric_sim::queue::DropTailFifo;
    use numfabric_sim::reference::SimpleWindowAgent;
    use numfabric_sim::topology::LeafSpineConfig;
    use std::sync::Arc;

    fn topo() -> Topology {
        Topology::leaf_spine(&LeafSpineConfig::small(8, 2, 2))
    }

    #[test]
    fn fluid_instance_only_includes_used_links_and_converts_units() {
        let topo = topo();
        let hosts = topo.hosts().to_vec();
        let util: UtilityRef = Arc::new(LogUtility::new());
        let flows = vec![
            (topo.host_route(hosts[0], hosts[4], 0), util.clone()),
            (topo.host_route(hosts[1], hosts[4], 0), util.clone()),
        ];
        let fluid = fluid_instance(&topo, &flows);
        assert_eq!(fluid.num_flows(), 2);
        // Far fewer links than the full topology (only traversed ones).
        assert!(fluid.num_links() < topo.num_links());
        // Host links are 10 Gbps → 10.0 in fluid units.
        assert!(fluid
            .links()
            .iter()
            .any(|l| (l.capacity - 10.0).abs() < 1e-9));
        assert!(fluid
            .links()
            .iter()
            .any(|l| (l.capacity - 40.0).abs() < 1e-9));
    }

    #[test]
    fn oracle_rates_for_two_flows_sharing_a_nic_split_it() {
        let topo = topo();
        let hosts = topo.hosts().to_vec();
        let util: UtilityRef = Arc::new(LogUtility::new());
        let flows = vec![
            (topo.host_route(hosts[0], hosts[4], 0), util.clone()),
            (topo.host_route(hosts[1], hosts[4], 1), util.clone()),
        ];
        let rates = oracle_rates_bps(&topo, &flows);
        assert_eq!(rates.len(), 2);
        for r in &rates {
            assert!((r - 5e9).abs() < 5e7, "rates = {rates:?}");
        }
    }

    #[test]
    fn measure_convergence_reports_a_time_for_a_converging_system() {
        // Two fixed-window flows sharing a NIC reach a stable near-equal split
        // quickly; with targets set to the observed equilibrium the criterion
        // must trigger.
        let topo = topo();
        let hosts = topo.hosts().to_vec();
        let mut net = Network::new(topo, |_| Box::new(DropTailFifo::with_default_buffer()));
        let f0 = net.add_flow(
            hosts[0],
            hosts[4],
            None,
            SimTime::ZERO,
            0,
            None,
            Box::new(SimpleWindowAgent::new(8)),
        );
        let f1 = net.add_flow(
            hosts[1],
            hosts[4],
            None,
            SimTime::ZERO,
            0,
            None,
            Box::new(SimpleWindowAgent::new(8)),
        );
        let criterion = ConvergenceCriterion {
            hold: SimDuration::from_millis(1),
            ..Default::default()
        };
        let outcome = measure_convergence(
            &mut net,
            &[f0, f1],
            &[4.86e9, 4.86e9],
            &criterion,
            SimDuration::from_millis(20),
        );
        let t = outcome.convergence_time.expect("should converge");
        assert!(t < SimDuration::from_millis(10), "t = {t}");
    }

    #[test]
    fn measure_convergence_times_out_when_targets_are_wrong() {
        let topo = topo();
        let hosts = topo.hosts().to_vec();
        let mut net = Network::new(topo, |_| Box::new(DropTailFifo::with_default_buffer()));
        let f0 = net.add_flow(
            hosts[0],
            hosts[4],
            None,
            SimTime::ZERO,
            0,
            None,
            Box::new(SimpleWindowAgent::new(8)),
        );
        let criterion = ConvergenceCriterion {
            hold: SimDuration::from_millis(1),
            ..Default::default()
        };
        // Target of 1 Gbps is far from what the flow actually achieves.
        let outcome = measure_convergence(
            &mut net,
            &[f0],
            &[1e9],
            &criterion,
            SimDuration::from_millis(5),
        );
        assert!(outcome.convergence_time.is_none());
    }

    #[test]
    fn stats_pick_median_and_p95() {
        let times: Vec<Option<SimDuration>> = (1..=100)
            .map(|i| Some(SimDuration::from_micros(i * 10)))
            .chain(std::iter::once(None))
            .collect();
        let stats = convergence_stats(&times);
        assert_eq!(stats.total, 101);
        assert_eq!(stats.converged, 100);
        assert_eq!(stats.median, Some(SimDuration::from_micros(510)));
        assert_eq!(stats.p95, Some(SimDuration::from_micros(950)));
        let empty = convergence_stats(&[None, None]);
        assert_eq!(empty.converged, 0);
        assert!(empty.median.is_none());
    }
}
