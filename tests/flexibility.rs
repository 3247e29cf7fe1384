//! Integration tests of NUMFabric's *flexibility* claims (§6.3): the same
//! mechanism realizes different operator objectives — α-fairness at several
//! α, FCT minimization, bandwidth functions — just by changing the utility
//! functions handed to the flows.

use numfabric::baselines::{pfabric_network, PfabricAgent, PfabricConfig};
use numfabric::core::{install_numfabric, numfabric_network, NumFabricAgent, NumFabricConfig};
use numfabric::num::bandwidth_function::{single_link_allocation, BandwidthFunction};
use numfabric::num::utility::{AlphaFair, BandwidthFunctionUtility, FctUtility};
use numfabric::num::{FluidNetwork, Oracle};
use numfabric::sim::queue::StfqQueue;
use numfabric::sim::topology::{LeafSpineConfig, NodeKind, Topology};
use numfabric::sim::{Network, SimDuration, SimTime};

/// Parking-lot scenario at a given α: the long flow's share should match the
/// fluid oracle's prediction (which moves from 1/3 toward 1/2 as α grows).
fn parking_lot_share(alpha: f64) -> (f64, f64) {
    let topo = Topology::leaf_spine(&LeafSpineConfig::small(8, 2, 2));
    let config = NumFabricConfig::paper_default();
    let mut net = numfabric_network(topo, &config);
    let hosts: Vec<_> = net.topology().hosts().to_vec();
    // Long flow shares its source NIC with flow B and its destination NIC
    // with flow C (two bottlenecks).
    let long = net.add_flow(
        hosts[0],
        hosts[5],
        None,
        SimTime::ZERO,
        0,
        None,
        Box::new(NumFabricAgent::new(config.clone(), AlphaFair::new(alpha))),
    );
    let _b = net.add_flow(
        hosts[0],
        hosts[6],
        None,
        SimTime::ZERO,
        1,
        None,
        Box::new(NumFabricAgent::new(config.clone(), AlphaFair::new(alpha))),
    );
    let _c = net.add_flow(
        hosts[1],
        hosts[5],
        None,
        SimTime::ZERO,
        2,
        None,
        Box::new(NumFabricAgent::new(config.clone(), AlphaFair::new(alpha))),
    );
    net.run_until(SimTime::from_millis(8));

    let mut fluid = FluidNetwork::new();
    let l0 = fluid.add_link(10.0);
    let l1 = fluid.add_link(10.0);
    fluid.add_simple_flow(vec![l0, l1], AlphaFair::new(alpha));
    fluid.add_simple_flow(vec![l0], AlphaFair::new(alpha));
    fluid.add_simple_flow(vec![l1], AlphaFair::new(alpha));
    let oracle = Oracle::new().solve(&fluid);

    (net.flow_rate_estimate(long) / 1e9, oracle.rates[0])
}

#[test]
fn alpha_fairness_tracks_the_oracle_across_alphas() {
    for &alpha in &[0.5, 1.0, 2.0] {
        let (measured, expected) = parking_lot_share(alpha);
        assert!(
            (measured - expected).abs() / expected < 0.25,
            "alpha={alpha}: measured {measured:.2} Gbps vs oracle {expected:.2} Gbps"
        );
    }
}

#[test]
fn higher_alpha_is_more_fair_to_the_long_flow() {
    let (low, _) = parking_lot_share(0.5);
    let (high, _) = parking_lot_share(2.0);
    assert!(
        high > low,
        "alpha=2 share ({high:.2}) should exceed alpha=0.5 share ({low:.2})"
    );
}

#[test]
fn fct_objective_is_competitive_with_pfabric_on_a_small_mix() {
    // A tiny version of Fig. 7's point: a mix of short and long flows to one
    // destination; NUMFabric with the FCT utility should finish the short
    // flows within a small factor of pFabric.
    let sizes: &[u64] = &[30_000, 50_000, 80_000, 5_000_000];

    let run = |use_pfabric: bool| -> Vec<f64> {
        let topo = Topology::leaf_spine(&LeafSpineConfig::small(8, 2, 2));
        let mut net;
        let mut ids = Vec::new();
        if use_pfabric {
            net = pfabric_network(topo, &PfabricConfig::default());
            let hosts: Vec<_> = net.topology().hosts().to_vec();
            for (i, &size) in sizes.iter().enumerate() {
                ids.push(net.add_flow(
                    hosts[i],
                    hosts[4],
                    Some(size),
                    SimTime::ZERO,
                    i,
                    None,
                    Box::new(PfabricAgent::new(PfabricConfig::default())),
                ));
            }
        } else {
            let config = NumFabricConfig::slowed_down(2.0)
                .with_bdp_initial_window(10e9, SimDuration::from_micros(16));
            net = numfabric_network(topo, &config);
            let hosts: Vec<_> = net.topology().hosts().to_vec();
            for (i, &size) in sizes.iter().enumerate() {
                ids.push(net.add_flow(
                    hosts[i],
                    hosts[4],
                    Some(size),
                    SimTime::ZERO,
                    i,
                    None,
                    Box::new(NumFabricAgent::new(
                        config.clone(),
                        FctUtility::new(size as f64),
                    )),
                ));
            }
        }
        net.run_until(SimTime::from_millis(60));
        ids.iter()
            .map(|&f| {
                net.flow_stats(f)
                    .fct()
                    .expect("flow finished")
                    .as_secs_f64()
            })
            .collect()
    };

    let numfabric = run(false);
    let pfabric = run(true);
    // Short flows (first three) should be within 4x of pFabric's FCT; the
    // paper reports 4-20% on the full workload, but at this tiny scale we
    // only assert the order of magnitude.
    for i in 0..3 {
        assert!(
            numfabric[i] < 4.0 * pfabric[i] + 200e-6,
            "short flow {i}: NUMFabric {:.0} us vs pFabric {:.0} us",
            numfabric[i] * 1e6,
            pfabric[i] * 1e6
        );
    }
}

#[test]
fn bandwidth_functions_realize_the_bwe_allocation_at_25gbps() {
    let mut topo = Topology::new();
    let src1 = topo.add_node(NodeKind::Host, "src1");
    let src2 = topo.add_node(NodeKind::Host, "src2");
    let sw = topo.add_node(NodeKind::Leaf, "sw");
    let dst = topo.add_node(NodeKind::Host, "dst");
    let delay = SimDuration::from_micros(2);
    topo.add_duplex_link(src1, sw, 50e9, delay);
    topo.add_duplex_link(src2, sw, 50e9, delay);
    topo.add_duplex_link(sw, dst, 25e9, delay);

    let config = NumFabricConfig::paper_default();
    let mut net = Network::new(topo.clone(), |_| Box::new(StfqQueue::with_default_buffer()));
    install_numfabric(&mut net, &config);
    let bwf1 = BandwidthFunction::paper_flow1();
    let bwf2 = BandwidthFunction::paper_flow2();
    let f1 = net.add_flow_on_route(
        src1,
        dst,
        &topo.route_via(&[src1, sw, dst]),
        None,
        SimTime::ZERO,
        Box::new(NumFabricAgent::new(
            config.clone(),
            BandwidthFunctionUtility::new(bwf1.clone()),
        )),
    );
    let f2 = net.add_flow_on_route(
        src2,
        dst,
        &topo.route_via(&[src2, sw, dst]),
        None,
        SimTime::ZERO,
        Box::new(NumFabricAgent::new(
            config.clone(),
            BandwidthFunctionUtility::new(bwf2.clone()),
        )),
    );
    net.run_until(SimTime::from_millis(10));

    let (expected, _) = single_link_allocation(&[bwf1, bwf2], 25.0);
    let measured = [
        net.flow_rate_estimate(f1) / 1e9,
        net.flow_rate_estimate(f2) / 1e9,
    ];
    for i in 0..2 {
        assert!(
            (measured[i] - expected[i]).abs() < 2.0,
            "flow {i}: measured {:.2} Gbps vs expected {:.2} Gbps",
            measured[i],
            expected[i]
        );
    }
    // The paper's headline: 15 / 10 split at 25 Gbps.
    assert!(measured[0] > measured[1]);
}
