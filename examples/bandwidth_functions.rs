//! Bandwidth functions (Google BwE-style policies, §2 and Fig. 2 of the
//! paper): an operator expresses "flow 1 has strict priority for its first
//! 10 Gbps, then flow 2 catches up at twice the slope" as two bandwidth
//! functions; NUMFabric realizes the induced allocation at every link speed
//! with no other changes.
//!
//! ```text
//! cargo run --release --example bandwidth_functions
//! ```

use numfabric::core::{install_numfabric, NumFabricAgent, NumFabricConfig};
use numfabric::num::bandwidth_function::{single_link_allocation, BandwidthFunction};
use numfabric::num::utility::BandwidthFunctionUtility;
use numfabric::sim::queue::StfqQueue;
use numfabric::sim::topology::{NodeKind, Topology};
use numfabric::sim::{Network, SimDuration, SimTime};

fn main() {
    let bwf1 = BandwidthFunction::paper_flow1();
    let bwf2 = BandwidthFunction::paper_flow2();

    println!("link_Gbps  flow1_expected  flow1_measured  flow2_expected  flow2_measured");
    for capacity_gbps in [10.0_f64, 25.0] {
        // Two senders, one switch, one receiver; the switch→receiver link is
        // the bottleneck of interest.
        let mut topo = Topology::new();
        let src1 = topo.add_node(NodeKind::Host, "src1");
        let src2 = topo.add_node(NodeKind::Host, "src2");
        let sw = topo.add_node(NodeKind::Leaf, "sw");
        let dst = topo.add_node(NodeKind::Host, "dst");
        let delay = SimDuration::from_micros(2);
        topo.add_duplex_link(src1, sw, 50e9, delay);
        topo.add_duplex_link(src2, sw, 50e9, delay);
        topo.add_duplex_link(sw, dst, capacity_gbps * 1e9, delay);

        let config = NumFabricConfig::paper_default();
        let mut net = Network::new(topo.clone(), |_| Box::new(StfqQueue::with_default_buffer()));
        install_numfabric(&mut net, &config);

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
        net.run_until(SimTime::from_millis(8));

        let (expected, _) = single_link_allocation(&[bwf1.clone(), bwf2.clone()], capacity_gbps);
        println!(
            "{:9.0}  {:14.2}  {:14.2}  {:14.2}  {:14.2}",
            capacity_gbps,
            expected[0],
            net.flow_rate_estimate(f1) / 1e9,
            expected[1],
            net.flow_rate_estimate(f2) / 1e9,
        );
    }
    println!(
        "\nAt 10 Gbps flow 1 takes the whole link (its strict-priority band); at 25 Gbps the\n\
         allocation is 15 / 10 Gbps — exactly the water-filling allocation of Figure 2."
    );
}
