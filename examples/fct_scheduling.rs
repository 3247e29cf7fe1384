//! Flow-completion-time minimization (the workload the paper's introduction
//! motivates): with the FCT utility `U(x) = x^{1-ε}/((1-ε)·size)`, NUMFabric
//! approximates Shortest-Flow-First — short flows cut ahead of elephants
//! without any switch configuration changes, just a different utility
//! function at the hosts.
//!
//! ```text
//! cargo run --release --example fct_scheduling
//! ```

use numfabric::core::{numfabric_network, NumFabricAgent, NumFabricConfig};
use numfabric::num::utility::FctUtility;
use numfabric::sim::topology::{LeafSpineConfig, Topology};
use numfabric::sim::{SimDuration, SimTime};
use numfabric::workloads::empty_network_fct;

fn main() {
    let topo = Topology::leaf_spine(&LeafSpineConfig::small(8, 2, 2));
    // §6.3: for the small-α FCT objective NUMFabric is run 2× slowed down and
    // short flows get a BDP-sized initial window (mimicking pFabric).
    let config = NumFabricConfig::slowed_down(2.0)
        .with_bdp_initial_window(10e9, SimDuration::from_micros(16));
    let mut net = numfabric_network(topo.clone(), &config);
    let hosts: Vec<_> = net.topology().hosts().to_vec();

    // One 20 MB elephant and a train of 30 kB mice, all into the same host.
    let sizes: Vec<(u64, &str)> = vec![
        (20_000_000, "elephant"),
        (30_000, "mouse-1"),
        (30_000, "mouse-2"),
        (30_000, "mouse-3"),
    ];
    let mut flows = Vec::new();
    for (i, &(size, label)) in sizes.iter().enumerate() {
        let start = if label == "elephant" {
            SimTime::ZERO
        } else {
            SimTime::from_millis(2 + i as u64)
        };
        let id = net.add_flow(
            hosts[i],
            hosts[4],
            Some(size),
            start,
            i,
            None,
            Box::new(NumFabricAgent::new(
                config.clone(),
                FctUtility::new(size as f64),
            )),
        );
        flows.push((id, size, label, start));
    }
    net.run_until(SimTime::from_millis(60));

    println!(
        "{:<10} {:>10} {:>12} {:>12} {:>10}",
        "flow", "size", "fct", "ideal", "slowdown"
    );
    for (id, size, label, _) in &flows {
        let fct = net.flow_stats(*id).fct().expect("flow completed");
        let ideal = empty_network_fct(&topo, net.route(net.flow_spec(*id).route), *size);
        println!(
            "{:<10} {:>8} B {:>10.1} us {:>10.1} us {:>9.2}x",
            label,
            size,
            fct.as_micros_f64(),
            ideal.as_micros_f64(),
            fct.as_secs_f64() / ideal.as_secs_f64()
        );
    }
    println!(
        "\nThe mice finish within a small factor of their ideal FCT even though a 20 MB elephant\n\
         is using the same destination link — the FCT utility gives them near-strict priority."
    );
}
