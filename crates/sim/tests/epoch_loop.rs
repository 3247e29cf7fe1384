//! `run_until` at the edges of a run.
//!
//! A run ends wherever the caller says, not where the next event falls:
//! steps that end inside a serialization, inside a propagation delay or
//! across several of each leave the rest of the work pending for the next
//! call, and a run that ends just before, exactly at or just after a link
//! change's instant leaves the change to apply in its place. Splitting one
//! `run_until` into many must therefore change no byte.
//!
//! Fabric: `LeafSpineConfig::small(8, 2, 2)`, 2 µs per hop.

use numfabric_sim::queue::DropTailFifo;
use numfabric_sim::reference::SimpleWindowAgent;
use numfabric_sim::topology::{LeafSpineConfig, Topology};
use numfabric_sim::{LinkChange, Network, SimTime};

/// Per-flow `(packets sent, bytes delivered, drops, FCT)`, plus the
/// event count, of four cross-rack flows.
type Report = (Vec<(u64, u64, u64, Option<u64>)>, u64);

const UNTIL_NS: u64 = 150_000;

// The instants of the impaired run's link changes: flow 0's leaf-to-spine
// hop flaps (its flows reroute and back) while flow 1's uplink drops to a
// quarter of its speed.
const DOWN_NS: u64 = 20_000;
const SPEED_NS: u64 = 45_000;
const UP_NS: u64 = 50_000;

/// Run the four flows, with the link changes if `impaired`, through one
/// `run_until` call per instant of `stops` (in ns, ascending), then one to
/// `UNTIL_NS`.
fn report(stops: &[u64], impaired: bool) -> Report {
    let topo = Topology::leaf_spine(&LeafSpineConfig::small(8, 2, 2));
    let mut net = Network::new(topo, |_| Box::new(DropTailFifo::with_default_buffer()));
    let hosts = net.topology().hosts().to_vec();
    for i in 0..4 {
        net.add_flow(
            hosts[i],
            hosts[7 - i],
            Some(50_000 + i as u64 * 10_000),
            SimTime::from_micros(i as u64 * 10),
            i,
            None,
            Box::new(SimpleWindowAgent::new(8)),
        );
    }
    if impaired {
        let hop = |flow, hop| net.route(net.flow_spec(flow).route)[hop];
        let (spine_link, uplink) = (hop(0, 1), hop(1, 0));
        let at = SimTime::from_nanos;
        net.schedule_link_change(at(DOWN_NS), spine_link, LinkChange::Down);
        net.schedule_link_change(at(SPEED_NS), uplink, LinkChange::Speed(2.5e9));
        net.schedule_link_change(at(UP_NS), spine_link, LinkChange::Up);
    }
    for &t in stops.iter().chain([&UNTIL_NS]) {
        net.run_until(SimTime::from_nanos(t));
    }
    let flows = (0..net.num_flows())
        .map(|f| {
            let s = net.flow_stats(f);
            let fct = s.fct().map(|d| d.as_nanos());
            (s.packets_sent, s.bytes_delivered, s.packets_dropped, fct)
        })
        .collect();
    (flows, net.events_processed())
}

/// Every multiple of `step_ns` below `UNTIL_NS`.
fn steps(step_ns: u64) -> Vec<u64> {
    (1..)
        .map(|k| k * step_ns)
        .take_while(|&t| t < UNTIL_NS)
        .collect()
}

#[test]
fn splitting_run_until_changes_no_byte() {
    // Mid-transfer: some flows have finished, some have not.
    let whole = report(&[], false);
    assert!(whole.0.iter().any(|f| f.3.is_some()) && whole.0.iter().any(|f| f.3.is_none()));
    // Steps shorter than one hop's 2 µs end runs between a packet's send
    // and its arrival; longer ones end them several hops later.
    for step_ns in [733, 7_919] {
        assert_eq!(
            report(&steps(step_ns), false),
            whole,
            "report differs at step {step_ns} ns"
        );
    }
}

#[test]
fn splitting_run_until_at_link_change_instants_changes_no_byte() {
    let whole = report(&[], true);
    assert_ne!(whole, report(&[], false), "the link changes change the run");
    let changes = [DOWN_NS, SPEED_NS, UP_NS];
    let mut cases: Vec<(String, Vec<u64>)> = Vec::new();
    for (name, offset) in [("just before", -1), ("exactly at", 0), ("just after", 1)] {
        let stops = changes.iter().map(|&g| g.saturating_add_signed(offset));
        cases.push((name.to_string(), stops.collect()));
    }
    let mut edges: Vec<u64> = changes.iter().flat_map(|&g| [g - 1, g, g + 1]).collect();
    edges.sort_unstable();
    cases.push(("at all three edges".to_string(), edges));
    for step_ns in [733, 7_919] {
        cases.push((format!("every {step_ns} ns"), steps(step_ns)));
    }
    for (case, stops) in cases {
        assert_eq!(report(&stops, true), whole, "report differs {case}");
    }
}
