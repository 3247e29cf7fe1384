//! `run_until` at the edges of a run.
//!
//! A run ends wherever the caller says, not where the next event falls:
//! steps that end inside a serialization, inside a propagation delay or
//! across several of each leave the rest of the work pending for the next
//! call. Splitting one `run_until` into many must therefore change no byte.
//!
//! Fabric: `LeafSpineConfig::small(8, 2, 2)`, 2 µs per hop.

use numfabric_sim::queue::DropTailFifo;
use numfabric_sim::reference::SimpleWindowAgent;
use numfabric_sim::topology::{LeafSpineConfig, Topology};
use numfabric_sim::{Network, SimDuration, SimTime};

/// Per-flow `(packets sent, bytes delivered, drops, FCT)`, plus the
/// event count, of four cross-rack flows run to `until` in `run_until`
/// calls `step_ns` apart.
type Report = (Vec<(u64, u64, u64, Option<u64>)>, u64);

fn report(until: SimTime, step_ns: u64) -> Report {
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
    let mut t = SimTime::ZERO;
    while t < until {
        t = until.min(t + SimDuration::from_nanos(step_ns));
        net.run_until(t);
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

#[test]
fn splitting_run_until_changes_no_byte_on_either_executor() {
    // Mid-transfer: some flows have finished, some have not.
    let until = SimTime::from_micros(150);
    let whole = report(until, 150_000);
    assert!(whole.0.iter().any(|f| f.3.is_some()) && whole.0.iter().any(|f| f.3.is_none()));
    // Steps shorter than one hop's 2 µs end runs between a packet's send
    // and its arrival; longer ones end them several hops later.
    for step_ns in [733, 7_919] {
        assert_eq!(
            report(until, step_ns),
            whole,
            "report differs at step {step_ns} ns"
        );
    }
}
