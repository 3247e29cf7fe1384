//! The epoch loop at the edges of a stretch.
//!
//! A stretch (the span `run_until` covers between sync points) ends
//! wherever the caller says, not where an epoch would: boundary traffic
//! produced before the end but due after it must wait, with the
//! coordinator, for the next stretch. Splitting one `run_until` into many
//! must therefore change no byte, on the calling thread and on epoch
//! workers alike. And a worker whose agent panics must surface as a named
//! panic, never as a coordinator waiting forever for its reply.
//!
//! Fabric: `LeafSpineConfig::small(8, 2, 2)`, 2 µs per hop, so the
//! lookahead of any partitioning is 2 µs.

use numfabric_sim::queue::DropTailFifo;
use numfabric_sim::reference::SimpleWindowAgent;
use numfabric_sim::topology::{LeafSpineConfig, Topology};
use numfabric_sim::{AgentCtx, FlowAgent, Network, Packet, SimDuration, SimTime};

fn small_net(partitions: usize, threads: usize) -> Network {
    let topo = Topology::leaf_spine(&LeafSpineConfig::small(8, 2, 2));
    let mut net = Network::new(topo, |_| Box::new(DropTailFifo::with_default_buffer()));
    net.set_partitions(partitions);
    net.set_partition_threads(threads);
    net
}

/// Per-flow `(packets sent, bytes delivered, drops, FCT)`, plus the
/// event count, of four cross-rack flows run to `until` in `run_until`
/// calls `step_ns` apart.
type Report = (Vec<(u64, u64, u64, Option<u64>)>, u64);

fn report(partitions: usize, threads: usize, until: SimTime, step_ns: u64) -> Report {
    let mut net = small_net(partitions, threads);
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
    let whole = report(1, 1, until, 150_000);
    assert!(whole.0.iter().any(|f| f.3.is_some()) && whole.0.iter().any(|f| f.3.is_none()));
    // Steps shorter than the lookahead end stretches inside an epoch, so
    // boundary traffic is still pending when `run_until` returns; longer
    // steps end them after several epochs.
    for (partitions, threads) in [(1, 1), (2, 1), (2, 2), (4, 2)] {
        for step_ns in [150_000, 733, 7_919] {
            assert_eq!(
                report(partitions, threads, until, step_ns),
                whole,
                "report differs at {partitions}x{threads}, step {step_ns} ns"
            );
        }
    }
}

/// Panics when its flow starts.
struct PanicOnStart;

impl FlowAgent for PanicOnStart {
    fn on_start(&mut self, _ctx: &mut AgentCtx<'_>) {
        panic!("agent failed to start");
    }
    fn on_ack(&mut self, _packet: &Packet, _ctx: &mut AgentCtx<'_>) {}
}

#[test]
#[should_panic(expected = "partition worker 1 panicked")]
fn a_panicking_agent_on_an_epoch_worker_is_a_named_panic_not_a_hang() {
    let mut net = small_net(2, 2);
    let hosts = net.topology().hosts().to_vec();
    let owner = net.topology().partition(2);
    let src = *hosts
        .iter()
        .find(|&&h| owner.assignment()[h] == 1)
        .expect("a host in partition 1");
    let start = Box::new(PanicOnStart);
    net.add_flow(src, hosts[0], Some(10_000), SimTime::ZERO, 0, None, start);
    net.run_until(SimTime::from_micros(10));
}
