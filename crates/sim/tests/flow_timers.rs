//! Flow timers through the network's public surface: a recycled flow slot
//! never inherits its previous occupant's timers.

use numfabric_sim::flow::FlowPhase;
use numfabric_sim::network::{AgentCtx, Network};
use numfabric_sim::packet::Packet;
use numfabric_sim::queue::DropTailFifo;
use numfabric_sim::reference::SimpleWindowAgent;
use numfabric_sim::time::{SimDuration, SimTime};
use numfabric_sim::timer::TimerHandle;
use numfabric_sim::topology::{LeafSpineConfig, Topology};
use numfabric_sim::transport::FlowAgent;
use std::sync::{Arc, Mutex};

/// `(fire time in ns, tag)` of every timer a [`TimerScript`] saw fire.
type FireLog = Arc<Mutex<Vec<(u64, u64)>>>;

/// Sends `payload` bytes (if any) and arms one timer per `(delay µs, tag)`
/// on start. Each firing is logged, and the fired handle must then no
/// longer cancel.
struct TimerScript {
    payload: Option<u32>,
    arms: Vec<(u64, u64)>,
    handles: Vec<(u64, TimerHandle)>,
    log: FireLog,
}

impl TimerScript {
    fn new(arms: &[(u64, u64)], log: &FireLog) -> Self {
        Self {
            payload: None,
            arms: arms.to_vec(),
            handles: Vec::new(),
            log: log.clone(),
        }
    }

    /// The handle this agent armed under `tag`, if it armed one.
    fn handle(&self, tag: u64) -> Option<TimerHandle> {
        self.handles
            .iter()
            .find(|&&(t, _)| t == tag)
            .map(|&(_, h)| h)
    }
}

impl FlowAgent for TimerScript {
    fn on_start(&mut self, ctx: &mut AgentCtx<'_>) {
        if let Some(payload) = self.payload {
            ctx.send_next(payload, |_| {});
        }
        for &(us, tag) in &self.arms {
            let handle = ctx.set_timer(SimDuration::from_micros(us), tag);
            self.handles.push((tag, handle));
        }
    }

    fn on_ack(&mut self, _packet: &Packet, _ctx: &mut AgentCtx<'_>) {}

    fn on_timer(&mut self, tag: u64, ctx: &mut AgentCtx<'_>) {
        self.log.lock().unwrap().push((ctx.now().as_nanos(), tag));
        if let Some(handle) = self.handle(tag) {
            assert!(
                !ctx.cancel_timer(handle),
                "a fired handle cannot be cancelled"
            );
        }
    }
}

fn net() -> Network {
    let topo = Topology::leaf_spine(&LeafSpineConfig::small(8, 2, 2));
    Network::new(topo, |_| Box::new(DropTailFifo::with_default_buffer()))
}

fn fired(log: &FireLog) -> Vec<(u64, u64)> {
    log.lock().unwrap().clone()
}

/// A completed flow's cancelled 10 ms timer waits in the wheel as a
/// tombstone. The flow retires at 1 ms and its slot's next occupant arms a
/// 100 µs timer, which must fire at 1.1 ms. Were timer keys to restart per
/// occupant, the two timers would share a key: the new one would be reaped
/// as if cancelled and the dead one would fire into the new agent at 10 ms.
#[test]
fn a_recycled_slot_never_inherits_its_predecessors_timers() {
    let mut net = net();
    let hosts: Vec<_> = net.topology().hosts().to_vec();
    // Background traffic keeps events flowing at every instant, so the
    // wheel never cascades ahead of the clock.
    net.add_flow(
        hosts[2],
        hosts[5],
        None,
        SimTime::ZERO,
        0,
        None,
        Box::new(SimpleWindowAgent::new(4)),
    );
    let (log_old, log_new) = (FireLog::default(), FireLog::default());
    let mut old = TimerScript::new(&[(10_000, 1)], &log_old);
    old.payload = Some(1_000);
    let slot = net.add_flow(
        hosts[0],
        hosts[7],
        Some(1_000),
        SimTime::ZERO,
        0,
        None,
        Box::new(old),
    );
    net.run_until(SimTime::from_millis(1));
    assert_eq!(net.flow_phase(slot), FlowPhase::Completed);
    assert_eq!(net.pending_timer_count(slot), 0);
    assert!(net.try_retire_flow(slot), "a quiescent flow retires");
    let reused = net.add_flow(
        hosts[0],
        hosts[7],
        None,
        net.now(),
        0,
        None,
        Box::new(TimerScript::new(&[(100, 2)], &log_new)),
    );
    assert_eq!(reused, slot, "the retired slot is recycled");
    net.run_until(SimTime::from_millis(20));
    assert!(fired(&log_old).is_empty());
    assert_eq!(
        fired(&log_new),
        vec![(1_100_000, 2)],
        "the new occupant's timer fires at 1.1 ms"
    );
}
