//! First-class flow timers: the handle an agent keeps for one armed timer.
//!
//! [`crate::network::AgentCtx::set_timer`] schedules a cancellable
//! `FlowTimer` event and returns a [`TimerHandle`];
//! [`crate::network::AgentCtx::cancel_timer`] revokes it in O(1). The flow's
//! sender state records the ids of its armed timers, so stopping or
//! completing a flow cancels every one of them: dead flows fire nothing.
//! The `tag` passed to [`crate::transport::FlowAgent::on_timer`] still
//! distinguishes timer kinds (RTX vs pacing, say), while the handle carries
//! identity.

use crate::event::EventId;

/// A handle to one armed flow timer. Obtained from
/// [`crate::network::AgentCtx::set_timer`]; remains valid until the timer
/// fires or is cancelled, after which
/// [`crate::network::AgentCtx::cancel_timer`] is a no-op returning `false`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TimerHandle {
    pub(crate) id: EventId,
}

#[cfg(test)]
mod tests {
    use crate::flow::FlowPhase;
    use crate::network::{AgentCtx, Network};
    use crate::packet::{FlowId, Packet};
    use crate::queue::DropTailFifo;
    use crate::time::{SimDuration, SimTime};
    use crate::topology::{LeafSpineConfig, Topology};
    use crate::transport::FlowAgent;
    use std::sync::{Arc, Mutex};

    /// `(fire time in ns, tag)` of every timer an [`Arming`] agent saw fire.
    type FireLog = Arc<Mutex<Vec<(u64, u64)>>>;

    /// Arms one timer per `(delay µs, tag)` on start, then cancels the
    /// handle of tag `cancel` twice: the first cancel must succeed and the
    /// second must not. Each firing is logged, and the fired handle must
    /// then no longer cancel.
    struct Arming {
        arms: Vec<(u64, u64)>,
        cancel: Option<u64>,
        handles: Vec<(u64, super::TimerHandle)>,
        log: FireLog,
    }

    impl Arming {
        fn handle(&self, tag: u64) -> Option<super::TimerHandle> {
            self.handles
                .iter()
                .find(|&&(t, _)| t == tag)
                .map(|&(_, h)| h)
        }
    }

    impl FlowAgent for Arming {
        fn on_start(&mut self, ctx: &mut AgentCtx<'_>) {
            for &(us, tag) in &self.arms {
                let handle = ctx.set_timer(SimDuration::from_micros(us), tag);
                self.handles.push((tag, handle));
            }
            if let Some(tag) = self.cancel {
                let handle = self.handle(tag).expect("cancelled tag is armed");
                assert!(ctx.cancel_timer(handle), "a pending timer cancels");
                assert!(!ctx.cancel_timer(handle), "double cancel is a no-op");
            }
        }

        fn on_ack(&mut self, _packet: &Packet, _ctx: &mut AgentCtx<'_>) {}

        fn on_timer(&mut self, tag: u64, ctx: &mut AgentCtx<'_>) {
            self.log.lock().unwrap().push((ctx.now().as_nanos(), tag));
            if let Some(handle) = self.handle(tag) {
                assert!(
                    !ctx.cancel_timer(handle),
                    "fired handles cannot be cancelled"
                );
            }
        }
    }

    fn small_net() -> Network {
        let topo = Topology::leaf_spine(&LeafSpineConfig::small(8, 2, 2));
        Network::new(topo, |_| Box::new(DropTailFifo::with_default_buffer()))
    }

    /// Start a payload-free flow from host `src` to host `dst` at t = 0
    /// whose agent arms `arms` and cancels `cancel`.
    fn arm(
        net: &mut Network,
        (src, dst): (usize, usize),
        arms: &[(u64, u64)],
        cancel: Option<u64>,
    ) -> (FlowId, FireLog) {
        let hosts: Vec<_> = net.topology().hosts().to_vec();
        let log = FireLog::default();
        let agent = Arming {
            arms: arms.to_vec(),
            cancel,
            handles: Vec::new(),
            log: log.clone(),
        };
        let flow = net.add_flow(
            hosts[src],
            hosts[dst],
            None,
            SimTime::ZERO,
            0,
            None,
            Box::new(agent),
        );
        (flow, log)
    }

    fn fired(log: &FireLog) -> Vec<(u64, u64)> {
        log.lock().unwrap().clone()
    }

    #[test]
    fn armed_timers_fire_with_their_tags() {
        let mut net = small_net();
        let (flow, log) = arm(&mut net, (0, 7), &[(5, 7), (2, 8)], None);
        net.run_until(SimTime::from_micros(1));
        assert_eq!(net.pending_timer_count(flow), 2);
        net.run_until(SimTime::from_micros(10));
        assert_eq!(fired(&log), vec![(2_000, 8), (5_000, 7)]);
        assert_eq!(net.pending_timer_count(flow), 0);
    }

    #[test]
    fn cancel_revokes_a_single_timer() {
        let mut net = small_net();
        let (flow, log) = arm(&mut net, (0, 7), &[(3, 1), (1, 2)], Some(2));
        net.run_until(SimTime::from_micros(1));
        assert_eq!(net.pending_timer_count(flow), 1);
        net.run_until(SimTime::from_micros(10));
        assert_eq!(fired(&log), vec![(3_000, 1)]);
        assert_eq!(net.pending_timer_count(flow), 0);
    }

    /// Stopping a flow cancels every timer it armed and leaves another
    /// flow's armed timer alone.
    #[test]
    fn cancel_all_sweeps_a_flow() {
        let mut net = small_net();
        let (a, log_a) = arm(&mut net, (0, 7), &[(10, 0), (20, 1), (30, 2)], None);
        let (b, log_b) = arm(&mut net, (1, 6), &[(90, 42)], None);
        net.run_until(SimTime::from_micros(5));
        assert_eq!(net.pending_timer_count(a), 3);
        net.stop_flow(a);
        net.run_until(SimTime::from_micros(6));
        assert_eq!(net.flow_phase(a), FlowPhase::Stopped);
        assert_eq!(net.pending_timer_count(a), 0);
        assert_eq!(net.pending_timer_count(b), 1, "flow b's timer must survive");
        net.run_until(SimTime::from_micros(100));
        assert!(
            fired(&log_a).is_empty(),
            "a stopped flow's timers never fire"
        );
        assert_eq!(fired(&log_b), vec![(90_000, 42)]);
        assert_eq!(net.pending_timer_count(b), 0);
    }
}
