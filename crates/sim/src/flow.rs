//! Flow descriptions and per-flow bookkeeping.

use crate::routes::RouteId;
use crate::time::{SimDuration, SimTime};
use crate::topology::NodeId;

/// Where a flow is in its lifecycle.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FlowPhase {
    /// Added but not yet started.
    Pending,
    /// Actively sending.
    Active,
    /// Forcibly stopped (semi-dynamic scenario stop events).
    Stopped,
    /// All bytes delivered to the destination.
    Completed,
}

/// Static description of a flow, provided when the flow is added to the
/// network.
#[derive(Debug, Clone)]
pub struct FlowSpec {
    /// Source host.
    pub src: NodeId,
    /// Destination host.
    pub dst: NodeId,
    /// Payload bytes to transfer; `None` for a long-running flow that sends
    /// until explicitly stopped (used by the convergence experiments).
    pub size_bytes: Option<u64>,
    /// When the flow starts.
    pub start_time: SimTime,
    /// Forward (data) route, interned in the owning network's route table
    /// (resolve with [`crate::network::Network::route`]).
    pub route: RouteId,
    /// Reverse (ACK) route, interned alongside the forward route.
    pub reverse_route: RouteId,
    /// Base round-trip time along the route with empty queues (`d0` in the
    /// Swift window computation).
    pub base_rtt: SimDuration,
    /// The ECMP choice index the flow was pinned with, when it was added via
    /// [`crate::network::Network::add_flow`]. Link failures re-select the
    /// flow's route as `host_route_avoiding(src, dst, choice, banned)`;
    /// flows added with an explicit route (`None`) are never re-routed.
    pub ecmp_choice: Option<usize>,
}

/// Runtime counters for a flow.
#[derive(Debug, Clone, Default)]
pub struct FlowStats {
    /// Payload bytes handed to the network by the sender (first transmissions
    /// and retransmissions alike).
    pub bytes_sent: u64,
    /// Payload bytes acknowledged back to the sender (highest cumulative ACK).
    pub bytes_acked: u64,
    /// Payload bytes that arrived at the destination.
    pub bytes_delivered: u64,
    /// Data packets sent.
    pub packets_sent: u64,
    /// Data packets delivered to the destination.
    pub packets_delivered: u64,
    /// Packets of this flow dropped anywhere in the network.
    pub packets_dropped: u64,
    /// When the flow actually started.
    pub started_at: Option<SimTime>,
    /// When the last payload byte arrived at the destination.
    pub completed_at: Option<SimTime>,
}

impl FlowStats {
    /// Flow completion time, if the flow has completed.
    pub fn fct(&self) -> Option<SimDuration> {
        match (self.started_at, self.completed_at) {
            (Some(s), Some(c)) => Some(c.duration_since(s)),
            _ => None,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fct_and_average_rate() {
        let mut stats = FlowStats::default();
        assert!(stats.fct().is_none());
        stats.started_at = Some(SimTime::from_micros(100));
        stats.completed_at = Some(SimTime::from_micros(900));
        stats.bytes_delivered = 1_000_000;
        assert_eq!(stats.fct(), Some(SimDuration::from_micros(800)));
    }
}
