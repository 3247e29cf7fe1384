//! The sender DGD and RCP* share (§6, "Note on the implementation"): one
//! packet per interval at the rate the protocol's feedback sets, with the
//! number of unacknowledged bytes capped at a multiple of the
//! bandwidth-delay product. Each protocol keeps only its feedback law and
//! hands the law's rate to [`PacedSender::set_rate_gbps`].

use numfabric_sim::network::AgentCtx;
use numfabric_sim::packet::{HEADER_BYTES, MTU_BYTES};
use numfabric_sim::SimDuration;

/// Timer tag of the pacing loop.
const PACING_TIMER: u64 = 1;

/// A rate-paced sender with a cap on unacknowledged bytes. Both are set
/// by [`PacedSender::start`].
#[derive(Default)]
pub(crate) struct PacedSender {
    rate_bps: f64,
    unacked_cap_bytes: u64,
    /// Whether a pacing timer is pending. Nothing cancels it: the engine
    /// drops a flow's timers when the flow stops or completes.
    armed: bool,
}

impl PacedSender {
    /// Start pacing at `initial_fraction` of the NIC rate, before any
    /// feedback, with unacknowledged bytes capped at `cap_bdp` BDPs (never
    /// below two full segments).
    pub(crate) fn start(&mut self, initial_fraction: f64, cap_bdp: f64, ctx: &mut AgentCtx<'_>) {
        let first_hop = ctx.first_hop_capacity_bps();
        self.rate_bps = first_hop * initial_fraction;
        let bdp = first_hop * ctx.base_rtt().as_secs_f64() / 8.0;
        self.unacked_cap_bytes = ((bdp * cap_bdp) as u64).max(2 * MTU_BYTES as u64);
        self.pace(ctx);
    }

    /// Pace at `rate_gbps`, clamped to the NIC speed and to a thousandth of
    /// it (a floor that keeps feedback arriving when prices overshoot), and
    /// resume sending if no pacing timer is pending.
    pub(crate) fn set_rate_gbps(&mut self, rate_gbps: f64, ctx: &mut AgentCtx<'_>) {
        let first_hop = ctx.first_hop_capacity_bps();
        self.rate_bps = (rate_gbps * 1e9).clamp(first_hop * 1e-3, first_hop);
        if !self.armed {
            self.pace(ctx);
        }
    }

    /// The agent's timer callback.
    pub(crate) fn on_timer(&mut self, tag: u64, ctx: &mut AgentCtx<'_>) {
        if tag == PACING_TIMER {
            self.armed = false;
            self.pace(ctx);
        }
    }

    /// Send one packet if the cap allows, and arm the next transmission
    /// opportunity one paced interval later whether or not this one was
    /// capped, so sending resumes as soon as ACKs free up the cap. Stops
    /// once nothing is owed.
    fn pace(&mut self, ctx: &mut AgentCtx<'_>) {
        let Some(payload) = ctx.next_payload() else {
            return;
        };
        if ctx.in_flight_bytes() + payload as u64 <= self.unacked_cap_bytes {
            ctx.send_next(payload, |_| {});
        }
        let interval =
            SimDuration::transmission((payload + HEADER_BYTES) as u64, self.rate_bps.max(1e6));
        ctx.set_timer(interval, PACING_TIMER);
        self.armed = true;
    }
}
