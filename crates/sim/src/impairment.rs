//! Link impairments: the event-level vocabulary for failing, flapping,
//! slowing, corrupting and jittering links mid-simulation.
//!
//! Production fabrics are not the healthy graphs the paper evaluates on —
//! links flap, optics degrade asymmetrically, and lossy cables silently cap
//! throughput. This module defines [`LinkChange`], the set of state changes
//! a link can undergo, applied by
//! [`crate::network::Network::schedule_link_change`] as **ordinary scheduled
//! events**: an impairment is just an [`crate::event::Event`] in the timing
//! wheel, dispatched in `(time, seq)` order like any packet arrival, so
//! replays of an impaired scenario stay bit-identical under the determinism
//! contract.
//!
//! Randomized impairments (per-packet loss, delay jitter) draw from
//! self-contained SplitMix64 streams owned by the `Network` — one stream
//! **per link**, derived from the seed passed to
//! [`crate::network::Network::set_impairment_seed`] via [`derive_link_seed`].
//! A link's stream advances only when that link transmits while impaired,
//! and a link's transmissions are serialized by its own queue regardless of
//! how the fabric is partitioned, so the draw sequence — and with it every
//! loss decision and jitter offset — is a pure function of the seed and the
//! scenario for **any** partition count and any worker-thread count. The
//! engine keeps its no-ambient-randomness property: an unimpaired
//! simulation never touches any stream.
//!
//! (Earlier revisions keyed the streams per *partition*, which made
//! randomized draws legitimately vary with `--partitions`. Per-link streams
//! removed that caveat: impaired reports are now bit-identical across
//! partition counts, and the determinism suite pins it.)
//!
//! Schedule construction (which link, when, how long) lives one layer up in
//! `numfabric-workloads`, next to the other seeded scenario builders; this
//! module is only the mechanism.

use crate::time::SimDuration;

/// One state change applied to a link at a scheduled instant.
///
/// Each variant is the *target state*, not a delta, so schedules replay
/// identically regardless of what state the link was in (a `Down` on an
/// already-down link is a no-op, a `Loss` overwrites the previous rate).
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum LinkChange {
    /// Fail the link: its queue is drained and every queued packet dropped,
    /// packets still propagating toward the far end are lost on arrival, and
    /// enqueues while down are dropped. Flows pinned by ECMP choice are
    /// re-routed over the surviving paths (see
    /// [`crate::topology::Topology::host_route_avoiding`]).
    Down,
    /// Fail the link **asymmetrically**: the directed link dies exactly like
    /// [`LinkChange::Down`] (backlog dropped, in-flight packets lost on
    /// arrival, enqueues dropped), but ECMP reroute avoids *only this
    /// direction* — the reverse twin keeps carrying traffic, and a flow
    /// whose ACK path crosses the dead direction simply loses those ACKs.
    /// This models one-directional optic degradation, where the routing
    /// plane only learns about the direction that stopped carrying light.
    DownFwd,
    /// Restore a failed link. Flows return to the route their ECMP choice
    /// selects on the restored graph.
    Up,
    /// Change the link's capacity to `bits_per_second` (asymmetric speed
    /// changes: the reverse twin keeps its own capacity). The packet
    /// currently serializing keeps its old transmission time; the link's
    /// controller hears of it through `on_capacity_change`. Applying a
    /// capacity that is not strictly positive panics.
    Speed(f64),
    /// Drop each packet leaving this link with the given probability
    /// (`0.0..=1.0`), drawn from the network's seeded impairment stream.
    /// The packet still occupies the wire for its serialization time — the
    /// model is corruption on the cable, not at the queue.
    Loss(f64),
    /// Add a uniformly distributed extra propagation delay in
    /// `[0, max_extra]` to each packet leaving this link, drawn from the
    /// seeded impairment stream. Jitter can reorder packets of one flow.
    Jitter(SimDuration),
}

/// The per-link impairment state a [`crate::network::Network`] tracks at
/// runtime. Fresh links are up, lossless and jitter-free.
#[derive(Debug, Clone, Copy)]
pub struct LinkHealth {
    /// Whether the link is currently up.
    pub up: bool,
    /// Whether a down link failed asymmetrically ([`LinkChange::DownFwd`]):
    /// reroute then avoids only this direction, not the whole cable.
    /// Meaningless while `up` is true.
    pub asymmetric_down: bool,
    /// Per-packet loss probability on the wire.
    pub loss: f64,
    /// Maximum extra propagation delay added per packet.
    pub jitter: SimDuration,
}

impl Default for LinkHealth {
    fn default() -> Self {
        Self {
            up: true,
            asymmetric_down: false,
            loss: 0.0,
            jitter: SimDuration::ZERO,
        }
    }
}

impl LinkHealth {
    /// Whether this link needs a random draw per transmitted packet.
    pub fn is_randomized(&self) -> bool {
        self.loss > 0.0 || !self.jitter.is_zero()
    }
}

/// Advance a SplitMix64 state and return the next `u64`.
///
/// Spelled out here (rather than borrowed from the offline `rand` shim's
/// internal helper) for the same reason as the sweep's
/// `derive_cell_seed`: the shims must stay swappable for the real crates.io
/// crates by a manifest-only change, and `numfabric-sim` deliberately has no
/// `rand` dependency at all.
pub(crate) fn splitmix64(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// The next draw from `state` as a float in `[0, 1)`.
pub(crate) fn splitmix64_unit(state: &mut u64) -> f64 {
    // 53 mantissa bits, the standard u64 -> unit-interval construction.
    (splitmix64(state) >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
}

/// Derive link `link`'s impairment-stream seed from the network's base
/// seed. Every link gets an independent SplitMix64-mixed stream (including
/// link 0 — mixing unconditionally keeps the base seed itself out of any
/// stream, so no two links can collide with each other or with the raw
/// seed). Because the stream is keyed by the link — not by whichever
/// partition happens to own it — the draw sequence is invariant under
/// domain decomposition: `--partitions N` and `--partition-threads T` never
/// change a loss decision or a jitter offset.
pub fn derive_link_seed(seed: u64, link: usize) -> u64 {
    // Mix the link index through one SplitMix64 step of a state offset by
    // golden-ratio multiples — the same construction the sweep engine uses
    // for per-cell seeds.
    let mut state = seed.wrapping_add(
        (link as u64)
            .wrapping_add(1)
            .wrapping_mul(0x9E37_79B9_7F4A_7C15),
    );
    splitmix64(&mut state)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_health_is_pristine() {
        let h = LinkHealth::default();
        assert!(h.up && h.loss == 0.0 && h.jitter.is_zero());
        assert!(!h.is_randomized());
        assert!(LinkHealth {
            loss: 0.01,
            ..Default::default()
        }
        .is_randomized());
        assert!(LinkHealth {
            jitter: SimDuration::from_micros(1),
            ..Default::default()
        }
        .is_randomized());
    }

    #[test]
    fn splitmix_stream_is_deterministic_and_seed_sensitive() {
        let mut a = 42u64;
        let mut b = 42u64;
        let mut c = 43u64;
        let draws_a: Vec<u64> = (0..8).map(|_| splitmix64(&mut a)).collect();
        let draws_b: Vec<u64> = (0..8).map(|_| splitmix64(&mut b)).collect();
        let draws_c: Vec<u64> = (0..8).map(|_| splitmix64(&mut c)).collect();
        assert_eq!(draws_a, draws_b);
        assert_ne!(draws_a, draws_c);
    }

    #[test]
    fn link_seeds_are_distinct_deterministic_and_seed_sensitive() {
        let derived: Vec<u64> = (0..64).map(|l| derive_link_seed(42, l)).collect();
        for (i, &a) in derived.iter().enumerate() {
            for &b in &derived[i + 1..] {
                assert_ne!(a, b, "link streams must be distinct");
            }
        }
        // No link stream may equal the raw base seed either.
        assert!(derived.iter().all(|&s| s != 42));
        assert_eq!(derive_link_seed(42, 3), derive_link_seed(42, 3));
        assert_ne!(derive_link_seed(42, 3), derive_link_seed(43, 3));
    }

    #[test]
    fn unit_draws_stay_in_the_half_open_interval() {
        let mut s = 7u64;
        for _ in 0..1000 {
            let u = splitmix64_unit(&mut s);
            assert!((0.0..1.0).contains(&u), "{u}");
        }
    }
}
