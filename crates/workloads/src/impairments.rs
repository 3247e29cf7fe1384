//! Impairment schedules: *which* link fails, degrades or recovers *when*.
//!
//! The simulator provides the mechanism
//! ([`Network::schedule_link_change`] plus the
//! [`LinkChange`] vocabulary); this module provides the policy layer that
//! scenario CLIs and sweeps speak:
//!
//! * [`ImpairmentSchedule`] — an explicit list of timed link changes,
//!   parseable from a compact `kind@usec:link[=value]` CLI spelling and
//!   applied to a network in one call;
//! * [`ImpairmentSchedule::cable_cut`] — the canonical recovery
//!   experiment: fail both directions of a cable, optionally restore it;
//! * [`ImpairmentProfile`] — the small named family (`none`, `flap`,
//!   `loss`, `jitter`) the sweep engine uses as a grid axis, each expanding
//!   to a seeded, topology-aware schedule.
//!
//! Determinism: a schedule is pure data — its changes plus the seed of
//! the network's loss/jitter draws; applying it schedules each change on
//! the network as a link-change event, and the seeded victim
//! selection below uses the same ChaCha8 streams as every other workload
//! generator. Replays of an impaired scenario are bit-identical.

use numfabric_sim::network::Network;
use numfabric_sim::topology::{LinkId, Topology};
use numfabric_sim::{LinkChange, SimDuration, SimTime};
use rand::{Rng, SeedableRng};
use rand_chacha::ChaCha8Rng;
use std::fmt;
use std::str::FromStr;

/// One timed link change.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ImpairmentEvent {
    /// When the change takes effect.
    pub at: SimTime,
    /// The affected link.
    pub link: LinkId,
    /// The state change to apply.
    pub change: LinkChange,
}

/// A list of timed link changes and the seed of the loss/jitter draws they
/// cause. [`apply`](Self::apply) schedules them on a [`Network`]: each
/// takes effect at its instant, before any other event of that instant.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct ImpairmentSchedule {
    /// The scheduled changes, in the order they were added. Changes due at
    /// the same instant apply in this order.
    pub events: Vec<ImpairmentEvent>,
    /// Seeds the network's per-link loss and jitter streams
    /// ([`Network::set_impairment_seed`]). A schedule without `loss` or
    /// `jitter` changes never draws from them, so its seed changes nothing.
    pub seed: u64,
}

impl ImpairmentSchedule {
    /// An empty schedule (a healthy run).
    pub fn new() -> Self {
        Self::default()
    }

    /// Whether the schedule contains no events.
    pub fn is_empty(&self) -> bool {
        self.events.is_empty()
    }

    /// Number of scheduled changes.
    pub fn len(&self) -> usize {
        self.events.len()
    }

    /// Append a change.
    pub fn push(&mut self, at: SimTime, link: LinkId, change: LinkChange) {
        self.events.push(ImpairmentEvent { at, link, change });
    }

    /// The canonical failure experiment: cut a cable — both directions of
    /// the `forward`/`reverse` twin pair go down at `fail_at` — and
    /// optionally restore it at `restore_at`.
    pub fn cable_cut(
        topo: &Topology,
        forward: LinkId,
        fail_at: SimTime,
        restore_at: Option<SimTime>,
    ) -> Self {
        let mut schedule = Self::new();
        for link in std::iter::once(forward).chain(topo.reverse_link(forward)) {
            schedule.push(fail_at, link, LinkChange::Down);
            if let Some(at) = restore_at {
                schedule.push(at, link, LinkChange::Up);
            }
        }
        schedule
    }

    /// Seed `net`'s impairment streams and schedule every change onto it
    /// (then just run the simulation).
    pub fn apply(&self, net: &mut Network) {
        net.set_impairment_seed(self.seed);
        for e in &self.events {
            net.schedule_link_change(e.at, e.link, e.change);
        }
    }

    /// The earliest `Down`/`DownFwd` instant, if the schedule fails anything
    /// — the reference point recovery metrics measure from.
    pub fn first_failure_at(&self) -> Option<SimTime> {
        self.events
            .iter()
            .filter(|e| matches!(e.change, LinkChange::Down | LinkChange::DownFwd))
            .map(|e| e.at)
            .min()
    }
}

/// Error produced when an impairment spelling does not parse.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct InvalidImpairment(String);

impl fmt::Display for InvalidImpairment {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "invalid impairment `{}`; expected comma-separated \
             `down@<usec>:<link>`, `down-fwd@<usec>:<link>`, `up@<usec>:<link>`, \
             `loss@<usec>:<link>=<prob>`, `jitter@<usec>:<link>=<usec>` or \
             `speed@<usec>:<link>=<bps>`",
            self.0
        )
    }
}

impl std::error::Error for InvalidImpairment {}

impl FromStr for ImpairmentSchedule {
    type Err = InvalidImpairment;

    /// Parse the compact CLI spelling: comma-separated
    /// `kind@usec:link[=value]` entries, e.g.
    /// `down@500:12,up@1500:12,loss@0:7=0.01,jitter@0:3=5`.
    /// `down-fwd@usec:link` is the asymmetric variant: only the given
    /// direction of the cable fails, and reroute avoids only that dead
    /// direction (`down` conservatively reroutes around the whole cable).
    fn from_str(s: &str) -> Result<Self, Self::Err> {
        let err = || InvalidImpairment(s.to_string());
        let mut schedule = ImpairmentSchedule::new();
        for entry in s.split(',').map(str::trim).filter(|e| !e.is_empty()) {
            let (kind, rest) = entry.split_once('@').ok_or_else(err)?;
            let (usec, rest) = rest.split_once(':').ok_or_else(err)?;
            let at = SimTime::from_micros(usec.parse::<u64>().map_err(|_| err())?);
            let (link_str, value) = match rest.split_once('=') {
                Some((l, v)) => (l, Some(v)),
                None => (rest, None),
            };
            let link: LinkId = link_str.parse().map_err(|_| err())?;
            let change = match (kind, value) {
                ("down", None) => LinkChange::Down,
                ("down-fwd", None) => LinkChange::DownFwd,
                ("up", None) => LinkChange::Up,
                ("loss", Some(v)) => {
                    let p: f64 = v.parse().map_err(|_| err())?;
                    if !(0.0..=1.0).contains(&p) {
                        return Err(err());
                    }
                    LinkChange::Loss(p)
                }
                ("jitter", Some(v)) => {
                    let us: f64 = v.parse().map_err(|_| err())?;
                    if !(us.is_finite() && us >= 0.0) {
                        return Err(err());
                    }
                    LinkChange::Jitter(SimDuration::from_secs_f64(us * 1e-6))
                }
                ("speed", Some(v)) => {
                    let bps: f64 = v.parse().map_err(|_| err())?;
                    if !(bps.is_finite() && bps > 0.0) {
                        return Err(err());
                    }
                    LinkChange::Speed(bps)
                }
                _ => return Err(err()),
            };
            schedule.push(at, link, change);
        }
        if schedule.is_empty() {
            return Err(err());
        }
        Ok(schedule)
    }
}

/// All fabric cables of a topology as `(forward, reverse)` twin pairs,
/// deduplicated (each cable appears once, lower link id first) — the victim
/// pool for seeded impairment profiles. Host NICs are excluded: failing one
/// partitions a host, which is a different experiment.
pub fn fabric_cables(topo: &Topology) -> Vec<(LinkId, LinkId)> {
    topo.links()
        .iter()
        .enumerate()
        .filter_map(|(id, l)| {
            let switch_pair =
                topo.nodes()[l.from].kind.is_switch() && topo.nodes()[l.to].kind.is_switch();
            let twin = topo.reverse_link(id)?;
            (switch_pair && id < twin).then_some((id, twin))
        })
        .collect()
}

/// The named impairment families the sweep engine exposes as a grid axis.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ImpairmentProfile {
    /// Healthy fabric (the default axis value; no events, no RNG draws).
    None,
    /// One seeded fabric cable flaps: down at 1/4 of the run window, both
    /// directions, restored at 1/2.
    Flap,
    /// One seeded fabric cable corrupts 1% of packets in both directions
    /// for the whole run.
    Loss,
    /// One seeded fabric cable adds up to 5 µs of per-packet delay jitter
    /// in both directions for the whole run.
    Jitter,
}

impl ImpairmentProfile {
    /// Every profile, in the order grids print them.
    pub const ALL: [ImpairmentProfile; 4] = [
        ImpairmentProfile::None,
        ImpairmentProfile::Flap,
        ImpairmentProfile::Loss,
        ImpairmentProfile::Jitter,
    ];

    /// The profile's grid/CLI name.
    pub fn name(&self) -> &'static str {
        match self {
            ImpairmentProfile::None => "none",
            ImpairmentProfile::Flap => "flap",
            ImpairmentProfile::Loss => "loss",
            ImpairmentProfile::Jitter => "jitter",
        }
    }

    /// Expand the profile into a concrete schedule for `topo`: the victim
    /// cable is drawn from a ChaCha8 stream seeded with `seed`, timed
    /// relative to the run `window`, and the schedule's loss/jitter draws
    /// are seeded with `seed` too.
    pub fn schedule(&self, topo: &Topology, seed: u64, window: SimDuration) -> ImpairmentSchedule {
        let mut schedule = ImpairmentSchedule {
            seed,
            ..ImpairmentSchedule::new()
        };
        if *self == ImpairmentProfile::None {
            return schedule;
        }
        let cables = fabric_cables(topo);
        assert!(
            !cables.is_empty(),
            "topology has no fabric cables to impair"
        );
        let mut rng = ChaCha8Rng::seed_from_u64(seed);
        let (fwd, rev) = cables[rng.gen_range(0..cables.len())];
        match self {
            ImpairmentProfile::None => unreachable!("handled above"),
            ImpairmentProfile::Flap => {
                let quarter = SimDuration::from_nanos(window.as_nanos() / 4);
                let fail = SimTime::ZERO + quarter;
                let restore = SimTime::ZERO + quarter + quarter;
                for link in [fwd, rev] {
                    schedule.push(fail, link, LinkChange::Down);
                    schedule.push(restore, link, LinkChange::Up);
                }
            }
            ImpairmentProfile::Loss => {
                for link in [fwd, rev] {
                    schedule.push(SimTime::ZERO, link, LinkChange::Loss(0.01));
                }
            }
            ImpairmentProfile::Jitter => {
                for link in [fwd, rev] {
                    schedule.push(
                        SimTime::ZERO,
                        link,
                        LinkChange::Jitter(SimDuration::from_micros(5)),
                    );
                }
            }
        }
        schedule
    }
}

impl fmt::Display for ImpairmentProfile {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

/// Error produced when an impairment profile name does not parse.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct InvalidProfile(String);

impl fmt::Display for InvalidProfile {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "invalid impairment profile `{}`; expected `none`, `flap`, `loss` or `jitter`",
            self.0
        )
    }
}

impl std::error::Error for InvalidProfile {}

impl FromStr for ImpairmentProfile {
    type Err = InvalidProfile;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        ImpairmentProfile::ALL
            .into_iter()
            .find(|p| p.name() == s)
            .ok_or_else(|| InvalidProfile(s.to_string()))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fabric::TopologySpec;

    #[test]
    fn parses_the_documented_spellings() {
        let s: ImpairmentSchedule = "down@500:12,up@1500:12".parse().unwrap();
        assert_eq!(s.len(), 2);
        assert_eq!(
            s.events[0],
            ImpairmentEvent {
                at: SimTime::from_micros(500),
                link: 12,
                change: LinkChange::Down,
            }
        );
        assert_eq!(s.events[1].change, LinkChange::Up);
        assert_eq!(s.first_failure_at(), Some(SimTime::from_micros(500)));

        let s: ImpairmentSchedule = "loss@0:7=0.01, jitter@10:3=5, speed@100:4=1e9"
            .parse()
            .unwrap();
        assert_eq!(s.events[0].change, LinkChange::Loss(0.01));
        assert_eq!(
            s.events[1].change,
            LinkChange::Jitter(SimDuration::from_micros(5))
        );
        assert_eq!(s.events[2].change, LinkChange::Speed(1e9));
        assert_eq!(s.first_failure_at(), None);

        let s: ImpairmentSchedule = "down-fwd@250:9,up@750:9".parse().unwrap();
        assert_eq!(s.events[0].change, LinkChange::DownFwd);
        assert_eq!(s.events[0].link, 9);
        assert_eq!(
            s.first_failure_at(),
            Some(SimTime::from_micros(250)),
            "an asymmetric failure is still a failure"
        );
    }

    #[test]
    fn rejects_malformed_schedules() {
        for bad in [
            "",
            "down:12",
            "down@500",
            "down@500:12=1",
            "down-fwd@500:12=1",
            "down-fwd:12",
            "down-rev@500:12",
            "up@x:12",
            "loss@0:7",
            "loss@0:7=1.5",
            "jitter@0:3=-2",
            "speed@0:4=0",
            "teleport@0:4",
        ] {
            assert!(
                bad.parse::<ImpairmentSchedule>().is_err(),
                "`{bad}` should not parse"
            );
        }
    }

    #[test]
    fn cable_cut_downs_both_directions_and_restores() {
        let topo = TopologySpec::FatTree { k: 4 }.build(false);
        let (fwd, rev) = fabric_cables(&topo)[0];
        let cut = ImpairmentSchedule::cable_cut(
            &topo,
            fwd,
            SimTime::from_micros(100),
            Some(SimTime::from_micros(900)),
        );
        assert_eq!(cut.len(), 4);
        let downs: Vec<_> = cut
            .events
            .iter()
            .filter(|e| e.change == LinkChange::Down)
            .map(|e| e.link)
            .collect();
        assert_eq!(downs, vec![fwd, rev]);
        assert_eq!(cut.first_failure_at(), Some(SimTime::from_micros(100)));
    }

    #[test]
    fn fabric_cables_are_switch_to_switch_twin_pairs() {
        let topo = TopologySpec::FatTree { k: 4 }.build(false);
        let cables = fabric_cables(&topo);
        // k=4 fat-tree: 16 edge-agg cables + 16 agg-core cables.
        assert_eq!(cables.len(), 32);
        for (fwd, rev) in cables {
            assert!(fwd < rev);
            let f = &topo.links()[fwd];
            assert_eq!(topo.link_between(f.to, f.from), Some(rev));
            assert!(topo.nodes()[f.from].kind.is_switch());
            assert!(topo.nodes()[f.to].kind.is_switch());
        }
    }

    #[test]
    fn profiles_parse_expand_and_stay_seed_deterministic() {
        for p in ImpairmentProfile::ALL {
            assert_eq!(p.name().parse::<ImpairmentProfile>().unwrap(), p);
        }
        assert!("blackhole".parse::<ImpairmentProfile>().is_err());

        let topo = TopologySpec::FatTree { k: 4 }.build(false);
        let window = SimDuration::from_millis(4);
        let healthy = ImpairmentProfile::None.schedule(&topo, 1, window);
        assert!(healthy.is_empty());
        assert_eq!(healthy.seed, 1, "even a healthy schedule carries its seed");
        for p in [
            ImpairmentProfile::Flap,
            ImpairmentProfile::Loss,
            ImpairmentProfile::Jitter,
        ] {
            let a = p.schedule(&topo, 5, window);
            assert_eq!(a.len(), if p == ImpairmentProfile::Flap { 4 } else { 2 });
            assert_eq!(a, p.schedule(&topo, 5, window), "same seed, same victim");
            assert_eq!(a.seed, 5, "{p}: loss/jitter draws share the seed");
        }
        // Across many seeds the victim cable varies.
        let victims: std::collections::HashSet<LinkId> = (0..32)
            .map(|s| ImpairmentProfile::Loss.schedule(&topo, s, window).events[0].link)
            .collect();
        assert!(victims.len() > 1, "victim selection ignores the seed");
    }

    #[test]
    fn flap_profile_times_relative_to_the_window() {
        let topo = TopologySpec::FatTree { k: 4 }.build(false);
        let s = ImpairmentProfile::Flap.schedule(&topo, 9, SimDuration::from_millis(8));
        assert_eq!(s.first_failure_at(), Some(SimTime::from_millis(2)));
        let restore = s
            .events
            .iter()
            .find(|e| e.change == LinkChange::Up)
            .unwrap()
            .at;
        assert_eq!(restore, SimTime::from_millis(4));
    }
}
