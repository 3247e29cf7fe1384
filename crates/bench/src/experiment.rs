//! The one experiment driver. Every scenario, figure and sweep cell
//! describes its run as an [`Experiment`] and hands it to
//! [`run_experiment`], the only place the harness builds a network, injects
//! flows, advances time and harvests per-flow results.
//!
//! An experiment's [`Flows`] decide how flows enter and leave the run:
//!
//! * [`Flows::List`] — a finite list of arrivals, all injected before the
//!   run and never retired. A fixed pair is an arrival at t = 0.
//! * [`Flows::Stream`] — an open-loop arrival stream, injected in batches
//!   with completed flows harvested into per-class sketches and their
//!   slots recycled, so memory tracks *concurrent* flows.
//! * [`Flows::Events`] — §6.1's semi-dynamic start/stop events over
//!   long-lived flows, each followed by a convergence measurement or a
//!   fixed interval.
//!
//! Lists never retire and streams always do, and the workload's kind — not
//! an option — decides it: a recycled (lower) flow id reorders same-instant
//! pacing timers of the schemes whose timer keys carry it (DGD, RCP*).
//!
//! What a run measures is the caller's choice. Every run records its List
//! flows' FCTs and final rates; [`Experiment::sample_every`] adds rate
//! samples on a grid; the two fluid references run only when asked for:
//! [`Experiment::oracle_bps`] (the static NUM oracle) and
//! [`Experiment::ideal_fcts`] (the `IdealFluidSimulator`).

use crate::protocols::{Protocol, RunSetup};
use crate::report::{ChurnSummary, ClassStats};
use numfabric_num::utility::{AlphaFair, FctUtility, LogUtility, UtilityRef};
use numfabric_sim::topology::{LinkId, Topology};
use numfabric_sim::{FlowId, Network, SimDuration, SimTime};
use numfabric_workloads::arrivals::FlowArrival;
use numfabric_workloads::churn::{ChurnClass, ChurnConfig, ChurnStream};
use numfabric_workloads::convergence::{
    measure_convergence, oracle_rates_bps, ConvergenceCriterion,
};
use numfabric_workloads::ideal::{empty_network_fct, IdealFluidSimulator};
use numfabric_workloads::scenarios::{EventKind, PathSpec, SemiDynamicScenario};
use std::collections::{BTreeMap, HashSet};
use std::sync::Arc;

/// Upper bound on arrivals a Stream injects per simulate/harvest cycle.
/// Bounds the slab overshoot (live flows ≤ concurrent + one batch) while
/// keeping the per-batch barrier overhead negligible at high arrival rates.
const ARRIVAL_BATCH: usize = 256;

/// Upper bound on *simulated time* per Stream cycle, so sparse workloads
/// still recycle completed flows promptly instead of waiting for
/// [`ARRIVAL_BATCH`] arrivals to accumulate.
const HARVEST_SLICE: SimDuration = SimDuration::from_millis(2);

/// The NUM objective every flow of an experiment optimizes.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Objective {
    /// Proportional fairness (§6.1, and every fabric scenario).
    ProportionalFairness,
    /// α-fairness with the given α (the Fig. 6 sensitivity sweep).
    AlphaFair(f64),
    /// FCT minimization: `U(x) = x^{1-ε}/((1-ε)·size)` (the Fig. 7
    /// comparison against pFabric).
    FctMinimization,
}

impl Objective {
    /// The utility object for a flow of `size_bytes`.
    pub fn utility_for(&self, size_bytes: u64) -> UtilityRef {
        match *self {
            Objective::ProportionalFairness => Arc::new(LogUtility::new()),
            Objective::AlphaFair(alpha) => Arc::new(AlphaFair::new(alpha)),
            Objective::FctMinimization => Arc::new(FctUtility::new(size_bytes.max(1) as f64)),
        }
    }
}

/// One flow of a [`Flows::List`].
#[derive(Debug, Clone, Copy)]
pub struct ListFlow {
    /// Endpoints and ECMP pin.
    pub path: PathSpec,
    /// When the flow starts.
    pub start: SimTime,
    /// Bytes to transfer (`None`: long-lived, runs to the horizon).
    pub size_bytes: Option<u64>,
}

impl ListFlow {
    /// One flow per pair, all starting at t = 0.
    pub fn pairs(pairs: &[PathSpec], size_bytes: Option<u64>) -> Vec<ListFlow> {
        pairs
            .iter()
            .map(|&path| ListFlow {
                path,
                start: SimTime::ZERO,
                size_bytes,
            })
            .collect()
    }
}

impl From<&FlowArrival> for ListFlow {
    fn from(a: &FlowArrival) -> Self {
        ListFlow {
            path: PathSpec {
                src: a.src,
                dst: a.dst,
                spine_choice: a.spine_choice,
            },
            start: a.start,
            size_bytes: Some(a.size_bytes),
        }
    }
}

/// What follows each event of a [`Flows::Events`] run.
#[derive(Debug, Clone, Copy)]
pub enum Pace {
    /// Measure how long the flows take to converge onto the static NUM
    /// oracle of the new population, giving up after `max_wait`.
    Converge {
        /// When a population counts as converged.
        criterion: ConvergenceCriterion,
        /// Give up on an event after this long.
        max_wait: SimDuration,
    },
    /// Run a fixed interval. The first initially active flow is the
    /// tracked one: its stop events are ignored.
    Every(SimDuration),
}

/// How flows enter and leave an experiment.
pub enum Flows {
    /// Every flow is injected before the run and never retired.
    List(Vec<ListFlow>),
    /// Arrivals of a class mix, streamed in batches; completed flows are
    /// harvested into per-class sketches and their slots recycled.
    Stream {
        /// The traffic classes, in report order.
        mix: Vec<ChurnClass>,
        /// Load, horizon, seed and ECMP fan-out of the arrivals.
        config: ChurnConfig,
    },
    /// Semi-dynamic start/stop events over long-lived flows.
    Events {
        /// Candidate paths, the initially active set and the events.
        scenario: SemiDynamicScenario,
        /// Time the initial population runs before the first event.
        warmup: SimDuration,
        /// What follows each event.
        pace: Pace,
    },
}

/// One run: a fabric, a scheme, how the network is set up, what the flows
/// optimize, how they arrive, and how long it lasts.
pub struct Experiment {
    /// The fabric.
    pub topology: Topology,
    /// The scheme under test.
    pub protocol: Protocol,
    /// Impairments and execution knobs applied to the built network.
    pub setup: RunSetup,
    /// The NUM objective of every flow.
    pub objective: Objective,
    /// The workload.
    pub flows: Flows,
    /// List and Stream runs end this long after t = 0; an Events run ends
    /// with its last event.
    pub horizon: SimDuration,
    /// Sample the rate of every List flow (or an Events run's initially
    /// active flows) at each multiple of this period.
    pub sample_every: Option<SimDuration>,
}

impl Experiment {
    /// `flows` for `protocol` on `topology` until `horizon`, under
    /// proportional fairness, on a healthy single-core network, without
    /// rate samples.
    pub fn new(
        protocol: Protocol,
        topology: Topology,
        flows: Flows,
        horizon: SimDuration,
    ) -> Experiment {
        Experiment {
            topology,
            protocol,
            setup: RunSetup::default(),
            objective: Objective::ProportionalFairness,
            flows,
            horizon,
            sample_every: None,
        }
    }

    /// The List flows (empty for the other workloads).
    pub fn list(&self) -> &[ListFlow] {
        match &self.flows {
            Flows::List(flows) => flows,
            _ => &[],
        }
    }

    /// The static NUM oracle's rate of every List flow run long-lived, in
    /// bits per second, on the route admission gives it — or, with links
    /// `down`, on the ECMP re-selection over the surviving paths. A flow the
    /// failure partitions gets 0: it cannot make progress, and counting it
    /// against convergence would let a partition masquerade as slow
    /// recovery.
    pub fn oracle_bps(&self, down: &HashSet<LinkId>) -> Vec<f64> {
        self.oracle_over(self.list().iter().map(|f| f.path), down)
    }

    /// [`Experiment::oracle_bps`] for long-lived flows on `paths`.
    fn oracle_over(
        &self,
        paths: impl Iterator<Item = PathSpec>,
        down: &HashSet<LinkId>,
    ) -> Vec<f64> {
        let topo = &self.topology;
        let routes: Vec<_> = paths
            .map(|p| {
                if down.is_empty() {
                    Some(topo.host_route(p.src, p.dst, p.spine_choice))
                } else {
                    topo.host_route_avoiding(p.src, p.dst, p.spine_choice, down)
                }
            })
            .collect();
        let routed: Vec<_> = routes
            .iter()
            .flatten()
            .map(|route| (route.clone(), self.objective.utility_for(0)))
            .collect();
        let mut solved = oracle_rates_bps(topo, &routed).into_iter();
        routes
            .iter()
            .map(|route| match route {
                Some(_) => solved.next().expect("oracle rate per routed flow"),
                None => 0.0,
            })
            .collect()
    }

    /// The `IdealFluidSimulator`'s completion time of every List flow — the
    /// Oracle of Figure 5, and the costliest measurement a run can ask for.
    ///
    /// # Panics
    /// Panics on a long-lived flow, which never completes.
    pub fn ideal_fcts(&self) -> Vec<SimDuration> {
        let arrivals: Vec<FlowArrival> = self
            .list()
            .iter()
            .map(|f| FlowArrival {
                start: f.start,
                src: f.path.src,
                dst: f.path.dst,
                size_bytes: f.size_bytes.expect("a finite flow"),
                spine_choice: f.path.spine_choice,
            })
            .collect();
        IdealFluidSimulator::new(&self.topology)
            .run(&arrivals, |a| self.objective.utility_for(a.size_bytes))
            .into_iter()
            .map(|c| c.fct)
            .collect()
    }
}

/// The outcome of one List flow.
#[derive(Debug, Clone, Copy)]
pub struct FlowRecord {
    /// Bytes to transfer (`None`: long-lived).
    pub size_bytes: Option<u64>,
    /// Completion time (`None` if the flow had not finished at the horizon).
    pub fct: Option<SimDuration>,
    /// Empty-network lower bound on the completion time over the route
    /// admission pinned (`None`: long-lived).
    pub empty_fct: Option<SimDuration>,
    /// Destination-side rate estimate at the end of the run, bits per
    /// second.
    pub rate_bps: f64,
    /// Packets of this flow dropped anywhere in the network.
    pub packets_dropped: u64,
}

impl FlowRecord {
    /// The normalized rate deviation of Fig. 5: `(rate − idealRate) /
    /// idealRate`, with rates defined as `size / completion time`. `None`
    /// if the flow did not finish.
    pub fn rate_deviation(&self, ideal_fct: SimDuration) -> Option<f64> {
        let fct = self.fct?.as_secs_f64();
        let ideal = ideal_fct.as_secs_f64();
        if fct <= 0.0 || ideal <= 0.0 {
            return None;
        }
        let size = self.size_bytes? as f64;
        let rate = size / fct;
        let ideal_rate = size / ideal;
        Some((rate - ideal_rate) / ideal_rate)
    }

    /// The normalized FCT of Fig. 7: measured FCT divided by the
    /// empty-network bound.
    pub fn normalized_fct(&self) -> Option<f64> {
        let fct = self.fct?.as_secs_f64();
        Some(fct / self.empty_fct?.as_secs_f64().max(1e-12))
    }
}

/// The sampled rates at one grid instant.
#[derive(Debug, Clone)]
pub struct RateSample {
    /// The sample instant.
    pub at: SimTime,
    /// One rate per sampled flow, bits per second, in injection order.
    pub rates_bps: Vec<f64>,
}

/// What a run measured. Each workload fills its own fields and leaves the
/// rest empty.
#[derive(Debug, Clone, Default)]
pub struct Outcome {
    /// One record per List flow, in list order.
    pub flows: Vec<FlowRecord>,
    /// The grid samples, in time order.
    pub samples: Vec<RateSample>,
    /// Per-event convergence times of a [`Pace::Converge`] run (`None`: did
    /// not converge in time).
    pub convergence: Vec<Option<SimDuration>>,
    /// The streaming summary of a Stream run.
    pub churn: ChurnSummary,
}

/// Run `exp` to its end on a network built by
/// [`Protocol::build_network_with`].
///
/// The execution knobs in `exp.setup` never change a measured byte: flow
/// start keys are content-derived, batch boundaries and retire decisions
/// derive from simulation content, and impairment draws come from per-link
/// streams.
pub fn run_experiment(exp: &Experiment) -> Outcome {
    let mut driver = Driver {
        net: exp
            .protocol
            .build_network_with(exp.topology.clone(), &exp.setup),
        exp,
        sampled: Vec::new(),
        samples: Vec::new(),
        next_sample: SimTime::ZERO + exp.sample_every.unwrap_or(SimDuration::ZERO),
    };
    let mut outcome = Outcome::default();
    match &exp.flows {
        Flows::List(flows) => outcome.flows = driver.run_list(flows),
        Flows::Stream { mix, config } => outcome.churn = driver.run_stream(mix, config),
        Flows::Events {
            scenario,
            warmup,
            pace,
        } => outcome.convergence = driver.run_events(scenario, *warmup, pace),
    }
    outcome.samples = driver.samples;
    outcome
}

/// The state of one run.
struct Driver<'a> {
    exp: &'a Experiment,
    net: Network,
    /// The flows the grid samples.
    sampled: Vec<FlowId>,
    samples: Vec<RateSample>,
    next_sample: SimTime,
}

/// One live (not yet retired) flow of a Stream.
struct LiveFlow {
    id: FlowId,
    class: usize,
    size_bytes: u64,
    /// Empty-network FCT bound — the slowdown denominator.
    empty_fct: SimDuration,
}

impl Driver<'_> {
    /// Add `flow` to the network: the harness's one `Network::add_flow`
    /// call site.
    fn inject(&mut self, flow: &ListFlow) -> FlowId {
        let utility = self.exp.objective.utility_for(flow.size_bytes.unwrap_or(0));
        self.net.add_flow(
            flow.path.src,
            flow.path.dst,
            flow.size_bytes,
            flow.start,
            flow.path.spine_choice,
            None,
            self.exp.protocol.make_agent(utility),
        )
    }

    /// The empty-network FCT bound of `id` over the route admission just
    /// pinned.
    fn empty_fct(&self, id: FlowId, size_bytes: u64) -> SimDuration {
        let route = self.net.route(self.net.flow_spec(id).route);
        empty_network_fct(self.net.topology(), route, size_bytes)
    }

    /// Simulate up to `until`, sampling the rates of the sampled flows at
    /// every grid instant on the way.
    fn advance(&mut self, until: SimTime) {
        if let Some(every) = self.exp.sample_every {
            while self.next_sample <= until {
                self.net.run_until(self.next_sample);
                let rates_bps = self
                    .sampled
                    .iter()
                    .map(|&id| self.net.flow_rate_estimate(id))
                    .collect();
                self.samples.push(RateSample {
                    at: self.next_sample,
                    rates_bps,
                });
                self.next_sample += every;
            }
        }
        if self.net.now() < until {
            self.net.run_until(until);
        }
    }

    fn run_list(&mut self, flows: &[ListFlow]) -> Vec<FlowRecord> {
        let mut empty_fcts = Vec::with_capacity(flows.len());
        for flow in flows {
            let id = self.inject(flow);
            self.sampled.push(id);
            empty_fcts.push(flow.size_bytes.map(|size| self.empty_fct(id, size)));
        }
        self.advance(SimTime::ZERO + self.exp.horizon);
        flows
            .iter()
            .zip(&self.sampled)
            .zip(empty_fcts)
            .map(|((flow, &id), empty_fct)| {
                let stats = self.net.flow_stats(id);
                FlowRecord {
                    size_bytes: flow.size_bytes,
                    fct: stats.fct(),
                    empty_fct,
                    rate_bps: self.net.flow_rate_estimate(id),
                    packets_dropped: stats.packets_dropped,
                }
            })
            .collect()
    }

    /// Inject arrivals in batches bounded by [`ARRIVAL_BATCH`] arrivals and
    /// [`HARVEST_SLICE`] of simulated time, whichever fills first; simulate
    /// up to each batch's last start; harvest. Batch boundaries are arrival
    /// times — pure functions of the seed.
    fn run_stream(&mut self, mix: &[ChurnClass], config: &ChurnConfig) -> ChurnSummary {
        let mut classes: Vec<ClassStats> = mix.iter().map(|c| ClassStats::new(c.name)).collect();
        let mut live: Vec<LiveFlow> = Vec::new();
        let mut stream = ChurnStream::new(self.exp.topology.hosts(), mix, config).peekable();
        let mut offered = 0u64;
        let mut peak_concurrent = 0usize;
        while let Some(first) = stream.peek() {
            let slice_end = first.arrival.start + HARVEST_SLICE;
            let mut batch_end = first.arrival.start;
            let mut injected = 0usize;
            while injected < ARRIVAL_BATCH {
                let Some(head) = stream.peek() else { break };
                if injected > 0 && head.arrival.start >= slice_end {
                    break;
                }
                let a = stream.next().expect("peeked head must exist");
                let size_bytes = a.arrival.size_bytes;
                let id = self.inject(&ListFlow::from(&a.arrival));
                live.push(LiveFlow {
                    id,
                    class: a.class,
                    size_bytes,
                    empty_fct: self.empty_fct(id, size_bytes),
                });
                batch_end = a.arrival.start;
                offered += 1;
                injected += 1;
            }
            peak_concurrent = peak_concurrent.max(live.len());
            self.net.run_until(batch_end);
            harvest(&mut self.net, &mut live, &mut classes);
        }
        self.net.run_until(SimTime::ZERO + self.exp.horizon);
        harvest(&mut self.net, &mut live, &mut classes);
        ChurnSummary {
            offered,
            completed: classes.iter().map(|c| c.flows).sum(),
            peak_concurrent,
            flow_slots: self.net.num_flows(),
            classes,
        }
    }

    /// Start the initial population, warm it up, then play the events. The
    /// active set is kept in path-index order, so the oracle interns links
    /// in the same order on every run.
    fn run_events(
        &mut self,
        scenario: &SemiDynamicScenario,
        warmup: SimDuration,
        pace: &Pace,
    ) -> Vec<Option<SimDuration>> {
        let long_lived = |path: PathSpec, start: SimTime| ListFlow {
            path,
            start,
            size_bytes: None,
        };
        let mut active: BTreeMap<usize, FlowId> = BTreeMap::new();
        for &p in &scenario.initial_active {
            let id = self.inject(&long_lived(scenario.paths[p], SimTime::ZERO));
            self.sampled.push(id);
            active.insert(p, id);
        }
        self.advance(SimTime::ZERO + warmup);

        let tracked = matches!(pace, Pace::Every(_)).then(|| scenario.initial_active[0]);
        let mut times = Vec::new();
        for event in &scenario.events {
            for &p in &event.paths {
                match event.kind {
                    EventKind::Start => {
                        let id = self.inject(&long_lived(scenario.paths[p], self.net.now()));
                        active.insert(p, id);
                    }
                    EventKind::Stop if tracked == Some(p) => {}
                    EventKind::Stop => {
                        if let Some(id) = active.remove(&p) {
                            self.net.stop_flow(id);
                        }
                    }
                }
            }
            match *pace {
                Pace::Every(spacing) => self.advance(self.net.now() + spacing),
                Pace::Converge {
                    criterion,
                    max_wait,
                } => {
                    let paths = active.keys().map(|&p| scenario.paths[p]);
                    let targets = self.exp.oracle_over(paths, &HashSet::new());
                    let ids: Vec<FlowId> = active.values().copied().collect();
                    let outcome =
                        measure_convergence(&mut self.net, &ids, &targets, &criterion, max_wait);
                    times.push(outcome.convergence_time);
                }
            }
        }
        times
    }
}

/// Harvest pass: record and retire every live flow that has completed
/// *and* quiesced (no pending timers, no packets in flight). Flows that
/// completed but still have ACKs on the wire stay live until a later pass.
fn harvest(net: &mut Network, live: &mut Vec<LiveFlow>, classes: &mut [ClassStats]) {
    live.retain(|flow| {
        let Some(fct) = net.flow_stats(flow.id).fct() else {
            return true;
        };
        // Read the stats before retiring — retirement clears the slot.
        if !net.try_retire_flow(flow.id) {
            return true;
        }
        let fct_secs = fct.as_secs_f64();
        let slowdown = fct_secs / flow.empty_fct.as_secs_f64().max(1e-12);
        classes[flow.class].record(flow.size_bytes, fct_secs, slowdown);
        false
    });
}

#[cfg(test)]
mod tests {
    use super::*;
    use numfabric_core::NumFabricConfig;
    use numfabric_sim::topology::LeafSpineConfig;
    use numfabric_workloads::arrivals::{poisson_arrivals, PoissonWorkloadConfig};
    use numfabric_workloads::convergence::convergence_stats;
    use numfabric_workloads::distributions::FixedSize;
    use numfabric_workloads::scenarios::SemiDynamicConfig;

    fn numfabric() -> Protocol {
        Protocol::NumFabric(NumFabricConfig::default())
    }

    #[test]
    fn numfabric_dynamic_run_completes_most_flows_near_ideal() {
        let topo = Topology::leaf_spine(&LeafSpineConfig::small(8, 2, 2));
        let config = PoissonWorkloadConfig {
            load: 0.3,
            host_link_bps: 10e9,
            duration: SimDuration::from_millis(5),
            seed: 3,
            num_spines: 2,
        };
        let arrivals = poisson_arrivals(topo.hosts(), &FixedSize(200_000), &config);
        let flows: Vec<ListFlow> = arrivals.iter().map(ListFlow::from).collect();
        assert!(!flows.is_empty());
        let exp = Experiment::new(
            numfabric(),
            topo,
            Flows::List(flows),
            SimDuration::from_millis(65),
        );
        let records = run_experiment(&exp).flows;
        let finished = records.iter().filter(|r| r.fct.is_some()).count();
        assert!(
            finished * 10 >= records.len() * 9,
            "only {finished}/{} flows finished",
            records.len()
        );
        // Median rate deviation should be modest (the paper reports near-zero
        // medians for flows above a few BDP).
        let mut devs: Vec<f64> = records
            .iter()
            .zip(exp.ideal_fcts())
            .filter_map(|(r, ideal)| r.rate_deviation(ideal))
            .collect();
        devs.sort_by(|a, b| a.partial_cmp(b).unwrap());
        let median = devs[devs.len() / 2];
        assert!(median.abs() < 0.5, "median deviation = {median}");
    }

    #[test]
    fn deviation_and_normalization_arithmetic() {
        let r = FlowRecord {
            size_bytes: Some(1_000_000),
            fct: Some(SimDuration::from_millis(2)),
            empty_fct: Some(SimDuration::from_micros(800)),
            rate_bps: 0.0,
            packets_dropped: 0,
        };
        // Measured rate is half the ideal rate → deviation −0.5.
        let ideal = SimDuration::from_millis(1);
        assert!((r.rate_deviation(ideal).unwrap() + 0.5).abs() < 1e-9);
        assert!((r.normalized_fct().unwrap() - 2.5).abs() < 1e-9);
        let unfinished = FlowRecord { fct: None, ..r };
        assert!(unfinished.rate_deviation(ideal).is_none());
        let long_lived = FlowRecord {
            size_bytes: None,
            empty_fct: None,
            ..r
        };
        assert!(long_lived.normalized_fct().is_none());
    }

    /// A tiny semi-dynamic experiment: 8 hosts, 24 paths, 3-flow events.
    fn tiny_events(events: usize, pace: Pace) -> Experiment {
        let topo = Topology::leaf_spine(&LeafSpineConfig::small(8, 2, 2));
        // Seed chosen so every event of the tiny scenario admits
        // convergence within max_wait under the workspace's seeded RNG.
        let scenario =
            SemiDynamicScenario::generate(&topo, &SemiDynamicConfig::scaled(24, 3, events, 4));
        let flows = Flows::Events {
            scenario,
            warmup: SimDuration::from_millis(2),
            pace,
        };
        Experiment::new(numfabric(), topo, flows, SimDuration::ZERO)
    }

    #[test]
    fn numfabric_converges_on_a_tiny_semi_dynamic_scenario() {
        let pace = Pace::Converge {
            criterion: ConvergenceCriterion {
                hold: SimDuration::from_micros(500),
                ..Default::default()
            },
            max_wait: SimDuration::from_millis(8),
        };
        let times = run_experiment(&tiny_events(3, pace)).convergence;
        assert_eq!(times.len(), 3);
        let stats = convergence_stats(&times);
        assert!(
            stats.converged >= 2,
            "NUMFabric converged on only {}/{} events: {times:?}",
            stats.converged,
            stats.total,
        );
        let median = stats.median.expect("some events converged");
        assert!(median < SimDuration::from_millis(6), "median = {median}");
    }

    #[test]
    fn timeseries_sampling_produces_monotone_timestamps() {
        let mut exp = tiny_events(2, Pace::Every(SimDuration::from_millis(1)));
        exp.sample_every = Some(SimDuration::from_micros(100));
        let samples = run_experiment(&exp).samples;
        // 2 ms warm-up plus two 1 ms events on a 100 µs grid.
        assert_eq!(samples.len(), 40);
        for w in samples.windows(2) {
            assert!(w[1].at > w[0].at);
        }
        // The tracked flow must actually carry traffic at some point.
        assert!(samples.iter().any(|s| s.rates_bps[0] > 1e8));
    }
}
