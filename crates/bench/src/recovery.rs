//! The failure-recovery scenario: how fast does each protocol re-converge
//! after a fabric cable fails?
//!
//! The experiment starts a stride permutation of long-lived flows, lets
//! them converge, then cuts the **busiest fabric cable** (both directions,
//! via [`ImpairmentSchedule::cable_cut`]) at `--fail-us` and optionally
//! restores it at `--restore-us`. Rates are sampled on a fixed grid; at
//! every sample the per-flow rates are compared against the fluid oracle of
//! the *currently active* regime — the healthy allocation before the
//! failure, the allocation over the surviving ECMP routes while the cable
//! is down, and the healthy allocation again after restoration. The
//! headline metric is **time-to-reconverge**: how long after the failure
//! (and after the restore) until a quorum of flows is back within
//! tolerance of the active oracle, sustained over several samples.
//!
//! Victim selection is deterministic — the cable carrying the most flow
//! routes, ties to the lowest link id — so a `recovery` run is a pure
//! function of its options, like every other scenario.

use crate::experiment::{run_experiment, Experiment, Flows, ListFlow, Outcome};
use crate::fabric::{fraction_within, stride_from_options};
use crate::protocols::Protocol;
use crate::registry::{RunError, ScenarioOptions};
use crate::report::{micros, Json, Report};
use numfabric_baselines::{DctcpConfig, PfabricConfig};
use numfabric_core::NumFabricConfig;
use numfabric_sim::topology::{LinkId, Topology};
use numfabric_sim::{SimDuration, SimTime};
use numfabric_workloads::impairments::{fabric_cables, ImpairmentSchedule};
use numfabric_workloads::scenarios::{stride_pairs, PathSpec};
use numfabric_workloads::TopologySpec;
use std::collections::HashSet;

/// Rate-sampling period.
const SAMPLE_EVERY: SimDuration = SimDuration::from_micros(25);

/// Relative tolerance a flow must be within of its oracle rate.
const TOLERANCE: f64 = 0.20;

/// Fraction of flows that must be within tolerance to count as converged.
const QUORUM: f64 = 0.75;

/// Minimum number of samples the quorum must cover. Reconvergence has
/// settling-time semantics: the quorum must hold from the reported instant
/// through the end of the regime, and for at least this many samples.
const SUSTAIN: usize = 3;

/// When the cable fails and comes back, and how long the run lasts.
#[derive(Debug, Clone, Copy)]
pub struct RecoveryConfig {
    /// When the victim cable goes down.
    pub fail_at: SimTime,
    /// When (if ever) the cable comes back.
    pub restore_at: Option<SimTime>,
    /// Total simulated time.
    pub run_for: SimDuration,
}

impl Default for RecoveryConfig {
    /// Fail at 1.5 ms, no restore, 6 ms run.
    fn default() -> Self {
        Self {
            fail_at: SimTime::from_micros(1_500),
            restore_at: None,
            run_for: SimDuration::from_millis(6),
        }
    }
}

/// One sampled point of the run: the sample instant and the fraction of
/// flows within tolerance of the oracle active at that instant.
#[derive(Debug, Clone, Copy)]
pub struct RecoverySample {
    /// The sample instant.
    pub at: SimTime,
    /// Fraction of flows within tolerance of the active oracle.
    pub fraction_within: f64,
}

/// The outcome of one protocol's recovery run.
#[derive(Debug, Clone)]
pub struct RecoveryResult {
    /// Protocol that was run.
    pub protocol: String,
    /// Number of long-lived flows.
    pub flows: usize,
    /// The failed cable's forward link id.
    pub victim_forward: LinkId,
    /// The failed cable's reverse link id.
    pub victim_reverse: LinkId,
    /// Time from the failure until the post-failure quorum settled — held
    /// from that instant through the end of the failed regime (`None`:
    /// never within the run).
    pub reconverge_after_failure: Option<SimDuration>,
    /// Same, measured from the restore against the healthy oracle
    /// (`None` when no restore was scheduled, or it never reconverged).
    pub reconverge_after_restore: Option<SimDuration>,
    /// Fraction of flows within tolerance of the active oracle at the final
    /// sample.
    pub final_fraction_within: f64,
    /// Total measured / total oracle throughput at the final sample.
    pub final_throughput_ratio: f64,
    /// The full sampled time series.
    pub samples: Vec<RecoverySample>,
}

/// The busiest fabric cable under the given flow population: the
/// `(forward, reverse)` twin pair whose two directions carry the most
/// routes, ties broken toward the lowest forward link id. Deterministic by
/// construction — this is what makes the default `recovery` victim
/// reproducible without a seed.
pub fn busiest_cable(topo: &Topology, pairs: &[PathSpec]) -> (LinkId, LinkId) {
    let mut usage = vec![0usize; topo.links().len()];
    for p in pairs {
        for l in topo.host_route(p.src, p.dst, p.spine_choice) {
            usage[l] += 1;
        }
    }
    fabric_cables(topo)
        .into_iter()
        .max_by_key(|&(fwd, rev)| (usage[fwd] + usage[rev], std::cmp::Reverse(fwd)))
        .expect("topology has no fabric cables")
}

/// The recovery experiment for `protocol`: one long-lived flow per pair,
/// rates sampled every 25 µs, and the busiest cable cut (both directions)
/// at `config.fail_at`. A cut draws nothing at random, so the run is a pure
/// function of its arguments.
pub fn recovery_experiment(
    protocol: Protocol,
    topo: Topology,
    pairs: &[PathSpec],
    config: &RecoveryConfig,
) -> Experiment {
    let (victim, _) = busiest_cable(&topo, pairs);
    let impairments =
        ImpairmentSchedule::cable_cut(&topo, victim, config.fail_at, config.restore_at);
    let flows = Flows::List(ListFlow::pairs(pairs, None));
    Experiment {
        impairments,
        sample_every: Some(SAMPLE_EVERY),
        ..Experiment::new(protocol, topo, flows, config.run_for)
    }
}

impl RecoveryResult {
    /// Judge a [`recovery_experiment`]'s rate samples against the oracle of
    /// the regime active at each sample: the healthy allocation before the
    /// failure and after the restore, the allocation over the surviving
    /// routes while the cable is down.
    pub fn judge(exp: &Experiment, outcome: &Outcome, config: &RecoveryConfig) -> Self {
        let pairs: Vec<PathSpec> = exp.list().iter().map(|f| f.path).collect();
        let (victim_forward, victim_reverse) = busiest_cable(&exp.topology, &pairs);
        let healthy_oracle = exp.oracle_bps(&HashSet::new());
        let failed_oracle = exp.oracle_bps(&HashSet::from([victim_forward, victim_reverse]));
        let cable_down =
            |t: SimTime| t >= config.fail_at && config.restore_at.is_none_or(|restore| t < restore);
        let samples: Vec<RecoverySample> = outcome
            .samples
            .iter()
            .map(|s| {
                let oracle = if cable_down(s.at) {
                    &failed_oracle
                } else {
                    &healthy_oracle
                };
                RecoverySample {
                    at: s.at,
                    fraction_within: fraction_within(&s.rates_bps, oracle, TOLERANCE),
                }
            })
            .collect();

        // Time-to-reconverge, with settling-time semantics: the quorum must
        // hold from the reported sample all the way to the END of the regime
        // (and cover at least `SUSTAIN` samples). Any-window detection would
        // be fooled by the first instants after a failure, when the rate
        // EWMAs still show the pre-failure allocation and can transiently
        // agree with the new regime's oracle before the queues even react.
        let reconverged_at = |from: SimTime, until: Option<SimTime>| -> Option<SimDuration> {
            let window: Vec<&RecoverySample> = samples
                .iter()
                .filter(|s| s.at >= from && until.is_none_or(|u| s.at < u))
                .collect();
            let holds_from = window
                .iter()
                .rposition(|s| s.fraction_within < QUORUM)
                .map_or(0, |i| i + 1);
            (window.len() - holds_from >= SUSTAIN).then(|| window[holds_from].at - from)
        };
        let final_oracle = if config.restore_at.is_some() {
            &healthy_oracle
        } else {
            &failed_oracle
        };
        let final_total: f64 = outcome
            .samples
            .last()
            .map_or(0.0, |s| s.rates_bps.iter().sum());
        let oracle_total: f64 = final_oracle.iter().sum();
        RecoveryResult {
            protocol: exp.protocol.name().to_string(),
            flows: pairs.len(),
            victim_forward,
            victim_reverse,
            reconverge_after_failure: reconverged_at(config.fail_at, config.restore_at),
            reconverge_after_restore: config.restore_at.and_then(|r| reconverged_at(r, None)),
            final_fraction_within: samples.last().map_or(0.0, |s| s.fraction_within),
            final_throughput_ratio: final_total / oracle_total.max(1.0),
            samples,
        }
    }
}

fn result_json(topology: &str, config: &RecoveryConfig, result: &RecoveryResult) -> Json {
    let opt_us = |d: Option<SimDuration>| d.map_or(Json::Null, |d| Json::Num(d.as_micros_f64()));
    Json::Obj(vec![
        ("scenario", Json::str("recovery")),
        ("topology", Json::str(topology)),
        ("protocol", Json::str(result.protocol.clone())),
        ("flows", Json::Int(result.flows as u64)),
        ("fail_us", Json::Num(config.fail_at.as_micros_f64())),
        (
            "restore_us",
            config
                .restore_at
                .map_or(Json::Null, |r| Json::Num(r.as_micros_f64())),
        ),
        (
            "victim_links",
            Json::Arr(vec![
                Json::Int(result.victim_forward as u64),
                Json::Int(result.victim_reverse as u64),
            ]),
        ),
        (
            "reconverge_after_failure_us",
            opt_us(result.reconverge_after_failure),
        ),
        (
            "reconverge_after_restore_us",
            opt_us(result.reconverge_after_restore),
        ),
        (
            "final_fraction_within",
            Json::Num(result.final_fraction_within),
        ),
        (
            "final_throughput_ratio",
            Json::Num(result.final_throughput_ratio),
        ),
        (
            "samples_us",
            Json::nums(result.samples.iter().map(|s| s.at.as_micros_f64())),
        ),
        (
            "fraction_within",
            Json::nums(result.samples.iter().map(|s| s.fraction_within)),
        ),
    ])
}

/// The `recovery` scenario entry point: cut the busiest cable under a
/// stride permutation and report time-to-reconverge, for one `--protocol`
/// or a `--compare` list.
pub fn recovery(opts: &ScenarioOptions) -> Result<Report, RunError> {
    let spec: TopologySpec = opts.parsed_or("--topology", TopologySpec::FatTree { k: 4 })?;
    let seed: u64 = opts.parsed_or("--seed", 1)?;
    let millis: u64 = opts.parsed_or("--millis", 6)?;
    let fail_us: u64 = opts.parsed_or("--fail-us", 1_500)?;
    let restore_us: Option<u64> = opts.try_parsed("--restore-us")?;
    let protocols: Vec<Protocol> = match opts.parse_csv("--compare") {
        Ok(Some(list)) => list,
        Ok(None) => vec![opts.parsed_or("--protocol", Protocol::default())?],
        // A bare `--compare` — the last token, or followed by another
        // option — compares the default three.
        Err(bare) if bare.value.is_empty() || bare.value.starts_with("--") => vec![
            Protocol::NumFabric(NumFabricConfig::default()),
            Protocol::Dctcp(DctcpConfig::default()),
            Protocol::Pfabric(PfabricConfig::default()),
        ],
        Err(invalid) => return Err(invalid.into()),
    };

    let topo = spec.build(opts.full());
    let stride_by = stride_from_options(opts, &topo)?;
    let config = RecoveryConfig {
        fail_at: SimTime::from_micros(fail_us),
        restore_at: restore_us.map(SimTime::from_micros),
        run_for: SimDuration::from_millis(millis),
    };
    if config.fail_at + SAMPLE_EVERY * SUSTAIN as u64 > SimTime::ZERO + config.run_for {
        return Err(RunError::usage(format!(
            "--fail-us {fail_us} leaves no room to observe recovery in a {millis} ms run"
        )));
    }
    let pairs = stride_pairs(&topo, stride_by, seed);
    let topology = spec.describe(&topo);

    let mut report = Report::default();
    let restore = restore_us.map_or(String::new(), |r| format!(", restore at {r} us"));
    writeln!(
        report,
        "Recovery: busiest-cable cut on {topology}\n\
         stride {stride_by} permutation, {} long-lived flows; fail at {fail_us} us{restore}, {millis} ms run (seed {seed})\n",
        pairs.len(),
    );
    let results: Vec<RecoveryResult> = protocols
        .into_iter()
        .map(|p| {
            let exp = recovery_experiment(p, topo.clone(), &pairs, &config);
            RecoveryResult::judge(&exp, &run_experiment(&exp), &config)
        })
        .collect();

    let docs: Vec<Json> = results
        .iter()
        .map(|r| result_json(&topology, &config, r))
        .collect();
    report.json = Some(match <[Json; 1]>::try_from(docs) {
        Ok([single]) => single,
        Err(docs) => Json::Arr(docs),
    });
    report.table(
        &[
            "protocol",
            "flows",
            "victim cable",
            "reconverge (fail)",
            "reconverge (restore)",
            "final within 20%",
            "final vs oracle",
        ],
        &results
            .iter()
            .map(|r| {
                vec![
                    r.protocol.clone(),
                    format!("{}", r.flows),
                    format!("{}<->{}", r.victim_forward, r.victim_reverse),
                    micros(r.reconverge_after_failure),
                    micros(r.reconverge_after_restore),
                    format!("{:.0}%", r.final_fraction_within * 100.0),
                    format!("{:.2}", r.final_throughput_ratio),
                ]
            })
            .collect::<Vec<_>>(),
    );
    report.text +=
        "\nExpected shape: xWI re-prices the surviving paths within a few RTTs, so NUMFabric\n\
         reconverges fastest; DCTCP recovers on ECN feedback more slowly, and restoration is\n\
         quicker than failure because no retransmission state has to drain.\n";
    // A recovery run is wedged when the simulation stalled outright —
    // non-finite estimates or the fabric moving (almost) no traffic vs the
    // final regime's oracle. Slow reconvergence is a *finding*, not a wedge.
    let stalled = results
        .iter()
        .map(|r| (&r.protocol, r.final_throughput_ratio))
        .find(|(_, ratio)| !ratio.is_finite() || *ratio < 0.1);
    if let Some((protocol, ratio)) = stalled {
        let reason = format!(
            "recovery run wedged: {protocol} final throughput ratio {ratio:.3} vs the active oracle"
        );
        return Err(RunError::Wedged { report, reason });
    }
    Ok(report)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn setup() -> (Topology, Vec<PathSpec>) {
        let topo = TopologySpec::FatTree { k: 4 }.build(false);
        let pairs = stride_pairs(&topo, 8, 3);
        (topo, pairs)
    }

    /// The NUMFabric recovery run under `config`, judged.
    fn recover(config: &RecoveryConfig) -> RecoveryResult {
        let (topo, pairs) = setup();
        let protocol = Protocol::NumFabric(NumFabricConfig::default());
        let exp = recovery_experiment(protocol, topo, &pairs, config);
        RecoveryResult::judge(&exp, &run_experiment(&exp), config)
    }

    #[test]
    fn busiest_cable_is_deterministic_and_switch_to_switch() {
        let (topo, pairs) = setup();
        let (fwd, rev) = busiest_cable(&topo, &pairs);
        assert_eq!(busiest_cable(&topo, &pairs), (fwd, rev));
        let spec = &topo.links()[fwd];
        assert!(topo.nodes()[spec.from].kind.is_switch());
        assert!(topo.nodes()[spec.to].kind.is_switch());
        assert_eq!(topo.link_between(spec.to, spec.from), Some(rev));
    }

    #[test]
    fn numfabric_reconverges_after_a_cable_cut() {
        let result = recover(&RecoveryConfig {
            fail_at: SimTime::from_micros(1_500),
            run_for: SimDuration::from_millis(5),
            ..RecoveryConfig::default()
        });
        assert_eq!(result.flows, 16);
        let reconverge = result
            .reconverge_after_failure
            .expect("xWI must reconverge onto the surviving paths");
        assert!(
            reconverge < SimDuration::from_millis(3),
            "reconvergence took {reconverge}"
        );
        assert!(result.final_throughput_ratio > 0.8);
    }

    #[test]
    fn restoration_reconverges_back_onto_the_healthy_oracle() {
        let result = recover(&RecoveryConfig {
            fail_at: SimTime::from_micros(1_000),
            restore_at: Some(SimTime::from_micros(2_500)),
            run_for: SimDuration::from_millis(6),
        });
        assert!(result.reconverge_after_restore.is_some());
        assert!(result.final_fraction_within >= 0.75);
    }

    #[test]
    fn recovery_runs_are_replay_identical() {
        let config = RecoveryConfig {
            run_for: SimDuration::from_millis(3),
            ..RecoveryConfig::default()
        };
        let (a, b) = (recover(&config), recover(&config));
        assert_eq!(a.victim_forward, b.victim_forward);
        assert_eq!(a.samples.len(), b.samples.len());
        for (sa, sb) in a.samples.iter().zip(&b.samples) {
            assert_eq!(sa.at, sb.at);
            assert_eq!(sa.fraction_within.to_bits(), sb.fraction_within.to_bits());
        }
    }
}
