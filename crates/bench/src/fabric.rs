//! The generalized-fabric scenario family: incast, all-to-all shuffle and
//! stride permutation, runnable on any `--topology` (full-bisection
//! leaf-spine, oversubscribed leaf-spine, k-ary fat-tree) under any
//! protocol.
//!
//! Each scenario is a List [`Experiment`] of fixed pairs at t = 0 plus a
//! formatter: incast and shuffle inject finite flows and report completion
//! statistics ([`TransferSummary`]); stride runs long-lived flows and
//! compares measured rates to the fluid NUM oracle
//! ([`SteadyStateSummary`]) — the cross-check that pins the packet
//! simulation against the fluid solution on non-leaf-spine fabrics.

use crate::experiment::{run_experiment, Experiment, FlowRecord, Flows, ListFlow};
use crate::protocols::{impairments_from_options, Protocol};
use crate::registry::RunError;
use crate::report::{mean, percentile, steady_state_report_json, transfer_report_json, Report};
use numfabric_sim::topology::Topology;
use numfabric_sim::SimDuration;
use numfabric_workloads::registry::ScenarioOptions;
use numfabric_workloads::scenarios::{incast_pairs, shuffle_pairs, stride_pairs};
use numfabric_workloads::TopologySpec;
use std::collections::HashSet;

/// Completion statistics of a finite-transfer run.
#[derive(Debug, Clone)]
pub struct TransferSummary {
    /// Number of flows injected.
    pub flows: usize,
    /// Flows that completed before the deadline.
    pub completed: usize,
    /// Per-flow completion times (only completed flows), seconds.
    pub fcts: Vec<f64>,
    /// Total payload bytes of the completed flows.
    pub completed_bytes: u64,
    /// Simulation time when the last completed flow finished.
    pub makespan: Option<SimDuration>,
}

impl TransferSummary {
    /// The completion statistics of a List run's finite flows.
    pub fn of(records: &[FlowRecord]) -> Self {
        let mut fcts = Vec::new();
        let mut completed_bytes = 0u64;
        let mut makespan: Option<SimDuration> = None;
        for r in records {
            if let Some(fct) = r.fct {
                fcts.push(fct.as_secs_f64());
                completed_bytes += r.size_bytes.unwrap_or(0);
                makespan = Some(makespan.map_or(fct, |m| m.max(fct)));
            }
        }
        TransferSummary {
            flows: records.len(),
            completed: fcts.len(),
            fcts,
            completed_bytes,
            makespan,
        }
    }

    /// Aggregate goodput of the completed transfers in bits per second
    /// (payload bytes over the makespan).
    pub fn aggregate_goodput_bps(&self) -> f64 {
        match self.makespan {
            Some(t) if !t.is_zero() => self.completed_bytes as f64 * 8.0 / t.as_secs_f64(),
            _ => 0.0,
        }
    }

    /// Whether every injected flow completed.
    pub fn all_completed(&self) -> bool {
        self.completed == self.flows
    }
}

/// Measured vs oracle steady-state rates of long-lived flows.
#[derive(Debug, Clone)]
pub struct SteadyStateSummary {
    /// Destination-side EWMA rate estimate per flow, bits per second.
    pub rates_bps: Vec<f64>,
    /// Fluid NUM oracle rate per flow, bits per second.
    pub oracle_bps: Vec<f64>,
}

impl SteadyStateSummary {
    /// The final rates of `exp`'s long-lived List flows (its run's
    /// `records`) beside the static NUM oracle's allocation for the same
    /// population on healthy routes. Under a persistent impairment the
    /// measured rates document the concession; the dedicated `recovery`
    /// scenario compares against the post-failure oracle.
    pub fn of(exp: &Experiment, records: &[FlowRecord]) -> Self {
        SteadyStateSummary {
            rates_bps: records.iter().map(|r| r.rate_bps).collect(),
            oracle_bps: exp.oracle_bps(&HashSet::new()),
        }
    }

    /// Fraction of flows whose measured rate is within `tol` (relative) of
    /// the oracle allocation.
    pub fn fraction_within(&self, tol: f64) -> f64 {
        let ok = self
            .rates_bps
            .iter()
            .zip(&self.oracle_bps)
            .filter(|(&r, &o)| (r - o).abs() <= tol * o.max(1.0))
            .count();
        ok as f64 / self.rates_bps.len().max(1) as f64
    }

    /// Total measured throughput over total oracle throughput.
    pub fn throughput_ratio(&self) -> f64 {
        let measured: f64 = self.rates_bps.iter().sum();
        let oracle: f64 = self.oracle_bps.iter().sum();
        measured / oracle.max(1.0)
    }
}

/// Parse `--size` (defaulting to `default`). A zero-byte transfer can never
/// complete, so it is a usage error (the rule `SweepSpec::validate` applies
/// to `--sizes`), not a run that reports itself wedged at the deadline.
fn size_from_options(opts: &ScenarioOptions, default: u64) -> Result<u64, RunError> {
    match opts.parsed_or("--size", default)? {
        0 => Err(RunError::usage("--size must be at least 1 byte")),
        size => Ok(size),
    }
}

/// Parse `--load` (defaulting to `default`) and validate it is a finite
/// fraction strictly inside `(0, 1)` — the shared contract of every
/// load-driven scenario (fig5, dynamic, churn): the arrival-rate formula
/// `λ = load·bps·hosts/(8·mean)` degenerates at 0 and diverges service
/// time at ≥ 1. Out-of-range values are usage errors.
pub(crate) fn parse_load_fraction(opts: &ScenarioOptions, default: f64) -> Result<f64, RunError> {
    let load: f64 = opts.parsed_or("--load", default)?;
    if !load.is_finite() || load <= 0.0 || load >= 1.0 {
        return Err(RunError::usage(format!(
            "--load {load} must be a fraction strictly between 0 and 1"
        )));
    }
    Ok(load)
}

/// Parse `--stride` (default half the hosts). A multiple of the host count
/// would make every flow a self-loop, so it is a usage error.
pub(crate) fn stride_from_options(
    opts: &ScenarioOptions,
    topo: &Topology,
) -> Result<usize, RunError> {
    let hosts = topo.hosts().len();
    match opts.parsed_or("--stride", hosts / 2)? {
        stride if stride.is_multiple_of(hosts) => Err(RunError::usage(format!(
            "--stride {stride} is a multiple of the host count {hosts} (flows would be self-loops)"
        ))),
        stride => Ok(stride),
    }
}

/// A deadline generous enough for `total_bytes` through one `bottleneck_bps`
/// link, with convergence slack.
pub(crate) fn transfer_deadline(total_bytes: u64, bottleneck_bps: f64) -> SimDuration {
    let drain = total_bytes as f64 * 8.0 / bottleneck_bps;
    SimDuration::from_secs_f64(4.0 * drain) + SimDuration::from_millis(10)
}

/// The worst leaf downlink:uplink capacity ratio of the fabric (1.0 when no
/// leaf is oversubscribed, or when there is no fabric tier at all). Deadline
/// heuristics multiply by this: on an R:1 oversubscribed fabric, cross-rack
/// transfers drain up to R times slower than the NIC bound suggests.
pub(crate) fn worst_oversubscription(topo: &Topology) -> f64 {
    use numfabric_sim::topology::NodeKind;
    let mut worst: f64 = 1.0;
    for &leaf in topo.leaves() {
        let (mut down, mut up) = (0.0, 0.0);
        for l in topo.links().iter().filter(|l| l.from == leaf) {
            match topo.nodes()[l.to].kind {
                NodeKind::Host => down += l.capacity_bps,
                kind if kind.is_switch() => up += l.capacity_bps,
                _ => {}
            }
        }
        if up > 0.0 {
            worst = worst.max(down / up);
        }
    }
    worst
}

fn transfer_table(report: &mut Report, label: &str, summary: &TransferSummary) {
    let ms = |s: Option<f64>| s.map_or_else(|| "-".into(), |s| format!("{:.2} ms", s * 1e3));
    report.table(
        &[
            "scenario",
            "flows",
            "completed",
            "median FCT",
            "p99 FCT",
            "makespan",
            "goodput",
        ],
        &[vec![
            label.to_string(),
            format!("{}", summary.flows),
            format!("{}", summary.completed),
            ms(percentile(&summary.fcts, 0.5)),
            ms(percentile(&summary.fcts, 0.99)),
            ms(summary.makespan.map(|m| m.as_secs_f64())),
            format!("{:.2} Gbps", summary.aggregate_goodput_bps() / 1e9),
        ]],
    );
}

/// The incast scenario: `--fanin` senders transfer `--size` bytes each to a
/// single receiver; the receiver's access link is the bottleneck.
pub fn incast(opts: &ScenarioOptions) -> Result<Report, RunError> {
    let spec = opts.parsed_or("--topology", TopologySpec::LeafSpine)?;
    let fan_in: usize = opts.parsed_or("--fanin", 8)?;
    let size = size_from_options(opts, 500_000)?;
    let seed: u64 = opts.parsed_or("--seed", 1)?;
    let protocol = opts.parsed_or("--protocol", Protocol::default())?;
    let topo = spec.build(opts.full());
    if fan_in == 0 || fan_in >= topo.hosts().len() {
        return Err(RunError::usage(format!(
            "--fanin {fan_in} needs 1..{} senders on this {}-host fabric",
            topo.hosts().len() - 1,
            topo.hosts().len()
        )));
    }
    let pairs = incast_pairs(&topo, fan_in, seed);
    let impairments = impairments_from_options(opts, &topo, seed)?;
    let host_bps = topo.links()[0].capacity_bps;
    let topology = spec.describe(&topo);
    let mut report = Report::default();
    writeln!(
        report,
        "Incast: {} on {topology}\n{fan_in} senders -> host {} , {} kB each (seed {seed})\n",
        protocol.name(),
        pairs[0].dst,
        size / 1000
    );
    let deadline = transfer_deadline(fan_in as u64 * size, host_bps);
    let flows = Flows::List(ListFlow::pairs(&pairs, Some(size)));
    let exp = Experiment {
        impairments,
        ..Experiment::new(protocol, topo, flows, deadline)
    };
    let expected = format!(
        "Expected shape: the receiver's access link is the bottleneck, so aggregate goodput\n\
         approaches its line rate ({:.0} Gbps) and FCTs stack up roughly linearly with fan-in.",
        host_bps / 1e9
    );
    report_transfers(report, "incast", &exp, &topology, seed, &expected)
}

/// How many of `records`' unfinished flows had a packet dropped.
fn unfinished_with_drops(records: &[FlowRecord]) -> usize {
    records
        .iter()
        .filter(|r| r.fct.is_none() && r.packets_dropped > 0)
        .count()
}

/// Run a finite-transfer List experiment and complete `report` with it —
/// the summary table and the `expected` shape, and the JSON document — a
/// wedged report if any transfer missed the deadline.
fn report_transfers(
    mut report: Report,
    scenario: &str,
    exp: &Experiment,
    topology: &str,
    seed: u64,
    expected: &str,
) -> Result<Report, RunError> {
    let records = run_experiment(exp).flows;
    let summary = TransferSummary::of(&records);
    let size = exp.list()[0].size_bytes.expect("transfers are finite");
    let protocol = exp.protocol.name();
    report.json = Some(transfer_report_json(
        scenario, topology, protocol, size, seed, &summary,
    ));
    transfer_table(&mut report, scenario, &summary);
    writeln!(report, "\n{expected}");
    if summary.all_completed() {
        return Ok(report);
    }
    let unfinished = summary.flows - summary.completed;
    let lossy = unfinished_with_drops(&records);
    let reason = format!(
        "{scenario} run wedged: {unfinished}/{} transfers unfinished at the deadline \
         ({lossy} dropped packets, {} dropped none)",
        summary.flows,
        unfinished - lossy
    );
    Err(RunError::Wedged { report, reason })
}

/// The all-to-all shuffle scenario: every ordered pair among `--hosts`
/// participants transfers `--size` bytes.
pub fn shuffle(opts: &ScenarioOptions) -> Result<Report, RunError> {
    let spec = opts.parsed_or("--topology", TopologySpec::LeafSpine)?;
    let size = size_from_options(opts, 100_000)?;
    let seed: u64 = opts.parsed_or("--seed", 1)?;
    let protocol = opts.parsed_or("--protocol", Protocol::default())?;
    let topo = spec.build(opts.full());
    let default_participants = topo.hosts().len().min(8);
    let participants: usize = opts.parsed_or("--hosts", default_participants)?;
    if !(2..=topo.hosts().len()).contains(&participants) {
        return Err(RunError::usage(format!(
            "--hosts {participants} needs 2..={} participants on this fabric",
            topo.hosts().len()
        )));
    }
    let pairs = shuffle_pairs(&topo, Some(participants), seed);
    let impairments = impairments_from_options(opts, &topo, seed)?;
    let host_bps = topo.links()[0].capacity_bps;
    let topology = spec.describe(&topo);
    let mut report = Report::default();
    writeln!(
        report,
        "Shuffle: {} on {topology}\n{participants} hosts all-to-all = {} flows, {} kB each (seed {seed})\n",
        protocol.name(),
        pairs.len(),
        size / 1000
    );
    // Each participant must receive (n-1) transfers through its NIC — or,
    // on an oversubscribed fabric, through a leaf uplink up to R times
    // slower for cross-rack traffic.
    let slowdown = worst_oversubscription(&topo);
    let deadline = transfer_deadline((participants as u64 - 1) * size, host_bps / slowdown);
    let flows = Flows::List(ListFlow::pairs(&pairs, Some(size)));
    let exp = Experiment {
        impairments,
        ..Experiment::new(protocol, topo, flows, deadline)
    };
    let expected = "Expected shape: on full-bisection fabrics the NICs bound the shuffle; oversubscribed\n\
                    fabrics shift the bottleneck into the spine uplinks and stretch the makespan by ~the\n\
                    oversubscription ratio for cross-rack traffic.";
    report_transfers(report, "shuffle", &exp, &topology, seed, expected)
}

/// The stride-permutation scenario: host `i` sends to host `(i + stride) mod
/// n` as a long-lived flow; measured steady-state rates are compared to the
/// fluid NUM oracle.
pub fn stride(opts: &ScenarioOptions) -> Result<Report, RunError> {
    let spec = opts.parsed_or("--topology", TopologySpec::LeafSpine)?;
    let seed: u64 = opts.parsed_or("--seed", 1)?;
    let millis: u64 = opts.parsed_or("--millis", 8)?;
    if millis == 0 {
        return Err(RunError::usage("--millis must be at least 1"));
    }
    let protocol = opts.parsed_or("--protocol", Protocol::default())?;
    let topo = spec.build(opts.full());
    let stride_by = stride_from_options(opts, &topo)?;
    let pairs = stride_pairs(&topo, stride_by, seed);
    let impairments = impairments_from_options(opts, &topo, seed)?;
    let topology = spec.describe(&topo);
    let mut report = Report::default();
    writeln!(
        report,
        "Stride: {} on {topology}\nhost i -> host (i+{stride_by}) mod {}, {} long-lived flows, {millis} ms (seed {seed})\n",
        protocol.name(),
        topo.hosts().len(),
        pairs.len(),
    );
    let flows = Flows::List(ListFlow::pairs(&pairs, None));
    let exp = Experiment {
        impairments,
        ..Experiment::new(protocol, topo, flows, SimDuration::from_millis(millis))
    };
    let summary = SteadyStateSummary::of(&exp, &run_experiment(&exp).flows);
    let protocol = exp.protocol.name();
    report.json = Some(steady_state_report_json(
        "stride", &topology, protocol, seed, millis, &summary,
    ));
    let rates_gbps: Vec<f64> = summary.rates_bps.iter().map(|r| r / 1e9).collect();
    report.table(
        &[
            "flows",
            "mean rate",
            "min rate",
            "max rate",
            "within 10% of oracle",
            "throughput vs oracle",
        ],
        &[vec![
            format!("{}", summary.rates_bps.len()),
            format!("{:.2} Gbps", mean(&rates_gbps).unwrap_or(f64::NAN)),
            format!(
                "{:.2} Gbps",
                rates_gbps.iter().cloned().fold(f64::INFINITY, f64::min)
            ),
            format!("{:.2} Gbps", rates_gbps.iter().cloned().fold(0.0, f64::max)),
            format!("{:.0}%", summary.fraction_within(0.10) * 100.0),
            format!("{:.2}", summary.throughput_ratio()),
        ]],
    );
    report.text += "\nExpected shape: NUMFabric tracks the oracle allocation on every fabric; on\n\
                    oversubscribed leaf-spine the per-flow rates drop to ~1/ratio of the NIC speed, and on\n\
                    fat-trees ECMP collisions split the affected core links evenly.\n";
    // A run whose oracle comparison is broken — non-finite rate estimates,
    // or aggregate throughput collapsed below 30% of the oracle — is
    // wedged. The threshold is wedge detection, not a quality gate: every
    // working protocol clears it with a wide margin even under impairments,
    // while a stalled simulation (rates ~0) does not.
    let finite = summary.rates_bps.iter().all(|r| r.is_finite());
    let ratio = summary.throughput_ratio();
    if !finite || ratio < 0.3 {
        let why = if finite {
            ""
        } else {
            " (non-finite rate estimates)"
        };
        let reason = format!(
            "steady-state run wedged: throughput ratio {ratio:.3} vs the fluid oracle{why}"
        );
        return Err(RunError::Wedged { report, reason });
    }
    Ok(report)
}

#[cfg(test)]
mod tests {
    use super::*;
    use numfabric_core::NumFabricConfig;
    use numfabric_sim::topology::{FatTreeConfig, LeafSpineConfig};

    #[test]
    fn incast_transfers_complete_and_saturate_the_receiver() {
        let topo = Topology::leaf_spine(&LeafSpineConfig::small(16, 2, 2));
        let pairs = incast_pairs(&topo, 4, 7);
        let protocol = Protocol::NumFabric(NumFabricConfig::default());
        let deadline = transfer_deadline(4 * 200_000, 10e9);
        let flows = Flows::List(ListFlow::pairs(&pairs, Some(200_000)));
        let exp = Experiment::new(protocol, topo, flows, deadline);
        let summary = TransferSummary::of(&run_experiment(&exp).flows);
        assert!(summary.all_completed(), "{summary:?}");
        assert_eq!(summary.completed_bytes, 4 * 200_000);
        // 4 x 200 kB through one 10 Gbps NIC: goodput within a factor of the
        // line rate once overheads and convergence are accounted for.
        let goodput = summary.aggregate_goodput_bps();
        assert!(goodput > 4e9, "goodput = {goodput}");
        assert!(goodput < 10e9, "goodput = {goodput}");
    }

    #[test]
    fn unfinished_flows_are_split_by_whether_they_dropped_packets() {
        let record = |fct_us: Option<u64>, packets_dropped| FlowRecord {
            size_bytes: Some(10_000),
            fct: fct_us.map(SimDuration::from_micros),
            empty_fct: None,
            rate_bps: 0.0,
            packets_dropped,
        };
        let records = [
            record(Some(50), 0),
            record(Some(70), 3),
            record(None, 2),
            record(None, 1),
            record(None, 0),
        ];
        assert_eq!(unfinished_with_drops(&records), 2);
    }

    #[test]
    fn steady_state_summary_statistics() {
        let summary = SteadyStateSummary {
            rates_bps: vec![10e9, 5e9, 1e9],
            oracle_bps: vec![10e9, 5.2e9, 2e9],
        };
        assert!((summary.fraction_within(0.10) - 2.0 / 3.0).abs() < 1e-9);
        let ratio = summary.throughput_ratio();
        assert!((ratio - 16.0 / 17.2).abs() < 1e-9);
    }

    #[test]
    fn transfer_summary_goodput_arithmetic() {
        let summary = TransferSummary {
            flows: 2,
            completed: 2,
            fcts: vec![0.001, 0.002],
            completed_bytes: 250_000,
            makespan: Some(SimDuration::from_millis(2)),
        };
        assert!((summary.aggregate_goodput_bps() - 1e9).abs() < 1.0);
        assert!(summary.all_completed());
    }

    #[test]
    fn parse_load_fraction_accepts_fractions_and_uses_the_default() {
        let opts = ScenarioOptions::new(vec!["--load".into(), "0.8".into()]);
        assert_eq!(parse_load_fraction(&opts, 0.6).unwrap(), 0.8);
        let absent = ScenarioOptions::new(vec![]);
        assert_eq!(parse_load_fraction(&absent, 0.6).unwrap(), 0.6);
        let out_of_range = ScenarioOptions::new(vec!["--load".into(), "1".into()]);
        assert!(parse_load_fraction(&out_of_range, 0.6).is_err());
    }

    #[test]
    fn stride_on_a_fat_tree_runs_and_reports_rates() {
        let topo = Topology::fat_tree(&FatTreeConfig::new(4));
        let pairs = stride_pairs(&topo, 8, 3);
        let protocol = Protocol::NumFabric(NumFabricConfig::default());
        let flows = Flows::List(ListFlow::pairs(&pairs, None));
        let exp = Experiment::new(protocol, topo, flows, SimDuration::from_millis(4));
        let summary = SteadyStateSummary::of(&exp, &run_experiment(&exp).flows);
        assert_eq!(summary.rates_bps.len(), 16);
        assert_eq!(summary.oracle_bps.len(), 16);
        assert!(summary.rates_bps.iter().all(|&r| r > 0.0));
    }
}
