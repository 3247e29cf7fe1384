//! Every figure of the paper's evaluation as a registry-dispatchable
//! function, plus generic `semi-dynamic` and `dynamic` drivers.
//!
//! The `numfabric-run` binary lists and dispatches all of them by name
//! through [`registry`], which also enforces each entry's usage string: an
//! option the string does not declare is refused. Adding a workload means
//! an [`Experiment`] plus a formatter here and one [`ScenarioSpec`] entry
//! in [`registry`] — not a new binary and not a new driver loop. Figures
//! 8–10 (subflow aggregates, explicit routes on hand-built topologies)
//! drive their networks directly.

use crate::experiment::{run_experiment, Experiment, Flows, ListFlow, Objective, Pace};
use crate::fabric::parse_load_fraction;
use crate::registry::{RunError, ScenarioRegistry, ScenarioSpec};
use crate::report::{
    fig5_bin, mean, micros, percentile, quartiles, times_ms, Report, FIG5_BIN_LABELS,
};
use crate::Protocol;
use numfabric_baselines::{DctcpConfig, DgdConfig, PfabricConfig, RcpStarConfig};
use numfabric_core::protocol::numfabric_network;
use numfabric_core::{AggregateState, NumFabricAgent, NumFabricConfig};
use numfabric_num::bandwidth_function::{single_link_allocation, BandwidthFunction};
use numfabric_num::fluid::{DgdFluid, FluidAlgorithm, RcpStarFluid, XwiFluid};
use numfabric_num::utility::{BandwidthFunctionUtility, LogUtility};
use numfabric_num::{FluidFlow, FluidNetwork, Oracle};
use numfabric_sim::topology::{LeafSpineConfig, NodeKind, Topology};
use numfabric_sim::{FlowId, LinkChange, Network, SimDuration, SimTime};
use numfabric_workloads::arrivals::{poisson_arrivals, PoissonWorkloadConfig};
use numfabric_workloads::convergence::{convergence_stats, ConvergenceCriterion};
use numfabric_workloads::distributions::{EmpiricalCdf, FlowSizeDistribution};
use numfabric_workloads::registry::ScenarioOptions;
use numfabric_workloads::scenarios::{permutation_pairs, SemiDynamicConfig, SemiDynamicScenario};
use numfabric_workloads::TopologySpec;
use rand::{Rng, SeedableRng};
use rand_chacha::ChaCha8Rng;
use std::str::FromStr;

/// The registry of every runnable scenario: the paper's figures and tables
/// plus the generic semi-dynamic / dynamic drivers.
pub fn registry() -> ScenarioRegistry {
    let mut registry = ScenarioRegistry::new();
    registry.register(ScenarioSpec {
        name: "fig4a",
        summary: "CDF of convergence times: NUMFabric vs DGD vs RCP* (semi-dynamic)",
        usage: "[--events N] [--full] [--fluid]",
        run: fig4a,
    });
    registry.register(ScenarioSpec {
        name: "fig4bc",
        summary: "Rate time-series of one tracked flow: DCTCP noise vs NUMFabric",
        usage: "",
        run: fig4bc,
    });
    registry.register(ScenarioSpec {
        name: "fig5",
        summary: "Normalized rate deviation from Oracle per flow-size bin (dynamic)",
        usage: "[--workload websearch|enterprise] [--load F] [--full]",
        run: fig5,
    });
    registry.register(ScenarioSpec {
        name: "fig6",
        summary: "NUMFabric parameter sensitivity sweeps (dt / interval / alpha)",
        usage: "[--sweep dt|interval|alpha] [--events N]",
        run: fig6,
    });
    registry.register(ScenarioSpec {
        name: "fig7",
        summary: "Mean normalized FCT vs load: NUMFabric vs pFabric (web search)",
        usage: "[--full]",
        run: fig7,
    });
    registry.register(ScenarioSpec {
        name: "fig8",
        summary: "Resource pooling: multipath throughput vs number of subflows",
        usage: "[--full]",
        run: fig8,
    });
    registry.register(ScenarioSpec {
        name: "fig9",
        summary: "Bandwidth-function allocation on one bottleneck vs capacity sweep",
        usage: "",
        run: fig9,
    });
    registry.register(ScenarioSpec {
        name: "fig10",
        summary: "Bandwidth functions + resource pooling under a capacity change",
        usage: "",
        run: fig10,
    });
    registry.register(ScenarioSpec {
        name: "table2",
        summary: "Default parameter settings of every scheme",
        usage: "",
        run: table2,
    });
    registry.register(ScenarioSpec {
        name: "incast",
        summary: "N-to-1 incast transfers on any fabric (receiver NIC bottleneck)",
        usage: "[--topology fat-tree:k=4|leaf-spine|oversub:4:1] [--protocol ...] [--fanin N] [--size BYTES] [--impair SPEC] [--seed S] [--json] [--full]",
        run: crate::fabric::incast,
    });
    registry.register(ScenarioSpec {
        name: "shuffle",
        summary: "All-to-all shuffle transfers among N hosts on any fabric",
        usage: "[--topology fat-tree:k=4|leaf-spine|oversub:4:1] [--protocol ...] [--hosts N] [--size BYTES] [--impair SPEC] [--seed S] [--json] [--full]",
        run: crate::fabric::shuffle,
    });
    registry.register(ScenarioSpec {
        name: "stride",
        summary: "Stride permutation: steady-state rates vs the fluid oracle on any fabric",
        usage: "[--topology fat-tree:k=4|leaf-spine|oversub:4:1] [--protocol ...] [--stride N] [--millis MS] [--impair SPEC] [--seed S] [--json] [--full]",
        run: crate::fabric::stride,
    });
    registry.register(ScenarioSpec {
        name: "recovery",
        summary: "Failure recovery: cut the busiest cable, measure time-to-reconverge vs the fluid oracle",
        usage: "[--topology fat-tree:k=4|leaf-spine|oversub:4:1] [--protocol ...|--compare numfabric,dctcp,...] [--stride N] [--millis MS] [--fail-us US] [--restore-us US] [--seed S] [--json] [--full]",
        run: crate::recovery::recovery,
    });
    registry.register(ScenarioSpec {
        name: "churn",
        summary: "Open-loop Poisson churn with a fg/bg heavy-tail mix, streaming bounded stats on any fabric",
        usage: "[--topology fat-tree:k=8|leaf-spine|oversub:4:1] [--protocol ...] [--load F] [--fg-share F] [--millis MS] [--drain-millis MS] [--impair SPEC] [--seed S] [--json] [--full]",
        run: crate::churn::churn,
    });
    registry.register(ScenarioSpec {
        name: "sweep",
        summary: "Parameter-sweep grid (scenarios x topologies x protocols x loads x sizes x impairments) on a thread pool",
        usage: "[--scenarios incast,shuffle,stride] [--topologies leaf-spine,fat-tree:k=4,oversub:4:1] [--protocols numfabric,dctcp,...] [--loads 0.5,...] [--sizes BYTES,...] [--impairments none,flap,loss,jitter] [--replicates N] [--seed S] [--threads N: worker threads, bit-identical report for any value] [--json] (axes are plural: --scenario/--topology/--protocol/--load/--size/--impair are refused with a pointer to the plural)",
        run: crate::sweep::sweep,
    });
    registry.register(ScenarioSpec {
        name: "semi-dynamic",
        summary: "Generic semi-dynamic convergence run for one protocol",
        usage: "[--protocol numfabric|dgd|rcp|dctcp|pfabric] [--events N] [--seed S] [--full]",
        run: semi_dynamic,
    });
    registry.register(ScenarioSpec {
        name: "dynamic",
        summary: "Generic Poisson-arrival dynamic workload for one protocol",
        usage: "[--protocol ...] [--workload websearch|enterprise] [--load F] [--seed S] [--full]",
        run: dynamic,
    });
    registry
}

// ---------------------------------------------------------------------------
// Shared experiments
// ---------------------------------------------------------------------------

/// §6.1's semi-dynamic experiment, each event measured to convergence:
/// `events` 20-flow events over 200 candidate paths on the reduced 32-host
/// leaf-spine (5 ms warm-up; an event converges once its flows hold within
/// tolerance for 2 ms, within 12 ms) — or, with `full`, 100-flow events
/// over 1000 paths on the paper's 128-host fabric (10 ms warm-up, 5 ms
/// hold, 25 ms wait).
fn semi_dynamic_experiment(
    protocol: Protocol,
    objective: Objective,
    events: usize,
    seed: u64,
    full: bool,
) -> Experiment {
    let topo = TopologySpec::LeafSpine.build(full);
    let (config, criterion, max_wait, warmup) = if full {
        let config = SemiDynamicConfig {
            num_events: events,
            ..SemiDynamicConfig::paper_default(seed)
        };
        (config, ConvergenceCriterion::default(), 25, 10)
    } else {
        let config = SemiDynamicConfig::scaled(200, 20, events, seed);
        let hold = SimDuration::from_millis(2);
        let criterion = ConvergenceCriterion {
            hold,
            ..Default::default()
        };
        (config, criterion, 12, 5)
    };
    let flows = Flows::Events {
        scenario: SemiDynamicScenario::generate(&topo, &config),
        warmup: SimDuration::from_millis(warmup),
        pace: Pace::Converge {
            criterion,
            max_wait: SimDuration::from_millis(max_wait),
        },
    };
    Experiment {
        objective,
        ..Experiment::new(protocol, topo, flows, SimDuration::ZERO)
    }
}

/// The `scheme | converged | median | p95` row of a semi-dynamic run.
fn convergence_row(scheme: &str, times: &[Option<SimDuration>]) -> Vec<String> {
    let stats = convergence_stats(times);
    vec![
        scheme.to_string(),
        format!("{}/{}", stats.converged, stats.total),
        micros(stats.median),
        micros(stats.p95),
    ]
}

/// The Poisson List experiment of Figures 5 and 7 and `dynamic`: arrivals
/// of `dist` at `load` for 20 ms on the reduced 32-host leaf-spine, drained
/// for 120 ms — or, with `full`, for 50 ms on the paper's 128-host fabric,
/// drained for 300 ms. ECMP choices are drawn over the spines.
fn poisson_experiment(
    protocol: Protocol,
    objective: Objective,
    dist: &dyn FlowSizeDistribution,
    load: f64,
    seed: u64,
    full: bool,
) -> Experiment {
    let topo = TopologySpec::LeafSpine.build(full);
    let (window, drain) = if full { (50, 300) } else { (20, 120) };
    let config = PoissonWorkloadConfig {
        load,
        host_link_bps: topo.links()[0].capacity_bps,
        duration: SimDuration::from_millis(window),
        seed,
        num_spines: topo.spines().len(),
    };
    let arrivals = poisson_arrivals(topo.hosts(), dist, &config);
    let flows = Flows::List(arrivals.iter().map(ListFlow::from).collect());
    let horizon = SimDuration::from_millis(window + drain);
    Experiment {
        objective,
        ..Experiment::new(protocol, topo, flows, horizon)
    }
}

/// The flow-size CDF that `--workload websearch|enterprise` names.
struct Workload(EmpiricalCdf);

impl FromStr for Workload {
    type Err = &'static str;

    fn from_str(name: &str) -> Result<Self, Self::Err> {
        let choices = [EmpiricalCdf::web_search(), EmpiricalCdf::enterprise()];
        let found = choices.into_iter().find(|cdf| cdf.name() == name);
        found.map(Workload).ok_or("expected websearch|enterprise")
    }
}

/// The bandwidth-delay product of the fabric's host links: 8 propagation
/// delays of cross-rack base RTT (Fig. 5 uses 20 kB for the paper's
/// 10 Gbps / 16 µs fabric).
fn bdp_bytes(topo: &Topology) -> f64 {
    let host_link = &topo.links()[0];
    let rtt = 8.0 * host_link.delay.as_secs_f64();
    host_link.capacity_bps * rtt / 8.0
}

// ---------------------------------------------------------------------------
// Figure 4a
// ---------------------------------------------------------------------------

fn fig4a_packet_level(report: &mut Report, events: usize, full: bool) {
    let protocol = Protocol::NumFabric(NumFabricConfig::default());
    let pf = Objective::ProportionalFairness;
    let mut exp = semi_dynamic_experiment(protocol, pf, events, 1, full);
    let Flows::Events { scenario, .. } = &exp.flows else {
        unreachable!("a semi-dynamic experiment plays events")
    };
    writeln!(
        report,
        "Figure 4a (packet level, {} scale): {events} events, {} candidate paths\n",
        if full { "paper" } else { "reduced" },
        scenario.paths.len()
    );

    let mut rows = Vec::new();
    let mut all: Vec<(String, Vec<f64>)> = Vec::new();
    for protocol in Protocol::convergence_contenders() {
        exp.protocol = protocol;
        let times = run_experiment(&exp).convergence;
        rows.push(convergence_row(exp.protocol.name(), &times));
        all.push((exp.protocol.name().to_string(), times_ms(&times)));
    }
    report.table(&["scheme", "converged", "median", "p95"], &rows);
    report.text += "\n";
    for (name, ms) in &all {
        report.cdf(&format!("{name} convergence time"), ms, "ms", 12);
        report.text += "\n";
    }
    // Speed-up summary (the paper reports 2.3x median / 2.7x p95). The
    // contenders run in the order NUMFabric, DGD, RCP*.
    let medians: Vec<_> = all.iter().map(|(_, ms)| percentile(ms, 0.5)).collect();
    if let [Some(nf), Some(dgd), Some(rcp)] = medians[..] {
        let (vs_dgd, vs_rcp) = (dgd / nf, rcp / nf);
        writeln!(
            report,
            "median speed-up of NUMFabric: {vs_dgd:.1}x vs DGD, {vs_rcp:.1}x vs RCP*"
        );
    }
}

fn fig4a_fluid_level(report: &mut Report, instances: usize) {
    report.text += "\nFluid-model comparison (iterations to reach within 5% of the oracle):\n";
    let mut iters: [Vec<f64>; 3] = Default::default();
    for seed in 0..instances as u64 {
        let mut rng = ChaCha8Rng::seed_from_u64(seed);
        let mut net = FluidNetwork::new();
        for _ in 0..8 {
            net.add_link(rng.gen_range(5.0..40.0));
        }
        for _ in 0..24 {
            let a = rng.gen_range(0..8);
            let b = loop {
                let b = rng.gen_range(0..8);
                if b != a {
                    break b;
                }
            };
            net.add_flow(FluidFlow::new(vec![a, b], LogUtility::new()));
        }
        let oracle = Oracle::new().solve(&net);
        if !oracle.converged {
            continue;
        }
        let schemes: [&mut dyn FluidAlgorithm; 3] = [
            &mut XwiFluid::with_defaults(net.clone()),
            &mut DgdFluid::with_defaults(net.clone()),
            &mut RcpStarFluid::with_defaults(net.clone()),
        ];
        for (scheme, iters) in schemes.into_iter().zip(&mut iters) {
            let found = scheme.iterations_to_reach(&oracle.rates, 0.05, 20_000);
            iters.extend(found.map(|i| i as f64));
        }
    }
    let rows: Vec<Vec<String>> = ["xWI", "DGD", "RCP*"]
        .iter()
        .zip(&iters)
        .map(|(scheme, iters)| {
            vec![
                scheme.to_string(),
                format!("{}/{instances}", iters.len()),
                format!("{:.1}", mean(iters).unwrap_or(f64::NAN)),
                format!("{:.1}", percentile(iters, 0.5).unwrap_or(f64::NAN)),
            ]
        })
        .collect();
    report.table(
        &["scheme", "converged", "mean iters", "median iters"],
        &rows,
    );
}

/// Figure 4a: CDF of convergence times for NUMFabric, DGD and RCP* in the
/// semi-dynamic scenario (proportional fairness). `--fluid` additionally
/// reports fluid-model iteration counts on random instances.
pub fn fig4a(opts: &ScenarioOptions) -> Result<Report, RunError> {
    let full = opts.full();
    let events = events_option(opts, if full { 100 } else { 8 })?;
    let mut report = Report::default();
    fig4a_packet_level(&mut report, events, full);
    if opts.flag("--fluid") {
        fig4a_fluid_level(&mut report, 20);
    }
    Ok(report)
}

// ---------------------------------------------------------------------------
// Figure 4b/4c
// ---------------------------------------------------------------------------

fn coefficient_of_variation(series: &[(f64, f64)], from_ms: f64) -> f64 {
    let vals: Vec<f64> = series
        .iter()
        .filter(|(t, _)| *t >= from_ms)
        .map(|&(_, r)| r)
        .collect();
    let mean = vals.iter().sum::<f64>() / vals.len().max(1) as f64;
    let var = vals.iter().map(|v| (v - mean).powi(2)).sum::<f64>() / vals.len().max(1) as f64;
    var.sqrt() / mean.max(1.0)
}

/// Figure 4b/4c: the rate of a typical DCTCP flow vs a typical NUMFabric
/// flow across several network events, measured with the 80 µs EWMA filter.
pub fn fig4bc(_opts: &ScenarioOptions) -> Result<Report, RunError> {
    // One tracked flow sampled every 50 µs while the events play out 4 ms
    // apart.
    let protocol = Protocol::Dctcp(DctcpConfig::default());
    let mut exp = semi_dynamic_experiment(protocol, Objective::ProportionalFairness, 6, 7, false);
    if let Flows::Events { pace, .. } = &mut exp.flows {
        *pace = Pace::Every(SimDuration::from_millis(4));
    }
    exp.sample_every = Some(SimDuration::from_micros(50));
    let mut report = Report::default();

    report.text += "Figure 4b/4c: rate of one tracked flow across network events\n\n";
    let mut summaries = Vec::new();
    for protocol in [
        Protocol::Dctcp(DctcpConfig::default()),
        Protocol::NumFabric(NumFabricConfig::default()),
    ] {
        exp.protocol = protocol;
        let label = exp.protocol.name();
        let series: Vec<(f64, f64)> = run_experiment(&exp)
            .samples
            .iter()
            .map(|s| (s.at.as_secs_f64() * 1e3, s.rates_bps[0]))
            .collect();
        writeln!(report, "{label} rate time series (time_ms, rate_gbps):");
        let step = (series.len() / 60).max(1);
        for (i, (t, r)) in series.iter().enumerate() {
            if i % step == 0 {
                writeln!(report, "  {:8.2} ms  {:6.2} Gbps", t, r / 1e9);
            }
        }
        report.text += "\n";
        summaries.push(vec![
            label.to_string(),
            format!("{:.3}", coefficient_of_variation(&series, 2.0)),
        ]);
    }
    report.text +=
        "Rate noisiness after warm-up (coefficient of variation of the 80us-filtered rate):\n";
    report.table(&["scheme", "coeff. of variation"], &summaries);
    report.text +=
        "\nExpected shape: DCTCP's filtered rate oscillates strongly (large CoV), so it never\n\
         stays within 10% of a target; NUMFabric's rate is comparatively steady between events.\n";
    Ok(report)
}

// ---------------------------------------------------------------------------
// Figure 5
// ---------------------------------------------------------------------------

/// Figure 5: normalized deviation from the Oracle's ideal rates, per
/// flow-size bin (in BDPs), for NUMFabric, DGD and RCP* under the dynamic
/// workloads.
pub fn fig5(opts: &ScenarioOptions) -> Result<Report, RunError> {
    let Workload(dist) = opts.parsed_or("--workload", Workload(EmpiricalCdf::web_search()))?;
    let load = parse_load_fraction(opts, 0.6)?;
    let protocol = Protocol::NumFabric(NumFabricConfig::default());
    let pf = Objective::ProportionalFairness;
    let mut exp = poisson_experiment(protocol, pf, &dist, load, 21, opts.full());
    let bdp = bdp_bytes(&exp.topology);
    let mut report = Report::default();
    writeln!(
        report,
        "Figure 5 ({} workload, load {:.0}%): {} flows, BDP = {:.0} kB\n",
        dist.name(),
        load * 100.0,
        exp.list().len(),
        bdp / 1e3
    );

    let mut rows: Vec<Vec<String>> = FIG5_BIN_LABELS
        .iter()
        .map(|l| vec![l.to_string()])
        .collect();
    let mut headers = vec!["size (BDPs)".to_string()];

    // The Oracle: ideal fluid completion times of the identical arrivals.
    let ideal_fcts = exp.ideal_fcts();
    for protocol in Protocol::convergence_contenders() {
        headers.push(format!("{}  p25/med/p75", protocol.name()));
        exp.protocol = protocol;
        let records = run_experiment(&exp).flows;
        // Bin by flow size in BDPs.
        let mut bins: Vec<Vec<f64>> = vec![Vec::new(); FIG5_BIN_LABELS.len()];
        for (r, &ideal) in records.iter().zip(&ideal_fcts) {
            let size_bdp = r.size_bytes.expect("Poisson flows are finite") as f64 / bdp;
            if let (Some(dev), Some(bin)) = (r.rate_deviation(ideal), fig5_bin(size_bdp)) {
                bins[bin].push(dev);
            }
        }
        for (bin, devs) in bins.iter().enumerate() {
            let cell = match quartiles(devs) {
                Some((q1, q2, q3)) => format!("{q1:+.2}/{q2:+.2}/{q3:+.2} (n={})", devs.len()),
                None => "-".to_string(),
            };
            rows[bin].push(cell);
        }
        let finished = records.iter().filter(|r| r.fct.is_some()).count();
        eprintln!(
            "  [{}] {}/{} flows completed",
            exp.protocol.name(),
            finished,
            records.len()
        );
    }

    report.table(&headers, &rows);
    report.text +=
        "\nExpected shape (paper): NUMFabric's median deviation is near zero for every bin above\n\
         ~5 BDP; DGD and RCP* are negatively biased (flows get less than the ideal rate), worst\n\
         for small flows that finish before those schemes converge.\n";
    Ok(report)
}

// ---------------------------------------------------------------------------
// Figure 6
// ---------------------------------------------------------------------------

fn fig6_median_convergence(
    config: NumFabricConfig,
    alpha: f64,
    seed: u64,
    events: usize,
) -> (String, String) {
    let protocol = Protocol::NumFabric(config);
    let exp = semi_dynamic_experiment(protocol, Objective::AlphaFair(alpha), events, seed, false);
    let stats = convergence_stats(&run_experiment(&exp).convergence);
    let median = stats
        .median
        .map(|d| format!("{:.0} us", d.as_micros_f64()))
        .unwrap_or_else(|| "did not converge".into());
    (median, format!("{}/{}", stats.converged, stats.total))
}

fn fig6_sweep_dt(report: &mut Report, events: usize) {
    report.text += "Figure 6a: sensitivity to the Swift delay slack dt (proportional fairness)\n\n";
    let mut rows = Vec::new();
    for dt_us in [3u64, 6, 12, 24] {
        let cfg = NumFabricConfig::default().with_dt(SimDuration::from_micros(dt_us));
        let (median, converged) = fig6_median_convergence(cfg, 1.0, 11, events);
        rows.push(vec![format!("{dt_us} us"), median, converged]);
    }
    report.table(&["dt", "median convergence", "events converged"], &rows);
    report.text += "\n";
}

fn fig6_sweep_interval(report: &mut Report, events: usize) {
    report.text += "Figure 6b: sensitivity to the xWI price update interval\n\n";
    let mut rows = Vec::new();
    for us in [30u64, 60, 90, 128] {
        let cfg =
            NumFabricConfig::default().with_price_update_interval(SimDuration::from_micros(us));
        let (median, converged) = fig6_median_convergence(cfg, 1.0, 12, events);
        rows.push(vec![format!("{us} us"), median, converged]);
    }
    report.table(
        &[
            "price update interval",
            "median convergence",
            "events converged",
        ],
        &rows,
    );
    report.text += "\n";
}

fn fig6_sweep_alpha(report: &mut Report, events: usize) {
    report.text +=
        "Figure 6c: sensitivity to alpha (1x = default parameters, 2x = slowed down)\n\n";
    let mut rows = Vec::new();
    for &alpha in &[0.25, 0.5, 1.0, 2.0, 4.0] {
        let (median_1x, conv_1x) =
            fig6_median_convergence(NumFabricConfig::default(), alpha, 13, events);
        let (median_2x, conv_2x) =
            fig6_median_convergence(NumFabricConfig::slowed_down(2.0), alpha, 13, events);
        rows.push(vec![
            format!("{alpha}"),
            median_1x,
            conv_1x,
            median_2x,
            conv_2x,
        ]);
    }
    report.table(
        &[
            "alpha",
            "1x median",
            "1x converged",
            "2x median",
            "2x converged",
        ],
        &rows,
    );
    report.text +=
        "\nExpected shape (paper): extreme alpha values fail to converge reliably at 1x but\n\
         converge at 2x slow-down, at a modest cost in median convergence time.\n";
}

/// The `--events N` option of the semi-dynamic figures: zero events would
/// print an empty table, so it is a usage error.
fn events_option(opts: &ScenarioOptions, default: usize) -> Result<usize, RunError> {
    match opts.parsed_or("--events", default)? {
        0 => Err(RunError::usage("--events must be at least 1")),
        events => Ok(events),
    }
}

/// The sweeps of Figure 6 that `--sweep` names, in the order they run.
struct Fig6Sweeps(Vec<fn(&mut Report, usize)>);

impl FromStr for Fig6Sweeps {
    type Err = &'static str;

    fn from_str(name: &str) -> Result<Self, Self::Err> {
        Ok(Fig6Sweeps(vec![match name {
            "dt" => fig6_sweep_dt,
            "interval" => fig6_sweep_interval,
            "alpha" => fig6_sweep_alpha,
            _ => return Err("expected dt|interval|alpha"),
        }]))
    }
}

/// Figure 6: NUMFabric parameter sensitivity (`--sweep dt|interval|alpha`,
/// default all three).
pub fn fig6(opts: &ScenarioOptions) -> Result<Report, RunError> {
    let events = events_option(opts, 5)?;
    let all = Fig6Sweeps(vec![fig6_sweep_dt, fig6_sweep_interval, fig6_sweep_alpha]);
    let mut report = Report::default();
    for sweep in opts.parsed_or("--sweep", all)?.0 {
        sweep(&mut report, events);
    }
    Ok(report)
}

// ---------------------------------------------------------------------------
// Figure 7
// ---------------------------------------------------------------------------

/// Figure 7: mean normalized FCT vs load for NUMFabric (FCT-minimization
/// utility, 2× slow-down, BDP initial window) against pFabric.
pub fn fig7(opts: &ScenarioOptions) -> Result<Report, RunError> {
    let mut report = Report::default();
    let loads: Vec<f64> = if opts.full() {
        vec![0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8]
    } else {
        vec![0.2, 0.4, 0.6, 0.8]
    };
    let dist = EmpiricalCdf::web_search();
    report.text += "Figure 7: mean normalized FCT vs load (web-search workload)\n\n";

    // NUMFabric for FCT minimization: 2x slow-down and a BDP initial window
    // (mimicking pFabric), as described in §6.3.
    let nf_config = NumFabricConfig::slowed_down(2.0)
        .with_bdp_initial_window(10e9, SimDuration::from_micros(16));

    let mut rows = Vec::new();
    for &load in &loads {
        // `--full` adds loads but keeps the reduced 32-host fabric.
        let protocol = Protocol::NumFabric(nf_config.clone());
        let fct_min = Objective::FctMinimization;
        let mut exp = poisson_experiment(protocol, fct_min, &dist, load, 31, false);
        let flows = exp.list().len();
        let mut cells = vec![format!("{:.0}%", load * 100.0), format!("{flows}")];
        let mut means = Vec::new();
        for protocol in [
            Protocol::NumFabric(nf_config.clone()),
            Protocol::Pfabric(PfabricConfig::default()),
        ] {
            exp.protocol = protocol;
            let normalized: Vec<f64> = run_experiment(&exp)
                .flows
                .iter()
                .filter_map(|r| r.normalized_fct())
                .collect();
            let unfinished = flows - normalized.len();
            let m = mean(&normalized).unwrap_or(f64::NAN);
            means.push(m);
            cells.push(format!("{m:.2}{}", if unfinished > 0 { "*" } else { "" }));
        }
        cells.push(format!("{:.2}", means[0] / means[1]));
        rows.push(cells);
    }
    report.table(
        &["load", "flows", "NUMFabric", "pFabric", "NUMFabric/pFabric"],
        &rows,
    );
    report.text +=
        "\n(* some flows had not completed when the simulation ended and are excluded)\n\
         Expected shape (paper): NUMFabric tracks pFabric within ~4-20% across loads.\n";
    Ok(report)
}

// ---------------------------------------------------------------------------
// Figure 8
// ---------------------------------------------------------------------------

/// Run the permutation workload with `subflows` subflows per pair. Returns
/// per-pair aggregate throughputs in bits per second.
fn fig8_run_permutation(
    topo_cfg: &LeafSpineConfig,
    subflows: usize,
    pooling: bool,
    seed: u64,
) -> Vec<f64> {
    let topo = Topology::leaf_spine(topo_cfg);
    let pairs = permutation_pairs(&topo, seed);
    let config = NumFabricConfig::default();
    let mut net: Network = numfabric_network(topo, &config);
    let mut rng = ChaCha8Rng::seed_from_u64(seed ^ 0xf1f0);

    let mut pair_flows: Vec<Vec<usize>> = Vec::with_capacity(pairs.len());
    for pair in &pairs {
        let handles = AggregateState::create(subflows);
        let mut ids = Vec::with_capacity(subflows);
        for handle in handles {
            let spine = rng.gen_range(0..topo_cfg.spines.max(1));
            let agent = if pooling {
                NumFabricAgent::new(config.clone(), LogUtility::new()).with_aggregate(handle)
            } else {
                NumFabricAgent::new(config.clone(), LogUtility::new())
            };
            let id = net.add_flow(
                pair.src,
                pair.dst,
                None,
                SimTime::ZERO,
                spine,
                None,
                Box::new(agent),
            );
            ids.push(id);
        }
        pair_flows.push(ids);
    }
    net.run_until(SimTime::from_millis(12));
    pair_flows
        .iter()
        .map(|ids| ids.iter().map(|&id| net.flow_rate_estimate(id)).sum())
        .collect()
}

/// Figure 8: resource pooling with multipath NUMFabric on permutation
/// traffic — total and per-pair throughput vs number of subflows.
pub fn fig8(opts: &ScenarioOptions) -> Result<Report, RunError> {
    let mut report = Report::default();
    let full = opts.full();
    let topo_cfg = if full {
        LeafSpineConfig::resource_pooling()
    } else {
        // Same shape, smaller: 32 hosts, 4 leaves, 8 spines, all 10 Gbps.
        LeafSpineConfig {
            hosts: 32,
            leaves: 4,
            spines: 8,
            host_link_bps: 10e9,
            fabric_link_bps: 10e9,
            ..LeafSpineConfig::resource_pooling()
        }
    };
    let pairs = topo_cfg.hosts / 2;
    let optimal_total = pairs as f64 * topo_cfg.host_link_bps;

    writeln!(
        report,
        "Figure 8a: total throughput (% of optimal) vs number of subflows ({} pairs)\n",
        pairs
    );
    let subflow_counts: Vec<usize> = if full {
        (1..=8).collect()
    } else {
        vec![1, 2, 4, 8]
    };
    let mut rows = Vec::new();
    // The per-pair rates of the last (largest) subflow count.
    let (mut pooled, mut unpooled) = (Vec::new(), Vec::new());
    for &k in &subflow_counts {
        pooled = fig8_run_permutation(&topo_cfg, k, true, 5);
        unpooled = fig8_run_permutation(&topo_cfg, k, false, 5);
        let percent = |rates: &[f64]| rates.iter().sum::<f64>() / optimal_total * 100.0;
        rows.push(vec![
            format!("{k}"),
            format!("{:.1}%", percent(&pooled)),
            format!("{:.1}%", percent(&unpooled)),
        ]);
    }
    report.table(
        &["subflows", "resource pooling", "no resource pooling"],
        &rows,
    );

    writeln!(
        report,
        "\nFigure 8b: per-pair throughput (% of optimal), ranked, with {} subflows\n",
        subflow_counts.last().unwrap()
    );
    let ranked = |rates: &[f64]| {
        let mut percent: Vec<f64> = rates
            .iter()
            .map(|r| r / topo_cfg.host_link_bps * 100.0)
            .collect();
        percent.sort_by(|a, b| b.partial_cmp(a).unwrap());
        percent
    };
    let rows: Vec<Vec<String>> = ranked(&pooled)
        .iter()
        .zip(&ranked(&unpooled))
        .enumerate()
        .map(|(rank, (p, u))| {
            vec![
                format!("{}", rank + 1),
                format!("{p:.1}%"),
                format!("{u:.1}%"),
            ]
        })
        .collect();
    report.table(&["rank", "resource pooling", "no resource pooling"], &rows);
    report.text +=
        "\nExpected shape (paper): with 8 subflows, resource pooling reaches close to 100% of the\n\
         optimal total throughput and the per-pair throughputs are nearly equal; without pooling\n\
         the total is lower and the spread across pairs much wider.\n";
    Ok(report)
}

// ---------------------------------------------------------------------------
// Figure 9
// ---------------------------------------------------------------------------

/// Two senders, one switch, one receiver; the switch→receiver link is the
/// bottleneck whose capacity is swept.
fn fig9_build_topology(bottleneck_gbps: f64) -> (Topology, Vec<usize>) {
    let mut topo = Topology::new();
    let src1 = topo.add_node(NodeKind::Host, "src1");
    let src2 = topo.add_node(NodeKind::Host, "src2");
    let sw = topo.add_node(NodeKind::Leaf, "sw");
    let dst = topo.add_node(NodeKind::Host, "dst");
    let delay = SimDuration::from_micros(2);
    topo.add_duplex_link(src1, sw, 50e9, delay);
    topo.add_duplex_link(src2, sw, 50e9, delay);
    topo.add_duplex_link(sw, dst, bottleneck_gbps * 1e9, delay);
    (topo, vec![src1, src2, sw, dst])
}

/// Figure 9: bandwidth-function allocation on a single bottleneck whose
/// capacity is swept from 5 to 35 Gbps, compared to BwE water-filling.
pub fn fig9(_opts: &ScenarioOptions) -> Result<Report, RunError> {
    let mut report = Report::default();
    let capacities: Vec<f64> = vec![5.0, 10.0, 15.0, 17.0, 20.0, 25.0, 30.0, 35.0];
    let config = NumFabricConfig::default();
    report.text +=
        "Figure 9: two flows with the Figure-2 bandwidth functions on one bottleneck\n\n";

    let mut rows = Vec::new();
    for &cap in &capacities {
        let (topo, nodes) = fig9_build_topology(cap);
        let (src1, src2, sw, dst) = (nodes[0], nodes[1], nodes[2], nodes[3]);
        let mut net = numfabric_network(topo.clone(), &config);

        let bwfs = [
            BandwidthFunction::paper_flow1(),
            BandwidthFunction::paper_flow2(),
        ];
        let flows: Vec<_> = [src1, src2]
            .into_iter()
            .zip(&bwfs)
            .map(|(src, bwf)| {
                let utility = BandwidthFunctionUtility::new(bwf.clone());
                let agent = Box::new(NumFabricAgent::new(config.clone(), utility));
                let route = topo.route_via(&[src, sw, dst]);
                net.add_flow_on_route(src, dst, &route, None, SimTime::ZERO, agent)
            })
            .collect();
        net.run_until(SimTime::from_millis(10));

        let (expected, _) = single_link_allocation(&bwfs, cap);
        let mut row = vec![format!("{cap:.0} Gbps")];
        for (expected, &flow) in expected.iter().zip(&flows) {
            row.push(format!("{expected:.2}"));
            row.push(format!("{:.2}", net.flow_rate_estimate(flow) / 1e9));
        }
        rows.push(row);
    }
    report.table(
        &[
            "link capacity",
            "flow1 expected",
            "flow1 measured",
            "flow2 expected",
            "flow2 measured",
        ],
        &rows,
    );
    report.text +=
        "\nExpected shape (paper): the measured allocation tracks the bandwidth-function\n\
         water-filling allocation across all capacities (flow 1 takes everything up to 10 Gbps,\n\
         flow 2 then catches up at twice the slope until it saturates at 10 Gbps).\n";
    Ok(report)
}

// ---------------------------------------------------------------------------
// Figure 10
// ---------------------------------------------------------------------------

/// Figure 10: bandwidth functions combined with resource pooling under a
/// mid-run capacity change on the shared middle link.
pub fn fig10(_opts: &ScenarioOptions) -> Result<Report, RunError> {
    let mut report = Report::default();
    let delay = SimDuration::from_micros(2);
    let mut topo = Topology::new();
    let src1 = topo.add_node(NodeKind::Host, "src1");
    let src2 = topo.add_node(NodeKind::Host, "src2");
    let sw1 = topo.add_node(NodeKind::Leaf, "sw1");
    let sw2 = topo.add_node(NodeKind::Leaf, "sw2");
    let sw_mid_in = topo.add_node(NodeKind::Spine, "mid-in");
    let sw_mid_out = topo.add_node(NodeKind::Spine, "mid-out");
    let dst1 = topo.add_node(NodeKind::Host, "dst1");
    let dst2 = topo.add_node(NodeKind::Host, "dst2");

    topo.add_duplex_link(src1, sw1, 100e9, delay);
    topo.add_duplex_link(src2, sw2, 100e9, delay);
    // Private paths: 5 Gbps "top" link for flow 1, 3 Gbps "bottom" for flow 2.
    topo.add_duplex_link(sw1, dst1, 5e9, delay);
    topo.add_duplex_link(sw2, dst2, 3e9, delay);
    // Shared middle link (initially 5 Gbps) reachable from both sources.
    topo.add_duplex_link(sw1, sw_mid_in, 100e9, delay);
    topo.add_duplex_link(sw2, sw_mid_in, 100e9, delay);
    let (mid_fwd, _mid_rev) = topo.add_duplex_link(sw_mid_in, sw_mid_out, 5e9, delay);
    topo.add_duplex_link(sw_mid_out, dst1, 100e9, delay);
    topo.add_duplex_link(sw_mid_out, dst2, 100e9, delay);

    let config = NumFabricConfig::default();
    let mut net = numfabric_network(topo.clone(), &config);

    // One aggregate flow over two paths, with bandwidth function `bwf`:
    // flow 1 over {top path, middle path}, flow 2 over {bottom path, middle
    // path}.
    let mut aggregate = |bwf: BandwidthFunction, paths: [&[usize]; 2]| {
        let subflows = paths
            .iter()
            .zip(AggregateState::create(2))
            .map(|(path, handle)| {
                let utility = BandwidthFunctionUtility::new(bwf.clone());
                let agent = NumFabricAgent::new(config.clone(), utility).with_aggregate(handle);
                let (src, dst, route) = (path[0], path[path.len() - 1], topo.route_via(path));
                net.add_flow_on_route(src, dst, &route, None, SimTime::ZERO, Box::new(agent))
            });
        subflows.collect::<Vec<_>>()
    };
    let flow1 = aggregate(
        BandwidthFunction::paper_flow1(),
        [
            &[src1, sw1, dst1],
            &[src1, sw1, sw_mid_in, sw_mid_out, dst1],
        ],
    );
    let flow2 = aggregate(
        BandwidthFunction::paper_flow2(),
        [
            &[src2, sw2, dst2],
            &[src2, sw2, sw_mid_in, sw_mid_out, dst2],
        ],
    );

    report.text += "Figure 10: aggregate throughput of the two flows; middle link 5 Gbps -> 17 Gbps at t = 5 ms\n\n";
    report.text += "  time_ms   flow1_Gbps   flow2_Gbps\n";
    let switch_at = SimTime::from_millis(5);
    let end = SimTime::from_millis(10);
    let mut t = SimTime::ZERO;
    let mut switched = false;
    while t < end {
        t += SimDuration::from_micros(200);
        if !switched && t >= switch_at {
            net.schedule_link_change(switch_at, mid_fwd, LinkChange::Speed(17e9));
            switched = true;
            report.text += "  -- middle link capacity changed to 17 Gbps --\n";
        }
        net.run_until(t);
        let gbps = |subflows: &[FlowId]| {
            (net.flow_rate_estimate(subflows[0]) + net.flow_rate_estimate(subflows[1])) / 1e9
        };
        let (ms, flow1, flow2) = (t.as_secs_f64() * 1e3, gbps(&flow1), gbps(&flow2));
        writeln!(report, "  {ms:7.2}   {flow1:10.2}   {flow2:10.2}");
    }
    report.text +=
        "\nExpected shape (paper): ~(10, 3) Gbps while the middle link is 5 Gbps (flow 1 gets the\n\
         whole middle link), switching quickly to ~(15, 10) Gbps once it becomes 17 Gbps.\n";
    Ok(report)
}

// ---------------------------------------------------------------------------
// Table 2
// ---------------------------------------------------------------------------

/// Table 2: the default parameter settings of every scheme.
pub fn table2(_opts: &ScenarioOptions) -> Result<Report, RunError> {
    let nf = NumFabricConfig::paper_default();
    let dgd = DgdConfig::default();
    let rcp = RcpStarConfig::default();
    let row = |parameter: &str, value: String| vec![parameter.to_string(), value];

    let mut report = Report::default();
    report.text += "Table 2: default parameter settings in simulations\n\n";
    report.text += "NUMFabric [Table 2 of the paper]\n";
    report.table(
        &["parameter", "value"],
        &[
            row("ewmaTime", nf.ewma_time.to_string()),
            row("dt", nf.dt.to_string()),
            row("priceUpdateInterval", nf.price_update_interval.to_string()),
            row("eta (Eq. 10)", nf.eta.to_string()),
            row("beta (Eq. 11)", nf.beta.to_string()),
            row(
                "initial burst",
                format!("{} packets", nf.initial_burst_packets),
            ),
        ],
    );

    report.text += "\nDGD [Eq. 14] (gains adapted to Gbps/byte units; see the DgdConfig docs in numfabric-baselines)\n";
    report.table(
        &["parameter", "value"],
        &[
            row("priceUpdateInterval", dgd.price_update_interval.to_string()),
            row("a", format!("{:e} per Gbps", dgd.a_per_gbps)),
            row("b", format!("{:e} per byte", dgd.b_per_byte)),
            row("unacked cap", format!("{} BDP", dgd.unacked_cap_bdp)),
        ],
    );

    report.text += "\nRCP* [Eq. 15]\n";
    report.table(
        &["parameter", "value"],
        &[
            row("rateUpdateInterval", rcp.rate_update_interval.to_string()),
            row("a", rcp.a.to_string()),
            row("b", rcp.b.to_string()),
            row("alpha", rcp.alpha.to_string()),
        ],
    );
    Ok(report)
}

// ---------------------------------------------------------------------------
// Generic drivers
// ---------------------------------------------------------------------------

/// Generic semi-dynamic convergence run for one protocol (pick with
/// `--protocol`).
pub fn semi_dynamic(opts: &ScenarioOptions) -> Result<Report, RunError> {
    let full = opts.full();
    let events = events_option(opts, if full { 100 } else { 8 })?;
    let seed: u64 = opts.parsed_or("--seed", 1)?;
    let protocol = opts.parsed_or("--protocol", Protocol::default())?;
    let exp = semi_dynamic_experiment(
        protocol,
        Objective::ProportionalFairness,
        events,
        seed,
        full,
    );
    let mut report = Report::default();
    writeln!(
        report,
        "Semi-dynamic run: {} on {} events, seed {}, {} scale\n",
        exp.protocol.name(),
        events,
        seed,
        if full { "paper" } else { "reduced" }
    );
    let times = run_experiment(&exp).convergence;
    report.table(
        &["scheme", "converged", "median", "p95"],
        &[convergence_row(exp.protocol.name(), &times)],
    );
    Ok(report)
}

/// Generic Poisson-arrival dynamic workload for one protocol (pick with
/// `--protocol`, `--workload`, `--load`).
pub fn dynamic(opts: &ScenarioOptions) -> Result<Report, RunError> {
    let load = parse_load_fraction(opts, 0.6)?;
    let seed: u64 = opts.parsed_or("--seed", 21)?;
    let Workload(dist) = opts.parsed_or("--workload", Workload(EmpiricalCdf::web_search()))?;
    let protocol = opts.parsed_or("--protocol", Protocol::default())?;
    let pf = Objective::ProportionalFairness;
    let exp = poisson_experiment(protocol, pf, &dist, load, seed, opts.full());
    let mut report = Report::default();
    writeln!(
        report,
        "Dynamic run: {} on the {} workload at {:.0}% load, {} flows\n",
        exp.protocol.name(),
        dist.name(),
        load * 100.0,
        exp.list().len()
    );
    let records = run_experiment(&exp).flows;
    let normalized: Vec<f64> = records.iter().filter_map(|r| r.normalized_fct()).collect();
    let finished = records.iter().filter(|r| r.fct.is_some()).count();
    report.table(
        &["flows", "completed", "mean norm. FCT", "p95 norm. FCT"],
        &[vec![
            format!("{}", records.len()),
            format!("{finished}"),
            format!("{:.2}", mean(&normalized).unwrap_or(f64::NAN)),
            format!("{:.2}", percentile(&normalized, 0.95).unwrap_or(f64::NAN)),
        ]],
    );
    Ok(report)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn registry_contains_every_figure_scenario() {
        let registry = registry();
        for name in [
            "fig4a",
            "fig4bc",
            "fig5",
            "fig6",
            "fig7",
            "fig8",
            "fig9",
            "fig10",
            "table2",
            "incast",
            "shuffle",
            "stride",
            "recovery",
            "churn",
            "sweep",
            "semi-dynamic",
            "dynamic",
        ] {
            assert!(registry.get(name).is_some(), "missing scenario `{name}`");
        }
        assert!(registry.get("fig99").is_none());
    }

    #[test]
    fn protocol_option_maps_names() {
        let protocol = |opts: ScenarioOptions| opts.parsed_or("--protocol", Protocol::default());
        let opt = |v: &str| ScenarioOptions::new(vec!["--protocol".into(), v.into()]);
        assert_eq!(protocol(opt("dgd")).unwrap().name(), "DGD");
        assert_eq!(protocol(opt("rcp")).unwrap().name(), "RCP*");
        assert_eq!(protocol(opt("dctcp")).unwrap().name(), "DCTCP");
        assert_eq!(protocol(opt("pfabric")).unwrap().name(), "pFabric");
        assert_eq!(
            protocol(ScenarioOptions::default()).unwrap().name(),
            "NUMFabric"
        );
        assert!(protocol(opt("tcp")).is_err());
    }

    #[test]
    fn bdp_matches_paper_value() {
        let bdp = bdp_bytes(&Topology::leaf_spine(&LeafSpineConfig::paper_default()));
        assert!((bdp - 20_000.0).abs() < 1.0, "bdp = {bdp}");
    }

    #[test]
    fn table2_runs_without_panicking() {
        // The FNV-1a digest `report_digests.rs` pins for `numfabric-run table2`.
        let fnv1a = |bytes: &[u8]| {
            bytes.iter().fold(0xcbf2_9ce4_8422_2325, |hash: u64, &b| {
                (hash ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3)
            })
        };
        let report = table2(&ScenarioOptions::default()).unwrap();
        assert_eq!(fnv1a(report.text.as_bytes()), 0x458d_9a01_38aa_e201);
        assert!(report.json.is_none());
    }
}
