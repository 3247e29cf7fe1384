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
use crate::fabric::{cli_error, parse_load_fraction};
use crate::report::{
    fig5_bin, mean, percentile, print_cdf, print_table, quartiles, times_ms, FIG5_BIN_LABELS,
};
use crate::Protocol;
use numfabric_baselines::{DctcpConfig, DgdConfig, PfabricConfig, RcpStarConfig};
use numfabric_core::protocol::{install_numfabric, numfabric_network};
use numfabric_core::{AggregateState, NumFabricAgent, NumFabricConfig};
use numfabric_num::bandwidth_function::{single_link_allocation, BandwidthFunction};
use numfabric_num::fluid::{iterations_to_oracle, DgdFluid, RcpStarFluid, XwiFluid};
use numfabric_num::utility::{BandwidthFunctionUtility, LogUtility};
use numfabric_num::{FluidFlow, FluidNetwork, Oracle};
use numfabric_sim::queue::StfqQueue;
use numfabric_sim::topology::{LeafSpineConfig, NodeKind, Topology};
use numfabric_sim::{Network, SimDuration, SimTime};
use numfabric_workloads::arrivals::{poisson_arrivals, PoissonWorkloadConfig};
use numfabric_workloads::convergence::{convergence_stats, ConvergenceCriterion};
use numfabric_workloads::distributions::{EmpiricalCdf, FlowSizeDistribution};
use numfabric_workloads::registry::{ScenarioOptions, ScenarioRegistry, ScenarioSpec};
use numfabric_workloads::scenarios::{permutation_pairs, SemiDynamicConfig, SemiDynamicScenario};
use numfabric_workloads::TopologySpec;
use rand::{Rng, SeedableRng};
use rand_chacha::ChaCha8Rng;

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
        usage: "[--topology fat-tree:k=4|leaf-spine|oversub:4:1] [--protocol ...] [--fanin N] [--size BYTES] [--impair SPEC] [--seed S] [--partitions N: per-partition event cores] [--partition-threads T: worker threads per epoch; both bit-identical for any value] [--json] [--full]",
        run: crate::fabric::incast,
    });
    registry.register(ScenarioSpec {
        name: "shuffle",
        summary: "All-to-all shuffle transfers among N hosts on any fabric",
        usage: "[--topology fat-tree:k=4|leaf-spine|oversub:4:1] [--protocol ...] [--hosts N] [--size BYTES] [--impair SPEC] [--seed S] [--partitions N: per-partition event cores] [--partition-threads T: worker threads per epoch; both bit-identical for any value] [--json] [--full]",
        run: crate::fabric::shuffle,
    });
    registry.register(ScenarioSpec {
        name: "stride",
        summary: "Stride permutation: steady-state rates vs the fluid oracle on any fabric",
        usage: "[--topology fat-tree:k=4|leaf-spine|oversub:4:1] [--protocol ...] [--stride N] [--millis MS] [--impair SPEC] [--seed S] [--partitions N: per-partition event cores] [--partition-threads T: worker threads per epoch; both bit-identical for any value] [--json] [--full]",
        run: crate::fabric::stride,
    });
    registry.register(ScenarioSpec {
        name: "recovery",
        summary: "Failure recovery: cut the busiest cable, measure time-to-reconverge vs the fluid oracle",
        usage: "[--topology fat-tree:k=4|leaf-spine|oversub:4:1] [--protocol ...|--compare numfabric,dctcp,...] [--stride N] [--millis MS] [--fail-us US] [--restore-us US] [--seed S] [--partitions N: per-partition event cores] [--partition-threads T: worker threads per epoch; both bit-identical for any value] [--json] [--full]",
        run: crate::recovery::recovery,
    });
    registry.register(ScenarioSpec {
        name: "churn",
        summary: "Open-loop Poisson churn with a fg/bg heavy-tail mix, streaming bounded stats on any fabric",
        usage: "[--topology fat-tree:k=8|leaf-spine|oversub:4:1] [--protocol ...] [--load F] [--fg-share F] [--millis MS] [--drain-millis MS] [--impair SPEC] [--seed S] [--partitions N: per-partition event cores] [--partition-threads T: worker threads per epoch; both bit-identical for any value] [--json] [--full]",
        run: crate::churn::churn,
    });
    registry.register(ScenarioSpec {
        name: "sweep",
        summary: "Parameter-sweep grid (scenarios x topologies x protocols x loads x sizes x impairments) on a thread pool",
        usage: "[--scenarios incast,shuffle,stride] [--topologies leaf-spine,fat-tree:k=4,oversub:4:1] [--protocols numfabric,dctcp,...] [--loads 0.5,...] [--sizes BYTES,...] [--impairments none,flap,loss,jitter] [--replicates N] [--seed S] [--threads N: worker threads, bit-identical report for any value] [--partitions N: per-partition event cores] [--partition-threads T: worker threads per epoch; both bit-identical for any value] [--json] (axes are plural: --scenario/--topology/--protocol/--load/--size/--impair are refused with a pointer to the plural)",
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
    let us = |d: Option<SimDuration>| {
        d.map_or_else(|| "-".into(), |d| format!("{:.0} us", d.as_micros_f64()))
    };
    vec![
        scheme.to_string(),
        format!("{}/{}", stats.converged, stats.total),
        us(stats.median),
        us(stats.p95),
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

/// Parse `--workload` (default `websearch`). Any other value is a usage
/// error, like a malformed `--protocol`.
fn workload_from_options(opts: &ScenarioOptions) -> EmpiricalCdf {
    match opts.value("--workload").unwrap_or("websearch") {
        "websearch" => EmpiricalCdf::web_search(),
        "enterprise" => EmpiricalCdf::enterprise(),
        other => cli_error(format!(
            "invalid value `{other}` for option `--workload`: expected websearch|enterprise"
        )),
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

fn fig4a_packet_level(events: usize, full: bool) {
    let protocol = Protocol::NumFabric(NumFabricConfig::default());
    let pf = Objective::ProportionalFairness;
    let mut exp = semi_dynamic_experiment(protocol, pf, events, 1, full);
    let Flows::Events { scenario, .. } = &exp.flows else {
        unreachable!("a semi-dynamic experiment plays events")
    };
    println!(
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
    print_table(&["scheme", "converged", "median", "p95"], &rows);
    println!();
    for (name, ms) in &all {
        print_cdf(&format!("{name} convergence time"), ms, "ms", 12);
        println!();
    }
    // Speed-up summary (the paper reports 2.3x median / 2.7x p95).
    let median_of = |name: &str| {
        all.iter()
            .find(|(n, _)| n == name)
            .and_then(|(_, ms)| percentile(ms, 0.5))
    };
    if let (Some(nf), Some(dgd), Some(rcp)) =
        (median_of("NUMFabric"), median_of("DGD"), median_of("RCP*"))
    {
        println!(
            "median speed-up of NUMFabric: {:.1}x vs DGD, {:.1}x vs RCP*",
            dgd / nf,
            rcp / nf
        );
    }
}

fn fig4a_fluid_level(instances: usize) {
    println!("\nFluid-model comparison (iterations to reach within 5% of the oracle):");
    let mut xwi_iters = Vec::new();
    let mut dgd_iters = Vec::new();
    let mut rcp_iters = Vec::new();
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
        let mut xwi = XwiFluid::with_defaults(net.clone());
        let mut dgd = DgdFluid::with_defaults(net.clone());
        let mut rcp = RcpStarFluid::with_defaults(net.clone());
        if let Some(i) = iterations_to_oracle(&mut xwi, &oracle, 0.05, 20_000) {
            xwi_iters.push(i as f64);
        }
        if let Some(i) = iterations_to_oracle(&mut dgd, &oracle, 0.05, 20_000) {
            dgd_iters.push(i as f64);
        }
        if let Some(i) = iterations_to_oracle(&mut rcp, &oracle, 0.05, 20_000) {
            rcp_iters.push(i as f64);
        }
    }
    print_table(
        &["scheme", "converged", "mean iters", "median iters"],
        &[
            vec![
                "xWI".into(),
                format!("{}/{}", xwi_iters.len(), instances),
                format!("{:.1}", mean(&xwi_iters).unwrap_or(f64::NAN)),
                format!("{:.1}", percentile(&xwi_iters, 0.5).unwrap_or(f64::NAN)),
            ],
            vec![
                "DGD".into(),
                format!("{}/{}", dgd_iters.len(), instances),
                format!("{:.1}", mean(&dgd_iters).unwrap_or(f64::NAN)),
                format!("{:.1}", percentile(&dgd_iters, 0.5).unwrap_or(f64::NAN)),
            ],
            vec![
                "RCP*".into(),
                format!("{}/{}", rcp_iters.len(), instances),
                format!("{:.1}", mean(&rcp_iters).unwrap_or(f64::NAN)),
                format!("{:.1}", percentile(&rcp_iters, 0.5).unwrap_or(f64::NAN)),
            ],
        ],
    );
}

/// Figure 4a: CDF of convergence times for NUMFabric, DGD and RCP* in the
/// semi-dynamic scenario (proportional fairness). `--fluid` additionally
/// reports fluid-model iteration counts on random instances.
pub fn fig4a(opts: &ScenarioOptions) {
    let full = opts.full();
    let events = events_option(opts, if full { 100 } else { 8 });
    fig4a_packet_level(events, full);
    if opts.flag("--fluid") {
        fig4a_fluid_level(20);
    }
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
pub fn fig4bc(_opts: &ScenarioOptions) {
    // One tracked flow sampled every 50 µs while the events play out 4 ms
    // apart.
    let protocol = Protocol::Dctcp(DctcpConfig::default());
    let mut exp = semi_dynamic_experiment(protocol, Objective::ProportionalFairness, 6, 7, false);
    if let Flows::Events { pace, .. } = &mut exp.flows {
        *pace = Pace::Every(SimDuration::from_millis(4));
    }
    exp.sample_every = Some(SimDuration::from_micros(50));

    println!("Figure 4b/4c: rate of one tracked flow across network events\n");
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
        println!("{label} rate time series (time_ms, rate_gbps):");
        let step = (series.len() / 60).max(1);
        for (i, (t, r)) in series.iter().enumerate() {
            if i % step == 0 {
                println!("  {:8.2} ms  {:6.2} Gbps", t, r / 1e9);
            }
        }
        println!();
        summaries.push(vec![
            label.to_string(),
            format!("{:.3}", coefficient_of_variation(&series, 2.0)),
        ]);
    }
    println!("Rate noisiness after warm-up (coefficient of variation of the 80us-filtered rate):");
    print_table(&["scheme", "coeff. of variation"], &summaries);
    println!(
        "\nExpected shape: DCTCP's filtered rate oscillates strongly (large CoV), so it never\n\
         stays within 10% of a target; NUMFabric's rate is comparatively steady between events."
    );
}

// ---------------------------------------------------------------------------
// Figure 5
// ---------------------------------------------------------------------------

/// Figure 5: normalized deviation from the Oracle's ideal rates, per
/// flow-size bin (in BDPs), for NUMFabric, DGD and RCP* under the dynamic
/// workloads.
pub fn fig5(opts: &ScenarioOptions) {
    let dist = workload_from_options(opts);
    let load = parse_load_fraction(opts, 0.6);
    let protocol = Protocol::NumFabric(NumFabricConfig::default());
    let pf = Objective::ProportionalFairness;
    let mut exp = poisson_experiment(protocol, pf, &dist, load, 21, opts.full());
    let bdp = bdp_bytes(&exp.topology);
    println!(
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
    let mut headers = vec!["size (BDPs)"];

    // The Oracle: ideal fluid completion times of the identical arrivals.
    let ideal_fcts = exp.ideal_fcts();
    for protocol in Protocol::convergence_contenders() {
        headers.push(match protocol.name() {
            "NUMFabric" => "NUMFabric  p25/med/p75",
            "DGD" => "DGD  p25/med/p75",
            _ => "RCP*  p25/med/p75",
        });
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

    print_table(&headers, &rows);
    println!(
        "\nExpected shape (paper): NUMFabric's median deviation is near zero for every bin above\n\
         ~5 BDP; DGD and RCP* are negatively biased (flows get less than the ideal rate), worst\n\
         for small flows that finish before those schemes converge."
    );
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

fn fig6_sweep_dt(events: usize) {
    println!("Figure 6a: sensitivity to the Swift delay slack dt (proportional fairness)\n");
    let mut rows = Vec::new();
    for dt_us in [3u64, 6, 12, 24] {
        let cfg = NumFabricConfig::default().with_dt(SimDuration::from_micros(dt_us));
        let (median, converged) = fig6_median_convergence(cfg, 1.0, 11, events);
        rows.push(vec![format!("{dt_us} us"), median, converged]);
    }
    print_table(&["dt", "median convergence", "events converged"], &rows);
    println!();
}

fn fig6_sweep_interval(events: usize) {
    println!("Figure 6b: sensitivity to the xWI price update interval\n");
    let mut rows = Vec::new();
    for us in [30u64, 60, 90, 128] {
        let cfg =
            NumFabricConfig::default().with_price_update_interval(SimDuration::from_micros(us));
        let (median, converged) = fig6_median_convergence(cfg, 1.0, 12, events);
        rows.push(vec![format!("{us} us"), median, converged]);
    }
    print_table(
        &[
            "price update interval",
            "median convergence",
            "events converged",
        ],
        &rows,
    );
    println!();
}

fn fig6_sweep_alpha(events: usize) {
    println!("Figure 6c: sensitivity to alpha (1x = default parameters, 2x = slowed down)\n");
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
    print_table(
        &[
            "alpha",
            "1x median",
            "1x converged",
            "2x median",
            "2x converged",
        ],
        &rows,
    );
    println!(
        "\nExpected shape (paper): extreme alpha values fail to converge reliably at 1x but\n\
         converge at 2x slow-down, at a modest cost in median convergence time."
    );
}

/// The `--events N` option of the semi-dynamic figures: zero events would
/// print an empty table, so it is a usage error.
fn events_option(opts: &ScenarioOptions, default: usize) -> usize {
    let events: usize = opts.parsed_or("--events", default);
    if events == 0 {
        cli_error("--events must be at least 1");
    }
    events
}

/// Figure 6: NUMFabric parameter sensitivity (`--sweep dt|interval|alpha`,
/// default all three).
pub fn fig6(opts: &ScenarioOptions) {
    let events = events_option(opts, 5);
    match opts.value("--sweep") {
        Some("dt") => fig6_sweep_dt(events),
        Some("interval") => fig6_sweep_interval(events),
        Some("alpha") => fig6_sweep_alpha(events),
        None => {
            fig6_sweep_dt(events);
            fig6_sweep_interval(events);
            fig6_sweep_alpha(events);
        }
        Some(other) => cli_error(format!(
            "invalid value `{other}` for option `--sweep`: expected dt|interval|alpha"
        )),
    }
}

// ---------------------------------------------------------------------------
// Figure 7
// ---------------------------------------------------------------------------

/// Figure 7: mean normalized FCT vs load for NUMFabric (FCT-minimization
/// utility, 2× slow-down, BDP initial window) against pFabric.
pub fn fig7(opts: &ScenarioOptions) {
    let loads: Vec<f64> = if opts.full() {
        vec![0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8]
    } else {
        vec![0.2, 0.4, 0.6, 0.8]
    };
    let dist = EmpiricalCdf::web_search();
    println!("Figure 7: mean normalized FCT vs load (web-search workload)\n");

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
    print_table(
        &["load", "flows", "NUMFabric", "pFabric", "NUMFabric/pFabric"],
        &rows,
    );
    println!(
        "\n(* some flows had not completed when the simulation ended and are excluded)\n\
         Expected shape (paper): NUMFabric tracks pFabric within ~4-20% across loads."
    );
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
    for (pair_idx, pair) in pairs.iter().enumerate() {
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
                Some(pair_idx),
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
pub fn fig8(opts: &ScenarioOptions) {
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

    println!(
        "Figure 8a: total throughput (% of optimal) vs number of subflows ({} pairs)\n",
        pairs
    );
    let subflow_counts: Vec<usize> = if full {
        (1..=8).collect()
    } else {
        vec![1, 2, 4, 8]
    };
    let mut rows = Vec::new();
    let mut pooled_8: Vec<f64> = Vec::new();
    let mut unpooled_8: Vec<f64> = Vec::new();
    for &k in &subflow_counts {
        let pooled = fig8_run_permutation(&topo_cfg, k, true, 5);
        let unpooled = fig8_run_permutation(&topo_cfg, k, false, 5);
        if k == *subflow_counts.last().unwrap() {
            pooled_8 = pooled.clone();
            unpooled_8 = unpooled.clone();
        }
        rows.push(vec![
            format!("{k}"),
            format!("{:.1}%", pooled.iter().sum::<f64>() / optimal_total * 100.0),
            format!(
                "{:.1}%",
                unpooled.iter().sum::<f64>() / optimal_total * 100.0
            ),
        ]);
    }
    print_table(
        &["subflows", "resource pooling", "no resource pooling"],
        &rows,
    );

    println!(
        "\nFigure 8b: per-pair throughput (% of optimal), ranked, with {} subflows\n",
        subflow_counts.last().unwrap()
    );
    let mut ranked_pooled: Vec<f64> = pooled_8
        .iter()
        .map(|r| r / topo_cfg.host_link_bps * 100.0)
        .collect();
    let mut ranked_unpooled: Vec<f64> = unpooled_8
        .iter()
        .map(|r| r / topo_cfg.host_link_bps * 100.0)
        .collect();
    ranked_pooled.sort_by(|a, b| b.partial_cmp(a).unwrap());
    ranked_unpooled.sort_by(|a, b| b.partial_cmp(a).unwrap());
    let rows: Vec<Vec<String>> = ranked_pooled
        .iter()
        .zip(&ranked_unpooled)
        .enumerate()
        .map(|(rank, (p, u))| {
            vec![
                format!("{}", rank + 1),
                format!("{p:.1}%"),
                format!("{u:.1}%"),
            ]
        })
        .collect();
    print_table(&["rank", "resource pooling", "no resource pooling"], &rows);
    println!(
        "\nExpected shape (paper): with 8 subflows, resource pooling reaches close to 100% of the\n\
         optimal total throughput and the per-pair throughputs are nearly equal; without pooling\n\
         the total is lower and the spread across pairs much wider."
    );
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
pub fn fig9(_opts: &ScenarioOptions) {
    let capacities: Vec<f64> = vec![5.0, 10.0, 15.0, 17.0, 20.0, 25.0, 30.0, 35.0];
    let config = NumFabricConfig::default();
    println!("Figure 9: two flows with the Figure-2 bandwidth functions on one bottleneck\n");

    let mut rows = Vec::new();
    for &cap in &capacities {
        let (topo, nodes) = fig9_build_topology(cap);
        let (src1, src2, sw, dst) = (nodes[0], nodes[1], nodes[2], nodes[3]);
        let mut net = Network::new(topo.clone(), |_| Box::new(StfqQueue::with_default_buffer()));
        install_numfabric(&mut net, &config);

        let bwf1 = BandwidthFunction::paper_flow1();
        let bwf2 = BandwidthFunction::paper_flow2();
        let f1 = net.add_flow_on_route(
            src1,
            dst,
            topo.route_via(&[src1, sw, dst]),
            None,
            SimTime::ZERO,
            None,
            Box::new(NumFabricAgent::new(
                config.clone(),
                BandwidthFunctionUtility::new(bwf1.clone()),
            )),
        );
        let f2 = net.add_flow_on_route(
            src2,
            dst,
            topo.route_via(&[src2, sw, dst]),
            None,
            SimTime::ZERO,
            None,
            Box::new(NumFabricAgent::new(
                config.clone(),
                BandwidthFunctionUtility::new(bwf2.clone()),
            )),
        );
        net.run_until(SimTime::from_millis(10));

        let measured1 = net.flow_rate_estimate(f1) / 1e9;
        let measured2 = net.flow_rate_estimate(f2) / 1e9;
        let (expected, _) = single_link_allocation(&[bwf1, bwf2], cap);
        rows.push(vec![
            format!("{cap:.0} Gbps"),
            format!("{:.2}", expected[0]),
            format!("{measured1:.2}"),
            format!("{:.2}", expected[1]),
            format!("{measured2:.2}"),
        ]);
    }
    print_table(
        &[
            "link capacity",
            "flow1 expected",
            "flow1 measured",
            "flow2 expected",
            "flow2 measured",
        ],
        &rows,
    );
    println!(
        "\nExpected shape (paper): the measured allocation tracks the bandwidth-function\n\
         water-filling allocation across all capacities (flow 1 takes everything up to 10 Gbps,\n\
         flow 2 then catches up at twice the slope until it saturates at 10 Gbps)."
    );
}

// ---------------------------------------------------------------------------
// Figure 10
// ---------------------------------------------------------------------------

/// Figure 10: bandwidth functions combined with resource pooling under a
/// mid-run capacity change on the shared middle link.
pub fn fig10(_opts: &ScenarioOptions) {
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
    let mut net = Network::new(topo.clone(), |_| Box::new(StfqQueue::with_default_buffer()));
    install_numfabric(&mut net, &config);

    // Flow 1: aggregate over {top path, middle path} with bandwidth function 1.
    let handles1 = AggregateState::create(2);
    let u1 = || BandwidthFunctionUtility::new(BandwidthFunction::paper_flow1());
    let f1a = net.add_flow_on_route(
        src1,
        dst1,
        topo.route_via(&[src1, sw1, dst1]),
        None,
        SimTime::ZERO,
        Some(1),
        Box::new(NumFabricAgent::new(config.clone(), u1()).with_aggregate(handles1[0].clone())),
    );
    let f1b = net.add_flow_on_route(
        src1,
        dst1,
        topo.route_via(&[src1, sw1, sw_mid_in, sw_mid_out, dst1]),
        None,
        SimTime::ZERO,
        Some(1),
        Box::new(NumFabricAgent::new(config.clone(), u1()).with_aggregate(handles1[1].clone())),
    );
    // Flow 2: aggregate over {bottom path, middle path} with bandwidth function 2.
    let handles2 = AggregateState::create(2);
    let u2 = || BandwidthFunctionUtility::new(BandwidthFunction::paper_flow2());
    let f2a = net.add_flow_on_route(
        src2,
        dst2,
        topo.route_via(&[src2, sw2, dst2]),
        None,
        SimTime::ZERO,
        Some(2),
        Box::new(NumFabricAgent::new(config.clone(), u2()).with_aggregate(handles2[0].clone())),
    );
    let f2b = net.add_flow_on_route(
        src2,
        dst2,
        topo.route_via(&[src2, sw2, sw_mid_in, sw_mid_out, dst2]),
        None,
        SimTime::ZERO,
        Some(2),
        Box::new(NumFabricAgent::new(config.clone(), u2()).with_aggregate(handles2[1].clone())),
    );

    println!("Figure 10: aggregate throughput of the two flows; middle link 5 Gbps -> 17 Gbps at t = 5 ms\n");
    println!("  time_ms   flow1_Gbps   flow2_Gbps");
    let switch_at = SimTime::from_millis(5);
    let end = SimTime::from_millis(10);
    let mut t = SimTime::ZERO;
    let mut switched = false;
    while t < end {
        t += SimDuration::from_micros(200);
        if !switched && t >= switch_at {
            net.set_link_capacity(mid_fwd, 17e9);
            switched = true;
            println!("  -- middle link capacity changed to 17 Gbps --");
        }
        net.run_until(t);
        let flow1 = (net.flow_rate_estimate(f1a) + net.flow_rate_estimate(f1b)) / 1e9;
        let flow2 = (net.flow_rate_estimate(f2a) + net.flow_rate_estimate(f2b)) / 1e9;
        println!(
            "  {:7.2}   {:10.2}   {:10.2}",
            t.as_secs_f64() * 1e3,
            flow1,
            flow2
        );
    }
    println!(
        "\nExpected shape (paper): ~(10, 3) Gbps while the middle link is 5 Gbps (flow 1 gets the\n\
         whole middle link), switching quickly to ~(15, 10) Gbps once it becomes 17 Gbps."
    );
}

// ---------------------------------------------------------------------------
// Table 2
// ---------------------------------------------------------------------------

/// Table 2: the default parameter settings of every scheme.
pub fn table2(_opts: &ScenarioOptions) {
    println!("Table 2: default parameter settings in simulations\n");

    let nf = NumFabricConfig::paper_default();
    let dgd = DgdConfig::default();
    let rcp = RcpStarConfig::default();

    println!("NUMFabric [Table 2 of the paper]");
    print_table(
        &["parameter", "value"],
        &[
            vec!["ewmaTime".into(), format!("{}", nf.ewma_time)],
            vec!["dt".into(), format!("{}", nf.dt)],
            vec![
                "priceUpdateInterval".into(),
                format!("{}", nf.price_update_interval),
            ],
            vec!["eta (Eq. 10)".into(), format!("{}", nf.eta)],
            vec!["beta (Eq. 11)".into(), format!("{}", nf.beta)],
            vec![
                "initial burst".into(),
                format!("{} packets", nf.initial_burst_packets),
            ],
        ],
    );

    println!("\nDGD [Eq. 14] (gains adapted to Gbps/byte units; see DESIGN.md)");
    print_table(
        &["parameter", "value"],
        &[
            vec![
                "priceUpdateInterval".into(),
                format!("{}", dgd.price_update_interval),
            ],
            vec!["a".into(), format!("{:e} per Gbps", dgd.a_per_gbps)],
            vec!["b".into(), format!("{:e} per byte", dgd.b_per_byte)],
            vec!["unacked cap".into(), format!("{} BDP", dgd.unacked_cap_bdp)],
        ],
    );

    println!("\nRCP* [Eq. 15]");
    print_table(
        &["parameter", "value"],
        &[
            vec![
                "rateUpdateInterval".into(),
                format!("{}", rcp.rate_update_interval),
            ],
            vec!["a".into(), format!("{}", rcp.a)],
            vec!["b".into(), format!("{}", rcp.b)],
            vec!["alpha".into(), format!("{}", rcp.alpha)],
        ],
    );
}

// ---------------------------------------------------------------------------
// Generic drivers
// ---------------------------------------------------------------------------

/// Generic semi-dynamic convergence run for one protocol (pick with
/// `--protocol`).
pub fn semi_dynamic(opts: &ScenarioOptions) {
    let full = opts.full();
    let events = events_option(opts, if full { 100 } else { 8 });
    let seed: u64 = opts.parsed_or("--seed", 1);
    let protocol = Protocol::from_options(opts);
    let exp = semi_dynamic_experiment(
        protocol,
        Objective::ProportionalFairness,
        events,
        seed,
        full,
    );
    println!(
        "Semi-dynamic run: {} on {} events, seed {}, {} scale\n",
        exp.protocol.name(),
        events,
        seed,
        if full { "paper" } else { "reduced" }
    );
    let times = run_experiment(&exp).convergence;
    print_table(
        &["scheme", "converged", "median", "p95"],
        &[convergence_row(exp.protocol.name(), &times)],
    );
}

/// Generic Poisson-arrival dynamic workload for one protocol (pick with
/// `--protocol`, `--workload`, `--load`).
pub fn dynamic(opts: &ScenarioOptions) {
    let load = parse_load_fraction(opts, 0.6);
    let seed: u64 = opts.parsed_or("--seed", 21);
    let dist = workload_from_options(opts);
    let protocol = Protocol::from_options(opts);
    let pf = Objective::ProportionalFairness;
    let exp = poisson_experiment(protocol, pf, &dist, load, seed, opts.full());
    println!(
        "Dynamic run: {} on the {} workload at {:.0}% load, {} flows\n",
        exp.protocol.name(),
        dist.name(),
        load * 100.0,
        exp.list().len()
    );
    let records = run_experiment(&exp).flows;
    let normalized: Vec<f64> = records.iter().filter_map(|r| r.normalized_fct()).collect();
    let finished = records.iter().filter(|r| r.fct.is_some()).count();
    print_table(
        &["flows", "completed", "mean norm. FCT", "p95 norm. FCT"],
        &[vec![
            format!("{}", records.len()),
            format!("{finished}"),
            format!("{:.2}", mean(&normalized).unwrap_or(f64::NAN)),
            format!("{:.2}", percentile(&normalized, 0.95).unwrap_or(f64::NAN)),
        ]],
    );
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
        let opt = |v: &str| ScenarioOptions::new(vec!["--protocol".into(), v.into()]);
        assert_eq!(Protocol::from_options(&opt("dgd")).name(), "DGD");
        assert_eq!(Protocol::from_options(&opt("rcp")).name(), "RCP*");
        assert_eq!(Protocol::from_options(&opt("dctcp")).name(), "DCTCP");
        assert_eq!(Protocol::from_options(&opt("pfabric")).name(), "pFabric");
        assert_eq!(
            Protocol::from_options(&ScenarioOptions::default()).name(),
            "NUMFabric"
        );
    }

    #[test]
    fn bdp_matches_paper_value() {
        let bdp = bdp_bytes(&Topology::leaf_spine(&LeafSpineConfig::paper_default()));
        assert!((bdp - 20_000.0).abs() < 1.0, "bdp = {bdp}");
    }

    #[test]
    fn table2_runs_without_panicking() {
        table2(&ScenarioOptions::default());
    }
}
