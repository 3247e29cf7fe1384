//! The production-scale trace-driven churn driver: open-loop Poisson
//! arrivals with a foreground/background heavy-tail class mix, run with
//! **bounded memory** no matter how many flows the horizon offers.
//!
//! Three streaming pieces compose so that peak memory is
//! O(concurrent flows + classes), never O(total flows):
//!
//! 1. the arrival trace is a [`ChurnStream`] iterator — a million-flow
//!    horizon is generated one arrival at a time and never materialized;
//! 2. completed flows are recycled through the simulator's flow slab
//!    ([`Network::try_retire_flow`]) as soon as they quiesce, so the slab
//!    high-water mark tracks *concurrent* flows;
//! 3. per-flow results stream into fixed-size per-class accumulators
//!    ([`ClassStats`]) whose [`QuantileSketch`]es answer FCT and slowdown
//!    quantiles within a documented 1 % relative error.
//!
//! The run itself is a Stream [`Experiment`]: arrivals are injected in
//! batches whose boundaries are arrival times — pure functions of the seed
//! — so the run (and its `--json` report, which carries no wall-clock) is
//! bit-identical for every `--partitions × --partition-threads` choice.
//!
//! [`Network::try_retire_flow`]: numfabric_sim::Network::try_retire_flow
//! [`QuantileSketch`]: crate::report::QuantileSketch
//! [`ClassStats`]: crate::report::ClassStats
//! [`ChurnStream`]: numfabric_workloads::churn::ChurnStream

use crate::experiment::{run_experiment, Experiment, Flows};
use crate::fabric::{cli_error, exit_if_wedged, parse_load_fraction};
use crate::protocols::{Protocol, RunSetup};
use crate::report::{churn_report_json, print_table, ChurnSummary};
use numfabric_sim::{SimDuration, Topology};
use numfabric_workloads::churn::{foreground_background, ChurnConfig};
use numfabric_workloads::registry::ScenarioOptions;
use numfabric_workloads::TopologySpec;

/// The churn Stream on `topo`: the foreground/background mix at `load`
/// (`fg_share` of it web-search foreground) arriving for `window`. ECMP
/// choices are drawn over the widest equal-cost fan-out any destination
/// offers the first host — the spine count on a leaf-spine, `(k/2)²` on a
/// fat-tree — which `host_route` folds onto the narrower path sets of
/// closer pairs.
pub fn churn_flows(
    topo: &Topology,
    load: f64,
    fg_share: f64,
    window: SimDuration,
    seed: u64,
) -> Flows {
    let hosts = topo.hosts();
    let fanout = hosts[1..]
        .iter()
        .map(|&dst| topo.num_host_routes(hosts[0], dst))
        .max()
        .unwrap_or(1);
    Flows::Stream {
        mix: foreground_background(fg_share),
        config: ChurnConfig {
            load,
            duration: window,
            seed,
            num_spines: fanout,
            host_link_bps: topo.links()[0].capacity_bps,
        },
    }
}

/// The `numfabric-run churn` entry point. With `--json` the run prints one
/// machine-readable report instead of tables.
pub fn churn(opts: &ScenarioOptions) {
    let spec: TopologySpec = opts.parsed_or("--topology", TopologySpec::LeafSpine);
    let load = parse_load_fraction(opts, 0.6);
    let fg_share: f64 = opts.parsed_or("--fg-share", 0.25);
    if !(fg_share > 0.0 && fg_share < 1.0) {
        cli_error(format!(
            "--fg-share {fg_share} must be a fraction in (0, 1)"
        ));
    }
    let millis: u64 = opts.parsed_or("--millis", 40);
    let drain_millis: u64 = opts.parsed_or("--drain-millis", 60);
    if millis == 0 {
        cli_error("--millis must be at least 1");
    }
    let seed: u64 = opts.parsed_or("--seed", 1);
    let json = opts.flag("--json");
    let protocol = Protocol::from_options(opts);
    let topo = spec.build(opts.full());
    let setup = RunSetup::from_options(opts, &topo, seed);
    let window = SimDuration::from_millis(millis);
    let flows = churn_flows(&topo, load, fg_share, window, seed);
    let horizon = window + SimDuration::from_millis(drain_millis);
    let exp = Experiment {
        setup,
        ..Experiment::new(protocol, topo, flows, horizon)
    };
    let topology = spec.to_string();
    if !json {
        println!(
            "Churn: {} on {topology}\nopen-loop Poisson at load {load:.2} for {millis} ms \
             ({:.0}% web-search fg / {:.0}% data-mining bg), drain {drain_millis} ms (seed {seed})\n",
            exp.protocol.name(),
            fg_share * 100.0,
            (1.0 - fg_share) * 100.0,
        );
    }
    let start = std::time::Instant::now();
    let summary = run_experiment(&exp).churn;
    let wall = start.elapsed();
    if json {
        println!(
            "{}",
            churn_report_json(&topology, exp.protocol.name(), load, millis, seed, &summary)
                .render()
        );
    } else {
        print_churn_summary(&summary);
        println!(
            "\n{} flows offered, {} completed in {:.2} s wall-clock ({:.0} flows/sec);\n\
             peak {} concurrent flows recycled through {} slab slots. The --json report\n\
             is bit-identical for any --partitions and --partition-threads value —\n\
             only this timing line varies.",
            summary.offered,
            summary.completed,
            wall.as_secs_f64(),
            summary.completed as f64 / wall.as_secs_f64().max(1e-9),
            summary.peak_concurrent,
            summary.flow_slots,
        );
    }
    exit_if_wedged(
        summary.completed == 0,
        "churn run wedged: no flow completed",
    );
}

fn print_churn_summary(summary: &ChurnSummary) {
    let fmt_ms = |v: Option<f64>| v.map_or_else(|| "-".into(), |s| format!("{:.2} ms", s * 1e3));
    let fmt_x = |v: Option<f64>| v.map_or_else(|| "-".into(), |s| format!("{s:.1}x"));
    let mut rows: Vec<Vec<String>> = summary
        .classes
        .iter()
        .map(|c| {
            vec![
                c.name.to_string(),
                format!("{}", c.flows),
                format!("{:.1} MB", c.bytes as f64 / 1e6),
                fmt_ms(c.fct.quantile(0.5)),
                fmt_ms(c.fct.quantile(0.99)),
                fmt_x(c.slowdown.quantile(0.5)),
                fmt_x(c.slowdown.quantile(0.99)),
            ]
        })
        .collect();
    let (fct, slowdown) = summary.overall();
    rows.push(vec![
        "all".to_string(),
        format!("{}", summary.completed),
        format!("{:.1} MB", summary.completed_bytes() as f64 / 1e6),
        fmt_ms(fct.quantile(0.5)),
        fmt_ms(fct.quantile(0.99)),
        fmt_x(slowdown.quantile(0.5)),
        fmt_x(slowdown.quantile(0.99)),
    ]);
    print_table(
        &[
            "class",
            "completed",
            "bytes",
            "p50 FCT",
            "p99 FCT",
            "p50 slowdown",
            "p99 slowdown",
        ],
        &rows,
    );
}

#[cfg(test)]
mod tests {
    use super::*;
    use numfabric_core::NumFabricConfig;
    use numfabric_workloads::churn::ChurnStream;

    /// A churn experiment at load 0.5 on `spec`: arrivals for `millis`,
    /// drained for 40 ms.
    fn quick(spec: TopologySpec, millis: u64, seed: u64) -> Experiment {
        let topo = spec.build(false);
        let window = SimDuration::from_millis(millis);
        let flows = churn_flows(&topo, 0.5, 0.25, window, seed);
        let horizon = window + SimDuration::from_millis(40);
        let protocol = Protocol::NumFabric(NumFabricConfig::default());
        Experiment::new(protocol, topo, flows, horizon)
    }

    #[test]
    fn churn_completes_flows_and_reports_per_class_stats() {
        let summary = run_experiment(&quick(TopologySpec::LeafSpine, 8, 5)).churn;
        assert!(summary.offered > 20, "offered = {}", summary.offered);
        assert!(
            summary.completed * 10 >= summary.offered * 5,
            "only {}/{} completed",
            summary.completed,
            summary.offered
        );
        assert_eq!(summary.classes.len(), 2);
        assert!(summary.classes.iter().all(|c| c.flows > 0));
        let (_, slowdown) = summary.overall();
        // Slowdowns are positive and ordered; the min can dip below 1
        // because the empty-network bound charges a full RTT while the
        // measured FCT ends at one-way last-byte delivery.
        assert!(slowdown.min().unwrap() > 0.0);
        assert!(slowdown.quantile(0.99) >= slowdown.quantile(0.5));
    }

    #[test]
    fn slab_recycling_keeps_slots_below_offered_flows() {
        let summary = run_experiment(&quick(TopologySpec::LeafSpine, 30, 7)).churn;
        assert!(
            (summary.flow_slots as u64) < summary.offered / 2,
            "slab never recycled: {} slots for {} flows",
            summary.flow_slots,
            summary.offered
        );
        assert!(summary.peak_concurrent >= summary.flow_slots);
    }

    #[test]
    fn fat_tree_churn_loads_every_core_switch() {
        // The driver used to draw ECMP choices over `spines().len().max(1)`
        // — 1 on every fat-tree — so all churn flows rode path 0 and three
        // of a k = 4 fabric's four cores stayed dark.
        let exp = quick(TopologySpec::FatTree { k: 4 }, 8, 3);
        let (topo, Flows::Stream { mix, config }) = (&exp.topology, &exp.flows) else {
            unreachable!("churn_flows builds a Stream")
        };
        assert_eq!(config.num_spines, 4, "(k/2)^2 inter-pod paths");
        let mut core_flows = vec![0usize; topo.nodes().len()];
        for a in ChurnStream::new(topo.hosts(), mix, config) {
            let route = topo.host_route(a.arrival.src, a.arrival.dst, a.arrival.spine_choice);
            for &l in route.links() {
                core_flows[topo.links()[l].to] += 1;
            }
        }
        for &core in topo.cores() {
            assert!(core_flows[core] > 0, "core {core} carries no churn flow");
        }
        // And the driver itself runs on it.
        let summary = run_experiment(&exp).churn;
        assert!(summary.completed > 0, "offered {}", summary.offered);
    }

    #[test]
    fn churn_summary_is_partition_invariant() {
        let report = |partitions, partition_threads| {
            let exp = Experiment {
                setup: RunSetup {
                    partitions,
                    partition_threads,
                    ..RunSetup::default()
                },
                ..quick(TopologySpec::LeafSpine, 8, 11)
            };
            churn_report_json("t", "p", 0.5, 8, 11, &run_experiment(&exp).churn).render()
        };
        let base = report(1, 1);
        for (partitions, threads) in [(2, 1), (4, 2)] {
            assert_eq!(
                base,
                report(partitions, threads),
                "diverged at {partitions}x{threads}"
            );
        }
    }
}
