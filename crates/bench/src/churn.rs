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
//! Arrivals are injected in batches bounded by `ARRIVAL_BATCH` arrivals
//! *and* `HARVEST_SLICE` of simulated time (whichever fills first): the
//! simulator runs up to each batch's last start time, the harvest pass
//! retires whatever completed, and the next batch is drawn from the
//! stream. Batch boundaries are arrival times — pure functions of the
//! seed — so the run (and its `--json` report, which carries no
//! wall-clock) is bit-identical for every
//! `--partitions × --partition-threads` choice.
//!
//! [`Network::try_retire_flow`]: numfabric_sim::Network::try_retire_flow
//! [`QuantileSketch`]: crate::report::QuantileSketch

use crate::fabric::{cli_error, exit_if_wedged, parse_load_fraction};
use crate::protocols::{Protocol, RunSetup};
use crate::report::{churn_report_json, print_table, ChurnSummary, ClassStats};
use numfabric_num::utility::LogUtility;
use numfabric_sim::{FlowId, Network, SimDuration, SimTime, Topology};
use numfabric_workloads::churn::{foreground_background, ChurnConfig, ChurnStream};
use numfabric_workloads::ideal::empty_network_fct;
use numfabric_workloads::registry::ScenarioOptions;
use numfabric_workloads::TopologySpec;
use std::sync::Arc;

/// Upper bound on arrivals injected per simulate/harvest cycle. Bounds the
/// slab overshoot (live flows ≤ concurrent + one batch) while keeping the
/// per-batch barrier overhead negligible at high arrival rates.
const ARRIVAL_BATCH: usize = 256;

/// Upper bound on *simulated time* per simulate/harvest cycle, so sparse
/// workloads still recycle completed flows promptly instead of waiting for
/// [`ARRIVAL_BATCH`] arrivals to accumulate.
const HARVEST_SLICE: SimDuration = SimDuration::from_millis(2);

/// Configuration of one churn run.
#[derive(Debug, Clone)]
pub struct ChurnRun {
    /// Fabric to run on.
    pub topology: TopologySpec,
    /// Build the fabric at the paper's scale (`--full`: 128-host
    /// leaf-spine) instead of the reduced 32-host shape; fat-trees are
    /// sized by `k` alone.
    pub full: bool,
    /// Total offered load on the host access links, in `(0, 1)`.
    pub load: f64,
    /// Share of the load carried by the latency-sensitive foreground
    /// (web-search) class; the rest is background (data-mining).
    pub fg_share: f64,
    /// Arrival-generation horizon.
    pub arrival_window: SimDuration,
    /// Extra simulation time after the last arrival to let flows drain.
    pub drain: SimDuration,
    /// Workload seed.
    pub seed: u64,
}

impl ChurnRun {
    /// Reduced-scale defaults: leaf-spine, 60 % load, 25 % foreground,
    /// arrivals over 40 ms.
    pub fn reduced(load: f64, seed: u64) -> Self {
        Self {
            topology: TopologySpec::LeafSpine,
            full: false,
            load,
            fg_share: 0.25,
            arrival_window: SimDuration::from_millis(40),
            drain: SimDuration::from_millis(60),
            seed,
        }
    }
}

/// One live (not yet retired) flow of the churn loop.
struct LiveFlow {
    id: FlowId,
    class: usize,
    size_bytes: u64,
    /// Empty-network FCT bound — the slowdown denominator.
    empty_fct: SimDuration,
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

/// The arrival-stream parameters of `run` on its built fabric. ECMP choices
/// are drawn over the widest equal-cost fan-out any destination offers the
/// first host — the spine count on a leaf-spine, `(k/2)²` on a fat-tree —
/// which `host_route` folds onto the narrower path sets of closer pairs.
fn churn_config(topo: &Topology, run: &ChurnRun) -> ChurnConfig {
    let hosts = topo.hosts();
    let fanout = hosts[1..]
        .iter()
        .map(|&dst| topo.num_host_routes(hosts[0], dst))
        .max()
        .unwrap_or(1);
    ChurnConfig {
        load: run.load,
        duration: run.arrival_window,
        seed: run.seed,
        num_spines: fanout,
        host_link_bps: topo.links()[0].capacity_bps,
    }
}

/// Run one churn workload to completion on a network built with `setup`
/// and return the streaming summary.
///
/// The partition and thread counts in `setup` are pure execution knobs: the
/// summary (and the report rendered from it) is bit-identical for every
/// value, because batch boundaries, the harvest schedule and the retire
/// decisions are all derived from simulation content, never from
/// scheduling — and impaired replays stay bit-identical because the
/// loss/jitter draws come from per-link streams.
pub fn run_churn(protocol: &Protocol, run: &ChurnRun, setup: &RunSetup) -> ChurnSummary {
    let topo = run.topology.build(run.full);
    let hosts: Vec<_> = topo.hosts().to_vec();
    let mix = foreground_background(run.fg_share);
    let config = churn_config(&topo, run);

    let utility = Arc::new(LogUtility::new());
    let mut net = protocol.build_network_with(topo, setup);

    let mut classes: Vec<ClassStats> = mix.iter().map(|c| ClassStats::new(c.name)).collect();
    let mut live: Vec<LiveFlow> = Vec::new();
    let mut stream = ChurnStream::new(&hosts, &mix, &config).peekable();
    let mut offered = 0u64;
    let mut peak_concurrent = 0usize;
    while let Some(first) = stream.peek() {
        // One cycle: inject arrivals until the batch cap or the time slice
        // is exhausted, simulate up to the last injected start, harvest.
        let slice_end = first.arrival.start + HARVEST_SLICE;
        let mut batch_end = first.arrival.start;
        let mut injected = 0usize;
        while injected < ARRIVAL_BATCH {
            let Some(head) = stream.peek() else { break };
            if injected > 0 && head.arrival.start >= slice_end {
                break;
            }
            let a = stream.next().expect("peeked head must exist");
            let id = net.add_flow(
                a.arrival.src,
                a.arrival.dst,
                Some(a.arrival.size_bytes),
                a.arrival.start,
                a.arrival.spine_choice,
                None,
                protocol.make_agent(utility.clone()),
            );
            // The route admission just pinned — one lookup per arrival.
            let route = net.route(net.flow_spec(id).route);
            let empty_fct = empty_network_fct(net.topology(), route, a.arrival.size_bytes);
            live.push(LiveFlow {
                id,
                class: a.class,
                size_bytes: a.arrival.size_bytes,
                empty_fct,
            });
            batch_end = a.arrival.start;
            offered += 1;
            injected += 1;
        }
        peak_concurrent = peak_concurrent.max(live.len());
        net.run_until(batch_end);
        harvest(&mut net, &mut live, &mut classes);
    }
    net.run_until(SimTime::ZERO + run.arrival_window + run.drain);
    harvest(&mut net, &mut live, &mut classes);

    ChurnSummary {
        offered,
        completed: classes.iter().map(|c| c.flows).sum(),
        peak_concurrent,
        flow_slots: net.num_flows(),
        classes,
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
    let setup = RunSetup::from_options(opts, &spec.build(opts.full()), seed);
    let run = ChurnRun {
        topology: spec,
        full: opts.full(),
        load,
        fg_share,
        arrival_window: SimDuration::from_millis(millis),
        drain: SimDuration::from_millis(drain_millis),
        seed,
    };
    let topology = spec.to_string();
    if !json {
        println!(
            "Churn: {} on {topology}\nopen-loop Poisson at load {load:.2} for {millis} ms \
             ({:.0}% web-search fg / {:.0}% data-mining bg), drain {drain_millis} ms (seed {seed})\n",
            protocol.name(),
            fg_share * 100.0,
            (1.0 - fg_share) * 100.0,
        );
    }
    let start = std::time::Instant::now();
    let summary = run_churn(&protocol, &run, &setup);
    let wall = start.elapsed();
    if json {
        println!(
            "{}",
            churn_report_json(&topology, protocol.name(), load, millis, seed, &summary).render()
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

    fn quick_run(seed: u64) -> ChurnRun {
        ChurnRun {
            topology: TopologySpec::LeafSpine,
            full: false,
            load: 0.5,
            fg_share: 0.25,
            arrival_window: SimDuration::from_millis(8),
            drain: SimDuration::from_millis(40),
            seed,
        }
    }

    #[test]
    fn churn_completes_flows_and_reports_per_class_stats() {
        let protocol = Protocol::NumFabric(NumFabricConfig::default());
        let summary = run_churn(&protocol, &quick_run(5), &RunSetup::default());
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
        let protocol = Protocol::NumFabric(NumFabricConfig::default());
        let mut run = quick_run(7);
        run.arrival_window = SimDuration::from_millis(30);
        let summary = run_churn(&protocol, &run, &RunSetup::default());
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
        let run = ChurnRun {
            topology: TopologySpec::FatTree { k: 4 },
            ..quick_run(3)
        };
        let topo = run.topology.build(run.full);
        let config = churn_config(&topo, &run);
        assert_eq!(config.num_spines, 4, "(k/2)^2 inter-pod paths");
        let mix = foreground_background(run.fg_share);
        let mut core_flows = vec![0usize; topo.nodes().len()];
        for a in ChurnStream::new(topo.hosts(), &mix, &config) {
            let route = topo.host_route(a.arrival.src, a.arrival.dst, a.arrival.spine_choice);
            for &l in route.links() {
                core_flows[topo.links()[l].to] += 1;
            }
        }
        for &core in topo.cores() {
            assert!(core_flows[core] > 0, "core {core} carries no churn flow");
        }
        // And the driver itself runs on it.
        let protocol = Protocol::NumFabric(NumFabricConfig::default());
        let summary = run_churn(&protocol, &run, &RunSetup::default());
        assert!(summary.completed > 0, "offered {}", summary.offered);
    }

    #[test]
    fn churn_summary_is_partition_invariant() {
        let protocol = Protocol::NumFabric(NumFabricConfig::default());
        let run = quick_run(11);
        let report = |partitions, partition_threads| {
            let setup = RunSetup {
                partitions,
                partition_threads,
                ..RunSetup::default()
            };
            let summary = run_churn(&protocol, &run, &setup);
            churn_report_json("t", "p", run.load, 8, run.seed, &summary).render()
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
