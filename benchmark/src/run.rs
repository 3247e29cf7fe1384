//! One simulation of one workload in this process: set-up (repeated),
//! the timed simulate phase, the correctness checks, and — traced — the
//! per-layer numbers. A parent process runs this several times, each in a
//! fresh child, and aggregates (see [`crate::driver`]).

use crate::alloc;
use crate::json::Json;
use crate::probe;
use crate::procfs;
use crate::spans::SpanLog;
use crate::workloads::{self, at, Fabric, Params, Plugs, Traffic, Transport, Workload};
use crate::wrappers::{self, LayerSnapshot, LayerTotals, TimerCost};
use numfabric_sim::flow::FlowStats;
use numfabric_sim::{FlowId, Network, NodeId, SimDuration, SimTime, Topology};
use numfabric_workloads::{
    oracle_rates_bps, ArrivalStream, EmpiricalCdf, PathSpec, PoissonWorkloadConfig,
};
use std::sync::Arc;
use std::time::Instant;

/// Set-up is repeated until this much host time has gone into it (or this
/// many iterations), so that millisecond-sized set-ups still yield a median
/// over many iterations.
const SETUP_BUDGET_S: f64 = 0.25;
const SETUP_MAX_ITERATIONS: usize = 256;

/// The shuffle's horizon is simulated in this many `run_until` calls, so
/// pending events are sampled along the way.
const SHUFFLE_SLICES: u64 = 20;

/// How often the stride run looks at what has been delivered so far. At
/// ≈ 1 Tb/s this is ≈ 2.5 MB, a quarter of a percent of the target.
const STRIDE_SLICE: SimDuration = SimDuration::from_micros(20);

/// Upper bounds of one inject/simulate/harvest cycle of the churn loop —
/// the repository's own churn pattern.
const ARRIVAL_BATCH: usize = 256;
const HARVEST_SLICE: SimDuration = SimDuration::from_millis(2);

/// What one flow was offered and what became of it.
#[derive(Debug, Clone)]
struct FlowRecord {
    /// Payload bytes, `None` for a long-lived flow.
    size: Option<u64>,
    /// Counters read at harvest (finite, completed) or at the horizon.
    stats: FlowStats,
    /// Long-lived flows: the receiver's rate estimate at the horizon.
    rate_bps: f64,
}

/// Everything one run produced.
#[derive(Debug, Clone)]
pub struct RunResult {
    /// The workload simulated.
    pub workload: Workload,
    /// The seed its inputs were generated from.
    pub seed: u64,
    /// Whether the plug points were wrapped and metered.
    pub traced: bool,
    /// Host seconds of each set-up iteration.
    pub setup_iterations_s: Vec<f64>,
    /// Wall-clock seconds of the simulate phase.
    pub wall_s: f64,
    /// Process CPU seconds (all threads) over the same phase.
    pub cpu_s: f64,
    /// Peak resident set in MiB when the simulate phase ended.
    pub peak_rss_mb: f64,
    /// Useful payload bytes delivered, all flows: a finite flow counts up
    /// to its size, so duplicates from retransmission are left out.
    pub bytes_delivered: u64,
    /// Flows offered.
    pub offered: u64,
    /// Flows that failed: finite ones not complete at the deadline,
    /// long-lived ones whose rate estimate is 0.
    pub failed: u64,
    /// `Network::events_processed` at the horizon.
    pub events: u64,
    /// Hash of every flow's and link's counters (not of the event count).
    pub fingerprint: u64,
    /// Correctness checks that did not hold; empty on a good run.
    pub check_failures: Vec<String>,
    /// Per-layer metrics this run can compute by itself, by name.
    pub layers: Vec<(String, f64)>,
    /// The coarse spans, for the trace file (`Null` once read back).
    pub spans: Json,
}

/// The network and what was injected into it before the clock started.
struct Built {
    topo: Topology,
    net: Network,
    pairs: Vec<PathSpec>,
    /// `(record index, flow id)` of flows in the network.
    live: Vec<(usize, FlowId)>,
    records: Vec<FlowRecord>,
}

fn setup(params: &Params, seed: u64, plugs: &Plugs, log: &mut SpanLog) -> Built {
    let (topo, _) = log.time("sim.topology.build", || params.fabric.build());
    let (mut net, _) = log.time("sim.network.build", || {
        let mut net = plugs.network(topo.clone());
        net.set_partitions(params.partitions);
        net.set_partition_threads(params.threads);
        net
    });
    let (pairs, _) = log.time("workloads.generate", || {
        workloads::closed_pairs(&topo, params.traffic, seed)
    });
    let size = match params.traffic {
        Traffic::Shuffle { flow_bytes } => Some(flow_bytes),
        _ => None,
    };
    let mut live = Vec::with_capacity(pairs.len());
    let mut records = Vec::with_capacity(pairs.len());
    log.time("sim.network.add_flow", || {
        for pair in &pairs {
            let id = net.add_flow(
                pair.src,
                pair.dst,
                size,
                SimTime::ZERO,
                pair.spine_choice,
                None,
                plugs.agent(),
            );
            live.push((records.len(), id));
            records.push(FlowRecord {
                size,
                stats: FlowStats::default(),
                rate_bps: 0.0,
            });
        }
    });
    Built {
        topo,
        net,
        pairs,
        live,
        records,
    }
}

/// Pending-event samples taken at `run_until` boundaries.
#[derive(Debug, Default)]
struct PendingSamples {
    sum: u64,
    count: u64,
    peak: u64,
}

impl PendingSamples {
    fn sample(&mut self, net: &Network) {
        let pending = net.pending_events() as u64;
        self.sum += pending;
        self.count += 1;
        self.peak = self.peak.max(pending);
    }

    fn mean(&self) -> f64 {
        self.sum as f64 / self.count.max(1) as f64
    }
}

fn run_until(net: &mut Network, until: SimTime, log: &mut SpanLog, pending: &mut PendingSamples) {
    log.time("sim.network.run_until", || net.run_until(until));
    pending.sample(net);
}

/// Record and retire every live flow that has completed and quiesced.
fn harvest(built: &mut Built, log: &mut SpanLog) {
    let Built {
        net, live, records, ..
    } = built;
    log.time("sim.network.harvest", || {
        live.retain(|&(index, id)| {
            let stats = net.flow_stats(id);
            if stats.completed_at.is_none() || !net.try_retire_flow(id) {
                return true;
            }
            records[index].stats = stats;
            false
        });
    });
}

fn simulate_shuffle(built: &mut Built, deadline: SimDuration, log: &mut SpanLog) -> PendingSamples {
    let mut pending = PendingSamples::default();
    for slice in 1..=SHUFFLE_SLICES {
        let until = at(SimDuration::from_nanos(
            deadline.as_nanos() * slice / SHUFFLE_SLICES,
        ));
        run_until(&mut built.net, until, log, &mut pending);
    }
    pending
}

fn simulate_stride(
    built: &mut Built,
    deliver_bytes: u64,
    deadline: SimDuration,
    log: &mut SpanLog,
) -> PendingSamples {
    let mut pending = PendingSamples::default();
    let Built { net, live, .. } = built;
    while net.now() < at(deadline) {
        let until = (net.now() + STRIDE_SLICE).min(at(deadline));
        run_until(net, until, log, &mut pending);
        let (delivered, _) = log.time("sim.network.harvest", || {
            live.iter()
                .map(|&(_, id)| net.flow_stats(id).bytes_delivered)
                .sum::<u64>()
        });
        if delivered >= deliver_bytes {
            break;
        }
    }
    pending
}

#[allow(clippy::too_many_arguments)]
fn simulate_churn(
    built: &mut Built,
    load: f64,
    offer_bytes: u64,
    deadline: SimDuration,
    seed: u64,
    plugs: &Plugs,
    log: &mut SpanLog,
) -> PendingSamples {
    let mut pending = PendingSamples::default();
    let hosts: Vec<NodeId> = built.topo.hosts().to_vec();
    let sizes = EmpiricalCdf::web_search();
    let config = PoissonWorkloadConfig {
        load,
        host_link_bps: built.topo.links()[0].capacity_bps,
        duration: deadline,
        seed,
        num_spines: workloads::ecmp_fanout(&built.topo),
    };
    let mut stream = ArrivalStream::new(&hosts, &sizes, &config).peekable();
    let mut left_to_offer = offer_bytes;
    let mut batch = Vec::with_capacity(ARRIVAL_BATCH);
    loop {
        // One cycle: draw arrivals until the batch cap, the time slice or
        // the byte budget is exhausted, inject them, simulate up to the
        // last start, harvest.
        log.time("workloads.generate", || {
            batch.clear();
            let Some(first) = stream.peek() else { return };
            let slice_end = first.start + HARVEST_SLICE;
            while batch.len() < ARRIVAL_BATCH && left_to_offer > 0 {
                match stream.peek() {
                    Some(head) if batch.is_empty() || head.start < slice_end => {
                        let mut arrival = stream.next().expect("peeked head must exist");
                        arrival.size_bytes = arrival.size_bytes.min(left_to_offer);
                        left_to_offer -= arrival.size_bytes;
                        batch.push(arrival);
                    }
                    _ => break,
                }
            }
        });
        let Some(last) = batch.last() else { break };
        let batch_end = last.start;
        log.time("sim.network.add_flow", || {
            for arrival in &batch {
                let id = built.net.add_flow(
                    arrival.src,
                    arrival.dst,
                    Some(arrival.size_bytes),
                    arrival.start,
                    arrival.spine_choice,
                    None,
                    plugs.agent(),
                );
                built.live.push((built.records.len(), id));
                built.records.push(FlowRecord {
                    size: Some(arrival.size_bytes),
                    stats: FlowStats::default(),
                    rate_bps: 0.0,
                });
                built.pairs.push(PathSpec {
                    src: arrival.src,
                    dst: arrival.dst,
                    spine_choice: arrival.spine_choice,
                });
            }
        });
        run_until(&mut built.net, batch_end, log, &mut pending);
        harvest(built, log);
    }
    // Drain in the same slice/harvest rhythm until every flow has retired.
    while !built.live.is_empty() && built.net.now() < at(deadline) {
        let until = (built.net.now() + HARVEST_SLICE).min(at(deadline));
        run_until(&mut built.net, until, log, &mut pending);
        harvest(built, log);
    }
    pending
}

/// FNV-1a over a stream of 64-bit words.
struct Fingerprint(u64);

impl Fingerprint {
    fn new() -> Self {
        Fingerprint(0xcbf2_9ce4_8422_2325)
    }

    fn word(&mut self, word: u64) {
        for byte in word.to_le_bytes() {
            self.0 = (self.0 ^ byte as u64).wrapping_mul(0x0000_0100_0000_01b3);
        }
    }
}

/// Nearest-rank quantile of an ascending slice; 0 when empty.
fn quantile(sorted: &[f64], q: f64) -> f64 {
    if sorted.is_empty() {
        return 0.0;
    }
    let rank = ((q * sorted.len() as f64).ceil() as usize).clamp(1, sorted.len());
    sorted[rank - 1]
}

/// Median of a slice (mean of the middle two for even lengths); 0 when empty.
pub fn median(values: &[f64]) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let mid = sorted.len() / 2;
    if sorted.len() % 2 == 1 {
        sorted[mid]
    } else {
        (sorted[mid - 1] + sorted[mid]) / 2.0
    }
}

/// How `stride-steady` compares with the NUM oracle.
struct OracleVerdict {
    solve_s: f64,
    err_mean: f64,
    within10_frac: f64,
    throughput_ratio: f64,
}

fn judge_against_oracle(
    topo: &Topology,
    pairs: &[PathSpec],
    records: &[FlowRecord],
    plugs: &Plugs,
    log: &mut SpanLog,
) -> OracleVerdict {
    let flows: Vec<_> = pairs
        .iter()
        .map(|p| {
            (
                topo.host_route(p.src, p.dst, p.spine_choice),
                plugs.utility(),
            )
        })
        .collect();
    let (oracle, solve_s) = log.time("num.oracle", || oracle_rates_bps(topo, &flows));
    let errors: Vec<f64> = records
        .iter()
        .zip(&oracle)
        .map(|(r, &ideal)| (r.rate_bps - ideal).abs() / ideal)
        .collect();
    let n = errors.len().max(1) as f64;
    OracleVerdict {
        solve_s,
        err_mean: errors.iter().sum::<f64>() / n,
        within10_frac: errors.iter().filter(|&&e| e <= 0.10).count() as f64 / n,
        throughput_ratio: records.iter().map(|r| r.rate_bps).sum::<f64>()
            / oracle.iter().sum::<f64>(),
    }
}

/// Run `workload` once in this process.
pub fn run_once(workload: Workload, seed: u64, traced: bool, quick: bool) -> RunResult {
    let params = workload.params(quick);
    let totals = traced.then(|| Arc::new(LayerTotals::default()));
    let plugs = Plugs::new(params.transport, totals.clone());
    let timer_cost = traced.then(wrappers::calibrate);
    let mut log = SpanLog::new();
    let root = log.enter("run");

    // ---- set-up, repeated; the last-built network is the one simulated ----
    let mut setup_iterations_s = Vec::new();
    let mut built = loop {
        let start = Instant::now();
        let built = setup(&params, seed, &plugs, &mut log);
        setup_iterations_s.push(start.elapsed().as_secs_f64());
        if setup_iterations_s.iter().sum::<f64>() >= SETUP_BUDGET_S
            || setup_iterations_s.len() >= SETUP_MAX_ITERATIONS
        {
            break built;
        }
    };
    let setup_spans = log.spans().len();
    let last_setup_s = |log: &SpanLog, name: &str| -> f64 {
        log.spans()[..setup_spans]
            .iter()
            .rev()
            .find(|s| s.name == name)
            .map_or(0.0, |s| s.duration_ns() as f64 / 1e9)
    };
    let topology_build_s = last_setup_s(&log, "sim.topology.build");

    // ---- the timed phase --------------------------------------------------
    let allocs_before = alloc::counted();
    alloc::set_counting(traced);
    let cpu_before = procfs::cpu_seconds();
    let wall_start = Instant::now();
    let pending = match params.traffic {
        Traffic::Stride { deliver_bytes, .. } => {
            simulate_stride(&mut built, deliver_bytes, params.deadline, &mut log)
        }
        Traffic::Shuffle { .. } => simulate_shuffle(&mut built, params.deadline, &mut log),
        Traffic::Churn { load, offer_bytes } => simulate_churn(
            &mut built,
            load,
            offer_bytes,
            params.deadline,
            seed,
            &plugs,
            &mut log,
        ),
    };
    let wall_s = wall_start.elapsed().as_secs_f64();
    let cpu_s = procfs::cpu_seconds() - cpu_before;
    alloc::set_counting(false);
    let allocs_after = alloc::counted();
    let peak_rss_mb = procfs::peak_rss_mib();

    // ---- read the outcome -------------------------------------------------
    let report = log.enter("report");
    let Built {
        topo,
        net,
        pairs,
        live,
        mut records,
    } = built;
    for &(index, id) in &live {
        records[index].stats = net.flow_stats(id);
        if records[index].size.is_none() {
            records[index].rate_bps = net.flow_rate_estimate(id);
        }
    }
    let events = net.events_processed();
    let simulated_s = net.now().as_secs_f64();
    let flow_slots = net.num_flows();
    let routes_interned = net.routes().len();
    let mut fingerprint = Fingerprint::new();
    let mut check_failures = Vec::new();
    let mut failed = 0u64;
    let mut bytes_delivered = 0u64;
    let (mut packets_sent, mut packets_delivered) = (0u64, 0u64);
    let mut fcts_us = Vec::new();
    for (index, record) in records.iter().enumerate() {
        let s = &record.stats;
        fingerprint.word(s.bytes_delivered);
        fingerprint.word(s.packets_sent);
        fingerprint.word(s.packets_dropped);
        fingerprint.word(s.completed_at.map_or(u64::MAX, SimTime::as_nanos));
        bytes_delivered += s.bytes_delivered.min(record.size.unwrap_or(u64::MAX));
        packets_sent += s.packets_sent;
        packets_delivered += s.packets_delivered;
        if s.packets_delivered + s.packets_dropped > s.packets_sent {
            check_failures.push(format!(
                "flow {index}: {} delivered + {} dropped > {} sent",
                s.packets_delivered, s.packets_dropped, s.packets_sent
            ));
        }
        match record.size {
            Some(size) => match s.fct() {
                Some(fct) => {
                    fcts_us.push(fct.as_micros_f64());
                    if s.bytes_delivered < size {
                        check_failures.push(format!(
                            "flow {index}: completed with {} of {size} bytes",
                            s.bytes_delivered
                        ));
                    }
                }
                None => failed += 1,
            },
            None if record.rate_bps == 0.0 => failed += 1,
            None => {}
        }
    }
    for link in 0..net.num_links() {
        let stats = net.link_stats(link);
        fingerprint.word(stats.bytes_transmitted);
        fingerprint.word(stats.packets_dropped);
    }
    fcts_us.sort_by(f64::total_cmp);
    // Wrappers report when dropped: the network has to go before the
    // totals are read.
    drop(net);
    log.exit(report);

    // ---- per-layer metrics ------------------------------------------------
    let mut layers: Vec<(String, f64)> = Vec::new();
    let mut put = |name: &str, value: f64| layers.push((name.to_string(), value));
    let run_until_s = log.total_s("sim.network.run_until");
    put("sim.network.events", events as f64);
    put(
        "sim.network.events_per_pkt",
        events as f64 / packets_delivered.max(1) as f64,
    );
    put(
        "sim.network.run_until_calls",
        log.count("sim.network.run_until") as f64,
    );
    put("sim.network.run_until_s", run_until_s);
    put("sim.network.add_flow_calls", records.len() as f64);
    put(
        "sim.network.add_flow_s",
        match params.traffic {
            Traffic::Churn { .. } => log.total_s("sim.network.add_flow"),
            _ => last_setup_s(&log, "sim.network.add_flow"),
        },
    );
    put("sim.network.retire_s", log.total_s("sim.network.harvest"));
    put("sim.network.flow_slots", flow_slots as f64);
    put("sim.network.pending_events_mean", pending.mean());
    put("sim.network.pending_events_peak", pending.peak as f64);
    put("sim.topology.build_s", topology_build_s);
    put("sim.routes.interned", routes_interned as f64);
    put(
        "workloads.arrivals.gen_s",
        match params.traffic {
            Traffic::Churn { .. } => log.total_s("workloads.generate"),
            _ => last_setup_s(&log, "workloads.generate"),
        },
    );
    put("workloads.arrivals.flows", records.len() as f64);
    put("outcome.fct_p50_us", quantile(&fcts_us, 0.50));
    put("outcome.fct_p99_us", quantile(&fcts_us, 0.99));
    put(
        "outcome.goodput_gbps",
        bytes_delivered as f64 * 8.0 / simulated_s / 1e9,
    );
    put(
        "baselines.pfabric.undelivered_frac",
        match params.transport {
            Transport::Pfabric => 1.0 - packets_delivered as f64 / packets_sent.max(1) as f64,
            Transport::NumFabric => 0.0,
        },
    );

    // The one workload with a closed-form reference.
    let oracle = matches!(params.traffic, Traffic::Stride { .. })
        .then(|| judge_against_oracle(&topo, &pairs, &records, &plugs, &mut log));
    put(
        "num.oracle.solve_s",
        oracle.as_ref().map_or(0.0, |o| o.solve_s),
    );
    put(
        "outcome.oracle_err_mean",
        oracle.as_ref().map_or(0.0, |o| o.err_mean),
    );
    put(
        "outcome.oracle_within10_frac",
        oracle.as_ref().map_or(0.0, |o| o.within10_frac),
    );
    // The repository's conformance bound; at a tenth of the horizon the
    // rates have not settled, so quick runs only report it.
    if let (Some(o), false) = (&oracle, quick) {
        if o.within10_frac < 0.95 {
            check_failures.push(format!(
                "only {:.1}% of flows within 10% of the NUM oracle (need 95%)",
                o.within10_frac * 100.0
            ));
        }
        if o.throughput_ratio < 0.90 {
            check_failures.push(format!(
                "throughput is {:.3} of the oracle's (need 0.90)",
                o.throughput_ratio
            ));
        }
    }

    // Set-up never runs the clock, so everything the wrappers metered
    // belongs to the timed phase.
    if let (Some(totals), Some(timer_cost)) = (&totals, timer_cost) {
        traced_layers(
            &mut layers,
            &totals.snapshot(),
            timer_cost,
            // Layer busy time on a threaded run is CPU time of the workers,
            // which `run_until`'s wall time does not bound: shares are then
            // taken against the phase's CPU seconds.
            if params.threads > 1 {
                cpu_s
            } else {
                run_until_s
            },
            params.transport,
        );
        let mut put = |name: &str, value: f64| layers.push((name.to_string(), value));
        let wheel = probe::wheel_cost(pending.mean().round() as usize);
        put("sim.event.hold_ns", wheel.hold_ns);
        put("sim.event.cancel_ns", wheel.cancel_ns);
        put(
            "sim.event.est_share",
            events as f64 * wheel.hold_ns / 1e9 / cpu_s.max(1e-9),
        );
        put(
            "sim.topology.host_route_ns",
            probe::host_route_ns(&topo, &pairs),
        );
        let count = allocs_after.0 - allocs_before.0;
        put("alloc.simulate_count", count as f64);
        put(
            "alloc.per_kevent",
            count as f64 * 1000.0 / events.max(1) as f64,
        );
        put(
            "alloc.simulate_mb",
            (allocs_after.1 - allocs_before.1) as f64 / (1024.0 * 1024.0),
        );
        put("trace.timer_cost_ns", timer_cost.total_ns);
    }
    log.exit(root);

    let run_id = format!("{}-seed{seed}-{}", workload.name(), std::process::id());
    RunResult {
        workload,
        seed,
        traced,
        setup_iterations_s,
        wall_s,
        cpu_s,
        peak_rss_mb,
        bytes_delivered,
        offered: records.len() as u64,
        failed,
        events,
        fingerprint: fingerprint.0,
        check_failures,
        layers,
        spans: log.to_json(&run_id),
    }
}

/// The metrics only the wrappers can give: calls, busy time and exact
/// counters of the queue, controller and agent layers, and from those the
/// engine's own share of `base_s`, the time `run_until` took.
fn traced_layers(
    layers: &mut Vec<(String, f64)>,
    snap: &LayerSnapshot,
    cost: TimerCost,
    base_s: f64,
    transport: Transport,
) {
    let mut put = |name: &str, value: f64| layers.push((name.to_string(), value));
    let per_call = |busy_s: f64, calls: u64| busy_s * 1e9 / calls.max(1) as f64;
    let queue = snap.queue();
    let queue_s = cost.corrected_busy_s(queue);
    let enqueues = snap.enqueue.calls;
    put("sim.queue.enqueue_calls", enqueues as f64);
    put("sim.queue.dequeue_calls", snap.dequeue.calls as f64);
    put("sim.queue.drops", snap.drops as f64);
    put(
        "sim.queue.drop_frac",
        snap.drops as f64 / enqueues.max(1) as f64,
    );
    put(
        "sim.queue.empty_dequeue_frac",
        snap.empty_dequeues as f64 / snap.dequeue.calls.max(1) as f64,
    );
    put("sim.queue.depth_pkts_p50", snap.depth.quantile(0.50) as f64);
    put("sim.queue.depth_pkts_p99", snap.depth.quantile(0.99) as f64);
    put("sim.queue.busy_s", queue_s);
    put("sim.queue.ns_per_op", per_call(queue_s, queue.calls));

    let xwi_s = cost.corrected_busy_s(snap.controller);
    put("core.xwi.calls", snap.controller.calls as f64);
    put("core.xwi.timer_fires", snap.controller_timer_fires as f64);
    put("core.xwi.busy_s", xwi_s);
    put(
        "core.xwi.ns_per_call",
        per_call(xwi_s, snap.controller.calls),
    );

    let agent_s = cost.corrected_busy_s(snap.agent);
    let agent_ns = per_call(agent_s, snap.agent.calls);
    let (numfabric, pfabric) = match transport {
        Transport::NumFabric => (1.0, 0.0),
        Transport::Pfabric => (0.0, 1.0),
    };
    put("core.agent.calls", numfabric * snap.agent.calls as f64);
    put("core.agent.busy_s", numfabric * agent_s);
    put("core.agent.ns_per_call", numfabric * agent_ns);
    put("baselines.pfabric.calls", pfabric * snap.agent.calls as f64);
    put(
        "baselines.pfabric.timer_calls",
        pfabric * snap.agent_timer_calls as f64,
    );
    put("baselines.pfabric.busy_s", pfabric * agent_s);
    put("baselines.pfabric.ns_per_call", pfabric * agent_ns);

    // run_until = engine + Σ layer busy + (metered calls × cost of a span).
    let instrumentation_s = snap.total_calls() as f64 * cost.total_ns / 1e9;
    let engine_s = (base_s - queue_s - xwi_s - agent_s - instrumentation_s).max(0.0);
    put("sim.network.engine_self_s", engine_s);
    put(
        "sim.network.engine_share",
        engine_s / (base_s - instrumentation_s).max(1e-9),
    );
}

impl RunResult {
    /// Median set-up iteration, seconds.
    pub fn setup_s(&self) -> f64 {
        median(&self.setup_iterations_s)
    }

    /// The value of a per-layer metric this run computed.
    pub fn layer(&self, name: &str) -> Option<f64> {
        self.layers.iter().find(|(n, _)| n == name).map(|(_, v)| *v)
    }

    /// The run as one JSON object (the child → parent wire format; spans
    /// are written to the trace file separately).
    pub fn to_json(&self) -> Json {
        let mut layers = Json::obj();
        for (name, value) in &self.layers {
            layers.set(name, *value);
        }
        Json::obj()
            .with("workload", self.workload.name())
            .with("seed", self.seed)
            .with("traced", self.traced)
            .with(
                "setup_iterations_s",
                self.setup_iterations_s
                    .iter()
                    .map(|&s| Json::Num(s))
                    .collect::<Vec<_>>(),
            )
            .with("wall_s", self.wall_s)
            .with("cpu_s", self.cpu_s)
            .with("peak_rss_mb", self.peak_rss_mb)
            .with("bytes_delivered", self.bytes_delivered)
            .with("offered", self.offered)
            .with("failed", self.failed)
            .with("events", self.events)
            .with("fingerprint", format!("{:016x}", self.fingerprint))
            .with(
                "check_failures",
                self.check_failures
                    .iter()
                    .map(|f| Json::from(f.as_str()))
                    .collect::<Vec<_>>(),
            )
            .with("layers", layers)
    }
}

impl RunResult {
    /// Read back what [`RunResult::to_json`] wrote.
    pub fn from_json(doc: &Json) -> Result<RunResult, String> {
        let field = |key: &str| doc.get(key).ok_or(format!("child result lacks `{key}`"));
        let num = |key: &str| {
            field(key)?
                .as_f64()
                .ok_or(format!("child result: `{key}` is not a number"))
        };
        let name = field("workload")?.as_str().unwrap_or_default();
        let strings = |key: &str| -> Result<Vec<String>, String> {
            Ok(field(key)?
                .as_arr()
                .unwrap_or_default()
                .iter()
                .filter_map(|v| v.as_str().map(str::to_string))
                .collect())
        };
        Ok(RunResult {
            workload: Workload::from_name(name).ok_or(format!("unknown workload `{name}`"))?,
            seed: num("seed")? as u64,
            traced: field("traced")?.as_bool().unwrap_or(false),
            setup_iterations_s: field("setup_iterations_s")?
                .as_arr()
                .unwrap_or_default()
                .iter()
                .filter_map(Json::as_f64)
                .collect(),
            wall_s: num("wall_s")?,
            cpu_s: num("cpu_s")?,
            peak_rss_mb: num("peak_rss_mb")?,
            bytes_delivered: num("bytes_delivered")? as u64,
            offered: num("offered")? as u64,
            failed: num("failed")? as u64,
            events: num("events")? as u64,
            fingerprint: u64::from_str_radix(
                field("fingerprint")?.as_str().unwrap_or_default(),
                16,
            )
            .map_err(|e| format!("child result: bad fingerprint: {e}"))?,
            check_failures: strings("check_failures")?,
            layers: field("layers")?
                .as_obj()
                .unwrap_or_default()
                .iter()
                .filter_map(|(k, v)| Some((k.clone(), v.as_f64()?)))
                .collect(),
            spans: Json::Null,
        })
    }
}

/// A fabric's display name, for the human-readable report.
pub fn describe(params: &Params) -> String {
    let fabric = match params.fabric {
        Fabric::LeafSpine => "leaf-spine 128h/8l/4s",
        Fabric::FatTree8 => "fat-tree k=8 128h",
    };
    let transport = match params.transport {
        Transport::NumFabric => "NUMFabric",
        Transport::Pfabric => "pFabric",
    };
    let traffic = match params.traffic {
        Traffic::Stride {
            stride,
            deliver_bytes,
        } => format!("stride {stride}, 128 long-lived flows until {deliver_bytes} B are delivered"),
        Traffic::Shuffle { flow_bytes } => format!("all-to-all, 16256 x {flow_bytes} B at t=0"),
        Traffic::Churn { load, offer_bytes } => {
            format!("web-search Poisson arrivals at load {load} until {offer_bytes} B are offered")
        }
    };
    format!(
        "{transport} on {fabric}, {traffic}, deadline {} us, {}x{} partitions x threads",
        params.deadline.as_micros_f64(),
        params.partitions,
        params.threads
    )
}
