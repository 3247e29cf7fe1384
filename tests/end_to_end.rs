//! Cross-crate integration tests: the packet-level NUMFabric implementation
//! against the fluid-model oracle, on workloads generated by the workloads
//! crate, compared with the baselines — i.e. miniature versions of the
//! paper's evaluation pipeline.

use numfabric::core::{numfabric_network, NumFabricAgent, NumFabricConfig};
use numfabric::num::utility::{LogUtility, UtilityRef};
use numfabric::sim::topology::{LeafSpineConfig, Topology};
use numfabric::sim::{FlowPhase, LinkController, Packet, SimDuration, SimTime};
use numfabric::workloads::{
    measure_convergence, oracle_rates_bps, poisson_arrivals, random_pairs, ConvergenceCriterion,
    FixedSize, PoissonWorkloadConfig,
};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;

fn topo() -> Topology {
    Topology::leaf_spine(&LeafSpineConfig::small(16, 2, 2))
}

#[test]
fn numfabric_matches_oracle_on_a_random_static_flow_set() {
    let topo = topo();
    let config = NumFabricConfig::paper_default();
    let mut net = numfabric_network(topo.clone(), &config);
    let utility: UtilityRef = Arc::new(LogUtility::new());

    // 12 random long-running flows.
    let paths = random_pairs(topo.hosts(), 12, 99);
    let mut flow_ids = Vec::new();
    let mut fluid_flows = Vec::new();
    for p in &paths {
        let id = net.add_flow(
            p.src,
            p.dst,
            None,
            SimTime::ZERO,
            p.spine_choice,
            None,
            Box::new(NumFabricAgent::new(config.clone(), LogUtility::new())),
        );
        flow_ids.push(id);
        fluid_flows.push((
            topo.host_route(p.src, p.dst, p.spine_choice),
            utility.clone(),
        ));
    }
    let targets = oracle_rates_bps(&topo, &fluid_flows);

    net.run_until(SimTime::from_millis(6));

    // At least 90% of flows should be within 15% of the oracle allocation.
    let close = flow_ids
        .iter()
        .zip(&targets)
        .filter(|(&f, &t)| {
            let r = net.flow_rate_estimate(f);
            (r - t).abs() <= 0.15 * t
        })
        .count();
    assert!(
        close * 10 >= flow_ids.len() * 9,
        "only {close}/{} flows near the oracle allocation",
        flow_ids.len()
    );
}

#[test]
fn convergence_measurement_pipeline_works_end_to_end() {
    let topo = topo();
    let config = NumFabricConfig::paper_default();
    let mut net = numfabric_network(topo.clone(), &config);
    let utility: UtilityRef = Arc::new(LogUtility::new());

    // Start with 4 flows, let them settle, then add 4 more and measure the
    // §6.1 convergence time against the oracle for the 8-flow population.
    let paths = random_pairs(topo.hosts(), 8, 7);
    let mut ids = Vec::new();
    for p in &paths[..4] {
        ids.push(net.add_flow(
            p.src,
            p.dst,
            None,
            SimTime::ZERO,
            p.spine_choice,
            None,
            Box::new(NumFabricAgent::new(config.clone(), LogUtility::new())),
        ));
    }
    net.run_until(SimTime::from_millis(4));
    for p in &paths[4..] {
        ids.push(net.add_flow(
            p.src,
            p.dst,
            None,
            net.now(),
            p.spine_choice,
            None,
            Box::new(NumFabricAgent::new(config.clone(), LogUtility::new())),
        ));
    }
    let fluid: Vec<_> = paths
        .iter()
        .map(|p| {
            (
                topo.host_route(p.src, p.dst, p.spine_choice),
                utility.clone(),
            )
        })
        .collect();
    let targets = oracle_rates_bps(&topo, &fluid);
    let criterion = ConvergenceCriterion {
        hold: SimDuration::from_millis(1),
        ..Default::default()
    };
    let outcome = measure_convergence(
        &mut net,
        &ids,
        &targets,
        &criterion,
        SimDuration::from_millis(15),
    );
    let time = outcome
        .convergence_time
        .expect("NUMFabric should reconverge after the arrival of 4 flows");
    assert!(
        time < SimDuration::from_millis(10),
        "convergence took {time}"
    );
}

#[test]
fn poisson_workload_completes_under_numfabric() {
    let topo = topo();
    let config = NumFabricConfig::paper_default();
    let mut net = numfabric_network(topo.clone(), &config);
    let arrivals = poisson_arrivals(
        topo.hosts(),
        &FixedSize(150_000),
        &PoissonWorkloadConfig::new(0.4, SimDuration::from_millis(5), 17),
    );
    assert!(arrivals.len() > 10, "workload too small to be meaningful");
    let ids: Vec<_> = arrivals
        .iter()
        .map(|a| {
            net.add_flow(
                a.src,
                a.dst,
                Some(a.size_bytes),
                a.start,
                a.spine_choice,
                None,
                Box::new(NumFabricAgent::new(config.clone(), LogUtility::new())),
            )
        })
        .collect();
    net.run_until(SimTime::from_millis(80));
    let completed = ids
        .iter()
        .filter(|&&f| net.flow_phase(f) == FlowPhase::Completed)
        .count();
    assert!(
        completed * 20 >= ids.len() * 19,
        "only {completed}/{} flows completed",
        ids.len()
    );
    // No packet should have been dropped: NUMFabric keeps queues tiny.
    let drops: u64 = (0..net.num_links())
        .map(|l| net.link_stats(l).packets_dropped)
        .sum();
    assert_eq!(drops, 0, "unexpected drops under NUMFabric");
}

/// A link controller that only counts its timer callbacks.
struct CountingController {
    interval: SimDuration,
    fires: Arc<AtomicUsize>,
}

impl LinkController for CountingController {
    fn on_enqueue(&mut self, _packet: &mut Packet, _now: SimTime) {}
    fn on_dequeue(&mut self, _packet: &mut Packet, _now: SimTime, _queue_bytes: usize) {}
    fn initial_timer(&self) -> Option<SimDuration> {
        Some(self.interval)
    }
    fn on_timer(&mut self, _now: SimTime, _queue_bytes: usize) -> Option<SimDuration> {
        self.fires.fetch_add(1, Ordering::Relaxed);
        Some(self.interval)
    }
}

#[test]
fn replacing_a_timed_controller_leaves_one_timer() {
    let mut net = numfabric_network(topo(), &NumFabricConfig::paper_default());
    let fires = Arc::new(AtomicUsize::new(0));
    net.set_link_controller(
        0,
        Box::new(CountingController {
            interval: SimDuration::from_micros(10),
            fires: Arc::clone(&fires),
        }),
    );
    // Once per interval, at 10, 20, ..., 990 µs: the replaced xWI
    // controller's pending timer must not call it as well.
    net.run_until(SimTime::from_micros(995));
    assert_eq!(fires.load(Ordering::Relaxed), 99);
}
