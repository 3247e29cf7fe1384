//! The benchmark's metric tables — the one place a metric's name, unit,
//! direction and bound are written down. `BENCHMARK.json` lists the same
//! names (a test keeps the two in step); `README.md` explains them.

/// Which way a metric improves.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    /// Smaller is better.
    Lower,
    /// Larger is better.
    Higher,
}

impl Better {
    /// The spelling used in documents.
    pub fn as_str(self) -> &'static str {
        match self {
            Better::Lower => "lower",
            Better::Higher => "higher",
        }
    }

    /// How much worse `new` is than `old`, as a share of `old` (negative
    /// when it is better).
    pub fn worsening(self, old: f64, new: f64) -> f64 {
        match self {
            Better::Lower => (new - old) / old,
            Better::Higher => (old - new) / old,
        }
    }
}

/// An end-to-end metric: what a user of the simulator sees.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct EndToEnd {
    /// Name.
    pub name: &'static str,
    /// Unit.
    pub unit: &'static str,
    /// Direction.
    pub better: Better,
    /// Share of the old value by which it may worsen before that counts as
    /// a regression; also the spread beyond which a row is `unresolved`.
    pub bound: f64,
}

/// A per-layer metric, from the traced run.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PerLayer {
    /// Name; the part before the last dot is the layer.
    pub name: &'static str,
    /// Unit.
    pub unit: &'static str,
    /// Direction.
    pub better: Better,
    /// Bit-reproducible for a given workload and seed (a count or a
    /// simulated-time statistic): compared at zero tolerance.
    pub exact: bool,
}

use Better::{Higher, Lower};

/// The end-to-end metrics, in reporting order.
pub const END_TO_END: [EndToEnd; 5] = [
    EndToEnd {
        name: "setup_s",
        unit: "s",
        better: Lower,
        bound: 0.25,
    },
    EndToEnd {
        name: "wall_s",
        unit: "s",
        better: Lower,
        bound: 0.24,
    },
    EndToEnd {
        name: "cpu_s",
        unit: "s",
        better: Lower,
        bound: 0.24,
    },
    EndToEnd {
        name: "sim_bytes_per_s",
        unit: "B/s",
        better: Higher,
        bound: 0.24,
    },
    EndToEnd {
        name: "peak_rss_mb",
        unit: "MiB",
        better: Lower,
        bound: 0.15,
    },
];

const fn exact(name: &'static str, unit: &'static str, better: Better) -> PerLayer {
    PerLayer {
        name,
        unit,
        better,
        exact: true,
    }
}

const fn timed(name: &'static str, unit: &'static str, better: Better) -> PerLayer {
    PerLayer {
        name,
        unit,
        better,
        exact: false,
    }
}

/// The per-layer metrics, grouped by layer.
pub const PER_LAYER: [PerLayer; 56] = [
    // sim::network — dispatch, link ops, receiver, flow slab, coordinator
    exact("sim.network.events", "count", Lower),
    exact("sim.network.events_per_pkt", "ratio", Lower),
    timed("sim.network.ns_per_event", "ns", Lower),
    timed("sim.network.events_per_s", "1/s", Higher),
    exact("sim.network.run_until_calls", "count", Lower),
    timed("sim.network.run_until_s", "s", Lower),
    timed("sim.network.engine_self_s", "s", Lower),
    timed("sim.network.engine_share", "ratio", Lower),
    exact("sim.network.add_flow_calls", "count", Lower),
    timed("sim.network.add_flow_s", "s", Lower),
    timed("sim.network.retire_s", "s", Lower),
    exact("sim.network.flow_slots", "count", Lower),
    exact("sim.network.pending_events_mean", "count", Lower),
    exact("sim.network.pending_events_peak", "count", Lower),
    timed("sim.network.parallel_speedup", "ratio", Higher),
    timed("sim.network.parallel_cpu_ratio", "ratio", Lower),
    // sim::event — the timing wheel, probed stand-alone
    timed("sim.event.hold_ns", "ns", Lower),
    timed("sim.event.cancel_ns", "ns", Lower),
    timed("sim.event.est_share", "ratio", Lower),
    // sim::queue — StfqQueue / PfabricQueue through the QueueDiscipline wrapper
    exact("sim.queue.enqueue_calls", "count", Lower),
    exact("sim.queue.dequeue_calls", "count", Lower),
    exact("sim.queue.drops", "count", Lower),
    exact("sim.queue.drop_frac", "ratio", Lower),
    exact("sim.queue.empty_dequeue_frac", "ratio", Lower),
    exact("sim.queue.depth_pkts_p50", "pkts", Lower),
    exact("sim.queue.depth_pkts_p99", "pkts", Lower),
    timed("sim.queue.busy_s", "s", Lower),
    timed("sim.queue.ns_per_op", "ns", Lower),
    // core::xwi — XwiPriceController through the LinkController wrapper
    exact("core.xwi.calls", "count", Lower),
    exact("core.xwi.timer_fires", "count", Lower),
    timed("core.xwi.busy_s", "s", Lower),
    timed("core.xwi.ns_per_call", "ns", Lower),
    // core::protocol / baselines::pfabric — senders through the FlowAgent wrapper
    exact("core.agent.calls", "count", Lower),
    timed("core.agent.busy_s", "s", Lower),
    timed("core.agent.ns_per_call", "ns", Lower),
    exact("baselines.pfabric.calls", "count", Lower),
    exact("baselines.pfabric.timer_calls", "count", Lower),
    exact("baselines.pfabric.undelivered_frac", "ratio", Lower),
    timed("baselines.pfabric.busy_s", "s", Lower),
    timed("baselines.pfabric.ns_per_call", "ns", Lower),
    // sim::topology, sim::routes
    timed("sim.topology.build_s", "s", Lower),
    timed("sim.topology.host_route_ns", "ns", Lower),
    exact("sim.routes.interned", "count", Lower),
    // workloads::arrivals, num::oracle
    timed("workloads.arrivals.gen_s", "s", Lower),
    exact("workloads.arrivals.flows", "count", Higher),
    timed("num.oracle.solve_s", "s", Lower),
    // the simulated outcome, in simulated time
    exact("outcome.fct_p50_us", "us", Lower),
    exact("outcome.fct_p99_us", "us", Lower),
    exact("outcome.goodput_gbps", "Gb/s", Higher),
    exact("outcome.oracle_err_mean", "ratio", Lower),
    exact("outcome.oracle_within10_frac", "ratio", Higher),
    // the allocator, counted in traced runs only. Not exact: identical runs
    // differ by a handful of allocations (std's randomly seeded hash maps
    // choose between rehashing in place and growing by what collides).
    timed("alloc.simulate_count", "count", Lower),
    timed("alloc.per_kevent", "ratio", Lower),
    timed("alloc.simulate_mb", "MiB", Lower),
    // the tracing itself
    timed("trace.overhead_frac", "ratio", Lower),
    timed("trace.timer_cost_ns", "ns", Lower),
];

/// Look up a per-layer metric.
pub fn per_layer(name: &str) -> Option<&'static PerLayer> {
    PER_LAYER.iter().find(|m| m.name == name)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn names_are_unique_and_within_the_contract() {
        let names: Vec<&str> = END_TO_END
            .iter()
            .map(|m| m.name)
            .chain(PER_LAYER.iter().map(|m| m.name))
            .collect();
        for (i, name) in names.iter().enumerate() {
            assert!(!names[..i].contains(name), "{name} is listed twice");
            assert!(name.len() <= 64);
            assert!(name
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c)));
        }
        let units = END_TO_END
            .iter()
            .map(|m| m.unit)
            .chain(PER_LAYER.iter().map(|m| m.unit));
        for unit in units {
            assert!(unit.len() <= 16);
            assert!(unit
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || "_/%.-".contains(c)));
        }
        assert!(END_TO_END.iter().all(|m| m.bound > 0.0 && m.bound <= 0.25));
        let setup = END_TO_END
            .iter()
            .find(|m| m.name == "setup_s")
            .expect("the contract requires setup_s");
        assert_eq!((setup.unit, setup.better), ("s", Better::Lower));
    }

    #[test]
    fn worsening_follows_the_direction() {
        assert!((Better::Lower.worsening(2.0, 2.2) - 0.1).abs() < 1e-12);
        assert!((Better::Higher.worsening(2.0, 2.2) + 0.1).abs() < 1e-12);
    }
}
