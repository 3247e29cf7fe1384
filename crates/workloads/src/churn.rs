//! Open-loop trace-driven churn workloads: the paper's dynamic experiments
//! (§6.1) at production scale.
//!
//! A churn workload is a *mix of traffic classes*, each an independent
//! open-loop Poisson process drawing heavy-tail sizes from its own
//! distribution — the canonical mix being latency-sensitive foreground
//! traffic from the web-search distribution over bulk background traffic
//! from the data-mining distribution. The merged arrival sequence streams
//! (it is an [`Iterator`]): a million-flow horizon is generated one
//! arrival at a time and never materialized, which is what lets the
//! `numfabric-run churn` driver pair it with the simulator's flow slab and
//! the streaming report sketches to keep total memory proportional to
//! *concurrent* flows, not total flows.
//!
//! Determinism: each class derives its own RNG stream from
//! `(seed, class index)`, and the merge breaks start-time ties by class
//! index — the sequence is a pure function of the configuration, so every
//! protocol sees the identical trace.

use crate::arrivals::{ArrivalStream, FlowArrival, PoissonWorkloadConfig};
use crate::distributions::{EmpiricalCdf, FlowSizeDistribution};
use numfabric_sim::NodeId;
use std::iter::Peekable;

/// One traffic class of a churn mix: a name for reports, a size
/// distribution, and the share of the total offered load it carries.
pub struct ChurnClass {
    /// Class name as it appears in per-class reports (`"fg"`, `"bg"`, ...).
    pub name: &'static str,
    /// Flow-size distribution the class draws from.
    pub dist: Box<dyn FlowSizeDistribution>,
    /// Fraction of the total target load offered by this class, in `(0, 1]`.
    /// Shares must sum to 1 across the mix.
    pub load_share: f64,
}

/// The canonical two-class mix: a `fg` foreground class drawing from the
/// web-search distribution at `fg_share` of the load, over a `bg`
/// background class drawing from the data-mining distribution with the
/// rest.
pub fn foreground_background(fg_share: f64) -> Vec<ChurnClass> {
    assert!(
        fg_share > 0.0 && fg_share < 1.0,
        "foreground share must be in (0, 1)"
    );
    vec![
        ChurnClass {
            name: "fg",
            dist: Box::new(EmpiricalCdf::web_search()),
            load_share: fg_share,
        },
        ChurnClass {
            name: "bg",
            dist: Box::new(EmpiricalCdf::data_mining()),
            load_share: 1.0 - fg_share,
        },
    ]
}

/// The seed class `class` of a mix draws its arrival stream from —
/// SplitMix64's golden-gamma spacing of the base seed, matching the
/// `derive_cell_seed` idiom of the sweep engine.
pub fn derive_class_seed(base: u64, class: usize) -> u64 {
    base.wrapping_add((class as u64 + 1).wrapping_mul(0x9E37_79B9_7F4A_7C15))
}

/// One arrival of a churn mix: which class it belongs to, and the arrival
/// itself.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ChurnArrival {
    /// Index into the class mix this arrival was drawn by.
    pub class: usize,
    /// The flow arrival (start, endpoints, size, spine pin).
    pub arrival: FlowArrival,
}

/// The merged, streaming arrival sequence of a churn mix (see the module
/// docs). Yields [`ChurnArrival`]s in non-decreasing start order;
/// same-instant arrivals come out in class order.
pub struct ChurnStream<'a> {
    streams: Vec<Peekable<ArrivalStream<'a>>>,
}

impl<'a> ChurnStream<'a> {
    /// Build the merged stream of `classes` over `hosts` under `config`,
    /// whose `load` is the total over the mix: class `c` offers `load ·
    /// load_share` and draws its stream from `(config.seed, c)`.
    ///
    /// # Panics
    /// Panics if the mix is empty, a share is outside `(0, 1]`, or the
    /// shares do not sum to 1.
    pub fn new(
        hosts: &'a [NodeId],
        classes: &'a [ChurnClass],
        config: &PoissonWorkloadConfig,
    ) -> Self {
        assert!(!classes.is_empty(), "churn mix needs at least one class");
        let total_share: f64 = classes.iter().map(|c| c.load_share).sum();
        assert!(
            (total_share - 1.0).abs() < 1e-9,
            "class load shares must sum to 1 (got {total_share})"
        );
        let streams = classes
            .iter()
            .enumerate()
            .map(|(i, class)| {
                assert!(
                    class.load_share > 0.0 && class.load_share <= 1.0,
                    "class {} share out of range",
                    class.name
                );
                let class_config = PoissonWorkloadConfig {
                    load: config.load * class.load_share,
                    host_link_bps: config.host_link_bps,
                    duration: config.duration,
                    seed: derive_class_seed(config.seed, i),
                    num_spines: config.num_spines,
                };
                ArrivalStream::new(hosts, class.dist.as_ref(), &class_config).peekable()
            })
            .collect();
        Self { streams }
    }
}

impl Iterator for ChurnStream<'_> {
    type Item = ChurnArrival;

    fn next(&mut self) -> Option<ChurnArrival> {
        // K is 2–4 in practice: a linear scan of the peeked heads beats any
        // heap, and picking the smallest (start, class) pair makes the
        // merge order — like everything else here — content-derived.
        let mut best: Option<(usize, numfabric_sim::SimTime)> = None;
        for (i, stream) in self.streams.iter_mut().enumerate() {
            if let Some(head) = stream.peek() {
                if best.is_none_or(|(_, t)| head.start < t) {
                    best = Some((i, head.start));
                }
            }
        }
        let (class, _) = best?;
        Some(ChurnArrival {
            class,
            arrival: self.streams[class].next().expect("peeked head must exist"),
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use numfabric_sim::{SimDuration, SimTime};

    fn hosts(n: usize) -> Vec<NodeId> {
        (0..n).collect()
    }

    #[test]
    fn merged_stream_is_sorted_and_mixes_classes() {
        let hosts = hosts(16);
        let classes = foreground_background(0.3);
        let config = PoissonWorkloadConfig::new(0.6, SimDuration::from_millis(20), 42);
        let arrivals: Vec<_> = ChurnStream::new(&hosts, &classes, &config).collect();
        assert!(arrivals.len() > 50);
        for w in arrivals.windows(2) {
            assert!(w[1].arrival.start >= w[0].arrival.start);
        }
        assert!(arrivals.iter().any(|a| a.class == 0));
        assert!(arrivals.iter().any(|a| a.class == 1));
        assert!(arrivals
            .iter()
            .all(|a| a.arrival.start < SimTime::from_millis(20)));
    }

    #[test]
    fn same_seed_reproduces_different_seed_diverges() {
        let hosts = hosts(8);
        let classes = foreground_background(0.25);
        let config = PoissonWorkloadConfig::new(0.5, SimDuration::from_millis(10), 7);
        let a: Vec<_> = ChurnStream::new(&hosts, &classes, &config).collect();
        let b: Vec<_> = ChurnStream::new(&hosts, &classes, &config).collect();
        assert_eq!(a, b);
        let other = PoissonWorkloadConfig { seed: 8, ..config };
        let c: Vec<_> = ChurnStream::new(&hosts, &classes, &other).collect();
        assert_ne!(a, c);
    }

    #[test]
    fn class_arrival_rates_respect_their_shares() {
        // Realized *bytes* of a heavy-tail class are noisy over any finite
        // horizon (the data-mining mean lives in its 1 GB elephants), but
        // arrival *counts* concentrate fast: each class's rate is
        // `load·share / mean`, so the count ratio pins the share split.
        let hosts = hosts(16);
        let classes = foreground_background(0.25);
        let config = PoissonWorkloadConfig::new(0.6, SimDuration::from_millis(200), 3);
        let (mut fg, mut bg) = (0u64, 0u64);
        for a in ChurnStream::new(&hosts, &classes, &config) {
            match a.class {
                0 => fg += 1,
                _ => bg += 1,
            }
        }
        let expected =
            (0.25 / classes[0].dist.mean_bytes()) / (0.75 / classes[1].dist.mean_bytes());
        let realized = fg as f64 / bg as f64;
        assert!(
            (realized / expected - 1.0).abs() < 0.35,
            "count ratio fg/bg = {realized:.2}, expected ≈ {expected:.2} (fg={fg}, bg={bg})"
        );
    }

    #[test]
    #[should_panic]
    fn shares_must_sum_to_one() {
        let hosts = [0, 1];
        let classes = vec![ChurnClass {
            name: "half",
            dist: Box::new(crate::distributions::FixedSize(1000)),
            load_share: 0.5,
        }];
        let config = PoissonWorkloadConfig::new(0.5, SimDuration::from_millis(1), 0);
        let _ = ChurnStream::new(&hosts, &classes, &config);
    }
}
