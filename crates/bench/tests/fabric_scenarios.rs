//! Conformance suite for the generalized-fabric scenario family.
//!
//! Two kinds of pins:
//!
//! 1. **Runnability** — incast and shuffle run to completion under xWI
//!    (NUMFabric) and a baseline (DCTCP) on both a fat-tree and an
//!    oversubscribed leaf-spine.
//! 2. **Fluid cross-check** — long-lived flows on a fat-tree reach
//!    steady-state rates that match the fluid NUM / max-min solution within
//!    tolerance. The unidirectional patterns pin tightly (≤ 10%), and so
//!    does the bidirectional stride: the strict-priority control lane keeps
//!    ACKs from queueing behind the counterpart's data, and the
//!    path-length-aware Swift dt slack absorbs the per-hop head-of-line
//!    waits that remain, so the old ~25% reverse-path concession is gone.

use numfabric_baselines::DctcpConfig;
use numfabric_bench::{
    run_experiment, Experiment, Flows, ListFlow, Protocol, SteadyStateSummary, TransferSummary,
};
use numfabric_core::NumFabricConfig;
use numfabric_sim::{SimDuration, Topology};
use numfabric_workloads::scenarios::{incast_pairs, shuffle_pairs, stride_pairs, PathSpec};
use numfabric_workloads::TopologySpec;

fn fabrics() -> Vec<TopologySpec> {
    vec![
        TopologySpec::FatTree { k: 4 },
        TopologySpec::Oversubscribed { ratio: 4.0 },
    ]
}

/// One `size`-byte transfer per pair, run for 40 ms.
fn transfers(protocol: Protocol, topo: Topology, pairs: &[PathSpec], size: u64) -> TransferSummary {
    let flows = Flows::List(ListFlow::pairs(pairs, Some(size)));
    let exp = Experiment::new(protocol, topo, flows, SimDuration::from_millis(40));
    TransferSummary::of(&run_experiment(&exp).flows)
}

/// One long-lived NUMFabric flow per pair, run for `millis`.
fn steady_state(topo: Topology, pairs: &[PathSpec], millis: u64) -> SteadyStateSummary {
    let protocol = Protocol::NumFabric(NumFabricConfig::default());
    let flows = Flows::List(ListFlow::pairs(pairs, None));
    let exp = Experiment::new(protocol, topo, flows, SimDuration::from_millis(millis));
    SteadyStateSummary::of(&exp, &run_experiment(&exp).flows)
}

fn protocols() -> Vec<Protocol> {
    vec![
        Protocol::NumFabric(NumFabricConfig::default()),
        Protocol::Dctcp(DctcpConfig::default()),
    ]
}

#[test]
fn incast_completes_under_xwi_and_dctcp_on_both_fabrics() {
    for spec in fabrics() {
        for protocol in protocols() {
            let topo = spec.build(false);
            let pairs = incast_pairs(&topo, 4, 7);
            let name = protocol.name();
            let summary = transfers(protocol, topo, &pairs, 100_000);
            assert!(
                summary.all_completed(),
                "{name} on {spec}: {}/{} incast transfers completed",
                summary.completed,
                summary.flows
            );
            let goodput = summary.aggregate_goodput_bps();
            assert!(
                goodput > 1e9,
                "{name} on {spec}: goodput {goodput:.3e} bps implausibly low"
            );
        }
    }
}

#[test]
fn shuffle_completes_under_xwi_and_dctcp_on_both_fabrics() {
    for spec in fabrics() {
        for protocol in protocols() {
            let topo = spec.build(false);
            let pairs = shuffle_pairs(&topo, Some(4), 3);
            assert_eq!(pairs.len(), 12);
            let name = protocol.name();
            let summary = transfers(protocol, topo, &pairs, 50_000);
            assert!(
                summary.all_completed(),
                "{name} on {spec}: {}/{} shuffle transfers completed",
                summary.completed,
                summary.flows
            );
        }
    }
}

/// The acceptance cross-check: steady-state packet-simulation rates on a
/// fat-tree match the fluid NUM (max-min for equal log-utilities on a single
/// bottleneck) solution. The incast pattern is unidirectional, so the only
/// modeling gap is header overhead (payload goodput is 1460/1500 of wire
/// rate) — everything must sit within 10% of the oracle.
#[test]
fn fat_tree_incast_steady_state_matches_fluid_oracle() {
    let topo = TopologySpec::FatTree { k: 4 }.build(false);
    let pairs = incast_pairs(&topo, 8, 5);
    let summary = steady_state(topo, &pairs, 10);
    // Oracle: the receiver NIC (10 Gbps) split 8 ways.
    for &o in &summary.oracle_bps {
        assert!((o - 1.25e9).abs() < 1e7, "oracle rate {o}");
    }
    assert_eq!(
        summary.fraction_within(0.10),
        1.0,
        "rates {:?} vs oracle {:?}",
        summary.rates_bps,
        summary.oracle_bps
    );
    let ratio = summary.throughput_ratio();
    assert!((0.90..=1.02).contains(&ratio), "throughput ratio {ratio}");
}

/// Cross-pod stride (stride = pod size) on the fat-tree: ECMP collisions
/// create multi-bottleneck fluid instances, and the packet simulation must
/// still track the oracle allocation closely.
#[test]
fn fat_tree_stride_steady_state_matches_fluid_oracle() {
    let topo = TopologySpec::FatTree { k: 4 }.build(false);
    let pairs = stride_pairs(&topo, 4, 2);
    let summary = steady_state(topo, &pairs, 10);
    assert!(
        summary.fraction_within(0.10) >= 0.9,
        "only {:.0}% of flows within 10%: rates {:?} vs oracle {:?}",
        summary.fraction_within(0.10) * 100.0,
        summary.rates_bps,
        summary.oracle_bps
    );
    let ratio = summary.throughput_ratio();
    assert!((0.90..=1.02).contains(&ratio), "throughput ratio {ratio}");
}

/// The bidirectional worst case: stride = n/2 pairs every host with its
/// mirror, so each flow's ACKs share every cable with its counterpart's
/// data. Historically Swift conceded up to ~25% here (ACKs queued behind
/// the mirror's data until the reverse-path delay blew through the fixed
/// dt slack). The strict-priority control lane plus the path-length-aware
/// dt close that gap: the aggregate must now sit within 10% of the fluid
/// oracle, like the unidirectional patterns.
#[test]
fn fat_tree_bidirectional_stride_stays_within_documented_tolerance() {
    let topo = TopologySpec::FatTree { k: 4 }.build(false);
    let pairs = stride_pairs(&topo, 8, 1);
    let summary = steady_state(topo, &pairs, 10);
    for (i, (&r, &o)) in summary
        .rates_bps
        .iter()
        .zip(&summary.oracle_bps)
        .enumerate()
    {
        assert!(
            r >= 0.85 * o && r <= 1.1 * o,
            "flow {i}: measured {r:.3e} vs oracle {o:.3e}"
        );
    }
    assert!(
        summary.fraction_within(0.10) >= 0.9,
        "only {:.0}% of flows within 10%: rates {:?} vs oracle {:?}",
        summary.fraction_within(0.10) * 100.0,
        summary.rates_bps,
        summary.oracle_bps
    );
    let ratio = summary.throughput_ratio();
    assert!((0.90..=1.02).contains(&ratio), "throughput ratio {ratio}");
}

/// On the oversubscribed leaf-spine the spine uplinks are the bottleneck;
/// the fluid oracle allocates ~fabric/host share per flow and the packet
/// simulation must agree.
#[test]
fn oversubscribed_stride_steady_state_matches_fluid_oracle() {
    let topo = TopologySpec::Oversubscribed { ratio: 4.0 }.build(false);
    // Stride of 8 pushes every flow across racks (8 hosts per leaf).
    let pairs = stride_pairs(&topo, 8, 2);
    let summary = steady_state(topo, &pairs, 12);
    // Aggregate demand 32 x 10G onto 8 x 10G of uplink capacity: the oracle
    // must allocate roughly a quarter of the NIC rate per flow.
    let oracle_mean = summary.oracle_bps.iter().sum::<f64>() / summary.oracle_bps.len() as f64;
    assert!(
        (1.5e9..=3.5e9).contains(&oracle_mean),
        "oracle mean {oracle_mean}"
    );
    assert!(
        summary.fraction_within(0.15) >= 0.9,
        "only {:.0}% of flows within 15%: rates {:?} vs oracle {:?}",
        summary.fraction_within(0.15) * 100.0,
        summary.rates_bps,
        summary.oracle_bps
    );
}
