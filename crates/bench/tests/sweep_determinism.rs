//! The sweep engine's determinism contract: the aggregated report is a pure
//! function of the [`SweepSpec`] — **bit-identical regardless of the thread
//! count** — because every cell is a self-contained, fully-seeded
//! simulation owned by one worker and the aggregate is assembled in
//! cell-index order.
//!
//! This is the proof-case that the event core's determinism contract
//! (ROADMAP: every parallelism PR must preserve it) survives concurrency:
//! parallelism lives strictly *between* simulations, never inside one.

use numfabric_bench::sweep::{execute_cells, markdown_table, sweep_report_json};
use numfabric_workloads::fabric::TopologySpec;
use numfabric_workloads::impairments::ImpairmentProfile;
use numfabric_workloads::sweep::{derive_cell_seed, SweepScenario, SweepSpec};

/// The ISSUE's mini-grid: incast × shuffle on leaf-spine × fat-tree:k=4,
/// 8 cells. Small transfers keep the whole grid fast enough to run twice.
fn mini_grid() -> SweepSpec {
    SweepSpec {
        scenarios: vec![SweepScenario::Incast, SweepScenario::Shuffle],
        topologies: vec![TopologySpec::LeafSpine, TopologySpec::FatTree { k: 4 }],
        protocols: vec!["numfabric".to_string()],
        loads: vec![0.25],
        sizes: vec![50_000],
        impairments: vec![ImpairmentProfile::None],
        replicates: 2,
        base_seed: 7,
    }
}

/// The impairment-axis grid: the mini-grid's incast half crossed with every
/// non-trivial impairment profile — cable flaps, seeded wire loss, and delay
/// jitter all exercise the network RNG and the reroute path, which is
/// exactly the machinery whose determinism this suite must pin.
fn impaired_grid() -> SweepSpec {
    SweepSpec {
        scenarios: vec![SweepScenario::Incast, SweepScenario::Stride],
        topologies: vec![TopologySpec::FatTree { k: 4 }],
        protocols: vec!["numfabric".to_string()],
        loads: vec![0.25],
        sizes: vec![50_000],
        impairments: vec![
            ImpairmentProfile::Flap,
            ImpairmentProfile::Loss,
            ImpairmentProfile::Jitter,
        ],
        replicates: 1,
        base_seed: 11,
    }
}

fn aggregate_with_threads(spec: &SweepSpec, threads: usize) -> (String, String) {
    let cells = spec.expand().expect("valid spec");
    let results = execute_cells(cells, threads).expect("all cells run");
    (
        sweep_report_json(spec, &results).render(),
        markdown_table(&results),
    )
}

#[test]
fn aggregate_json_is_bit_identical_for_one_and_eight_threads() {
    let spec = mini_grid();
    assert_eq!(spec.cell_count(), 8, "the ISSUE's grid is 8 cells");
    let (json_serial, table_serial) = aggregate_with_threads(&spec, 1);
    let (json_pooled, table_pooled) = aggregate_with_threads(&spec, 8);
    assert_eq!(
        json_serial, json_pooled,
        "aggregate JSON must not depend on --threads"
    );
    assert_eq!(
        table_serial, table_pooled,
        "the markdown table must not depend on --threads"
    );
    // And the report must never mention how it was scheduled.
    assert!(!json_serial.contains("threads"));
}

#[test]
fn aggregate_is_reproducible_run_to_run_on_the_pool() {
    let spec = mini_grid();
    let (a, _) = aggregate_with_threads(&spec, 3);
    let (b, _) = aggregate_with_threads(&spec, 5);
    assert_eq!(a, b);
}

#[test]
fn impaired_grid_is_bit_identical_across_thread_counts() {
    let spec = impaired_grid();
    assert_eq!(spec.cell_count(), 6);
    let (json_serial, table_serial) = aggregate_with_threads(&spec, 1);
    let (json_pooled, table_pooled) = aggregate_with_threads(&spec, 6);
    assert_eq!(
        json_serial, json_pooled,
        "impaired cells must not make the report depend on --threads"
    );
    assert_eq!(table_serial, table_pooled);
    // The axis is actually in the report, not silently dropped.
    for name in ["flap", "loss", "jitter"] {
        assert!(json_serial.contains(name), "missing impairment `{name}`");
    }
}

#[test]
fn every_cell_reports_and_completes_on_the_mini_grid() {
    let spec = mini_grid();
    let results = execute_cells(spec.expand().unwrap(), 4).unwrap();
    assert_eq!(results.len(), 8);
    for r in &results {
        assert_eq!(
            r.completed,
            Some(r.flows),
            "cell {} ({} on {}) left transfers incomplete",
            r.cell.index,
            r.cell.scenario,
            r.cell.topology
        );
        assert!(r.median_fct_seconds.unwrap() > 0.0);
    }
    // Replicates of the same point differ only in their derived seed — and
    // therefore genuinely resample the workload.
    assert_eq!(results[0].cell.replicate, 0);
    assert_eq!(results[1].cell.replicate, 1);
    assert_ne!(results[0].cell.seed, results[1].cell.seed);
}

#[test]
fn cell_seeds_match_the_documented_derivation() {
    let spec = mini_grid();
    for cell in spec.expand().unwrap() {
        assert_eq!(
            cell.seed,
            derive_cell_seed(spec.base_seed, cell.index as u64)
        );
    }
    // Changing the base seed changes every cell seed (no accidental
    // index-only dependence).
    let mut other = mini_grid();
    other.base_seed = 8;
    for (a, b) in spec.expand().unwrap().iter().zip(other.expand().unwrap()) {
        assert_ne!(a.seed, b.seed);
    }
}
