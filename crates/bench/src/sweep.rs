//! The deterministic parallel sweep engine: execute a [`SweepSpec`] grid on
//! a pool of worker threads and aggregate the per-cell results into one
//! structured report.
//!
//! The determinism contract extends the simulator's: every [`SweepCell`] is
//! a self-contained, fully-seeded simulation owned by exactly one worker
//! thread (`Network` is `Send`, pinned at compile time in `numfabric-sim`),
//! cells share no state, and the aggregate is assembled in cell-index order
//! — so the aggregated output is **bit-identical regardless of
//! `--threads`**. Thread count and wall-clock never appear in the JSON
//! report; they are printed separately in the human-readable mode.
//!
//! The pool is scoped threads sharing one atomic cursor: each worker claims
//! the next unclaimed cell index until the grid is exhausted, so a worker
//! stuck on an expensive cell (a 240-flow shuffle next to an 8-flow incast)
//! never strands the cells behind it.

use crate::churn::churn_flows;
use crate::experiment::{run_experiment, Experiment, Flows, ListFlow};
use crate::fabric::{
    transfer_deadline, worst_oversubscription, SteadyStateSummary, TransferSummary,
};
use crate::protocols::Protocol;
use crate::registry::RunError;
use crate::report::{mean, percentile, ChurnSummary, Json, Report};
use numfabric_sim::SimDuration;
use numfabric_workloads::registry::ScenarioOptions;
use numfabric_workloads::scenarios::{incast_pairs, shuffle_pairs, stride_pairs, PathSpec};
use numfabric_workloads::sweep::{SweepCell, SweepScenario, SweepSpec};
use std::fmt::Write as _;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::time::Instant;

/// How long each steady-state (stride) cell runs. Long enough for every
/// protocol to settle, short enough that a grid of them stays interactive.
const STEADY_STATE_RUN: SimDuration = SimDuration::from_millis(4);

/// The arrival window of a churn cell, and the drain that follows it.
/// Short enough to keep a grid of churn cells interactive; a full-scale
/// churn run goes through `numfabric-run churn --millis ...` instead.
const CHURN_WINDOW: SimDuration = SimDuration::from_millis(8);
const CHURN_DRAIN: SimDuration = SimDuration::from_millis(40);

/// The measured outcome of one sweep cell: the cell identity plus the
/// metrics of its scenario family (FCT statistics for finite transfers,
/// oracle-relative rate error for steady state).
#[derive(Debug, Clone)]
pub struct CellResult {
    /// The cell that was run.
    pub cell: SweepCell,
    /// Flows injected.
    pub flows: usize,
    /// Flows completed before the deadline (`None` for steady-state cells,
    /// whose flows are long-lived by construction).
    pub completed: Option<usize>,
    /// Median flow completion time in seconds (finite transfers).
    pub median_fct_seconds: Option<f64>,
    /// 99th-percentile flow completion time in seconds (finite transfers).
    pub p99_fct_seconds: Option<f64>,
    /// Aggregate goodput in bits per second (finite transfers).
    pub goodput_bps: Option<f64>,
    /// Mean relative rate error vs the fluid oracle (steady state).
    pub steady_state_error: Option<f64>,
    /// Fraction of flows within 10% of the oracle rate (steady state).
    pub fraction_within_10pct: Option<f64>,
}

impl CellResult {
    fn from_transfers(cell: SweepCell, summary: &TransferSummary) -> Self {
        Self {
            flows: summary.flows,
            completed: Some(summary.completed),
            median_fct_seconds: percentile(&summary.fcts, 0.5),
            p99_fct_seconds: percentile(&summary.fcts, 0.99),
            goodput_bps: Some(summary.aggregate_goodput_bps()),
            steady_state_error: None,
            fraction_within_10pct: None,
            cell,
        }
    }

    fn from_churn(cell: SweepCell, summary: &ChurnSummary) -> Self {
        let (fct, _) = summary.overall();
        Self {
            flows: summary.offered as usize,
            completed: Some(summary.completed as usize),
            median_fct_seconds: fct.quantile(0.5),
            p99_fct_seconds: fct.quantile(0.99),
            goodput_bps: Some(summary.completed_bytes() as f64 * 8.0 / CHURN_WINDOW.as_secs_f64()),
            steady_state_error: None,
            fraction_within_10pct: None,
            cell,
        }
    }

    fn from_steady_state(cell: SweepCell, summary: &SteadyStateSummary) -> Self {
        let rel_errors: Vec<f64> = summary
            .rates_bps
            .iter()
            .zip(&summary.oracle_bps)
            .map(|(&r, &o)| (r - o).abs() / o.max(1.0))
            .collect();
        Self {
            flows: summary.rates_bps.len(),
            completed: None,
            median_fct_seconds: None,
            p99_fct_seconds: None,
            goodput_bps: None,
            steady_state_error: mean(&rel_errors),
            fraction_within_10pct: Some(summary.fraction_within(0.10)),
            cell,
        }
    }
}

/// Run one sweep cell to completion: build the fabric, derive the workload
/// from the cell's axes and seed, simulate, and summarize.
///
/// The load axis scales the participating host fraction: an incast cell
/// fans in `load · (hosts − 1)` senders, a shuffle cell spans `load ·
/// hosts` participants. Stride cells run the full `hosts/2` permutation as
/// long-lived flows for a fixed window and ignore the load and size axes
/// (documented on [`SweepScenario`]). Churn cells run the open-loop Poisson
/// mix at the load axis over a fixed arrival window and ignore the size
/// axis — sizes come from the mix's heavy-tail distributions. The
/// impairment axis expands its named profile into a schedule on the cell's
/// own fabric, seeded and windowed by the cell, before the simulation
/// starts.
///
/// Errors only on an unknown protocol name — everything else about a cell
/// is valid by construction of [`SweepSpec::expand`].
pub fn run_cell(cell: &SweepCell) -> Result<CellResult, String> {
    let protocol: Protocol = cell.protocol.parse().map_err(|_| {
        format!(
            "unknown protocol `{}` in sweep cell {}",
            cell.protocol, cell.index
        )
    })?;
    let topo = cell.topology.build(false);
    let hosts = topo.hosts().len();
    let host_bps = topo.links()[0].capacity_bps;
    let transfers = |pairs: &[PathSpec]| Flows::List(ListFlow::pairs(pairs, Some(cell.size_bytes)));
    // The workload, its horizon, and the window the impairment profile
    // spans (a churn cell's arrivals, every other cell's whole run).
    let (flows, horizon, impaired_window) = match cell.scenario {
        SweepScenario::Incast => {
            let fan_in = ((cell.load * (hosts - 1) as f64).round() as usize).clamp(1, hosts - 1);
            let pairs = incast_pairs(&topo, fan_in, cell.seed);
            let deadline = transfer_deadline(fan_in as u64 * cell.size_bytes, host_bps);
            (transfers(&pairs), deadline, deadline)
        }
        SweepScenario::Shuffle => {
            let participants = ((cell.load * hosts as f64).round() as usize).clamp(2, hosts);
            let pairs = shuffle_pairs(&topo, Some(participants), cell.seed);
            let slowdown = worst_oversubscription(&topo);
            let deadline = transfer_deadline(
                (participants as u64 - 1) * cell.size_bytes,
                host_bps / slowdown,
            );
            (transfers(&pairs), deadline, deadline)
        }
        SweepScenario::Stride => {
            let pairs = stride_pairs(&topo, hosts / 2, cell.seed);
            let flows = Flows::List(ListFlow::pairs(&pairs, None));
            (flows, STEADY_STATE_RUN, STEADY_STATE_RUN)
        }
        SweepScenario::Churn => {
            let flows = churn_flows(&topo, cell.load, 0.25, CHURN_WINDOW, cell.seed);
            (flows, CHURN_WINDOW + CHURN_DRAIN, CHURN_WINDOW)
        }
    };
    let exp = Experiment {
        impairments: cell.impairment.schedule(&topo, cell.seed, impaired_window),
        ..Experiment::new(protocol, topo, flows, horizon)
    };
    let outcome = run_experiment(&exp);
    let cell = cell.clone();
    Ok(match cell.scenario {
        SweepScenario::Incast | SweepScenario::Shuffle => {
            CellResult::from_transfers(cell, &TransferSummary::of(&outcome.flows))
        }
        SweepScenario::Stride => {
            CellResult::from_steady_state(cell, &SteadyStateSummary::of(&exp, &outcome.flows))
        }
        SweepScenario::Churn => CellResult::from_churn(cell, &outcome.churn),
    })
}

/// Extract a human-readable message from a caught panic payload (the two
/// shapes `panic!` produces in practice: `&str` and `String`).
fn panic_message(payload: &(dyn std::any::Any + Send)) -> &str {
    payload
        .downcast_ref::<&'static str>()
        .copied()
        .or_else(|| payload.downcast_ref::<String>().map(String::as_str))
        .unwrap_or("non-string panic payload")
}

/// Run one cell with panics converted into structured errors that name the
/// cell and its scenario, so one failing cell neither takes its worker (and
/// the cells that worker would have claimed) down nor loses its identity.
fn run_cell_caught(cell: &SweepCell) -> Result<CellResult, String> {
    std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| run_cell(cell))).unwrap_or_else(
        |payload| {
            Err(format!(
                "sweep cell {} ({}) panicked: {}",
                cell.index,
                cell.scenario,
                panic_message(payload.as_ref())
            ))
        },
    )
}

/// Execute every cell on `threads` workers and return the results **in
/// cell-index order** — the order, and therefore the aggregate built from
/// it, is independent of the thread count and of which worker ran which
/// cell. Every cell runs even when some fail, and the reported error is the
/// lowest-index one, so the error path does not depend on scheduling either.
///
/// `threads` is clamped to `1..=cells.len()`; with one thread the cells run
/// inline on the caller's thread through the identical per-cell path.
pub fn execute_cells(cells: Vec<SweepCell>, threads: usize) -> Result<Vec<CellResult>, String> {
    let next = AtomicUsize::new(0);
    let worker = || {
        let mut finished = Vec::new();
        loop {
            // Relaxed: the cursor hands out indices and publishes nothing
            // else — cells are shared before the spawn, results by the join.
            let index = next.fetch_add(1, Ordering::Relaxed);
            let Some(cell) = cells.get(index) else {
                return finished;
            };
            finished.push((index, run_cell_caught(cell)));
        }
    };
    let mut finished = match threads.clamp(1, cells.len().max(1)) {
        1 => worker(),
        threads => std::thread::scope(|scope| {
            let workers: Vec<_> = (0..threads).map(|_| scope.spawn(worker)).collect();
            workers
                .into_iter()
                .flat_map(|w| w.join().expect("cell panics are caught per cell"))
                .collect()
        }),
    };
    finished.sort_by_key(|&(index, _)| index);
    finished.into_iter().map(|(_, result)| result).collect()
}

/// The aggregated report of a sweep: the spec's axes and every per-cell
/// result, in cell-index order. Deliberately contains **no thread count and
/// no timing** — the report is a pure function of the spec, which is what
/// makes `--threads`-independence testable bit-for-bit.
pub fn sweep_report_json(spec: &SweepSpec, results: &[CellResult]) -> Json {
    let axis_strs = |it: Vec<String>| Json::Arr(it.into_iter().map(Json::Str).collect());
    Json::Obj(vec![
        (
            "sweep",
            Json::Obj(vec![
                ("base_seed", Json::Int(spec.base_seed)),
                ("cells", Json::Int(results.len() as u64)),
                (
                    "scenarios",
                    axis_strs(spec.scenarios.iter().map(|s| s.to_string()).collect()),
                ),
                (
                    "topologies",
                    axis_strs(spec.topologies.iter().map(|t| t.to_string()).collect()),
                ),
                ("protocols", axis_strs(spec.protocols.clone())),
                ("loads", Json::nums(spec.loads.iter().copied())),
                (
                    "sizes",
                    Json::Arr(spec.sizes.iter().map(|&s| Json::Int(s)).collect()),
                ),
                (
                    "impairments",
                    axis_strs(spec.impairments.iter().map(|i| i.to_string()).collect()),
                ),
                ("replicates", Json::Int(spec.replicates as u64)),
            ]),
        ),
        (
            "results",
            Json::Arr(results.iter().map(cell_report_json).collect()),
        ),
    ])
}

fn cell_report_json(result: &CellResult) -> Json {
    let cell = &result.cell;
    let opt_num = |v: Option<f64>| v.map_or(Json::Null, Json::Num);
    Json::Obj(vec![
        ("cell", Json::Int(cell.index as u64)),
        ("scenario", Json::str(cell.scenario.name())),
        ("topology", Json::str(cell.topology.to_string())),
        ("protocol", Json::str(cell.protocol.clone())),
        ("load", Json::Num(cell.load)),
        ("size_bytes", Json::Int(cell.size_bytes)),
        ("impairment", Json::str(cell.impairment.name())),
        ("replicate", Json::Int(cell.replicate as u64)),
        ("seed", Json::Int(cell.seed)),
        ("flows", Json::Int(result.flows as u64)),
        (
            "completed",
            result.completed.map_or(Json::Null, |c| Json::Int(c as u64)),
        ),
        ("median_fct_seconds", opt_num(result.median_fct_seconds)),
        ("p99_fct_seconds", opt_num(result.p99_fct_seconds)),
        ("goodput_bps", opt_num(result.goodput_bps)),
        ("steady_state_error", opt_num(result.steady_state_error)),
        (
            "fraction_within_10pct",
            opt_num(result.fraction_within_10pct),
        ),
    ])
}

/// Render the per-cell comparison as a GitHub-flavored markdown table:
/// one row per cell with FCT percentiles, completion and steady-state
/// error columns (`-` where a column does not apply to the scenario —
/// stride cells dash both load and size, which their simulation ignores,
/// so nobody attributes seed-driven variance between them to either axis).
pub fn markdown_table(results: &[CellResult]) -> String {
    let mut out = String::new();
    let _ = writeln!(
        out,
        "| cell | scenario | topology | protocol | load | size | impair | seed | flows | completed | p50 FCT | p99 FCT | goodput | ss error |"
    );
    let _ = writeln!(
        out,
        "|-----:|----------|----------|----------|-----:|-----:|--------|-----:|------:|----------:|--------:|--------:|--------:|---------:|"
    );
    let dash = || "-".to_string();
    let ms = |v: Option<f64>| v.map_or_else(dash, |s| format!("{:.2} ms", s * 1e3));
    for r in results {
        let c = &r.cell;
        let is_stride = c.scenario == SweepScenario::Stride;
        // Churn ignores the size axis too: its sizes come from the mix's
        // heavy-tail distributions, not the grid.
        let sizeless = is_stride || c.scenario == SweepScenario::Churn;
        let _ = writeln!(
            out,
            "| {} | {} | {} | {} | {} | {} | {} | {} | {} | {} | {} | {} | {} | {} |",
            c.index,
            c.scenario,
            c.topology,
            c.protocol,
            if is_stride {
                dash()
            } else {
                format!("{:.2}", c.load)
            },
            if sizeless {
                dash()
            } else if c.size_bytes.is_multiple_of(1000) {
                format!("{} kB", c.size_bytes / 1000)
            } else {
                format!("{} B", c.size_bytes)
            },
            c.impairment.name(),
            c.seed,
            r.flows,
            r.completed.map_or_else(dash, |n| n.to_string()),
            ms(r.median_fct_seconds),
            ms(r.p99_fct_seconds),
            r.goodput_bps
                .map_or_else(dash, |g| format!("{:.2} Gbps", g / 1e9)),
            r.steady_state_error
                .map_or_else(dash, |e| format!("{:.1}%", e * 100.0)),
        );
    }
    out
}

/// The `numfabric-run sweep` entry point: expand the grid from the options,
/// execute it on the pool, and report the aggregate (a markdown table, and
/// the structured JSON document).
pub fn sweep(opts: &ScenarioOptions) -> Result<Report, RunError> {
    let spec = SweepSpec::try_from_options(opts)?;
    for name in &spec.protocols {
        if let Err(expected) = name.parse::<Protocol>() {
            return Err(RunError::usage(format!(
                "invalid value `{name}` for option `--protocols`: {expected}"
            )));
        }
    }
    let cells = spec.expand().map_err(RunError::usage)?;
    let default_threads = std::thread::available_parallelism().map_or(1, |n| n.get());
    let threads: usize = opts.parsed_or("--threads", default_threads)?;
    let mut report = Report::default();
    writeln!(
        report,
        "Sweep: {} cells ({} scenarios x {} topologies x {} protocols x {} loads x {} sizes x {} impairments x {} replicates) on {} threads\n",
        cells.len(),
        spec.scenarios.len(),
        spec.topologies.len(),
        spec.protocols.len(),
        spec.loads.len(),
        spec.sizes.len(),
        spec.impairments.len(),
        spec.replicates,
        threads.clamp(1, cells.len()),
    );
    let start = Instant::now();
    let results = execute_cells(cells, threads).map_err(RunError::Usage)?;
    let wall = start.elapsed();
    report.json = Some(sweep_report_json(&spec, &results));
    report.text += &markdown_table(&results);
    writeln!(
        report,
        "\n{} cells in {:.2} s wall-clock. The table and the --json report are\n\
         bit-identical for any --threads value — including under randomized\n\
         loss/jitter profiles; only this timing line and the thread count in\n\
         the header vary.",
        results.len(),
        wall.as_secs_f64(),
    );
    Ok(report)
}

#[cfg(test)]
mod tests {
    use super::*;
    use numfabric_workloads::fabric::TopologySpec;
    use numfabric_workloads::impairments::ImpairmentProfile;
    use numfabric_workloads::sweep::derive_cell_seed;

    fn mini_cell(scenario: SweepScenario, index: usize) -> SweepCell {
        SweepCell {
            index,
            scenario,
            topology: TopologySpec::FatTree { k: 4 },
            protocol: "numfabric".to_string(),
            load: 0.25,
            size_bytes: 50_000,
            impairment: ImpairmentProfile::None,
            replicate: 0,
            seed: derive_cell_seed(1, index as u64),
        }
    }

    #[test]
    fn incast_cell_runs_and_reports_fcts() {
        let result = run_cell(&mini_cell(SweepScenario::Incast, 0)).unwrap();
        // load 0.25 of 15 eligible senders on the 16-host fat-tree: 4 senders.
        assert_eq!(result.flows, 4);
        assert_eq!(result.completed, Some(4));
        assert!(result.median_fct_seconds.unwrap() > 0.0);
        assert!(result.p99_fct_seconds.unwrap() >= result.median_fct_seconds.unwrap());
        assert!(result.steady_state_error.is_none());
    }

    #[test]
    fn stride_cell_reports_oracle_error_not_fcts() {
        let result = run_cell(&mini_cell(SweepScenario::Stride, 1)).unwrap();
        assert_eq!(result.flows, 16);
        assert_eq!(result.completed, None);
        assert!(result.median_fct_seconds.is_none());
        let err = result.steady_state_error.unwrap();
        assert!((0.0..1.0).contains(&err), "mean relative error {err}");
        assert!(result.fraction_within_10pct.unwrap() > 0.0);
    }

    #[test]
    fn impaired_cells_run_and_are_replay_identical() {
        for profile in [
            ImpairmentProfile::Flap,
            ImpairmentProfile::Loss,
            ImpairmentProfile::Jitter,
        ] {
            let mut cell = mini_cell(SweepScenario::Incast, 2);
            cell.impairment = profile;
            let a = run_cell(&cell).unwrap();
            let b = run_cell(&cell).unwrap();
            assert_eq!(a.flows, b.flows, "{profile:?}");
            assert_eq!(a.completed, b.completed, "{profile:?}");
            assert_eq!(
                a.median_fct_seconds.map(f64::to_bits),
                b.median_fct_seconds.map(f64::to_bits),
                "{profile:?} replay diverged"
            );
            assert_eq!(
                a.goodput_bps.map(f64::to_bits),
                b.goodput_bps.map(f64::to_bits),
                "{profile:?} replay diverged"
            );
        }
    }

    #[test]
    fn unknown_protocol_is_an_error_not_a_panic() {
        let mut cell = mini_cell(SweepScenario::Incast, 0);
        cell.protocol = "tcp-reno".to_string();
        let err = run_cell(&cell).unwrap_err();
        assert!(err.contains("tcp-reno"));
        // And the pool surfaces it instead of hanging.
        let err = execute_cells(vec![cell], 4).unwrap_err();
        assert!(err.contains("tcp-reno"));
    }

    #[test]
    fn a_panicking_cell_reports_its_own_identity_not_a_poisoned_queue() {
        // FatTree{k:3} passes cell construction but panics inside the
        // topology builder ("fat-tree arity must be even"), exercising the
        // real unwind path through a running cell. The failure must name
        // the guilty cell and scenario — and the innocent cells around it
        // must still run to completion on every thread count.
        let mut cells: Vec<SweepCell> = (0..4)
            .map(|i| mini_cell(SweepScenario::Incast, i))
            .collect();
        cells[2].topology = TopologySpec::FatTree { k: 3 };
        for threads in [1, 2, 4] {
            let err = execute_cells(cells.clone(), threads).unwrap_err();
            assert!(
                err.contains("sweep cell 2") && err.contains("incast") && err.contains("panicked"),
                "threads={threads}: {err}"
            );
            assert!(
                !err.contains("queue poisoned"),
                "threads={threads}: a bystander worker reported the failure: {err}"
            );
        }
    }

    #[test]
    fn error_reporting_is_scheduling_independent() {
        // Two failing cells: whatever the thread count, every cell still
        // runs and the *lowest-index* failure is the one reported.
        let mut cells: Vec<SweepCell> = (0..4)
            .map(|i| mini_cell(SweepScenario::Incast, i))
            .collect();
        cells[1].protocol = "bad-one".to_string();
        cells[3].protocol = "bad-three".to_string();
        for threads in [1, 2, 4] {
            let err = execute_cells(cells.clone(), threads).unwrap_err();
            assert!(
                err.contains("bad-one") && err.contains("cell 1"),
                "threads={threads}: {err}"
            );
        }
    }

    #[test]
    fn executor_returns_results_in_cell_index_order() {
        let cells: Vec<SweepCell> = (0..4)
            .map(|i| mini_cell(SweepScenario::Incast, i))
            .collect();
        let results = execute_cells(cells, 3).unwrap();
        let indices: Vec<usize> = results.iter().map(|r| r.cell.index).collect();
        assert_eq!(indices, vec![0, 1, 2, 3]);
    }

    #[test]
    fn empty_grid_is_an_empty_report() {
        assert!(execute_cells(Vec::new(), 8).unwrap().is_empty());
    }

    #[test]
    fn markdown_table_has_one_row_per_cell_and_dashes_where_not_applicable() {
        let transfer = run_cell(&mini_cell(SweepScenario::Incast, 0)).unwrap();
        let steady = run_cell(&mini_cell(SweepScenario::Stride, 1)).unwrap();
        let table = markdown_table(&[transfer, steady]);
        let rows: Vec<&str> = table.lines().collect();
        assert_eq!(rows.len(), 2 + 2, "header + separator + 2 cells");
        assert!(rows[2].contains("incast") && rows[2].contains("Gbps"));
        assert!(rows[3].contains("stride") && rows[3].contains('%'));
        // Stride has no FCT columns; incast has no steady-state error.
        assert!(rows[3].contains(" - "));
        assert!(rows[2].trim_end().ends_with("- |"));
    }
}
