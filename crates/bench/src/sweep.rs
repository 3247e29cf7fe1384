//! Parameter sweeps: the grid and the deterministic parallel engine that
//! runs it.
//!
//! NUMFabric's headline claims are evaluated over a *grid* of conditions —
//! objectives × workloads × fabrics — and reproducing a figure family means
//! running every cell of that grid. A [`SweepSpec`] names the axes
//! (scenarios, topologies, protocols, loads, transfer sizes, impairments,
//! seed replicates) and [`SweepSpec::expand`] takes their cartesian product
//! into a flat list of [`SweepCell`]s in a *fixed, documented order*, each
//! cell carrying a deterministic seed derived from `(base_seed, cell_index)`
//! by [`derive_cell_seed`]. Adding an axis touches this module alone.
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
use crate::experiment::{run_experiment, Experiment};
use crate::fabric::{
    incast_experiment, shuffle_experiment, stride_experiment, SteadyStateSummary, TransferSummary,
};
use crate::protocols::Protocol;
use crate::registry::{InvalidOption, RunError, ScenarioOptions};
use crate::report::{mean, percentile, ChurnSummary, Json, Report};
use numfabric_baselines::DctcpConfig;
use numfabric_core::NumFabricConfig;
use numfabric_sim::SimDuration;
use numfabric_workloads::fabric::TopologySpec;
use numfabric_workloads::impairments::ImpairmentProfile;
use std::fmt::{self, Write as _};
use std::str::FromStr;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::time::Instant;

/// One scenario family a sweep cell can run.
///
/// The finite-transfer scenarios (`Incast`, `Shuffle`) interpret the cell's
/// `load` as the fraction of eligible hosts participating and `size_bytes`
/// as the per-transfer size. The steady-state scenario (`Stride`) starts
/// long-lived flows and measures rates against the fluid oracle, so the
/// size axis does not apply to it. The open-loop scenario (`Churn`)
/// interprets `load` as the offered load of its Poisson class mix and
/// ignores the size axis (sizes come from the mix's distributions).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum SweepScenario {
    /// N-to-1 incast: `load` scales the fan-in.
    Incast,
    /// All-to-all shuffle: `load` scales the participant count.
    Shuffle,
    /// Stride permutation, steady-state rates vs the fluid oracle.
    Stride,
    /// Open-loop Poisson churn at `load` with the foreground/background
    /// heavy-tail class mix (see [`crate::churn`]).
    Churn,
}

impl SweepScenario {
    /// Every scenario, in the canonical axis order.
    pub const ALL: [SweepScenario; 4] = [
        SweepScenario::Incast,
        SweepScenario::Shuffle,
        SweepScenario::Stride,
        SweepScenario::Churn,
    ];

    /// The registry/CLI name of the scenario.
    pub fn name(&self) -> &'static str {
        match self {
            SweepScenario::Incast => "incast",
            SweepScenario::Shuffle => "shuffle",
            SweepScenario::Stride => "stride",
            SweepScenario::Churn => "churn",
        }
    }
}

impl fmt::Display for SweepScenario {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

/// Error produced when a scenario name in a sweep axis does not parse.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct InvalidScenario(String);

impl fmt::Display for InvalidScenario {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "invalid scenario `{}`; expected incast, shuffle, stride or churn",
            self.0
        )
    }
}

impl std::error::Error for InvalidScenario {}

impl FromStr for SweepScenario {
    type Err = InvalidScenario;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        SweepScenario::ALL
            .into_iter()
            .find(|sc| sc.name() == s)
            .ok_or_else(|| InvalidScenario(s.to_string()))
    }
}

/// The axes of a parameter sweep: the cartesian product of every listed
/// value is one grid, expanded cell-by-cell by [`SweepSpec::expand`].
#[derive(Debug, Clone, PartialEq)]
pub struct SweepSpec {
    /// Scenario axis (outermost in expansion order).
    pub scenarios: Vec<SweepScenario>,
    /// Topology axis.
    pub topologies: Vec<TopologySpec>,
    /// Protocol axis, each with its default parameters.
    pub protocols: Vec<Protocol>,
    /// Load axis: fraction of eligible hosts participating, in `(0, 1]`.
    pub loads: Vec<f64>,
    /// Transfer-size axis in bytes (finite-transfer scenarios only).
    pub sizes: Vec<u64>,
    /// Impairment axis: each named profile expands to a seeded failure /
    /// degradation schedule on the cell's fabric (`none` = healthy run).
    pub impairments: Vec<ImpairmentProfile>,
    /// Seed replicates per point (innermost axis): each replicate is its own
    /// cell with its own derived seed.
    pub replicates: usize,
    /// The seed every per-cell seed is derived from.
    pub base_seed: u64,
}

impl Default for SweepSpec {
    /// The default 8-cell mini-grid: `{incast, shuffle} × {leaf-spine,
    /// fat-tree:k=4} × {numfabric, dctcp}` at load 0.5, 100 kB transfers,
    /// one replicate, base seed 1.
    fn default() -> Self {
        Self {
            scenarios: vec![SweepScenario::Incast, SweepScenario::Shuffle],
            topologies: vec![TopologySpec::LeafSpine, TopologySpec::FatTree { k: 4 }],
            protocols: vec![
                Protocol::NumFabric(NumFabricConfig::default()),
                Protocol::Dctcp(DctcpConfig::default()),
            ],
            loads: vec![0.5],
            sizes: vec![100_000],
            impairments: vec![ImpairmentProfile::None],
            replicates: 1,
            base_seed: 1,
        }
    }
}

/// One fully-specified point of a sweep grid: every axis value plus the
/// cell's position and derived seed. Cells are self-contained — an executor
/// needs nothing but the cell to run it.
#[derive(Debug, Clone, PartialEq)]
pub struct SweepCell {
    /// Position in the expanded grid (aggregation key: results are
    /// re-assembled in index order regardless of execution order).
    pub index: usize,
    /// Scenario family.
    pub scenario: SweepScenario,
    /// Fabric to build.
    pub topology: TopologySpec,
    /// Scheme under test.
    pub protocol: Protocol,
    /// Fraction of eligible hosts participating.
    pub load: f64,
    /// Per-transfer size in bytes (finite-transfer scenarios).
    pub size_bytes: u64,
    /// Impairment profile applied to the cell's fabric.
    pub impairment: ImpairmentProfile,
    /// Which seed replicate this cell is (0-based).
    pub replicate: usize,
    /// The cell's own seed, `derive_cell_seed(base_seed, index)`.
    pub seed: u64,
}

/// Derive the seed of cell `cell_index` from the sweep's base seed.
///
/// SplitMix64 over `base_seed + (cell_index + 1) · γ` (γ the 64-bit golden
/// ratio): statistically independent streams per cell, stable across
/// executors and thread counts, and documented here so external tools can
/// reproduce any single cell in isolation.
///
/// The mixer is spelled out here rather than delegated to the offline rand
/// shim's `splitmix64` helper on purpose: that helper is shim-internal
/// (real crates.io `rand` does not export it), and the compat shims must
/// stay swappable for the real crates by a manifest-only change.
pub fn derive_cell_seed(base_seed: u64, cell_index: u64) -> u64 {
    let mut z =
        base_seed.wrapping_add(0x9E37_79B9_7F4A_7C15u64.wrapping_mul(cell_index.wrapping_add(1)));
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

impl SweepSpec {
    /// The number of cells the grid expands to.
    pub fn cell_count(&self) -> usize {
        self.scenarios.len()
            * self.topologies.len()
            * self.protocols.len()
            * self.loads.len()
            * self.sizes.len()
            * self.impairments.len()
            * self.replicates
    }

    /// Check the axes are usable: nothing empty, loads in `(0, 1]`, sizes
    /// positive, at least one replicate. A failure is a usage error.
    pub fn validate(&self) -> Result<(), RunError> {
        let invalid = |why: String| Err(RunError::usage(format!("invalid sweep: {why}")));
        for (axis, empty) in [
            ("--scenarios", self.scenarios.is_empty()),
            ("--topologies", self.topologies.is_empty()),
            ("--protocols", self.protocols.is_empty()),
            ("--loads", self.loads.is_empty()),
            ("--sizes", self.sizes.is_empty()),
            ("--impairments", self.impairments.is_empty()),
        ] {
            if empty {
                return invalid(format!("axis {axis} is empty"));
            }
        }
        if self.replicates == 0 {
            return invalid("--replicates must be at least 1".into());
        }
        if let Some(&bad) = self
            .loads
            .iter()
            .find(|l| !(l.is_finite() && **l > 0.0 && **l <= 1.0))
        {
            return invalid(format!(
                "load {bad} is outside (0, 1] (loads scale the participating host fraction)"
            ));
        }
        if self.sizes.contains(&0) {
            return invalid(
                "size 0 would inject empty transfers (every --sizes value must be positive)".into(),
            );
        }
        Ok(())
    }

    /// Expand the grid into its cells.
    ///
    /// Expansion order is fixed and documented: scenarios (outermost) →
    /// topologies → protocols → loads → sizes → impairments → replicates
    /// (innermost), each axis in its listed order. `cell.index` is the
    /// position in this order and the input to [`derive_cell_seed`] — so the
    /// cell list, and with it every derived seed, is a pure function of the
    /// spec.
    pub fn expand(&self) -> Result<Vec<SweepCell>, RunError> {
        self.validate()?;
        let mut cells = Vec::with_capacity(self.cell_count());
        for &scenario in &self.scenarios {
            for &topology in &self.topologies {
                for protocol in &self.protocols {
                    for &load in &self.loads {
                        for &size_bytes in &self.sizes {
                            for &impairment in &self.impairments {
                                for replicate in 0..self.replicates {
                                    let index = cells.len();
                                    cells.push(SweepCell {
                                        index,
                                        scenario,
                                        topology,
                                        protocol: protocol.clone(),
                                        load,
                                        size_bytes,
                                        impairment,
                                        replicate,
                                        seed: derive_cell_seed(self.base_seed, index as u64),
                                    });
                                }
                            }
                        }
                    }
                }
            }
        }
        Ok(cells)
    }

    /// Build a spec from CLI options, with [`SweepSpec::default`]'s mini-grid
    /// filling in any absent axis. Each list element is parsed once, here:
    ///
    /// * `--scenarios incast,shuffle,stride`
    /// * `--topologies leaf-spine,fat-tree:k=4,oversub:4:1`
    /// * `--protocols numfabric,dctcp,dgd,rcp,pfabric`
    /// * `--loads 0.25,0.5,1.0`
    /// * `--sizes 50000,500000`
    /// * `--impairments none,flap,loss,jitter`
    /// * `--replicates N` and `--seed S`
    ///
    /// The singular spellings the per-scenario CLIs use (`--topology`,
    /// `--protocol`, …) are rejected with a pointer to the plural axis —
    /// never silently ignored, which would run the default grid instead of
    /// the one the user asked for.
    pub fn try_from_options(opts: &ScenarioOptions) -> Result<SweepSpec, InvalidOption> {
        for (singular, plural) in [
            ("--scenario", "--scenarios"),
            ("--topology", "--topologies"),
            ("--protocol", "--protocols"),
            ("--load", "--loads"),
            ("--size", "--sizes"),
            ("--impair", "--impairments"),
        ] {
            if opts.flag(singular) {
                let reason = format!("sweep axes are plural: use {plural} <comma-separated list>");
                return Err(InvalidOption::new(singular, "", reason));
            }
        }
        let defaults = SweepSpec::default();
        Ok(SweepSpec {
            scenarios: opts.parse_csv("--scenarios")?.unwrap_or(defaults.scenarios),
            topologies: opts
                .parse_csv("--topologies")?
                .unwrap_or(defaults.topologies),
            protocols: opts.parse_csv("--protocols")?.unwrap_or(defaults.protocols),
            loads: opts.parse_csv("--loads")?.unwrap_or(defaults.loads),
            sizes: opts.parse_csv("--sizes")?.unwrap_or(defaults.sizes),
            impairments: opts
                .parse_csv("--impairments")?
                .unwrap_or(defaults.impairments),
            replicates: opts.parsed_or("--replicates", defaults.replicates)?,
            base_seed: opts.parsed_or("--seed", defaults.base_seed)?,
        })
    }
}

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
/// starts. Every cell [`SweepSpec::expand`] builds is valid, so only a
/// panic can fail one ([`execute_cells`] catches it).
pub fn run_cell(cell: &SweepCell) -> CellResult {
    let topo = cell.topology.build(false);
    let hosts = topo.hosts().len();
    let protocol = cell.protocol.clone();
    let (size, seed) = (cell.size_bytes, cell.seed);
    let mut exp = match cell.scenario {
        SweepScenario::Incast => {
            let fan_in = ((cell.load * (hosts - 1) as f64).round() as usize).clamp(1, hosts - 1);
            incast_experiment(protocol, topo, fan_in, size, seed)
        }
        SweepScenario::Shuffle => {
            let participants = ((cell.load * hosts as f64).round() as usize).clamp(2, hosts);
            shuffle_experiment(protocol, topo, participants, size, seed)
        }
        SweepScenario::Stride => {
            stride_experiment(protocol, topo, hosts / 2, seed, STEADY_STATE_RUN)
        }
        SweepScenario::Churn => {
            let flows = churn_flows(&topo, cell.load, 0.25, CHURN_WINDOW, seed);
            Experiment::new(protocol, topo, flows, CHURN_WINDOW + CHURN_DRAIN)
        }
    };
    // The impairment profile spans a churn cell's arrivals, and every other
    // cell's whole run.
    let window = match cell.scenario {
        SweepScenario::Churn => CHURN_WINDOW,
        _ => exp.horizon,
    };
    exp.impairments = cell.impairment.schedule(&exp.topology, seed, window);
    let outcome = run_experiment(&exp);
    let cell = cell.clone();
    match cell.scenario {
        SweepScenario::Incast | SweepScenario::Shuffle => {
            CellResult::from_transfers(cell, &TransferSummary::of(&outcome.flows))
        }
        SweepScenario::Stride => {
            CellResult::from_steady_state(cell, &SteadyStateSummary::of(&exp, &outcome.flows))
        }
        SweepScenario::Churn => CellResult::from_churn(cell, &outcome.churn),
    }
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
    std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| run_cell(cell))).map_err(|payload| {
        format!(
            "sweep cell {} ({}) panicked: {}",
            cell.index,
            cell.scenario,
            panic_message(payload.as_ref())
        )
    })
}

/// Execute every cell on `threads` workers and return the results **in
/// cell-index order** — the order, and therefore the aggregate built from
/// it, is independent of the thread count and of which worker ran which
/// cell. Every cell runs even when some panic, and the reported error is the
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
                (
                    "protocols",
                    axis_strs(spec.protocols.iter().map(|p| p.cli_name().into()).collect()),
                ),
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
        ("protocol", Json::str(cell.protocol.cli_name())),
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
            c.protocol.cli_name(),
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
    let cells = spec.expand()?;
    let default_threads = std::thread::available_parallelism().map_or(1, |n| n.get());
    let threads: usize = opts.parsed_or("--threads", default_threads)?;
    if threads == 0 {
        return Err(RunError::usage("--threads must be at least 1"));
    }
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
        threads.min(cells.len()),
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

    fn mini_cell(scenario: SweepScenario, index: usize) -> SweepCell {
        SweepCell {
            index,
            scenario,
            topology: TopologySpec::FatTree { k: 4 },
            protocol: Protocol::default(),
            load: 0.25,
            size_bytes: 50_000,
            impairment: ImpairmentProfile::None,
            replicate: 0,
            seed: derive_cell_seed(1, index as u64),
        }
    }

    #[test]
    fn incast_cell_runs_and_reports_fcts() {
        let result = run_cell(&mini_cell(SweepScenario::Incast, 0));
        // load 0.25 of 15 eligible senders on the 16-host fat-tree: 4 senders.
        assert_eq!(result.flows, 4);
        assert_eq!(result.completed, Some(4));
        assert!(result.median_fct_seconds.unwrap() > 0.0);
        assert!(result.p99_fct_seconds.unwrap() >= result.median_fct_seconds.unwrap());
        assert!(result.steady_state_error.is_none());
    }

    #[test]
    fn stride_cell_reports_oracle_error_not_fcts() {
        let result = run_cell(&mini_cell(SweepScenario::Stride, 1));
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
            let a = run_cell(&cell);
            let b = run_cell(&cell);
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
        // Two panicking cells: whatever the thread count, every cell still
        // runs and the *lowest-index* failure is the one reported.
        let mut cells: Vec<SweepCell> = (0..4)
            .map(|i| mini_cell(SweepScenario::Incast, i))
            .collect();
        cells[1].topology = TopologySpec::FatTree { k: 3 };
        cells[3].topology = TopologySpec::FatTree { k: 3 };
        for threads in [1, 2, 4] {
            let err = execute_cells(cells.clone(), threads).unwrap_err();
            assert!(err.contains("sweep cell 1 "), "threads={threads}: {err}");
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
        let transfer = run_cell(&mini_cell(SweepScenario::Incast, 0));
        let steady = run_cell(&mini_cell(SweepScenario::Stride, 1));
        let table = markdown_table(&[transfer, steady]);
        let rows: Vec<&str> = table.lines().collect();
        assert_eq!(rows.len(), 2 + 2, "header + separator + 2 cells");
        assert!(rows[2].contains("incast") && rows[2].contains("Gbps"));
        assert!(rows[3].contains("stride") && rows[3].contains('%'));
        // Stride has no FCT columns; incast has no steady-state error.
        assert!(rows[3].contains(" - "));
        assert!(rows[2].trim_end().ends_with("- |"));
    }

    fn opts(args: &[&str]) -> ScenarioOptions {
        ScenarioOptions::new(args.iter().map(|s| s.to_string()).collect())
    }

    #[test]
    fn default_grid_is_eight_cells() {
        let spec = SweepSpec::default();
        assert_eq!(spec.cell_count(), 8);
        let cells = spec.expand().unwrap();
        assert_eq!(cells.len(), 8);
    }

    #[test]
    fn expansion_order_is_scenario_major_replicate_minor() {
        let spec = SweepSpec {
            scenarios: vec![SweepScenario::Incast, SweepScenario::Shuffle],
            topologies: vec![TopologySpec::LeafSpine, TopologySpec::FatTree { k: 4 }],
            protocols: vec![Protocol::default()],
            loads: vec![0.5],
            sizes: vec![1000, 2000],
            impairments: vec![ImpairmentProfile::None, ImpairmentProfile::Flap],
            replicates: 2,
            base_seed: 7,
        };
        let cells = spec.expand().unwrap();
        assert_eq!(cells.len(), 2 * 2 * 2 * 2 * 2);
        // Innermost axis (replicates) varies fastest, then impairments.
        let inner = |c: &SweepCell| (c.size_bytes, c.impairment, c.replicate);
        assert_eq!(inner(&cells[0]), (1000, ImpairmentProfile::None, 0));
        assert_eq!(inner(&cells[1]), (1000, ImpairmentProfile::None, 1));
        assert_eq!(inner(&cells[2]), (1000, ImpairmentProfile::Flap, 0));
        assert_eq!(inner(&cells[3]), (1000, ImpairmentProfile::Flap, 1));
        assert_eq!(inner(&cells[4]), (2000, ImpairmentProfile::None, 0));
        // Outermost axis (scenario) varies slowest: first half incast.
        assert!(cells[..16]
            .iter()
            .all(|c| c.scenario == SweepScenario::Incast));
        assert!(cells[16..]
            .iter()
            .all(|c| c.scenario == SweepScenario::Shuffle));
        // Indices are positions.
        for (i, c) in cells.iter().enumerate() {
            assert_eq!(c.index, i);
        }
    }

    #[test]
    fn cell_seeds_are_derived_distinct_and_stable() {
        let cells = SweepSpec::default().expand().unwrap();
        for c in &cells {
            assert_eq!(c.seed, derive_cell_seed(1, c.index as u64));
        }
        let unique: std::collections::HashSet<u64> = cells.iter().map(|c| c.seed).collect();
        assert_eq!(unique.len(), cells.len(), "per-cell seeds must be distinct");
        // The derivation is a pure function: pin two values so any change to
        // the mixer is a loud, intentional break of cell reproducibility.
        assert_eq!(derive_cell_seed(1, 0), derive_cell_seed(1, 0));
        assert_ne!(derive_cell_seed(1, 0), derive_cell_seed(1, 1));
        assert_ne!(derive_cell_seed(1, 0), derive_cell_seed(2, 0));
    }

    #[test]
    fn expansion_is_reproducible() {
        let spec = SweepSpec::default();
        assert_eq!(spec.expand().unwrap(), spec.expand().unwrap());
    }

    #[test]
    fn scenario_names_round_trip() {
        for sc in SweepScenario::ALL {
            assert_eq!(sc.name().parse::<SweepScenario>().unwrap(), sc);
        }
        assert!("mesh".parse::<SweepScenario>().is_err());
    }

    #[test]
    fn options_override_each_axis() {
        let spec = SweepSpec::try_from_options(&opts(&[
            "--scenarios",
            "stride",
            "--topologies",
            "oversub:4:1,fat-tree:k=4",
            "--protocols",
            "dgd,rcpstar",
            "--loads",
            "0.25,1.0",
            "--sizes",
            "50000",
            "--impairments",
            "none,flap",
            "--replicates",
            "3",
            "--seed",
            "42",
        ]))
        .unwrap();
        assert_eq!(spec.scenarios, vec![SweepScenario::Stride]);
        assert_eq!(
            spec.topologies,
            vec![
                TopologySpec::Oversubscribed { ratio: 4.0 },
                TopologySpec::FatTree { k: 4 }
            ]
        );
        // An alias parses, and prints as its `--protocol` spelling.
        let names: Vec<_> = spec.protocols.iter().map(Protocol::cli_name).collect();
        assert_eq!(names, ["dgd", "rcp"]);
        assert_eq!(spec.loads, vec![0.25, 1.0]);
        assert_eq!(spec.sizes, vec![50000]);
        assert_eq!(
            spec.impairments,
            vec![ImpairmentProfile::None, ImpairmentProfile::Flap]
        );
        assert_eq!(spec.replicates, 3);
        assert_eq!(spec.base_seed, 42);
        // 1 scenario x 2 topologies x 2 protocols x 2 loads x 1 size x
        // 2 impairments x 3 replicates.
        assert_eq!(spec.cell_count(), 48);
    }

    #[test]
    fn malformed_axis_elements_are_errors() {
        let err =
            SweepSpec::try_from_options(&opts(&["--topologies", "leaf-spine,mesh"])).unwrap_err();
        assert_eq!(err.name, "--topologies");
        assert_eq!(err.value, "mesh");
        let err =
            SweepSpec::try_from_options(&opts(&["--scenarios", "incast,,shuffle"])).unwrap_err();
        assert!(err.reason.contains("empty element"));
        let err = SweepSpec::try_from_options(&opts(&["--loads", "0.5,banana"])).unwrap_err();
        assert_eq!(err.value, "banana");
        let err =
            SweepSpec::try_from_options(&opts(&["--impairments", "none,blackhole"])).unwrap_err();
        assert_eq!(err.value, "blackhole");
        // An axis option as the dangling last token must not silently fall
        // back to the default grid.
        let err = SweepSpec::try_from_options(&opts(&["--scenarios"])).unwrap_err();
        assert_eq!(err.name, "--scenarios");
        assert!(err.reason.contains("missing value"));
    }

    #[test]
    fn singular_option_spellings_are_rejected_not_silently_ignored() {
        // The exact trap: the per-scenario CLIs spell these singular, and a
        // silently-ignored option would run the default grid instead.
        for (args, plural) in [
            (vec!["--topology", "fat-tree:k=4"], "--topologies"),
            (vec!["--protocol", "dctcp"], "--protocols"),
            (vec!["--scenario", "incast"], "--scenarios"),
            (vec!["--load", "0.5"], "--loads"),
            (vec!["--size", "1000"], "--sizes"),
            (vec!["--impair", "flap"], "--impairments"),
        ] {
            let err = SweepSpec::try_from_options(&opts(&args)).unwrap_err();
            assert!(err.reason.contains(plural), "{args:?}: {err}");
        }
    }

    #[test]
    fn zero_sizes_are_rejected() {
        let spec = SweepSpec {
            sizes: vec![100_000, 0],
            ..SweepSpec::default()
        };
        let err = spec.validate().unwrap_err();
        assert!(err.to_string().contains("--sizes"), "{err}");
        assert!(spec.expand().is_err());
    }

    #[test]
    fn validation_rejects_empty_axes_and_bad_loads() {
        let mut spec = SweepSpec {
            loads: vec![1.5],
            ..SweepSpec::default()
        };
        assert!(spec.validate().is_err());
        spec.loads = vec![0.0];
        assert!(spec.validate().is_err());
        spec.loads = vec![0.5];
        spec.replicates = 0;
        assert!(spec.validate().is_err());
        spec.replicates = 1;
        spec.protocols.clear();
        let err = spec.validate().unwrap_err();
        assert!(err.to_string().contains("--protocols"));
    }
}
