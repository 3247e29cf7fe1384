//! Small reporting helpers shared by the scenario drivers: percentiles,
//! CDFs, size bins, the [`Report`] every scenario returns (its human text
//! with aligned-column tables, and the structured JSON document behind
//! `numfabric-run ... --json`).
//!
//! The JSON layer is deliberately minimal and hand-rolled: the offline
//! `serde` shim provides no real serialization (see `crates/compat`), and
//! the reports are flat records of strings, numbers and number arrays — a
//! [`Json`] value tree with a spec-compliant renderer covers them.

use crate::fabric::{SteadyStateSummary, TransferSummary};
use numfabric_sim::SimDuration;
use std::fmt::{self, Write};

/// The flow-size bins of Fig. 5, in bandwidth-delay products.
pub const FIG5_BINS: [(f64, f64); 5] = [
    (0.0, 5.0),
    (5.0, 10.0),
    (10.0, 100.0),
    (100.0, 1_000.0),
    (1_000.0, 10_000.0),
];

/// Human-readable labels for [`FIG5_BINS`].
pub const FIG5_BIN_LABELS: [&str; 5] = ["(0-5)", "(5-10)", "(10-100)", "(100-1K)", "(1K-10K)"];

/// The q-quantile (0 ≤ q ≤ 1) of a sample, by nearest-rank interpolation.
/// Returns `None` for an empty sample.
pub fn percentile(values: &[f64], q: f64) -> Option<f64> {
    if values.is_empty() {
        return None;
    }
    let mut v = values.to_vec();
    v.sort_by(|a, b| a.partial_cmp(b).unwrap_or(std::cmp::Ordering::Equal));
    let idx = ((v.len() as f64 - 1.0) * q.clamp(0.0, 1.0)).round() as usize;
    Some(v[idx])
}

/// Arithmetic mean; `None` for an empty sample.
pub fn mean(values: &[f64]) -> Option<f64> {
    if values.is_empty() {
        None
    } else {
        Some(values.iter().sum::<f64>() / values.len() as f64)
    }
}

/// Box-plot style summary (25th, 50th, 75th percentiles).
pub fn quartiles(values: &[f64]) -> Option<(f64, f64, f64)> {
    Some((
        percentile(values, 0.25)?,
        percentile(values, 0.50)?,
        percentile(values, 0.75)?,
    ))
}

/// Empirical CDF points `(value, cumulative probability)` at each sample.
pub fn cdf_points(values: &[f64]) -> Vec<(f64, f64)> {
    let mut v = values.to_vec();
    v.sort_by(|a, b| a.partial_cmp(b).unwrap_or(std::cmp::Ordering::Equal));
    let n = v.len();
    v.into_iter()
        .enumerate()
        .map(|(i, x)| (x, (i + 1) as f64 / n as f64))
        .collect()
}

/// A duration in whole microseconds (`350 us`), or `-` for none.
pub fn micros(d: Option<SimDuration>) -> String {
    d.map_or_else(|| "-".into(), |d| format!("{:.0} us", d.as_micros_f64()))
}

/// Convert optional convergence times to milliseconds, dropping events that
/// never converged.
pub fn times_ms(times: &[Option<SimDuration>]) -> Vec<f64> {
    times
        .iter()
        .filter_map(|t| t.map(|d| d.as_secs_f64() * 1e3))
        .collect()
}

/// Which Fig. 5 bin a flow of `size_bdp` bandwidth-delay products falls into.
pub fn fig5_bin(size_bdp: f64) -> Option<usize> {
    FIG5_BINS
        .iter()
        .position(|&(lo, hi)| size_bdp >= lo && size_bdp < hi)
}

/// A streaming quantile sketch with fixed memory and a guaranteed
/// *relative value error* of [`QuantileSketch::RELATIVE_ERROR`] — the
/// bounded-stats backbone of the churn scenario, where collecting a
/// million FCTs into a `Vec` and sorting (as [`percentile`] does) would
/// defeat the whole O(concurrent flows) memory budget.
///
/// The design is the classic geometric-bucket sketch: value `x` falls in
/// bucket `⌈ln x / ln γ⌉` with `γ = (1 + α)/(1 − α)`, and a bucket is
/// summarized by its midpoint-in-ratio `2γ^i/(γ + 1)`, so any estimate `e`
/// of a recorded value `x` satisfies `|e − x| ≤ α·x` for values in
/// `[1e-9, 1e12]` (seconds and slowdowns both live comfortably inside).
/// Values below the tracked range land in a dedicated zero bucket and
/// report as the sketch minimum; values above clamp to the top bucket.
/// The bucket layout is a pure function of the constants, so [`merge`]
/// (binwise sum) is exact: a merged sketch answers every quantile query
/// identically to one sketch that saw all the samples.
///
/// Quantile queries use the same nearest-rank convention as
/// [`percentile`] (`rank = round((n − 1)·q)`), so sketch-vs-exact
/// comparisons differ only by the relative error bound, never by rank
/// arithmetic.
///
/// [`merge`]: QuantileSketch::merge
#[derive(Debug, Clone, PartialEq)]
pub struct QuantileSketch {
    /// Geometric bucket counts, index 0 = bucket of `MIN_TRACKED`.
    counts: Vec<u64>,
    /// Samples below `MIN_TRACKED` (including exact zeros).
    zero: u64,
    count: u64,
    sum: f64,
    min: f64,
    max: f64,
}

impl QuantileSketch {
    /// The guaranteed relative value error `α` of every quantile estimate.
    pub const RELATIVE_ERROR: f64 = 0.01;
    /// Smallest tracked value; anything below lands in the zero bucket.
    const MIN_TRACKED: f64 = 1e-9;
    /// Largest tracked value; anything above clamps to the top bucket.
    const MAX_TRACKED: f64 = 1e12;

    fn gamma() -> f64 {
        (1.0 + Self::RELATIVE_ERROR) / (1.0 - Self::RELATIVE_ERROR)
    }

    /// Bucket index of `MIN_TRACKED` in the unshifted `⌈ln x / ln γ⌉` map.
    fn first_index() -> i64 {
        (Self::MIN_TRACKED.ln() / Self::gamma().ln()).ceil() as i64
    }

    /// An empty sketch. Allocates the full fixed bucket range up front
    /// (~2.4k buckets at α = 1 %, ≈19 KiB) — the footprint never grows.
    pub fn new() -> Self {
        let last = (Self::MAX_TRACKED.ln() / Self::gamma().ln()).ceil() as i64;
        let buckets = (last - Self::first_index() + 1) as usize;
        Self {
            counts: vec![0; buckets],
            zero: 0,
            count: 0,
            sum: 0.0,
            min: f64::INFINITY,
            max: f64::NEG_INFINITY,
        }
    }

    /// Record one sample. Negative and non-finite values are ignored —
    /// FCTs and slowdowns are nonnegative by construction, and a NaN must
    /// not poison the aggregates.
    pub fn record(&mut self, x: f64) {
        if !x.is_finite() || x < 0.0 {
            return;
        }
        self.count += 1;
        self.sum += x;
        self.min = self.min.min(x);
        self.max = self.max.max(x);
        if x < Self::MIN_TRACKED {
            self.zero += 1;
        } else {
            let i = (x.ln() / Self::gamma().ln()).ceil() as i64 - Self::first_index();
            let i = (i.max(0) as usize).min(self.counts.len() - 1);
            self.counts[i] += 1;
        }
    }

    /// Fold another sketch into this one. Bucket layouts are identical by
    /// construction, so this is a binwise sum — the merged sketch is
    /// indistinguishable from one that recorded both sample streams.
    pub fn merge(&mut self, other: &QuantileSketch) {
        debug_assert_eq!(self.counts.len(), other.counts.len());
        for (a, b) in self.counts.iter_mut().zip(&other.counts) {
            *a += *b;
        }
        self.zero += other.zero;
        self.count += other.count;
        self.sum += other.sum;
        self.min = self.min.min(other.min);
        self.max = self.max.max(other.max);
    }

    /// The q-quantile estimate (nearest rank, like [`percentile`]);
    /// `None` when the sketch is empty. Estimates are clamped into
    /// `[min, max]`, which tightens the extremes without weakening the
    /// relative-error bound.
    pub fn quantile(&self, q: f64) -> Option<f64> {
        if self.count == 0 {
            return None;
        }
        let rank = ((self.count - 1) as f64 * q.clamp(0.0, 1.0)).round() as u64;
        // The extreme ranks are tracked exactly — answer them exactly.
        if rank == 0 {
            return Some(self.min);
        }
        if rank == self.count - 1 {
            return Some(self.max);
        }
        if rank < self.zero {
            return Some(self.min);
        }
        let gamma = Self::gamma();
        let mut seen = self.zero;
        for (i, &c) in self.counts.iter().enumerate() {
            seen += c;
            if seen > rank {
                let idx = (i as i64 + Self::first_index()) as i32;
                let estimate = 2.0 * gamma.powi(idx) / (gamma + 1.0);
                return Some(estimate.clamp(self.min, self.max));
            }
        }
        Some(self.max)
    }

    /// Number of recorded samples.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Sum of recorded samples.
    pub fn sum(&self) -> f64 {
        self.sum
    }

    /// Arithmetic mean; `None` when empty. Exact (not sketched).
    pub fn mean(&self) -> Option<f64> {
        (self.count > 0).then(|| self.sum / self.count as f64)
    }

    /// Smallest recorded sample; `None` when empty. Exact.
    pub fn min(&self) -> Option<f64> {
        (self.count > 0).then_some(self.min)
    }

    /// Largest recorded sample; `None` when empty. Exact.
    pub fn max(&self) -> Option<f64> {
        (self.count > 0).then_some(self.max)
    }
}

impl Default for QuantileSketch {
    fn default() -> Self {
        Self::new()
    }
}

/// Fixed-size streaming accumulator for one traffic class of a churn run:
/// exact scalar aggregates next to FCT and slowdown sketches. Footprint is
/// O(1) per class no matter how many flows complete.
#[derive(Debug, Clone)]
pub struct ClassStats {
    /// Class name as reported (`"fg"`, `"bg"`, ...).
    pub name: &'static str,
    /// Completed flows attributed to this class.
    pub flows: u64,
    /// Bytes carried by those flows.
    pub bytes: u64,
    /// Flow-completion-time sketch, in seconds.
    pub fct: QuantileSketch,
    /// Slowdown sketch: FCT over the empty-network FCT bound. Can dip
    /// below 1 for tiny flows — the bound charges a full base RTT while
    /// the measured FCT ends at last-byte *delivery*, one way.
    pub slowdown: QuantileSketch,
}

impl ClassStats {
    /// An empty accumulator for class `name`.
    pub fn new(name: &'static str) -> Self {
        Self {
            name,
            flows: 0,
            bytes: 0,
            fct: QuantileSketch::new(),
            slowdown: QuantileSketch::new(),
        }
    }

    /// Record one completed flow.
    pub fn record(&mut self, size_bytes: u64, fct_seconds: f64, slowdown: f64) {
        self.flows += 1;
        self.bytes += size_bytes;
        self.fct.record(fct_seconds);
        self.slowdown.record(slowdown);
    }
}

/// Everything a churn run reports: offered/completed totals, the flow-slab
/// high-water marks, and the per-class accumulators. Deliberately carries
/// no wall-clock measurement — the report must be a pure function of the
/// configuration so the determinism matrix can compare raw bytes.
#[derive(Debug, Clone, Default)]
pub struct ChurnSummary {
    /// Flows offered by the arrival trace within the horizon.
    pub offered: u64,
    /// Flows that completed (drained flows included).
    pub completed: u64,
    /// Peak number of simultaneously live (non-retired) flows.
    pub peak_concurrent: usize,
    /// Flow slots ever allocated — the slab high-water mark.
    pub flow_slots: usize,
    /// Per-class accumulators, in mix order.
    pub classes: Vec<ClassStats>,
}

impl ChurnSummary {
    /// The sketch of all classes merged — overall FCT/slowdown quantiles.
    pub fn overall(&self) -> (QuantileSketch, QuantileSketch) {
        let mut fct = QuantileSketch::new();
        let mut slowdown = QuantileSketch::new();
        for class in &self.classes {
            fct.merge(&class.fct);
            slowdown.merge(&class.slowdown);
        }
        (fct, slowdown)
    }

    /// Total completed bytes across classes.
    pub fn completed_bytes(&self) -> u64 {
        self.classes.iter().map(|c| c.bytes).sum()
    }
}

/// The structured report of a churn run. Contains only simulation-derived
/// quantities (never wall-clock), so the rendered bytes are a pure
/// function of the run's options.
pub fn churn_report_json(
    topology: &str,
    protocol: &str,
    load: f64,
    duration_millis: u64,
    seed: u64,
    summary: &ChurnSummary,
) -> Json {
    let (fct, slowdown) = summary.overall();
    let horizon_secs = duration_millis as f64 / 1e3;
    let quant = |s: &QuantileSketch, q: f64| s.quantile(q).map_or(Json::Null, Json::Num);
    let classes = summary
        .classes
        .iter()
        .map(|c| {
            Json::Obj(vec![
                ("name", Json::str(c.name)),
                ("flows", Json::Int(c.flows)),
                ("bytes", Json::Int(c.bytes)),
                (
                    "mean_fct_seconds",
                    c.fct.mean().map_or(Json::Null, Json::Num),
                ),
                ("median_fct_seconds", quant(&c.fct, 0.5)),
                ("p99_fct_seconds", quant(&c.fct, 0.99)),
                ("median_slowdown", quant(&c.slowdown, 0.5)),
                ("p99_slowdown", quant(&c.slowdown, 0.99)),
            ])
        })
        .collect();
    Json::Obj(vec![
        ("scenario", Json::str("churn")),
        ("topology", Json::str(topology)),
        ("protocol", Json::str(protocol)),
        ("load", Json::Num(load)),
        ("duration_millis", Json::Int(duration_millis)),
        ("seed", Json::Int(seed)),
        ("offered_flows", Json::Int(summary.offered)),
        ("completed_flows", Json::Int(summary.completed)),
        (
            "peak_concurrent_flows",
            Json::Int(summary.peak_concurrent as u64),
        ),
        ("flow_slots", Json::Int(summary.flow_slots as u64)),
        ("median_fct_seconds", quant(&fct, 0.5)),
        ("p99_fct_seconds", quant(&fct, 0.99)),
        ("p999_fct_seconds", quant(&fct, 0.999)),
        ("median_slowdown", quant(&slowdown, 0.5)),
        ("p99_slowdown", quant(&slowdown, 0.99)),
        (
            "goodput_bps",
            Json::Num(summary.completed_bytes() as f64 * 8.0 / horizon_secs),
        ),
        ("classes", Json::Arr(classes)),
    ])
}

/// A JSON value, rendered by [`Json::render`].
#[derive(Debug, Clone, PartialEq)]
pub enum Json {
    /// `null` (also what non-finite numbers render as).
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// An integer (kept exact; never formatted in float notation).
    Int(u64),
    /// A floating-point number; NaN/inf render as `null` per the JSON spec.
    Num(f64),
    /// A string (escaped on render).
    Str(String),
    /// An array.
    Arr(Vec<Json>),
    /// An object; insertion order is preserved.
    Obj(Vec<(&'static str, Json)>),
}

impl Json {
    /// A string value.
    pub fn str(s: impl Into<String>) -> Json {
        Json::Str(s.into())
    }

    /// An array of floats.
    pub fn nums(values: impl IntoIterator<Item = f64>) -> Json {
        Json::Arr(values.into_iter().map(Json::Num).collect())
    }

    /// Render to a compact, spec-compliant JSON string.
    pub fn render(&self) -> String {
        let mut out = String::new();
        self.render_into(&mut out);
        out
    }

    fn render_into(&self, out: &mut String) {
        match self {
            Json::Null => out.push_str("null"),
            Json::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
            Json::Int(i) => {
                let _ = write!(out, "{i}");
            }
            Json::Num(x) => {
                if x.is_finite() {
                    // `{:?}` is the shortest round-trip representation and
                    // always includes a `.` or exponent — valid JSON.
                    let _ = write!(out, "{x:?}");
                } else {
                    out.push_str("null");
                }
            }
            Json::Str(s) => {
                out.push('"');
                for c in s.chars() {
                    match c {
                        '"' => out.push_str("\\\""),
                        '\\' => out.push_str("\\\\"),
                        '\n' => out.push_str("\\n"),
                        '\r' => out.push_str("\\r"),
                        '\t' => out.push_str("\\t"),
                        c if (c as u32) < 0x20 => {
                            let _ = write!(out, "\\u{:04x}", c as u32);
                        }
                        c => out.push(c),
                    }
                }
                out.push('"');
            }
            Json::Arr(items) => {
                out.push('[');
                for (i, item) in items.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    item.render_into(out);
                }
                out.push(']');
            }
            Json::Obj(fields) => {
                out.push('{');
                for (i, (k, v)) in fields.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    Json::Str((*k).to_string()).render_into(out);
                    out.push(':');
                    v.render_into(out);
                }
                out.push('}');
            }
        }
    }
}

/// The structured report of a finite-transfer scenario run (incast,
/// shuffle): scenario identity, per-flow FCTs and the aggregate summary.
pub fn transfer_report_json(
    scenario: &str,
    topology: &str,
    protocol: &str,
    size_bytes: u64,
    seed: u64,
    summary: &TransferSummary,
) -> Json {
    Json::Obj(vec![
        ("scenario", Json::str(scenario)),
        ("topology", Json::str(topology)),
        ("protocol", Json::str(protocol)),
        ("size_bytes", Json::Int(size_bytes)),
        ("seed", Json::Int(seed)),
        ("flows", Json::Int(summary.flows as u64)),
        ("completed", Json::Int(summary.completed as u64)),
        ("fct_seconds", Json::nums(summary.fcts.iter().copied())),
        (
            "median_fct_seconds",
            percentile(&summary.fcts, 0.5).map_or(Json::Null, Json::Num),
        ),
        (
            "p99_fct_seconds",
            percentile(&summary.fcts, 0.99).map_or(Json::Null, Json::Num),
        ),
        (
            "makespan_seconds",
            summary
                .makespan
                .map_or(Json::Null, |m| Json::Num(m.as_secs_f64())),
        ),
        ("goodput_bps", Json::Num(summary.aggregate_goodput_bps())),
    ])
}

/// The structured report of a steady-state scenario run (stride): measured
/// per-flow rates next to the fluid NUM oracle's allocation.
pub fn steady_state_report_json(
    scenario: &str,
    topology: &str,
    protocol: &str,
    seed: u64,
    run_millis: u64,
    summary: &SteadyStateSummary,
) -> Json {
    Json::Obj(vec![
        ("scenario", Json::str(scenario)),
        ("topology", Json::str(topology)),
        ("protocol", Json::str(protocol)),
        ("seed", Json::Int(seed)),
        ("run_millis", Json::Int(run_millis)),
        ("flows", Json::Int(summary.rates_bps.len() as u64)),
        ("rates_bps", Json::nums(summary.rates_bps.iter().copied())),
        ("oracle_bps", Json::nums(summary.oracle_bps.iter().copied())),
        (
            "fraction_within_10pct",
            Json::Num(summary.fraction_within(0.10)),
        ),
        ("throughput_ratio", Json::Num(summary.throughput_ratio())),
    ])
}

/// What a scenario run produced. `numfabric-run` prints one of its two
/// halves: the JSON document with `--json` (only a scenario whose usage
/// declares `--json` builds one), else the human text.
#[derive(Debug, Clone, Default)]
pub struct Report {
    /// The human-readable report, newline-terminated lines.
    pub text: String,
    /// The machine-readable report.
    pub json: Option<Json>,
}

impl Report {
    /// Append to the text: `writeln!(report, ...)` cannot fail.
    pub fn write_fmt(&mut self, args: fmt::Arguments<'_>) {
        let _ = self.text.write_fmt(args);
    }

    /// Append a table with a header row and aligned columns.
    pub fn table(&mut self, headers: &[impl AsRef<str>], rows: &[Vec<String>]) {
        let mut widths: Vec<usize> = headers.iter().map(|h| h.as_ref().len()).collect();
        for row in rows {
            for (i, cell) in row.iter().enumerate() {
                if i < widths.len() {
                    widths[i] = widths[i].max(cell.len());
                }
            }
        }
        let mut line = |cells: &[String]| {
            let formatted: Vec<String> = cells
                .iter()
                .enumerate()
                .map(|(i, c)| format!("{:>width$}", c, width = widths.get(i).copied().unwrap_or(8)))
                .collect();
            writeln!(self, "  {}", formatted.join("  "));
        };
        line(
            &headers
                .iter()
                .map(|h| h.as_ref().to_string())
                .collect::<Vec<_>>(),
        );
        line(&widths.iter().map(|w| "-".repeat(*w)).collect::<Vec<_>>());
        for row in rows {
            line(row);
        }
    }

    /// Append a CDF as rows `value  probability`, downsampled to at most
    /// `max_rows` rows.
    pub fn cdf(&mut self, label: &str, values: &[f64], unit: &str, max_rows: usize) {
        let points = cdf_points(values);
        if points.is_empty() {
            writeln!(self, "{label}: no samples");
            return;
        }
        writeln!(self, "{label} ({} samples):", points.len());
        let step = (points.len() / max_rows.max(1)).max(1);
        for (i, (x, p)) in points.iter().enumerate() {
            if i % step == 0 || i == points.len() - 1 {
                writeln!(self, "  {x:>12.1} {unit}   P = {p:.3}");
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentile_and_mean_basics() {
        let v: Vec<f64> = (1..=100).map(|i| i as f64).collect();
        assert_eq!(percentile(&v, 0.0), Some(1.0));
        assert_eq!(percentile(&v, 1.0), Some(100.0));
        let med = percentile(&v, 0.5).unwrap();
        assert!((med - 50.0).abs() <= 1.0);
        assert_eq!(mean(&v), Some(50.5));
        assert_eq!(percentile(&[], 0.5), None);
        assert_eq!(mean(&[]), None);
    }

    #[test]
    fn quartiles_are_ordered() {
        let v: Vec<f64> = (0..1000).map(|i| (i as f64).sin().abs() * 10.0).collect();
        let (q1, q2, q3) = quartiles(&v).unwrap();
        assert!(q1 <= q2 && q2 <= q3);
    }

    #[test]
    fn cdf_is_monotone_and_ends_at_one() {
        let points = cdf_points(&[3.0, 1.0, 2.0, 2.0]);
        assert_eq!(points.len(), 4);
        assert!((points.last().unwrap().1 - 1.0).abs() < 1e-12);
        for w in points.windows(2) {
            assert!(w[1].0 >= w[0].0 && w[1].1 >= w[0].1);
        }
    }

    #[test]
    fn fig5_binning_matches_paper_bins() {
        assert_eq!(fig5_bin(0.5), Some(0));
        assert_eq!(fig5_bin(7.0), Some(1));
        assert_eq!(fig5_bin(50.0), Some(2));
        assert_eq!(fig5_bin(500.0), Some(3));
        assert_eq!(fig5_bin(5_000.0), Some(4));
        assert_eq!(fig5_bin(50_000.0), None);
    }

    #[test]
    fn json_renders_scalars_arrays_and_escapes() {
        assert_eq!(Json::Null.render(), "null");
        assert_eq!(Json::Bool(true).render(), "true");
        assert_eq!(Json::Int(42).render(), "42");
        assert_eq!(Json::Num(0.5).render(), "0.5");
        assert_eq!(Json::Num(1.0).render(), "1.0");
        assert_eq!(Json::Num(f64::NAN).render(), "null");
        assert_eq!(Json::Num(f64::INFINITY).render(), "null");
        assert_eq!(
            Json::str("a\"b\\c\nd\u{1}").render(),
            r#""a\"b\\c\nd\u0001""#
        );
        assert_eq!(Json::nums([1.5, 2.0]).render(), "[1.5,2.0]");
        let obj = Json::Obj(vec![("k", Json::Int(1)), ("s", Json::str("v"))]);
        assert_eq!(obj.render(), r#"{"k":1,"s":"v"}"#);
    }

    #[test]
    fn transfer_report_has_the_contract_fields() {
        let summary = TransferSummary {
            flows: 4,
            completed: 3,
            fcts: vec![0.001, 0.002, 0.004],
            completed_bytes: 300_000,
            makespan: Some(SimDuration::from_millis(4)),
        };
        let json =
            transfer_report_json("incast", "fat-tree k=4", "numfabric", 100_000, 7, &summary)
                .render();
        for needle in [
            r#""scenario":"incast""#,
            r#""topology":"fat-tree k=4""#,
            r#""protocol":"numfabric""#,
            r#""flows":4"#,
            r#""completed":3"#,
            r#""fct_seconds":[0.001,0.002,0.004]"#,
            r#""median_fct_seconds":0.002"#,
            r#""makespan_seconds":0.004"#,
        ] {
            assert!(json.contains(needle), "missing {needle} in {json}");
        }
    }

    #[test]
    fn steady_state_report_has_the_contract_fields() {
        let summary = crate::fabric::SteadyStateSummary {
            rates_bps: vec![5e9, 4.8e9],
            oracle_bps: vec![5e9, 5e9],
        };
        let json =
            steady_state_report_json("stride", "leaf-spine", "dctcp", 3, 8, &summary).render();
        for needle in [
            r#""scenario":"stride""#,
            r#""run_millis":8"#,
            r#""rates_bps":[5000000000.0,4800000000.0]"#,
            r#""fraction_within_10pct":1.0"#,
        ] {
            assert!(json.contains(needle), "missing {needle} in {json}");
        }
    }

    #[test]
    fn empty_transfer_report_uses_nulls_not_nans() {
        let summary = TransferSummary {
            flows: 2,
            completed: 0,
            fcts: Vec::new(),
            completed_bytes: 0,
            makespan: None,
        };
        let json = transfer_report_json("shuffle", "t", "p", 1, 1, &summary).render();
        assert!(json.contains(r#""median_fct_seconds":null"#), "{json}");
        assert!(json.contains(r#""makespan_seconds":null"#), "{json}");
        assert!(!json.contains("NaN"), "{json}");
    }

    #[test]
    fn sketch_tracks_quantiles_within_the_documented_bound() {
        let mut sketch = QuantileSketch::new();
        let values: Vec<f64> = (1..=10_000).map(|i| i as f64 * 1e-4).collect();
        for &v in &values {
            sketch.record(v);
        }
        for q in [0.0, 0.1, 0.5, 0.9, 0.99, 0.999, 1.0] {
            let exact = percentile(&values, q).unwrap();
            let est = sketch.quantile(q).unwrap();
            assert!(
                (est - exact).abs() <= QuantileSketch::RELATIVE_ERROR * exact + 1e-12,
                "q={q}: est={est}, exact={exact}"
            );
        }
        assert_eq!(sketch.count(), 10_000);
        assert_eq!(sketch.min(), Some(1e-4));
        assert_eq!(sketch.max(), Some(1.0));
        assert!((sketch.mean().unwrap() - 0.50005).abs() < 1e-9);
    }

    #[test]
    fn merged_sketch_answers_like_a_single_sketch() {
        let mut single = QuantileSketch::new();
        let mut left = QuantileSketch::new();
        let mut right = QuantileSketch::new();
        for i in 0..5_000 {
            let v = (i as f64 * 0.7129).sin().abs() * 100.0 + 1e-3;
            single.record(v);
            if i % 2 == 0 {
                left.record(v);
            } else {
                right.record(v);
            }
        }
        left.merge(&right);
        assert_eq!(left.count(), single.count());
        for q in [0.0, 0.25, 0.5, 0.75, 0.99, 1.0] {
            assert_eq!(left.quantile(q), single.quantile(q), "q={q}");
        }
    }

    #[test]
    fn sketch_handles_empty_zero_and_junk_inputs() {
        let mut sketch = QuantileSketch::new();
        assert_eq!(sketch.quantile(0.5), None);
        assert_eq!(sketch.mean(), None);
        sketch.record(f64::NAN);
        sketch.record(f64::INFINITY);
        sketch.record(-1.0);
        assert_eq!(sketch.count(), 0, "junk must be ignored");
        sketch.record(0.0);
        sketch.record(1e-15);
        sketch.record(2.0);
        assert_eq!(sketch.count(), 3);
        // Ranks 0 and 1 land in the zero bucket and report the exact min.
        assert_eq!(sketch.quantile(0.0), Some(0.0));
        assert_eq!(sketch.quantile(1.0), Some(2.0));
    }

    #[test]
    fn churn_report_has_the_contract_fields_and_no_wall_clock() {
        let mut fg = ClassStats::new("fg");
        fg.record(10_000, 0.001, 1.5);
        fg.record(20_000, 0.002, 2.0);
        let mut bg = ClassStats::new("bg");
        bg.record(1_000_000, 0.1, 4.0);
        let summary = ChurnSummary {
            offered: 4,
            completed: 3,
            peak_concurrent: 2,
            flow_slots: 2,
            classes: vec![fg, bg],
        };
        let json = churn_report_json("fat-tree k=8", "numfabric", 0.6, 200, 9, &summary).render();
        for needle in [
            r#""scenario":"churn""#,
            r#""load":0.6"#,
            r#""offered_flows":4"#,
            r#""completed_flows":3"#,
            r#""peak_concurrent_flows":2"#,
            r#""flow_slots":2"#,
            r#""median_fct_seconds""#,
            r#""p99_slowdown""#,
            r#""name":"fg""#,
            r#""name":"bg""#,
        ] {
            assert!(json.contains(needle), "missing {needle} in {json}");
        }
        for forbidden in ["wall", "elapsed", "walltime"] {
            assert!(!json.contains(forbidden), "wall-clock leaked into {json}");
        }
    }

    #[test]
    fn times_ms_drops_unconverged_events() {
        let times = vec![
            Some(SimDuration::from_micros(500)),
            None,
            Some(SimDuration::from_millis(2)),
        ];
        let ms = times_ms(&times);
        assert_eq!(ms.len(), 2);
        assert!((ms[0] - 0.5).abs() < 1e-9);
        assert!((ms[1] - 2.0).abs() < 1e-9);
    }
}
