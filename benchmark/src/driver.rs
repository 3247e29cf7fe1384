//! The parent side: run each simulation in a fresh child process, gather
//! the results, and reduce them to the published numbers.
//!
//! **How a number is taken.** Interference on a shared machine is bursty
//! and one-sided — the instruction stream is deterministic, neighbours only
//! ever add time — so a timing metric's value is the *best* of its repeats,
//! and the median and maximum are kept beside it. When the median sits
//! further above the best than the metric's bound, the row is `unresolved`:
//! printed, but not a number to compare. The parent only sleeps while a
//! child runs; a child runs one thread (two epoch workers with the
//! coordinator blocked on them, on the threaded workload).

use crate::json::Json;
use crate::metrics::{self, Better, EndToEnd, END_TO_END, PER_LAYER};
use crate::run::{median, RunResult};
use crate::workloads::Workload;
use std::collections::HashMap;
use std::path::PathBuf;
use std::process::{Command, Stdio};
use std::time::{Duration, Instant};

/// A child that has not finished by then is killed and reported.
const CHILD_TIMEOUT: Duration = Duration::from_secs(120);

/// Runs children and keeps what they returned, per workload.
pub struct Session {
    seed: u64,
    quick: bool,
    /// Directory for the children's result files.
    scratch: PathBuf,
    untraced: HashMap<Workload, Vec<RunResult>>,
    traced: HashMap<Workload, Vec<RunResult>>,
}

impl Session {
    /// A session whose every run uses `seed` (and tenth-scale work if
    /// `quick`); children hand their results over through `scratch`.
    pub fn new(seed: u64, quick: bool, scratch: PathBuf) -> Self {
        Self {
            seed,
            quick,
            scratch,
            untraced: HashMap::new(),
            traced: HashMap::new(),
        }
    }

    /// Run `workload` once in a fresh child process and keep the result.
    /// Returns how long the child took in all.
    pub fn run_child(&mut self, workload: Workload, traced: bool) -> Result<Duration, String> {
        let start = Instant::now();
        let exe =
            std::env::current_exe().map_err(|e| format!("cannot find own executable: {e}"))?;
        // The child writes its result to a file, not a pipe: nothing then
        // depends on the parent reading while it waits.
        std::fs::create_dir_all(&self.scratch)
            .map_err(|e| format!("cannot create {}: {e}", self.scratch.display()))?;
        let path = self
            .scratch
            .join(format!("child-{}.json", std::process::id()));
        let stdout = std::fs::File::create(&path)
            .map_err(|e| format!("cannot create {}: {e}", path.display()))?;
        let mut command = Command::new(exe);
        command
            .args(["child", "--workload", workload.name()])
            .args(["--seed", &self.seed.to_string()])
            .args(["--trace", if traced { "1" } else { "0" }])
            .stdin(Stdio::null())
            .stdout(stdout)
            .stderr(Stdio::inherit());
        if self.quick {
            command.arg("--quick");
        }
        let mut child = command
            .spawn()
            .map_err(|e| format!("cannot start child: {e}"))?;
        let status = loop {
            match child.try_wait() {
                Ok(Some(status)) => break status,
                Ok(None) if start.elapsed() > CHILD_TIMEOUT => {
                    // Stop it and wait until it has ended before reporting.
                    let _ = child.kill();
                    let _ = child.wait();
                    return Err(format!("{} child timed out", workload.name()));
                }
                Ok(None) => std::thread::sleep(Duration::from_millis(5)),
                Err(e) => {
                    let _ = child.kill();
                    let _ = child.wait();
                    return Err(format!("cannot wait for child: {e}"));
                }
            }
        };
        let output = std::fs::read_to_string(&path)
            .map_err(|e| format!("cannot read {}: {e}", path.display()))?;
        let _ = std::fs::remove_file(&path);
        if !status.success() {
            return Err(format!("{} child exited with {status}", workload.name()));
        }
        let line = output.lines().last().unwrap_or_default();
        let result = RunResult::from_json(&Json::parse(line)?)?;
        eprintln!(
            "  {} {}: wall {:.3} s, cpu {:.2} s, set-up {:.6} s, peak {:.1} MiB",
            workload.name(),
            if traced { "traced" } else { "untraced" },
            result.wall_s,
            result.cpu_s,
            result.setup_s(),
            result.peak_rss_mb
        );
        let runs = if traced {
            &mut self.traced
        } else {
            &mut self.untraced
        };
        runs.entry(workload).or_default().push(result);
        Ok(start.elapsed())
    }

    /// Keep running `round` (one or more children) until the next round
    /// would overrun `seconds`; at least `min_rounds` rounds.
    pub fn repeat_for(
        &mut self,
        seconds: f64,
        min_rounds: usize,
        already_spent: Duration,
        mut round: impl FnMut(&mut Session) -> Result<Duration, String>,
    ) -> Result<(), String> {
        let mut spent = already_spent.as_secs_f64();
        let mut rounds = 0usize;
        let mut longest = 0.0f64;
        while rounds < min_rounds || spent + longest <= seconds {
            let took = round(self)?.as_secs_f64();
            spent += took;
            longest = longest.max(took);
            rounds += 1;
        }
        Ok(())
    }

    fn runs(&self, workload: Workload, traced: bool) -> &[RunResult] {
        let runs = if traced { &self.traced } else { &self.untraced };
        runs.get(&workload).map_or(&[], Vec::as_slice)
    }

    /// Reduce everything gathered for `workload` to its summary.
    pub fn summarize(&self, workload: Workload) -> Summary {
        let untraced = self.runs(workload, false);
        let traced = self.runs(workload, true);
        let reference = workload
            .reference()
            .map(|r| self.runs(r, false))
            .unwrap_or_default();
        summarize(workload, untraced, traced, reference)
    }
}

/// Best, median and worst of a metric's repeats.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Spread {
    /// Best value (the published one).
    pub best: f64,
    /// Median.
    pub median: f64,
    /// Worst value.
    pub worst: f64,
    /// Number of repeats.
    pub n: usize,
}

impl Spread {
    /// Reduce `values`, of which `better` says which end is best.
    pub fn of(values: &[f64], better: Better) -> Spread {
        let lowest = values.iter().copied().fold(f64::INFINITY, f64::min);
        let highest = values.iter().copied().fold(f64::NEG_INFINITY, f64::max);
        let (best, worst) = match better {
            Better::Lower => (lowest, highest),
            Better::Higher => (highest, lowest),
        };
        Spread {
            best,
            median: median(values),
            worst,
            n: values.len(),
        }
    }

    /// Distance from the best repeat to the median one, as a share of the
    /// best.
    pub fn median_excess(&self) -> f64 {
        (self.median - self.best).abs() / self.best.abs().max(f64::MIN_POSITIVE)
    }

    /// Whether the repeats agree well enough for the best to be compared
    /// against `bound`.
    pub fn resolved(&self, bound: f64) -> bool {
        self.median_excess() <= bound
    }
}

/// One end-to-end metric of one workload.
#[derive(Debug, Clone, PartialEq)]
pub struct EndToEndValue {
    /// Which metric.
    pub metric: &'static EndToEnd,
    /// The published value.
    pub value: f64,
    /// The repeats it was taken from.
    pub spread: Spread,
}

/// Everything the benchmark says about one workload.
#[derive(Debug, Clone)]
pub struct Summary {
    /// The workload.
    pub workload: Workload,
    /// End-to-end metrics (empty without untraced runs).
    pub end_to_end: Vec<EndToEndValue>,
    /// Per-layer metrics by name (empty without traced runs).
    pub per_layer: Vec<(&'static str, f64)>,
    /// Flows offered.
    pub attempted: u64,
    /// Flows that failed.
    pub failed: u64,
    /// The simulated outcome's fingerprint.
    pub fingerprint: u64,
    /// Events the simulation processed.
    pub events: u64,
    /// Correctness checks that did not hold; empty when all did.
    pub check_failures: Vec<String>,
}

fn values(runs: &[RunResult], f: impl Fn(&RunResult) -> f64) -> Vec<f64> {
    runs.iter().map(f).collect()
}

fn summarize(
    workload: Workload,
    untraced: &[RunResult],
    traced: &[RunResult],
    reference: &[RunResult],
) -> Summary {
    let mut check_failures = Vec::new();
    let Some(first) = untraced.first().or(traced.first()) else {
        return Summary {
            workload,
            end_to_end: Vec::new(),
            per_layer: Vec::new(),
            attempted: 0,
            failed: 0,
            fingerprint: 0,
            events: 0,
            check_failures: vec![format!("{}: no run was made", workload.name())],
        };
    };

    // Every repeat, traced or not, must have simulated the same thing — the
    // wrappers are transparent — and so must the 1×1 reference, if any.
    for run in untraced.iter().chain(traced).chain(reference) {
        if (run.fingerprint, run.events, run.offered, run.failed)
            != (first.fingerprint, first.events, first.offered, first.failed)
        {
            check_failures.push(format!(
                "{} {} run disagrees: fingerprint {:016x} events {} vs {:016x} / {}",
                run.workload.name(),
                if run.traced { "traced" } else { "untraced" },
                run.fingerprint,
                run.events,
                first.fingerprint,
                first.events
            ));
        }
        check_failures.extend(run.check_failures.iter().cloned());
    }
    if workload.reference().is_some() && reference.is_empty() {
        check_failures.push(format!("{}: no reference run to compare", workload.name()));
    }
    check_failures.sort();
    check_failures.dedup();

    let end_to_end = if untraced.is_empty() {
        Vec::new()
    } else {
        let bytes = first.bytes_delivered as f64;
        END_TO_END
            .iter()
            .map(|metric| {
                let repeats = match metric.name {
                    "setup_s" => values(untraced, RunResult::setup_s),
                    "wall_s" => values(untraced, |r| r.wall_s),
                    "cpu_s" => values(untraced, |r| r.cpu_s),
                    "sim_bytes_per_s" => values(untraced, |r| bytes / r.wall_s),
                    "peak_rss_mb" => values(untraced, |r| r.peak_rss_mb),
                    other => unreachable!("end-to-end metric {other} has no source"),
                };
                let spread = Spread::of(&repeats, metric.better);
                // Set-up is already a median of many iterations per child,
                // and memory is not subject to one-sided timing noise: both
                // publish the median of the children. Times publish the best.
                let value = match metric.name {
                    "setup_s" | "peak_rss_mb" => spread.median,
                    _ => spread.best,
                };
                EndToEndValue {
                    metric,
                    value,
                    spread,
                }
            })
            .collect()
    };

    let per_layer = if traced.is_empty() {
        Vec::new()
    } else {
        let best = |runs: &[RunResult], f: fn(&RunResult) -> f64| {
            values(runs, f).into_iter().fold(f64::INFINITY, f64::min)
        };
        let wall = best(untraced, |r| r.wall_s);
        let cpu = best(untraced, |r| r.cpu_s);
        let events = first.events as f64;
        PER_LAYER
            .iter()
            .map(|metric| {
                let value = match metric.name {
                    // Whole-run rates come from the untraced repeats.
                    "sim.network.ns_per_event" => cpu * 1e9 / events,
                    "sim.network.events_per_s" => events / wall,
                    "trace.overhead_frac" => best(traced, |r| r.wall_s) / wall - 1.0,
                    // What the threaded execution buys, against the 1×1
                    // reference; 1 for a workload that is its own reference.
                    "sim.network.parallel_speedup" if !reference.is_empty() => {
                        best(reference, |r| r.wall_s) / wall
                    }
                    "sim.network.parallel_cpu_ratio" if !reference.is_empty() => {
                        cpu / best(reference, |r| r.cpu_s)
                    }
                    "sim.network.parallel_speedup" | "sim.network.parallel_cpu_ratio" => 1.0,
                    name => median(
                        &traced
                            .iter()
                            .map(|r| r.layer(name).unwrap_or(0.0))
                            .collect::<Vec<_>>(),
                    ),
                };
                (metric.name, if value.is_finite() { value } else { 0.0 })
            })
            .collect()
    };

    // Exact metrics must repeat exactly between traced runs.
    for metric in PER_LAYER.iter().filter(|m| m.exact) {
        let mut seen = traced.iter().filter_map(|r| r.layer(metric.name));
        if let Some(head) = seen.next() {
            if seen.any(|v| v != head) {
                check_failures.push(format!(
                    "{}: exact metric {} differs between traced runs",
                    workload.name(),
                    metric.name
                ));
            }
        }
    }

    Summary {
        workload,
        end_to_end,
        per_layer,
        attempted: first.offered,
        failed: first.failed,
        fingerprint: first.fingerprint,
        events: first.events,
        check_failures,
    }
}

impl Summary {
    /// Whether every correctness check held.
    pub fn correct(&self) -> bool {
        self.check_failures.is_empty()
    }

    /// The one-line result the benchmark contract asks for: end-to-end
    /// metrics of an untraced measurement, per-layer ones of a traced one.
    pub fn contract_line(&self, traced: bool) -> Json {
        let mut out = Json::obj();
        if traced {
            for &(name, value) in &self.per_layer {
                let unit = metrics::per_layer(name).expect("listed metric").unit;
                out.set(name, Json::obj().with("value", value).with("unit", unit));
            }
        } else {
            for e in &self.end_to_end {
                out.set(
                    e.metric.name,
                    Json::obj()
                        .with("value", e.value)
                        .with("unit", e.metric.unit),
                );
            }
        }
        Json::obj()
            .with("correct", self.correct())
            .with("attempted", self.attempted.max(1))
            .with("failed", self.failed)
            .with("metrics", out)
    }

    /// The workload's section of a result file.
    pub fn to_json(&self) -> Json {
        let mut end_to_end = Json::obj();
        for e in &self.end_to_end {
            end_to_end.set(
                e.metric.name,
                Json::obj()
                    .with("value", e.value)
                    .with("unit", e.metric.unit)
                    .with("better", e.metric.better.as_str())
                    .with("bound", e.metric.bound)
                    .with("best", e.spread.best)
                    .with("median", e.spread.median)
                    .with("worst", e.spread.worst)
                    .with("repeats", e.spread.n)
                    .with("resolved", e.spread.resolved(e.metric.bound)),
            );
        }
        let mut per_layer = Json::obj();
        for &(name, value) in &self.per_layer {
            let metric = metrics::per_layer(name).expect("listed metric");
            per_layer.set(
                name,
                Json::obj()
                    .with("value", value)
                    .with("unit", metric.unit)
                    .with("exact", metric.exact),
            );
        }
        let failed_frac = self.failed as f64 / self.attempted.max(1) as f64;
        Json::obj()
            .with("correct", self.correct())
            .with(
                "check_failures",
                self.check_failures
                    .iter()
                    .map(|f| Json::from(f.as_str()))
                    .collect::<Vec<_>>(),
            )
            .with("flows_offered", self.attempted)
            .with("flows_failed", self.failed)
            .with("failed_frac", failed_frac)
            .with("fingerprint", format!("{:016x}", self.fingerprint))
            .with("events", self.events)
            .with("end_to_end", end_to_end)
            .with("per_layer", per_layer)
    }

    /// A table of the end-to-end rows for people, one line per metric.
    pub fn table(&self) -> String {
        let mut out = format!(
            "{}: {} flows offered, {} failed, {} events, fingerprint {:016x}{}\n",
            self.workload.name(),
            self.attempted,
            self.failed,
            self.events,
            self.fingerprint,
            if self.correct() {
                ""
            } else {
                "  ** CHECKS FAILED **"
            }
        );
        for e in &self.end_to_end {
            out += &format!(
                "  {:<16} {:>14.6} {:<4} best {:.6} median {:.6} worst {:.6} (n={}){}\n",
                e.metric.name,
                e.value,
                e.metric.unit,
                e.spread.best,
                e.spread.median,
                e.spread.worst,
                e.spread.n,
                if e.spread.resolved(e.metric.bound) {
                    ""
                } else {
                    "  unresolved"
                }
            );
        }
        for failure in &self.check_failures {
            out += &format!("  check failed: {failure}\n");
        }
        out
    }
}

/// A complete result file: every workload's summary under one seed.
pub fn document(seed: u64, quick: bool, summaries: &[Summary]) -> Json {
    let mut workloads = Json::obj();
    for summary in summaries {
        workloads.set(summary.workload.name(), summary.to_json());
    }
    Json::obj()
        .with("schema", 1u64)
        .with("seed", seed)
        .with("quick", quick)
        .with(
            "threads_available",
            std::thread::available_parallelism().map_or(0, usize::from),
        )
        .with(
            "validation",
            "stride-steady is checked against the fluid NUM oracle; the packet model is \
             otherwise unvalidated against hardware, so no error figure is given",
        )
        .with("correct", summaries.iter().all(Summary::correct))
        .with("workloads", workloads)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn run(workload: Workload, traced: bool, wall_s: f64, fingerprint: u64) -> RunResult {
        RunResult {
            workload,
            seed: 1,
            traced,
            setup_iterations_s: vec![0.010, 0.012, 0.050],
            wall_s,
            cpu_s: wall_s * 0.99,
            peak_rss_mb: 8.0,
            bytes_delivered: 1_000_000,
            offered: 100,
            failed: 0,
            events: 5_000,
            fingerprint,
            check_failures: Vec::new(),
            layers: vec![
                ("sim.network.events".to_string(), 5_000.0),
                ("sim.queue.busy_s".to_string(), wall_s / 4.0),
            ],
            spans: Json::Null,
        }
    }

    #[test]
    fn a_time_is_the_best_of_its_repeats_and_set_up_the_median() {
        let w = Workload::ChurnWs;
        let runs: Vec<_> = [2.2, 2.0, 2.1, 2.9, 2.05]
            .into_iter()
            .map(|wall| run(w, false, wall, 7))
            .collect();
        let s = summarize(w, &runs, &[], &[]);
        assert!(s.correct(), "{:?}", s.check_failures);
        let get = |name| s.end_to_end.iter().find(|e| e.metric.name == name).unwrap();
        assert_eq!(get("wall_s").value, 2.0);
        assert_eq!(get("wall_s").spread.median, 2.1);
        assert_eq!(get("wall_s").spread.worst, 2.9);
        assert_eq!(get("sim_bytes_per_s").value, 500_000.0);
        assert_eq!(get("sim_bytes_per_s").spread.worst, 1_000_000.0 / 2.9);
        assert_eq!(get("setup_s").value, 0.012);
        assert!(get("wall_s").spread.resolved(0.10));
    }

    #[test]
    fn repeats_that_disagree_beyond_the_bound_are_unresolved() {
        let tight = Spread::of(&[1.00, 1.02, 1.04, 1.05, 1.30], Better::Lower);
        assert!(tight.resolved(0.05));
        let loose = Spread::of(&[1.00, 1.20, 1.25, 1.30, 1.31], Better::Lower);
        assert!((loose.median_excess() - 0.25).abs() < 1e-12);
        assert!(!loose.resolved(0.10));
        let rate = Spread::of(&[100.0, 80.0, 70.0], Better::Higher);
        assert_eq!((rate.best, rate.worst), (100.0, 70.0));
        assert!(!rate.resolved(0.10));
    }

    #[test]
    fn a_run_that_simulated_something_else_fails_the_checks() {
        let w = Workload::ChurnWsP2t2;
        let untraced = [run(w, false, 2.0, 7), run(w, false, 2.1, 7)];
        let reference = [run(Workload::ChurnWs, false, 1.8, 7)];
        assert!(summarize(w, &untraced, &[], &reference).correct());
        // no reference at all
        assert!(!summarize(w, &untraced, &[], &[]).correct());
        // the reference simulated something else
        let other = [run(Workload::ChurnWs, false, 1.8, 8)];
        assert!(!summarize(w, &untraced, &[], &other).correct());
        // a traced run that is not transparent
        let traced = [run(w, true, 3.0, 9)];
        assert!(!summarize(w, &untraced, &traced, &reference).correct());
    }

    #[test]
    fn per_layer_values_combine_traced_and_untraced_runs() {
        let w = Workload::ChurnWsP2t2;
        let untraced = [run(w, false, 2.0, 7)];
        let traced = [run(w, true, 3.0, 7), run(w, true, 3.4, 7)];
        let reference = [run(Workload::ChurnWs, false, 1.6, 7)];
        let s = summarize(w, &untraced, &traced, &reference);
        assert!(s.correct(), "{:?}", s.check_failures);
        assert_eq!(s.per_layer.len(), PER_LAYER.len());
        let get = |name| s.per_layer.iter().find(|(n, _)| *n == name).unwrap().1;
        assert!((get("trace.overhead_frac") - 0.5).abs() < 1e-12);
        assert!((get("sim.network.parallel_speedup") - 0.8).abs() < 1e-12);
        assert!((get("sim.network.parallel_cpu_ratio") - 1.25).abs() < 1e-12);
        assert_eq!(get("sim.network.events_per_s"), 2_500.0);
        assert_eq!(get("sim.queue.busy_s"), 0.8);
        assert_eq!(get("core.xwi.calls"), 0.0);
        let line = s.contract_line(true);
        let listed = line.get("metrics").and_then(Json::as_obj).unwrap();
        assert_eq!(listed.len(), PER_LAYER.len());
    }
}
