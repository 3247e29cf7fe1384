//! Compare two result files written by `benchmark run`.
//!
//! One row per (workload, end-to-end metric): both values, the ratio with
//! its base, the bound and a verdict. Exact counters and fingerprints are
//! diffed at zero tolerance and listed separately.

use crate::json::Json;
use crate::metrics::{Better, END_TO_END};
use std::fmt::Write as _;

/// What a row says about the change from old to new.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    /// Better by more than the bound.
    Better,
    /// Within the bound either way.
    Same,
    /// Worse by more than the bound.
    Worse,
    /// One side's repeats spread wider than the bound: not comparable.
    Unresolved,
}

impl Verdict {
    fn as_str(self) -> &'static str {
        match self {
            Verdict::Better => "better",
            Verdict::Same => "same",
            Verdict::Worse => "WORSE",
            Verdict::Unresolved => "unresolved",
        }
    }
}

/// Judge `new` against `old` for a metric with this direction and bound.
pub fn verdict(better: Better, bound: f64, old: f64, new: f64, resolved: bool) -> Verdict {
    if !resolved {
        return Verdict::Unresolved;
    }
    let worsening = better.worsening(old, new);
    if worsening > bound {
        Verdict::Worse
    } else if worsening < -bound {
        Verdict::Better
    } else {
        Verdict::Same
    }
}

/// One (workload, end-to-end metric) row.
#[derive(Debug, Clone, PartialEq)]
pub struct Row {
    /// Workload name.
    pub workload: String,
    /// Metric name.
    pub metric: &'static str,
    /// Unit.
    pub unit: &'static str,
    /// Old value (the ratio's base).
    pub old: f64,
    /// New value.
    pub new: f64,
    /// The metric's bound.
    pub bound: f64,
    /// The verdict.
    pub verdict: Verdict,
}

/// The whole comparison.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Comparison {
    /// End-to-end rows.
    pub rows: Vec<Row>,
    /// Exact values that differ: `(workload, name, old, new)`.
    pub exact_diffs: Vec<(String, String, String, String)>,
    /// Workloads whose failed share rose: `(workload, old, new)`.
    pub failed_rises: Vec<(String, f64, f64)>,
    /// Workloads or metrics present on one side only.
    pub missing: Vec<String>,
}

fn number(doc: &Json, path: &[&str]) -> Option<f64> {
    path.iter()
        .try_fold(doc, |node, key| node.get(key))
        .and_then(Json::as_f64)
}

/// Compare two result documents.
pub fn compare(old: &Json, new: &Json) -> Result<Comparison, String> {
    let workloads = |doc: &'_ Json| -> Result<Vec<(String, Json)>, String> {
        doc.get("workloads")
            .and_then(Json::as_obj)
            .map(<[_]>::to_vec)
            .ok_or("not a result file: no `workloads` object".to_string())
    };
    let (old_w, new_w) = (workloads(old)?, workloads(new)?);
    let mut out = Comparison::default();
    for (name, _) in &new_w {
        if !old_w.iter().any(|(n, _)| n == name) {
            out.missing.push(format!("{name}: only in the new file"));
        }
    }
    for (name, was) in &old_w {
        let Some((_, now)) = new_w.iter().find(|(n, _)| n == name) else {
            out.missing.push(format!("{name}: only in the old file"));
            continue;
        };
        for metric in &END_TO_END {
            let side = |doc: &Json| {
                let value = number(doc, &["end_to_end", metric.name, "value"])?;
                let resolved = doc
                    .get("end_to_end")?
                    .get(metric.name)?
                    .get("resolved")?
                    .as_bool()?;
                Some((value, resolved))
            };
            match (side(was), side(now)) {
                (Some((old, old_ok)), Some((new, new_ok))) => out.rows.push(Row {
                    workload: name.clone(),
                    metric: metric.name,
                    unit: metric.unit,
                    old,
                    new,
                    bound: metric.bound,
                    verdict: verdict(metric.better, metric.bound, old, new, old_ok && new_ok),
                }),
                (None, None) => {}
                _ => out
                    .missing
                    .push(format!("{name}: {} is on one side only", metric.name)),
            }
        }

        // Zero tolerance: the fingerprint, the event count and every
        // per-layer metric marked exact.
        let mut exact = |label: &str, a: Option<String>, b: Option<String>| {
            if let (Some(a), Some(b)) = (a, b) {
                if a != b {
                    out.exact_diffs
                        .push((name.clone(), label.to_string(), a, b));
                }
            }
        };
        let text = |doc: &Json, key: &str| match doc.get(key) {
            Some(Json::Str(s)) => Some(s.clone()),
            Some(Json::Num(n)) => Some(n.to_string()),
            _ => None,
        };
        for key in ["fingerprint", "events", "flows_offered"] {
            exact(key, text(was, key), text(now, key));
        }
        for (layer_metric, entry) in was
            .get("per_layer")
            .and_then(Json::as_obj)
            .unwrap_or_default()
        {
            if entry.get("exact").and_then(Json::as_bool) == Some(true) {
                let value = |doc: &Json| {
                    number(doc, &["per_layer", layer_metric, "value"]).map(|v| v.to_string())
                };
                exact(layer_metric, value(was), value(now));
            }
        }

        if let (Some(old), Some(new)) =
            (number(was, &["failed_frac"]), number(now, &["failed_frac"]))
        {
            if new > old {
                out.failed_rises.push((name.clone(), old, new));
            }
        }
    }
    Ok(out)
}

impl Comparison {
    /// Whether anything got worse: a worse row, a rise in failures, or a
    /// workload that disappeared.
    pub fn regressed(&self) -> bool {
        self.rows.iter().any(|r| r.verdict == Verdict::Worse)
            || !self.failed_rises.is_empty()
            || !self.missing.is_empty()
    }

    /// Whether the two files are the same measurement within the
    /// benchmark's own bounds: every row `same`, nothing exact differs.
    pub fn identical_within_bounds(&self) -> bool {
        self.rows.iter().all(|r| r.verdict == Verdict::Same)
            && !self.rows.is_empty()
            && self.exact_diffs.is_empty()
            && self.failed_rises.is_empty()
            && self.missing.is_empty()
    }

    /// The comparison as a table for people.
    pub fn render(&self) -> String {
        let mut out = String::new();
        writeln!(
            out,
            "{:<18} {:<16} {:>14} {:>14} {:>9} {:>6}  verdict",
            "workload", "metric", "old", "new", "new/old", "bound"
        )
        .expect("write to String");
        for r in &self.rows {
            writeln!(
                out,
                "{:<18} {:<16} {:>14.6} {:>14.6} {:>9.4} {:>5.0}%  {} ({})",
                r.workload,
                r.metric,
                r.old,
                r.new,
                r.new / r.old,
                r.bound * 100.0,
                r.verdict.as_str(),
                r.unit
            )
            .expect("write to String");
        }
        if self.exact_diffs.is_empty() {
            out += "exact counters and fingerprints: identical\n";
        } else {
            out += "exact counters and fingerprints that differ (zero tolerance):\n";
            for (workload, name, old, new) in &self.exact_diffs {
                writeln!(out, "  {workload} {name}: {old} -> {new}").expect("write to String");
            }
        }
        for (workload, old, new) in &self.failed_rises {
            writeln!(out, "FAILED FLOWS ROSE on {workload}: {old} -> {new}")
                .expect("write to String");
        }
        for line in &self.missing {
            writeln!(out, "MISSING {line}").expect("write to String");
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn file(wall: f64, resolved: bool, events: f64, failed_frac: f64) -> Json {
        let metric = |value: f64| Json::obj().with("value", value).with("resolved", resolved);
        let mut end_to_end = Json::obj();
        for m in &END_TO_END {
            end_to_end.set(m.name, metric(if m.name == "wall_s" { wall } else { 1.0 }));
        }
        let per_layer = Json::obj()
            .with(
                "sim.network.events",
                Json::obj().with("value", events).with("exact", true),
            )
            .with(
                "sim.queue.busy_s",
                Json::obj().with("value", wall / 3.0).with("exact", false),
            );
        let workload = Json::obj()
            .with("failed_frac", failed_frac)
            .with("fingerprint", "00ff")
            .with("events", events)
            .with("end_to_end", end_to_end)
            .with("per_layer", per_layer);
        Json::obj().with("workloads", Json::obj().with("churn-ws", workload))
    }

    #[test]
    fn verdicts_follow_bound_and_direction() {
        use Better::{Higher, Lower};
        assert_eq!(verdict(Lower, 0.1, 2.0, 2.1, true), Verdict::Same);
        assert_eq!(verdict(Lower, 0.1, 2.0, 2.3, true), Verdict::Worse);
        assert_eq!(verdict(Lower, 0.1, 2.0, 1.7, true), Verdict::Better);
        assert_eq!(verdict(Higher, 0.1, 2.0, 1.7, true), Verdict::Worse);
        assert_eq!(verdict(Higher, 0.1, 2.0, 2.3, true), Verdict::Better);
        assert_eq!(verdict(Lower, 0.1, 2.0, 2.3, false), Verdict::Unresolved);
    }

    #[test]
    fn a_file_compared_with_itself_is_identical() {
        let a = file(2.0, true, 1e7, 0.0);
        let c = compare(&a, &a).unwrap();
        assert_eq!(c.rows.len(), END_TO_END.len());
        assert!(c.identical_within_bounds() && !c.regressed());
        assert!(c.render().contains("identical"));
    }

    #[test]
    fn slower_runs_changed_counters_and_new_failures_all_show() {
        let old = file(2.0, true, 1e7, 0.0);
        let slower = compare(&old, &file(2.5, true, 1e7, 0.0)).unwrap();
        assert!(slower.regressed() && !slower.identical_within_bounds());
        assert!(slower.exact_diffs.is_empty());

        let counted = compare(&old, &file(2.0, true, 1e7 + 1.0, 0.0)).unwrap();
        assert!(!counted.regressed() && !counted.identical_within_bounds());
        assert_eq!(counted.exact_diffs.len(), 2); // `events` and the per-layer copy

        let failing = compare(&old, &file(2.0, true, 1e7, 0.01)).unwrap();
        assert!(failing.regressed());

        let noisy = compare(&old, &file(2.5, false, 1e7, 0.0)).unwrap();
        assert!(!noisy.regressed() && !noisy.identical_within_bounds());
        assert!(noisy.render().contains("unresolved"));

        let empty = Json::obj().with("workloads", Json::obj());
        assert!(compare(&old, &empty).unwrap().regressed());
        assert!(compare(&old, &Json::obj()).is_err());
    }
}
