//! The command-line contract: what `BENCHMARK.json` promises is what the
//! binary prints. Runs the built binary at tenth scale.

use numfabric_benchmark::json::Json;
use numfabric_benchmark::metrics::{END_TO_END, PER_LAYER};
use numfabric_benchmark::workloads::Workload;
use std::path::Path;
use std::process::Command;

fn manifest() -> Json {
    let path = Path::new(env!("CARGO_MANIFEST_DIR")).join("../BENCHMARK.json");
    Json::parse(&std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root"))
        .expect("BENCHMARK.json parses")
}

fn field<'a>(entry: &'a Json, key: &str) -> &'a str {
    entry.get(key).and_then(Json::as_str).unwrap_or_default()
}

fn names(doc: &Json, key: &str) -> Vec<String> {
    doc.get(key)
        .and_then(Json::as_arr)
        .expect(key)
        .iter()
        .map(|entry| field(entry, "name").to_string())
        .collect()
}

fn benchmark(args: &[&str]) -> (bool, String) {
    let out = Command::new(env!("CARGO_BIN_EXE_benchmark"))
        .args(args)
        .output()
        .expect("run the benchmark binary");
    (
        out.status.success(),
        String::from_utf8(out.stdout).expect("UTF-8 output"),
    )
}

#[test]
fn the_manifest_lists_exactly_the_tables() {
    let doc = manifest();
    let keys: Vec<&str> = doc
        .as_obj()
        .unwrap()
        .iter()
        .map(|(k, _)| k.as_str())
        .collect();
    assert_eq!(
        keys,
        [
            "command",
            "paths",
            "run_seconds",
            "workloads",
            "end_to_end",
            "per_layer"
        ]
    );
    let workloads: Vec<&str> = Workload::ALL.iter().map(|w| w.name()).collect();
    assert_eq!(names(&doc, "workloads"), workloads);
    for entry in doc.get("workloads").and_then(Json::as_arr).unwrap() {
        let why = field(entry, "why");
        assert!(!why.is_empty() && why.len() <= 200 && !why.contains('\n'));
    }
    let listed = doc.get("end_to_end").and_then(Json::as_arr).unwrap();
    assert_eq!(listed.len(), END_TO_END.len());
    for (entry, metric) in listed.iter().zip(&END_TO_END) {
        assert_eq!(field(entry, "name"), metric.name);
        assert_eq!(field(entry, "unit"), metric.unit);
        assert_eq!(field(entry, "better"), metric.better.as_str());
        assert_eq!(
            entry.get("bound").and_then(Json::as_f64),
            Some(metric.bound)
        );
    }
    let listed = doc.get("per_layer").and_then(Json::as_arr).unwrap();
    assert_eq!(listed.len(), PER_LAYER.len());
    for (entry, metric) in listed.iter().zip(&PER_LAYER) {
        assert_eq!(field(entry, "name"), metric.name);
        assert_eq!(field(entry, "unit"), metric.unit);
        assert_eq!(field(entry, "better"), metric.better.as_str());
    }
    // the bound on set-up is the largest
    let largest = END_TO_END.iter().map(|m| m.bound).fold(0.0, f64::max);
    assert_eq!(END_TO_END[0].name, "setup_s");
    assert_eq!(END_TO_END[0].bound, largest);
}

fn result_line(workload: &str, trace: &str) -> Json {
    let (ok, stdout) = benchmark(&[
        "--workload",
        workload,
        "--seed",
        "3",
        "--seconds",
        "0.1",
        "--trace",
        trace,
        "--quick",
    ]);
    assert!(ok, "{workload} --trace {trace} failed");
    let line = Json::parse(stdout.lines().last().expect("a result line")).expect("JSON");
    let keys: Vec<&str> = line
        .as_obj()
        .unwrap()
        .iter()
        .map(|(k, _)| k.as_str())
        .collect();
    assert_eq!(keys, ["correct", "attempted", "failed", "metrics"]);
    assert_eq!(line.get("correct").and_then(Json::as_bool), Some(true));
    assert!(line.get("attempted").and_then(Json::as_f64).unwrap() >= 1.0);
    assert_eq!(line.get("failed").and_then(Json::as_f64), Some(0.0));
    line
}

fn check_metrics(line: &Json, manifest_key: &str, never_zero: bool) {
    let doc = manifest();
    let printed = line.get("metrics").and_then(Json::as_obj).unwrap();
    let printed_names: Vec<&str> = printed.iter().map(|(k, _)| k.as_str()).collect();
    assert_eq!(printed_names, names(&doc, manifest_key));
    for ((_, value), entry) in printed
        .iter()
        .zip(doc.get(manifest_key).and_then(Json::as_arr).unwrap())
    {
        assert_eq!(field(value, "unit"), field(entry, "unit"));
        let number = value.get("value").and_then(Json::as_f64).expect("a number");
        assert!(number.is_finite() && (!never_zero || number > 0.0));
    }
}

#[test]
fn an_untraced_run_prints_exactly_the_end_to_end_metrics() {
    // The threaded workload also exercises the reference run and its check.
    for workload in ["shuffle-ft8", "churn-ws-p2t2"] {
        check_metrics(&result_line(workload, "0"), "end_to_end", true);
    }
}

#[test]
fn a_traced_run_prints_exactly_the_per_layer_metrics_and_writes_its_spans() {
    let line = result_line("churn-ws-pfabric", "1");
    check_metrics(&line, "per_layer", false);
    let trace = Path::new(env!("CARGO_MANIFEST_DIR")).join("out/trace-churn-ws-pfabric.json");
    let spans = Json::parse(&std::fs::read_to_string(trace).expect("the trace file")).unwrap();
    let spans = spans.get("spans").and_then(Json::as_arr).unwrap();
    assert_eq!(field(&spans[0], "name"), "run");
    for name in [
        "sim.network.run_until",
        "sim.network.add_flow",
        "sim.network.harvest",
    ] {
        assert!(spans.iter().any(|s| field(s, "name") == name), "{name}");
    }
}

#[test]
fn bad_command_lines_fail_loudly() {
    for args in [
        &[
            "--workload",
            "churn",
            "--seed",
            "1",
            "--seconds",
            "1",
            "--trace",
            "0",
        ][..],
        &[
            "--workload",
            "churn-ws",
            "--seed",
            "1",
            "--seconds",
            "1",
            "--trace",
            "2",
        ],
        &["--workload", "churn-ws", "--seed", "1", "--seconds", "1"],
        &[
            "--workload",
            "churn-ws",
            "--seed",
            "1",
            "--seconds",
            "1",
            "--trace",
            "0",
            "--bogus",
        ],
        &["compare", "only-one.json"],
        &[],
    ] {
        let (ok, stdout) = benchmark(args);
        assert!(!ok && stdout.is_empty(), "{args:?}");
    }
}
