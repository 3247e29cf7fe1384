//! End-to-end smokes of the `numfabric-run churn` CLI: the happy path in
//! human and `--json` forms, and the exit-2 contract for option
//! validation (the `parse_load_fraction` rejection path, as the exit status
//! it becomes; `fabric::tests` checks the error value itself).

use std::process::Command;

/// The churn binary invocation all tests share, kept tiny so the suite
/// stays fast: a short arrival window on the reduced leaf-spine fabric.
fn churn_cmd() -> Command {
    let mut cmd = Command::new(env!("CARGO_BIN_EXE_numfabric-run"));
    cmd.args(["churn", "--millis", "4", "--drain-millis", "40"]);
    cmd
}

#[test]
fn churn_human_output_reports_per_class_rows() {
    let out = churn_cmd().output().expect("spawn numfabric-run");
    assert!(
        out.status.success(),
        "churn exited {:?}: {}",
        out.status.code(),
        String::from_utf8_lossy(&out.stderr)
    );
    let text = String::from_utf8(out.stdout).expect("utf-8 stdout");
    for needle in ["fg", "bg", "all", "flows/s"] {
        assert!(text.contains(needle), "missing {needle:?} in:\n{text}");
    }
}

#[test]
fn churn_json_is_parseable_and_partition_invariant() {
    let run = |partitions: &str, threads: &str| {
        let out = churn_cmd()
            .args([
                "--json",
                "--partitions",
                partitions,
                "--partition-threads",
                threads,
            ])
            .output()
            .expect("spawn numfabric-run");
        assert!(
            out.status.success(),
            "churn --json exited {:?}: {}",
            out.status.code(),
            String::from_utf8_lossy(&out.stderr)
        );
        out.stdout
    };
    let base = run("1", "1");
    let text = String::from_utf8(base.clone()).expect("utf-8 json");
    assert!(text.contains("\"scenario\":\"churn\""), "got:\n{text}");
    assert_eq!(
        base,
        run("2", "2"),
        "churn --json bytes must not depend on --partitions/--partition-threads"
    );
}

#[test]
fn out_of_range_load_exits_with_status_two() {
    for bad in ["1.5", "0", "-0.3", "nan"] {
        let out = churn_cmd()
            .args(["--load", bad])
            .output()
            .expect("spawn numfabric-run");
        assert_eq!(
            out.status.code(),
            Some(2),
            "--load {bad} must exit 2, stderr: {}",
            String::from_utf8_lossy(&out.stderr)
        );
        let err = String::from_utf8_lossy(&out.stderr);
        assert!(
            err.contains("--load"),
            "stderr should name the offending option: {err}"
        );
    }
}

#[test]
fn out_of_range_fg_share_exits_with_status_two() {
    let out = churn_cmd()
        .args(["--fg-share", "1.0"])
        .output()
        .expect("spawn numfabric-run");
    assert_eq!(
        out.status.code(),
        Some(2),
        "stderr: {}",
        String::from_utf8_lossy(&out.stderr)
    );
}
