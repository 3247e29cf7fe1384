//! The `numfabric-run` usage contract, end to end: a scenario's usage string
//! is the enforced list of its options (anything else exits 2 naming the
//! offender), a zero-byte transfer or a zero-length run is a usage error
//! rather than a wedged run or an empty report, every command line the
//! README and the CI workflow show still exits 0, a bare flag means the
//! same wherever it stands, and a reader that closes stdout early does not
//! crash the run. Exit codes are only observable from
//! outside the process, hence an integration test.

use std::process::{Command, Output, Stdio};

fn run(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_numfabric-run"))
        .args(args)
        .output()
        .expect("spawn numfabric-run")
}

/// Assert a usage error: exit status 2 and `needle` on stderr.
fn assert_usage_error(args: &[&str], needle: &str) {
    let out = run(args);
    let err = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(2), "{args:?} stderr: {err}");
    assert!(
        err.contains(needle),
        "{args:?} should say {needle:?}: {err}"
    );
}

#[test]
fn unknown_options_exit_two_and_name_the_option() {
    assert_usage_error(
        &["incast", "--sede", "5"],
        "unknown option --sede for scenario incast",
    );
    assert_usage_error(&["incast", "--bogus-flag", "7"], "--bogus-flag");
    assert_usage_error(&["churn", "--bogus"], "--bogus");
    assert_usage_error(&["sweep", "--thread", "2"], "--thread ");
    assert_usage_error(&["fig5", "--seed", "3"], "--seed");
    // The refusal comes before dispatch, so every scenario can be probed
    // without running it — and the usage line comes with it.
    for spec in numfabric_bench::registry().entries() {
        let out = run(&[spec.name, "--no-such-option"]);
        let err = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(2), "{}: {err}", spec.name);
        assert!(
            err.contains("--no-such-option") && err.contains(spec.usage),
            "{}: {err}",
            spec.name
        );
    }
}

#[test]
fn in_run_partitioning_is_not_an_option() {
    // A run is one sequential simulation; parallelism lives between runs
    // (`sweep --threads`), so neither partitioning option is accepted.
    for scenario in ["incast", "shuffle", "stride", "recovery", "churn", "sweep"] {
        for option in ["--partitions", "--partition-threads"] {
            assert_usage_error(
                &[scenario, option, "2"],
                &format!("unknown option {option} for scenario {scenario}"),
            );
        }
    }
}

#[test]
fn unknown_option_values_exit_two_and_name_the_accepted_ones() {
    for scenario in ["fig5", "dynamic"] {
        assert_usage_error(
            &[scenario, "--workload", "bogus"],
            "invalid value `bogus` for option `--workload`: expected websearch|enterprise",
        );
    }
    assert_usage_error(
        &["fig6", "--sweep", "bogus"],
        "invalid value `bogus` for option `--sweep`: expected dt|interval|alpha",
    );
}

#[test]
fn sweep_still_points_singular_axes_at_the_plural() {
    assert_usage_error(&["sweep", "--topology", "fat-tree:k=4"], "--topologies");
    assert_usage_error(&["sweep", "--impair", "flap"], "--impairments");
}

#[test]
fn a_zero_byte_transfer_is_a_usage_error_not_a_wedge() {
    for scenario in ["incast", "shuffle"] {
        assert_usage_error(&[scenario, "--size", "0"], "--size must be at least 1 byte");
    }
}

#[test]
fn a_zero_length_run_is_a_usage_error_not_an_empty_report() {
    assert_usage_error(&["stride", "--millis", "0"], "--millis must be at least 1");
    for scenario in ["fig4a", "fig6", "semi-dynamic"] {
        assert_usage_error(&[scenario, "--events", "0"], "--events must be at least 1");
    }
}

/// Every `numfabric-run -- <args>` invocation a document shows, with shell
/// continuations joined and pipes, redirections and comments cut off. The
/// CI line that *expects* a refusal (`--bogus`) is not a success line.
fn documented_command_lines(path: &str) -> Vec<String> {
    let path = format!("{}/../../{path}", env!("CARGO_MANIFEST_DIR"));
    let text = std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("read {path}: {e}"));
    let mut lines: Vec<String> = text
        .replace("\\\n", " ")
        .lines()
        .filter_map(|line| line.split_once("numfabric-run -- "))
        .map(|(_, rest)| {
            let end = [" | ", " > ", " #"]
                .iter()
                .filter_map(|stop| rest.find(stop))
                .min()
                .unwrap_or(rest.len());
            rest[..end].split_whitespace().collect::<Vec<_>>().join(" ")
        })
        .filter(|line| !line.contains("--bogus"))
        .collect();
    lines.sort();
    lines.dedup();
    lines
}

fn assert_documented_lines_succeed(path: &str, at_least: usize) {
    let lines = documented_command_lines(path);
    assert!(lines.len() >= at_least, "{path}: found only {lines:?}");
    for line in lines {
        let out = run(&line.split(' ').collect::<Vec<_>>());
        assert!(
            out.status.success(),
            "{path}: `numfabric-run {line}` exited {:?}: {}",
            out.status.code(),
            String::from_utf8_lossy(&out.stderr)
        );
    }
}

#[test]
fn every_readme_command_line_exits_zero() {
    assert_documented_lines_succeed("README.md", 8);
}

#[test]
fn every_ci_command_line_exits_zero() {
    assert_documented_lines_succeed(".github/workflows/ci.yml", 12);
}

#[test]
fn a_bare_compare_means_the_default_three_wherever_it_stands() {
    let first = run(&["recovery", "--compare", "--millis", "3"]);
    let last = run(&["recovery", "--millis", "3", "--compare"]);
    for out in [&first, &last] {
        assert_eq!(
            out.status.code(),
            Some(0),
            "stderr: {}",
            String::from_utf8_lossy(&out.stderr)
        );
    }
    assert_eq!(
        String::from_utf8_lossy(&first.stdout),
        String::from_utf8_lossy(&last.stdout)
    );
}

#[test]
fn a_closed_stdout_ends_the_run_quietly() {
    // `numfabric-run fig9 | head -1`: the reader is gone before the report
    // is written, so the write fails with a broken pipe.
    let mut child = Command::new(env!("CARGO_BIN_EXE_numfabric-run"))
        .arg("fig9")
        .stdout(Stdio::piped())
        .stderr(Stdio::piped())
        .spawn()
        .expect("spawn numfabric-run");
    drop(child.stdout.take());
    let out = child.wait_with_output().expect("wait for numfabric-run");
    let err = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(0), "stderr: {err}");
    assert!(!err.contains("panicked"), "stderr: {err}");
}
