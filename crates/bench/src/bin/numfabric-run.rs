//! `numfabric-run` — the unified scenario runner.
//!
//! Lists and dispatches every registered scenario (the paper's figures and
//! tables plus the generic semi-dynamic / dynamic drivers) by name:
//!
//! ```text
//! cargo run --release -p numfabric-bench --bin numfabric-run -- --list
//! cargo run --release -p numfabric-bench --bin numfabric-run -- fig4a --events 4
//! cargo run --release -p numfabric-bench --bin numfabric-run -- dynamic --protocol pfabric --load 0.4
//! ```
//!
//! Adding a workload is one entry in `numfabric_bench::figures::registry`,
//! not a new binary. Scenarios return their report; only this file prints
//! one (the JSON document with `--json`, else the text, once the run ends)
//! and picks the exit status: 0 for a trustworthy report, 1 for a wedged
//! run (after its report) or an unknown scenario, 2 for a usage error.

use numfabric_bench::{registry, DispatchError, RunError, ScenarioOptions};
use std::io::{self, Write};
use std::process::ExitCode;

const USAGE: &str = "numfabric-run --list | <scenario> [options]";

fn list() -> String {
    let registry = registry();
    let mut out =
        String::from("Available scenarios (run with `numfabric-run <name> [options]`):\n\n");
    let width = registry
        .entries()
        .iter()
        .map(|s| s.name.len())
        .max()
        .unwrap_or(0);
    for spec in registry.entries() {
        out += &format!("  {:width$}  {}\n", spec.name, spec.summary);
        if !spec.usage.is_empty() {
            out += &format!("  {:width$}  options: {}\n", "", spec.usage);
        }
    }
    out + "\nScenarios listing --full in their options run at the paper's scale with it;\n\
           the rest (fixed custom topologies / parameter tables) have a single scale.\n"
}

/// Write `text` to stdout. A reader that went away (`numfabric-run fig9 |
/// head`) ends the write quietly.
fn emit(text: &str) -> ExitCode {
    let mut stdout = io::stdout().lock();
    match stdout
        .write_all(text.as_bytes())
        .and_then(|()| stdout.flush())
    {
        Err(e) if e.kind() != io::ErrorKind::BrokenPipe => {
            eprintln!("error: writing stdout: {e}");
            ExitCode::FAILURE
        }
        _ => ExitCode::SUCCESS,
    }
}

fn main() -> ExitCode {
    let mut args: Vec<String> = std::env::args().skip(1).collect();
    match args.first().map(String::as_str) {
        None | Some("--list" | "list") => return emit(&list()),
        Some("--help" | "-h" | "help") => return emit(&format!("usage: {USAGE}\n{}", list())),
        _ => {}
    }
    let name = args.remove(0);
    let options = ScenarioOptions::new(args);
    let result = registry().run(&name, &options);
    // A finished run's report comes first, wedged or not.
    let written = match &result {
        Ok(report) | Err(RunError::Wedged { report, .. }) => match &report.json {
            Some(doc) if options.flag("--json") => emit(&(doc.render() + "\n")),
            _ => emit(&report.text),
        },
        Err(_) => ExitCode::SUCCESS,
    };
    let Err(err) = result else {
        return written;
    };
    eprintln!("error: {err}");
    match err {
        // A malformed option value, an undeclared option.
        RunError::Usage(_) | RunError::Dispatch(DispatchError::UnknownOption { .. }) => {
            ExitCode::from(2)
        }
        RunError::Dispatch(DispatchError::UnknownScenario { .. }) => {
            eprintln!("hint: `numfabric-run --list` shows every scenario");
            ExitCode::FAILURE
        }
        RunError::Wedged { .. } => ExitCode::FAILURE,
    }
}
