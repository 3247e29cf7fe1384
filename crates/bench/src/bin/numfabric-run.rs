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
//! not a new binary.

use numfabric_bench::registry;
use numfabric_workloads::registry::{DispatchError, ScenarioOptions};
use std::process::ExitCode;

fn print_list() {
    let registry = registry();
    println!("Available scenarios (run with `numfabric-run <name> [options]`):\n");
    let width = registry
        .entries()
        .iter()
        .map(|s| s.name.len())
        .max()
        .unwrap_or(0);
    for spec in registry.entries() {
        println!("  {:width$}  {}", spec.name, spec.summary);
        if !spec.usage.is_empty() {
            println!("  {:width$}  options: {}", "", spec.usage);
        }
    }
    println!(
        "\nScenarios listing --full in their options run at the paper's scale with it;\n\
         the rest (fixed custom topologies / parameter tables) have a single scale."
    );
}

fn main() -> ExitCode {
    let mut args: Vec<String> = std::env::args().skip(1).collect();
    if args.is_empty() || args[0] == "--list" || args[0] == "list" {
        print_list();
        return ExitCode::SUCCESS;
    }
    if args[0] == "--help" || args[0] == "-h" || args[0] == "help" {
        println!("usage: numfabric-run --list | <scenario> [options]");
        print_list();
        return ExitCode::SUCCESS;
    }
    let name = args.remove(0);
    match registry().run(&name, &ScenarioOptions::new(args)) {
        Ok(()) => ExitCode::SUCCESS,
        Err(err) => {
            eprintln!("error: {err}");
            match err {
                // A usage error, like every malformed option value.
                DispatchError::UnknownOption { .. } => ExitCode::from(2),
                DispatchError::UnknownScenario { .. } => {
                    eprintln!("hint: `numfabric-run --list` shows every scenario");
                    ExitCode::FAILURE
                }
            }
        }
    }
}
