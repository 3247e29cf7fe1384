//! A registry of named, runnable scenarios: every figure of the paper's
//! evaluation (and any future workload) is one [`ScenarioSpec`] in
//! [`registry`](crate::registry()), listed and dispatched by `numfabric-run`.
//! A run function returns its [`Report`] or a [`RunError`]; it never prints
//! to stdout or ends the process. `numfabric-run` alone writes the report
//! and maps each [`RunError`] to an exit status.

use crate::report::Report;
use numfabric_workloads::registry::{InvalidOption, ScenarioOptions};
use std::fmt;

/// The run function of a scenario.
pub type ScenarioFn = fn(&ScenarioOptions) -> Result<Report, RunError>;

/// One registered scenario.
#[derive(Clone)]
pub struct ScenarioSpec {
    /// Registry name (what the CLI dispatches on), e.g. `fig4a`.
    pub name: &'static str,
    /// One-line summary shown by `--list`.
    pub summary: &'static str,
    /// The options the scenario understands, for `--list` (e.g.
    /// `[--events N] [--full]`).
    pub usage: &'static str,
    /// The run function.
    pub run: ScenarioFn,
}

/// Why [`ScenarioRegistry::run`] refused to dispatch.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum DispatchError {
    /// No scenario is registered under the name.
    UnknownScenario {
        /// The name that failed to resolve.
        name: String,
        /// All registered names, for the error message.
        known: Vec<&'static str>,
    },
    /// An argument spelled `--something` that the scenario's usage string
    /// does not declare — a typo must never silently run the default.
    UnknownOption {
        /// The scenario that was asked for.
        scenario: &'static str,
        /// The offending token.
        option: String,
        /// The scenario's usage string.
        usage: &'static str,
    },
}

impl fmt::Display for DispatchError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            DispatchError::UnknownScenario { name, known } => write!(
                f,
                "unknown scenario `{name}`; known scenarios: {}",
                known.join(", ")
            ),
            DispatchError::UnknownOption {
                scenario,
                option,
                usage,
            } => write!(
                f,
                "unknown option {option} for scenario {scenario}\nusage: numfabric-run {scenario} {usage}"
            ),
        }
    }
}

impl std::error::Error for DispatchError {}

/// Why a scenario run did not end with a trustworthy report.
#[derive(Debug)]
pub enum RunError {
    /// The registry refused to dispatch.
    Dispatch(DispatchError),
    /// A malformed or out-of-range option value (or a failed sweep cell).
    Usage(String),
    /// The run ended, but unfinished flows or a stalled simulation make its
    /// report untrustworthy. The report is still shown.
    Wedged {
        /// What the run measured.
        report: Report,
        /// Why it cannot be trusted.
        reason: String,
    },
}

impl RunError {
    /// A usage error carrying `message`.
    pub fn usage(message: impl fmt::Display) -> Self {
        RunError::Usage(message.to_string())
    }
}

impl From<InvalidOption> for RunError {
    fn from(e: InvalidOption) -> Self {
        RunError::usage(e)
    }
}

impl fmt::Display for RunError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            RunError::Dispatch(e) => e.fmt(f),
            RunError::Usage(reason) => f.write_str(reason),
            RunError::Wedged { reason, .. } => f.write_str(reason),
        }
    }
}

impl std::error::Error for RunError {}

/// Whether `usage` declares `option`: cut at every character that cannot be
/// part of an option name, one of the pieces is exactly `option`. The usage
/// string is the only table of a scenario's options.
fn usage_declares(usage: &str, option: &str) -> bool {
    usage
        .split(|c: char| !(c.is_ascii_alphanumeric() || c == '-'))
        .any(|piece| piece == option)
}

/// A set of named scenarios, dispatched by name.
#[derive(Default)]
pub struct ScenarioRegistry {
    entries: Vec<ScenarioSpec>,
}

impl ScenarioRegistry {
    /// An empty registry.
    pub fn new() -> Self {
        Self::default()
    }

    /// Register a scenario.
    ///
    /// # Panics
    /// Panics if the name is already taken (two scenarios must not shadow
    /// each other).
    pub fn register(&mut self, spec: ScenarioSpec) {
        assert!(
            self.get(spec.name).is_none(),
            "scenario `{}` registered twice",
            spec.name
        );
        self.entries.push(spec);
    }

    /// The registered scenarios, in registration order.
    pub fn entries(&self) -> &[ScenarioSpec] {
        &self.entries
    }

    /// Look up a scenario by name.
    pub fn get(&self, name: &str) -> Option<&ScenarioSpec> {
        self.entries.iter().find(|s| s.name == name)
    }

    /// Run the scenario registered under `name`, after checking that every
    /// `--option` among the arguments is one its usage string declares.
    /// Values (`loss@0:0=0.01`, `-0.3`) never start with `--` and are not
    /// checked here.
    pub fn run(&self, name: &str, options: &ScenarioOptions) -> Result<Report, RunError> {
        let Some(spec) = self.get(name) else {
            return Err(RunError::Dispatch(DispatchError::UnknownScenario {
                name: name.to_string(),
                known: self.entries.iter().map(|s| s.name).collect(),
            }));
        };
        let unknown = options
            .args
            .iter()
            .find(|arg| arg.starts_with("--") && !usage_declares(spec.usage, arg));
        if let Some(option) = unknown {
            return Err(RunError::Dispatch(DispatchError::UnknownOption {
                scenario: spec.name,
                option: option.clone(),
                usage: spec.usage,
            }));
        }
        (spec.run)(options)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn noop(_: &ScenarioOptions) -> Result<Report, RunError> {
        Ok(Report::default())
    }

    fn two_entry_registry() -> ScenarioRegistry {
        let mut registry = ScenarioRegistry::new();
        registry.register(ScenarioSpec {
            name: "a",
            summary: "first",
            usage: "",
            run: noop,
        });
        registry.register(ScenarioSpec {
            name: "b",
            summary: "second",
            usage: "[--full]",
            run: noop,
        });
        registry
    }

    #[test]
    fn registers_looks_up_and_runs() {
        let registry = two_entry_registry();
        assert_eq!(registry.entries().len(), 2);
        assert_eq!(registry.get("a").unwrap().summary, "first");
        assert!(registry.get("c").is_none());
        assert!(registry.run("b", &ScenarioOptions::default()).is_ok());
        let err = registry
            .run("nope", &ScenarioOptions::default())
            .unwrap_err();
        assert!(matches!(
            &err,
            RunError::Dispatch(DispatchError::UnknownScenario { known, .. }) if known == &["a", "b"]
        ));
        assert!(err.to_string().contains("unknown scenario `nope`"));
    }

    #[test]
    fn undeclared_options_are_refused_before_the_scenario_runs() {
        fn must_not_run(_: &ScenarioOptions) -> Result<Report, RunError> {
            panic!("dispatched despite an unknown option");
        }
        let mut registry = ScenarioRegistry::new();
        registry.register(ScenarioSpec {
            name: "c",
            summary: "third",
            usage: "[--seed S] [--full]",
            run: must_not_run,
        });
        let err = registry
            .run("c", &opts(&["--seed", "5", "--sede", "5"]))
            .unwrap_err();
        assert_eq!(
            err.to_string(),
            "unknown option --sede for scenario c\nusage: numfabric-run c [--seed S] [--full]"
        );
        let registry = two_entry_registry();
        assert!(registry.run("a", &opts(&["--full"])).is_err());
        assert!(registry.run("b", &opts(&["--full"])).is_ok());
    }

    #[test]
    fn usage_matcher_compares_whole_option_names() {
        let usage = "[--protocol ...|--compare a,b] [--load F] [--impair SPEC] \
                     [--millis MS] [--drain-millis MS: after the window]";
        for declared in [
            "--protocol",
            "--compare",
            "--load",
            "--impair",
            "--millis",
            "--drain-millis",
        ] {
            assert!(usage_declares(usage, declared), "{declared}");
        }
        for undeclared in [
            "--milli",
            "--drain",
            "--drain-milli",
            "--loads",
            "--",
            "--impai",
        ] {
            assert!(!usage_declares(usage, undeclared), "{undeclared}");
        }
        assert!(!usage_declares("", "--full"));
        // Only `--tokens` are options: values pass through unchecked.
        let registry = two_entry_registry();
        assert!(registry
            .run("b", &opts(&["--full", "loss@0:0=0.01", "-0.3", "7"]))
            .is_ok());
    }

    #[test]
    #[should_panic]
    fn duplicate_names_are_rejected() {
        let mut registry = two_entry_registry();
        registry.register(ScenarioSpec {
            name: "a",
            summary: "shadow",
            usage: "",
            run: noop,
        });
    }

    fn opts(args: &[&str]) -> ScenarioOptions {
        ScenarioOptions::new(args.iter().map(|s| s.to_string()).collect())
    }
}
