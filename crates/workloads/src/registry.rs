//! A registry of named, runnable scenarios.
//!
//! Every figure of the paper's evaluation (and any future workload) is
//! registered under a short name with a one-line summary and a run function;
//! a single CLI (`numfabric-run` in `numfabric-bench`) lists and dispatches
//! them. Adding a workload is one [`ScenarioSpec`] entry instead of a new
//! binary.
//!
//! The registry machinery lives here (the workload layer) so that any crate
//! above `numfabric-workloads` in the dependency DAG can populate it; the
//! paper's figure scenarios themselves are registered by `numfabric-bench`,
//! which owns the protocol drivers.

use std::fmt;
use std::str::FromStr;

/// Parsed command-line style options handed to a scenario's run function.
///
/// Options are a flat list of tokens; flags are `--name`, valued options are
/// `--name value`. Scenarios with more than one scale accept `--full`
/// (paper scale) by convention and list it in their usage string.
#[derive(Debug, Clone, Default)]
pub struct ScenarioOptions {
    args: Vec<String>,
}

impl ScenarioOptions {
    /// Options from an explicit token list.
    pub fn new(args: Vec<String>) -> Self {
        Self { args }
    }

    /// Whether the bare flag `name` (e.g. `--full`) is present.
    pub fn flag(&self, name: &str) -> bool {
        self.args.iter().any(|a| a == name)
    }

    /// The token following `name`, if any (e.g. `--load 0.6`).
    pub fn value(&self, name: &str) -> Option<&str> {
        self.args
            .iter()
            .position(|a| a == name)
            .and_then(|i| self.args.get(i + 1))
            .map(String::as_str)
    }

    /// Parse the value of `name`: `Ok(None)` when the option is absent,
    /// `Ok(Some(v))` on success, and an [`InvalidOption`] when the option is
    /// present but its value is missing or unparsable.
    pub fn try_parsed<T: FromStr>(&self, name: &str) -> Result<Option<T>, InvalidOption>
    where
        T::Err: fmt::Display,
    {
        let Some(pos) = self.args.iter().position(|a| a == name) else {
            return Ok(None);
        };
        let Some(raw) = self.args.get(pos + 1) else {
            return Err(InvalidOption {
                name: name.to_string(),
                value: String::new(),
                reason: "missing value".to_string(),
            });
        };
        raw.parse().map(Some).map_err(|e: T::Err| InvalidOption {
            name: name.to_string(),
            value: raw.clone(),
            reason: e.to_string(),
        })
    }

    /// Parse the value of `name`, falling back to `default` when the option
    /// is absent. A malformed value (e.g. `--hosts banana`) is a hard error:
    /// it is reported on stderr and the process exits non-zero — scenarios
    /// must never silently run with a default the user tried to override.
    pub fn parsed_or<T: FromStr>(&self, name: &str, default: T) -> T
    where
        T::Err: fmt::Display,
    {
        match self.try_parsed(name) {
            Ok(Some(v)) => v,
            Ok(None) => default,
            Err(e) => {
                eprintln!("error: {e}");
                std::process::exit(2);
            }
        }
    }

    /// The conventional `--full` flag: run at the paper's scale.
    pub fn full(&self) -> bool {
        self.flag("--full")
    }
}

/// Error produced when an option is present but its value is missing or
/// does not parse.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct InvalidOption {
    /// The option's name (e.g. `--hosts`).
    pub name: String,
    /// The offending raw value (empty when the value token was missing).
    pub value: String,
    /// Why it failed to parse.
    pub reason: String,
}

impl fmt::Display for InvalidOption {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.value.is_empty() {
            write!(f, "option `{}`: {}", self.name, self.reason)
        } else {
            write!(
                f,
                "invalid value `{}` for option `{}`: {}",
                self.value, self.name, self.reason
            )
        }
    }
}

impl std::error::Error for InvalidOption {}

/// The run function of a scenario.
pub type ScenarioFn = fn(&ScenarioOptions);

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
    pub fn run(&self, name: &str, options: &ScenarioOptions) -> Result<(), DispatchError> {
        let Some(spec) = self.get(name) else {
            return Err(DispatchError::UnknownScenario {
                name: name.to_string(),
                known: self.entries.iter().map(|s| s.name).collect(),
            });
        };
        let unknown = options
            .args
            .iter()
            .find(|arg| arg.starts_with("--") && !usage_declares(spec.usage, arg));
        if let Some(option) = unknown {
            return Err(DispatchError::UnknownOption {
                scenario: spec.name,
                option: option.clone(),
                usage: spec.usage,
            });
        }
        (spec.run)(options);
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn noop(_: &ScenarioOptions) {}

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
        assert!(
            matches!(&err, DispatchError::UnknownScenario { known, .. } if known == &["a", "b"])
        );
        assert!(err.to_string().contains("unknown scenario `nope`"));
    }

    #[test]
    fn undeclared_options_are_refused_before_the_scenario_runs() {
        fn must_not_run(_: &ScenarioOptions) {
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
                     [--partitions N: event cores] [--partition-threads T: workers; any value]";
        for declared in [
            "--protocol",
            "--compare",
            "--load",
            "--impair",
            "--partitions",
            "--partition-threads",
        ] {
            assert!(usage_declares(usage, declared), "{declared}");
        }
        for undeclared in [
            "--partition",
            "--partition-thread",
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

    #[test]
    fn options_parse_flags_and_values() {
        let opts = ScenarioOptions::new(
            ["--full", "--load", "0.6", "--events", "12", "--bad"]
                .iter()
                .map(|s| s.to_string())
                .collect(),
        );
        assert!(opts.full());
        assert!(opts.flag("--bad"));
        assert!(!opts.flag("--missing"));
        assert_eq!(opts.value("--load"), Some("0.6"));
        assert_eq!(opts.parsed_or("--load", 0.0), 0.6);
        assert_eq!(opts.parsed_or("--events", 5usize), 12);
        assert_eq!(opts.parsed_or("--missing", 7u32), 7);
        // `--bad` has no following value token.
        assert_eq!(opts.value("--bad"), None);
    }

    fn opts(args: &[&str]) -> ScenarioOptions {
        ScenarioOptions::new(args.iter().map(|s| s.to_string()).collect())
    }

    #[test]
    fn try_parsed_absent_option_is_ok_none() {
        assert_eq!(opts(&["--full"]).try_parsed::<usize>("--hosts"), Ok(None));
    }

    #[test]
    fn try_parsed_valid_value_parses() {
        assert_eq!(
            opts(&["--hosts", "32"]).try_parsed("--hosts"),
            Ok(Some(32usize))
        );
        assert_eq!(
            opts(&["--load", "0.6"]).try_parsed("--load"),
            Ok(Some(0.6f64))
        );
    }

    #[test]
    fn try_parsed_malformed_value_is_an_error() {
        // The exact regression of the silent-fallback bug: `--hosts banana`
        // must NOT fall back to the default.
        let err = opts(&["--hosts", "banana"])
            .try_parsed::<usize>("--hosts")
            .unwrap_err();
        assert_eq!(err.name, "--hosts");
        assert_eq!(err.value, "banana");
        assert!(err.to_string().contains("invalid value `banana`"));
    }

    #[test]
    fn try_parsed_trailing_flag_without_value_is_an_error() {
        let err = opts(&["--hosts"])
            .try_parsed::<usize>("--hosts")
            .unwrap_err();
        assert!(err.value.is_empty());
        assert!(err.to_string().contains("missing value"));
    }
}
