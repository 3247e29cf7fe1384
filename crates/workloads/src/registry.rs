//! The options a scenario is run with.
//!
//! `numfabric-run <name> [options]` hands every token after the scenario's
//! name to its run function as one [`ScenarioOptions`]. A value that does
//! not parse is an [`InvalidOption`], returned to the caller; the scenario
//! registry and the `numfabric-run` binary (both in `numfabric-bench`) make
//! it the usage error that exits 2. Options live here, below the drivers,
//! because [`SweepSpec::try_from_options`](crate::SweepSpec::try_from_options)
//! reads its grid from them too.

use std::fmt;
use std::str::FromStr;

/// Parsed command-line style options handed to a scenario's run function.
///
/// Options are a flat list of tokens; flags are `--name`, valued options are
/// `--name value`. Scenarios with more than one scale accept `--full`
/// (paper scale) by convention and list it in their usage string.
#[derive(Debug, Clone, Default)]
pub struct ScenarioOptions {
    /// The tokens, in command-line order.
    pub args: Vec<String>,
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
            return Err(InvalidOption::new(name, "", "missing value"));
        };
        raw.parse()
            .map(Some)
            .map_err(|e| InvalidOption::new(name, raw, e))
    }

    /// Parse the value of `name`, falling back to `default` when the option
    /// is absent. A malformed value (e.g. `--hosts banana`) is an error, not
    /// the default: a scenario must never silently run with a default the
    /// user tried to override.
    pub fn parsed_or<T: FromStr>(&self, name: &str, default: T) -> Result<T, InvalidOption>
    where
        T::Err: fmt::Display,
    {
        Ok(self.try_parsed(name)?.unwrap_or(default))
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

impl InvalidOption {
    /// `value` (empty when missing) is not a valid `name`, because `reason`.
    pub fn new(name: &str, value: &str, reason: impl fmt::Display) -> Self {
        InvalidOption {
            name: name.into(),
            value: value.into(),
            reason: reason.to_string(),
        }
    }
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

#[cfg(test)]
mod tests {
    use super::*;

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
        assert_eq!(opts.try_parsed("--load"), Ok(Some("0.6".to_string())));
        assert_eq!(opts.parsed_or("--load", 0.0), Ok(0.6));
        assert_eq!(opts.parsed_or("--events", 5usize), Ok(12));
        assert_eq!(opts.parsed_or("--missing", 7u32), Ok(7));
        // `--bad` has no following value token.
        assert!(opts.try_parsed::<String>("--bad").is_err());
        assert!(opts.parsed_or("--bad", 1u32).is_err());
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
