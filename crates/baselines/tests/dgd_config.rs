//! A DGD flow that starts at rate zero sends nothing, hears no ACK and arms
//! no timer, so it would wedge without a word. The agent refuses such a
//! configuration when it is built.

use numfabric_baselines::{DgdAgent, DgdConfig};
use numfabric_num::utility::LogUtility;

fn agent_starting_at(initial_rate_fraction: f64) -> DgdAgent {
    let config = DgdConfig {
        initial_rate_fraction,
        ..DgdConfig::default()
    };
    DgdAgent::new(config, LogUtility::new())
}

#[test]
#[should_panic(expected = "initial rate fraction must be in (0, 1]")]
fn a_zero_initial_rate_is_refused() {
    agent_starting_at(0.0);
}

#[test]
#[should_panic(expected = "initial rate fraction must be in (0, 1]")]
fn a_nan_initial_rate_is_refused() {
    agent_starting_at(f64::NAN);
}

#[test]
#[should_panic(expected = "initial rate fraction must be in (0, 1]")]
fn an_initial_rate_above_the_nic_is_refused() {
    agent_starting_at(1.5);
}
