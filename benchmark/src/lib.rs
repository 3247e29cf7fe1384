//! # numfabric-benchmark
//!
//! The repository's benchmark: five paper-scale workloads, end-to-end host
//! time / memory / simulated work per host second, and a per-layer
//! breakdown taken from a separate traced run in which this crate's own
//! transparent wrappers meter every call into a plug-point layer. See
//! `README.md` beside this crate and `BENCHMARK.json` at the repository
//! root.

#![warn(missing_docs)]
#![deny(unsafe_code)]

pub mod alloc;
pub mod compare;
pub mod driver;
pub mod json;
pub mod metrics;
pub mod probe;
pub mod procfs;
pub mod run;
pub mod spans;
pub mod workloads;
pub mod wrappers;
