//! # cast-bench
//!
//! The experiment harness: one binary per table/figure of the paper (see
//! `src/bin/`), Criterion micro-benchmarks (see `benches/`), and the shared
//! machinery in this library — deterministic experiment setup, result
//! tables, and JSON output under `results/` — plus [`perf`], the CI
//! perf-gate harness of the throughput bins.

pub mod expected;
pub mod format;
pub mod harness;
pub mod perf;

pub use format::{Cell, TableWriter};
pub use harness::{
    dump_observations, fig1_cluster, install_observer, observer, paper_estimator, paper_framework,
    results_dir, save_json, trace_out_arg, ExperimentIo,
};

pub mod experiments;
