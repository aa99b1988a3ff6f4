//! Experiment harness regenerating the paper's evaluation artifacts.
//!
//! * [`table1`] — the defect-ratio matrix of Table I: for each of the four
//!   models and each injected defect, train the defective model and report
//!   DeepMorph's `[ITD, UTD, SD]` ratios.
//! * Binaries: `table1` (regenerates the table; `--scale`, `--seed`,
//!   `--seeds`) and `figure1` (runs one scenario and prints the
//!   stage-by-stage pipeline trace matching the paper's Figure 1
//!   schematic).
//! * [`repair_fixture`] — the seeded, defect-injected LeNet deployment
//!   that `serve_bench`'s swap-under-load phase and the benchmark's
//!   `serve_repair` workload serve.
//! * [`storm`] — the connection-storm harness behind `storm_smoke` and
//!   the storm phase of `serve_bench`: thousands of idle sockets on a
//!   flat thread count while an active, bitwise-verified predict load
//!   keeps its latency.
//! * Criterion benches in `benches/` measure substrate and pipeline
//!   throughput.
//!
//! The end-to-end correctness bars — live diagnosis and repair, the
//! warm-sweep cache, the chaos zero-loss storm, the telemetry frame —
//! are asserted by the workspace's integration tests, not by binaries
//! here.

pub mod repair_fixture;
pub mod storm;
pub mod table1;

pub use table1::{
    aggregate_tables, default_defects, render_table, run_table, run_table_seeds, CellResult,
    Table1Config, TableResult,
};
