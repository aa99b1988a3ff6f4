//! Experiment harness regenerating the paper's evaluation artifacts.
//!
//! * [`table1`] — the defect-ratio matrix of Table I: for each of the four
//!   models and each injected defect, train the defective model and report
//!   DeepMorph's `[ITD, UTD, SD]` ratios.
//! * Binaries: `table1` (regenerates the table; `--scale`, `--seed`) and
//!   `figure1` (runs one scenario and prints the stage-by-stage pipeline
//!   trace matching the paper's Figure 1 schematic).
//! * [`chaos`] — the serving fault-storm harness behind `chaos_smoke`
//!   and the chaos phase of `serve_bench`: deterministic fault
//!   injection with a zero-loss, zero-corruption acceptance bar.
//! * [`storm`] — the connection-storm harness behind `storm_smoke` and
//!   the storm phase of `serve_bench`: thousands of idle sockets on a
//!   flat thread count while an active, bitwise-verified predict load
//!   keeps its latency.
//! * Criterion benches in `benches/` measure substrate and pipeline
//!   throughput plus three ablations: probe granularity, alignment
//!   metric, and population evidence.

pub mod chaos;
pub mod repair_fixture;
pub mod storm;
pub mod table1;

pub use table1::{
    aggregate_tables, default_defects, render_table, run_cell, run_table, run_table_seeds,
    run_table_seeds_with_store, run_table_with_store, CellResult, Table1Config, TableResult,
};
