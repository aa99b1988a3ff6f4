//! Regenerates the paper's Table I.
//!
//! Usage:
//! ```text
//! cargo run --release -p deepmorph-bench --bin table1 [-- --scale tiny|small|paper]
//!     [--seed N] [--seeds N] [--train-per-class N] [--test-per-class N]
//!     [--epochs N] [--json PATH]
//! ```
//!
//! `--seeds N` runs the table at `N` seeds (`seed`, `seed + 101`, …) and
//! prints the per-cell mean ratios, then how many of the per-seed cells
//! the injected defect won (the mean can hide a seed's miss); `--json`
//! writes the mean table. With `DEEPMORPH_ARTIFACTS` set, every
//! stage persists in that directory, so a rerun reloads unchanged cells
//! instead of retraining them.

use std::time::Instant;

use deepmorph::artifact::{env_dir, ArtifactStore, ARTIFACTS_ENV};
use deepmorph::prelude::ModelScale;
use deepmorph_bench::{
    aggregate_tables, render_table, run_table, run_table_seeds, Table1Config, TableResult,
};

fn parse_args() -> (Table1Config, Option<String>, usize) {
    let mut config = Table1Config::default();
    let mut json_path = None;
    let mut num_seeds = 1usize;
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut i = 0;
    while i < args.len() {
        let key = args[i].as_str();
        let value = args.get(i + 1).cloned();
        let take = |v: Option<String>| -> String {
            v.unwrap_or_else(|| {
                eprintln!("missing value for {key}");
                std::process::exit(2);
            })
        };
        match key {
            "--scale" => {
                config.scale = match take(value).as_str() {
                    "tiny" => ModelScale::Tiny,
                    "small" => ModelScale::Small,
                    "paper" => ModelScale::Paper,
                    other => {
                        eprintln!("unknown scale `{other}` (tiny|small|paper)");
                        std::process::exit(2);
                    }
                };
                i += 2;
            }
            "--seed" => {
                config.seed = take(value).parse().expect("--seed takes a u64");
                i += 2;
            }
            "--train-per-class" => {
                config.train_per_class = take(value).parse().expect("usize");
                i += 2;
            }
            "--test-per-class" => {
                config.test_per_class = take(value).parse().expect("usize");
                i += 2;
            }
            "--epochs" => {
                config.epochs = take(value).parse().expect("usize");
                i += 2;
            }
            "--json" => {
                json_path = Some(take(value));
                i += 2;
            }
            "--seeds" => {
                num_seeds = take(value).parse().expect("--seeds takes a count");
                i += 2;
            }
            other => {
                eprintln!("unknown argument `{other}`");
                std::process::exit(2);
            }
        }
    }
    (config, json_path, num_seeds)
}

/// The persistent artifact store, when `DEEPMORPH_ARTIFACTS` opts in with
/// a non-empty directory.
fn env_store() -> Option<ArtifactStore> {
    let dir = env_dir(std::env::var_os(ARTIFACTS_ENV))?;
    Some(ArtifactStore::open(dir).expect("artifact store directory"))
}

fn main() {
    let (config, json_path, num_seeds) = parse_args();
    println!("Table I sweep: {config:?} ({num_seeds} seed(s))\n");
    let start = Instant::now();
    let print_cell = |seed: u64, cell: &deepmorph_bench::CellResult| {
        println!(
            "[{:>7.1}s] seed {:<5} {:<8} x {:<3} -> reported {:<3} {} \
             (ratios ITD={:.2} UTD={:.2} SD={:.2}, test acc {:.2}, {} faulty, health {:.2})",
            start.elapsed().as_secs_f32(),
            seed,
            cell.model,
            cell.injected,
            cell.reported,
            if cell.correct { "ok " } else { "MISS" },
            cell.ratios[0],
            cell.ratios[1],
            cell.ratios[2],
            cell.test_accuracy,
            cell.faulty_cases,
            cell.model_health,
        );
    };
    let store = env_store().unwrap_or_else(ArtifactStore::disabled);
    let mut per_seed_won = None;
    let result = if num_seeds <= 1 {
        run_table(&config, store, |cell| print_cell(config.seed, cell))
    } else {
        let seeds: Vec<u64> = (0..num_seeds as u64)
            .map(|i| config.seed + i * 101)
            .collect();
        run_table_seeds(&config, &seeds, store, print_cell).map(|tables| {
            let won: usize = tables.iter().map(TableResult::cells_won).sum();
            let total: usize = tables.iter().map(|t| t.cells.len()).sum();
            per_seed_won = Some((won, total));
            aggregate_tables(&tables)
        })
    }
    .unwrap_or_else(|e| {
        eprintln!("table sweep failed: {e}");
        std::process::exit(1);
    });

    println!("\n{}", render_table(&result));
    if let Some((won, total)) = per_seed_won {
        println!("per-seed cells won: {won} of {total}");
    }
    println!("total wall time: {:.1}s", start.elapsed().as_secs_f32());

    if let Some(path) = json_path {
        std::fs::write(&path, result.to_json_value().to_string_pretty())
            .unwrap_or_else(|e| eprintln!("could not write {path}: {e}"));
        println!("wrote JSON results to {path}");
    }
}
