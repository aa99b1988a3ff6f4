//! The repository benchmark.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload <serve_c32|serve_repair|table1_cell|all> \
//!     [--seed N] [--seconds S] [--trace 0|1]
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --compare <record.json> <record.json>
//! ```
//!
//! Run from the repository root. Each workload runs in a process of its
//! own (so `peak_rss_mb` is that workload's), generates its inputs from
//! `--seed`, measures for `--seconds`, checks every output it can, and
//! prints a human report followed by one JSON result line:
//! end-to-end metrics with `--trace 0`, per-layer metrics with
//! `--trace 1`. Metric names and units are the ones `BENCHMARK.json`
//! declares; `perfbench/spec.json` says what each means per workload and
//! which end-to-end metric each per-layer metric should move. Timed
//! end-to-end metrics are scaled to a reference host speed by the
//! [`gauge`] read between units of work; the run record keeps them as
//! measured too.
//!
//! Every run writes a record with its provenance to
//! `.bench_out/<workload>-seed<N>-trace<T>.json`; a traced run also
//! writes its span tree next to it. `--compare` refuses two records
//! whose provenance differs. A failed output check exits with code 1
//! and prints no result line.

mod gauge;
mod layers;
mod loadgen;
mod open_loop;
mod provenance;
mod report;
mod serve_c32;
mod serve_repair;
mod stats;
mod table1_cell;
mod trace;

use std::path::{Path, PathBuf};
use std::process::ExitCode;

use deepmorph_json::Json;

use gauge::Gauge;
use report::{Declared, Kind, Run};
use trace::Tracer;

/// Workloads in the order `--workload all` runs them.
const WORKLOADS: [&str; 3] = ["serve_c32", "serve_repair", "table1_cell"];

/// Directory (under the working directory) for run records, span trees
/// and the serve fixture's scratch deployments.
const OUT_DIR: &str = ".bench_out";

/// What a workload needs to know about its run.
#[derive(Debug)]
pub struct Ctx {
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
}

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
    compare: Option<(PathBuf, PathBuf)>,
}

fn parse_args(args: &[String]) -> Result<Args, String> {
    let mut parsed = Args {
        workload: String::new(),
        seed: 7,
        seconds: 10.0,
        trace: false,
        compare: None,
    };
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or_else(|| format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => parsed.workload = value()?.clone(),
            "--seed" => parsed.seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => {
                parsed.seconds = value()?.parse().map_err(|e| format!("--seconds: {e}"))?
            }
            "--trace" => parsed.trace = value()? == "1",
            "--compare" => {
                let a = PathBuf::from(value()?);
                let b = PathBuf::from(it.next().ok_or("--compare needs two records")?);
                parsed.compare = Some((a, b));
            }
            other => return Err(format!("unknown argument `{other}`")),
        }
    }
    if parsed.compare.is_none() && parsed.workload.is_empty() {
        return Err("--workload is required".into());
    }
    Ok(parsed)
}

fn run_workload(
    name: &str,
    ctx: &Ctx,
    run: &mut Run,
    tracer: &Tracer,
    gauge: &mut Gauge,
) -> Result<(), String> {
    match name {
        "serve_c32" => serve_c32::run(ctx, run, tracer, gauge),
        "serve_repair" => serve_repair::run(ctx, run, tracer, gauge),
        "table1_cell" => table1_cell::run(ctx, run, tracer, gauge),
        other => Err(format!("unknown workload `{other}` (known: {WORKLOADS:?})")),
    }
}

/// Runs every workload as a child process of this binary, so each
/// reports its own peak RSS, and summarizes their result lines.
fn run_all(args: &Args) -> ExitCode {
    let exe = match std::env::current_exe() {
        Ok(exe) => exe,
        Err(e) => {
            eprintln!("perfbench: cannot locate own binary: {e}");
            return ExitCode::FAILURE;
        }
    };
    let mut ok = true;
    let mut summary = Vec::new();
    for workload in WORKLOADS {
        println!("==== {workload} ====");
        let output = std::process::Command::new(&exe)
            .args(["--workload", workload])
            .args(["--seed", &args.seed.to_string()])
            .args(["--seconds", &args.seconds.to_string()])
            .args(["--trace", if args.trace { "1" } else { "0" }])
            .stderr(std::process::Stdio::inherit())
            .output();
        match output {
            Ok(out) => {
                let text = String::from_utf8_lossy(&out.stdout);
                print!("{text}");
                ok &= out.status.success();
                summary.push((workload, text.lines().last().unwrap_or("").to_string()));
            }
            Err(e) => {
                eprintln!("perfbench: cannot run {workload}: {e}");
                ok = false;
            }
        }
    }
    println!("==== summary ====");
    for (workload, line) in summary {
        println!("{workload}: {line}");
    }
    if ok {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

/// Compares two run records metric by metric; refuses when their
/// provenance differs in a comparable field.
fn compare(a: &Path, b: &Path) -> ExitCode {
    let load = |p: &Path| -> Result<Json, String> {
        let text = std::fs::read_to_string(p).map_err(|e| format!("{}: {e}", p.display()))?;
        Json::parse(&text).map_err(|e| format!("{}: {e:?}", p.display()))
    };
    let (ra, rb) = match (load(a), load(b)) {
        (Ok(ra), Ok(rb)) => (ra, rb),
        (Err(e), _) | (_, Err(e)) => {
            eprintln!("perfbench: {e}");
            return ExitCode::FAILURE;
        }
    };
    let null = Json::Null;
    let diffs = provenance::differences(
        ra.get("provenance").unwrap_or(&null),
        rb.get("provenance").unwrap_or(&null),
    );
    if !diffs.is_empty() {
        eprintln!("perfbench: refusing to compare records of different provenance:");
        for d in diffs {
            eprintln!("  {d}");
        }
        return ExitCode::from(2);
    }
    let metrics = |r: &Json| -> Vec<(String, f64, String)> {
        r.get("run")
            .and_then(|run| run.get("metrics"))
            .and_then(Json::as_arr)
            .unwrap_or(&[])
            .iter()
            .filter_map(|m| {
                Some((
                    m.get("name")?.as_str()?.to_string(),
                    m.get("value")?.as_f64()?,
                    m.get("unit")?.as_str()?.to_string(),
                ))
            })
            .collect()
    };
    let mb = metrics(&rb);
    for (name, va, unit) in metrics(&ra) {
        if let Some((_, vb, _)) = mb.iter().find(|(n, _, _)| *n == name) {
            let ratio = if va != 0.0 { vb / va } else { f64::NAN };
            println!("{name:<40} {va:>14.6} -> {vb:>14.6} {unit:<8} (x{ratio:.4})");
        }
    }
    ExitCode::SUCCESS
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().collect();
    let args = match parse_args(&argv[1..]) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::FAILURE;
        }
    };
    if let Some((a, b)) = &args.compare {
        return compare(a, b);
    }
    if args.workload == "all" {
        return run_all(&args);
    }
    match run_one(&args, &argv[1..]) {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("perfbench: {e}");
            ExitCode::FAILURE
        }
    }
}

fn run_one(args: &Args, argv: &[String]) -> Result<(), String> {
    let root = std::env::current_dir().map_err(|e| format!("working directory: {e}"))?;
    let declared = Declared::parse(
        &std::fs::read_to_string(root.join("BENCHMARK.json"))
            .map_err(|e| format!("BENCHMARK.json (run from the repository root): {e}"))?,
    )?;
    let out_dir = root.join(OUT_DIR);
    let scratch = out_dir.join("tmp");
    std::fs::create_dir_all(&scratch).map_err(|e| format!("{}: {e}", scratch.display()))?;
    // Process-wide settings, before any thread exists: fixture
    // deployments go to a scratch directory inside the working
    // directory, and a traced run times every GEMM once telemetry is
    // armed (the gate is read once per process).
    std::env::set_var("TMPDIR", &scratch);
    if args.trace {
        std::env::set_var("DEEPMORPH_KERNEL_TIMING", "1");
    }

    let ctx = Ctx {
        seed: args.seed,
        seconds: args.seconds,
        trace: args.trace,
    };
    let run_id = format!(
        "{}-seed{}-trace{}",
        args.workload,
        args.seed,
        u8::from(args.trace)
    );
    let tracer = Tracer::new(run_id.clone(), args.trace);
    let mut run = Run::default();
    let mut gauge = Gauge::default();
    let outcome = tracer.time(&args.workload, || {
        run_workload(&args.workload, &ctx, &mut run, &tracer, &mut gauge)
    });
    outcome.0?;
    run.info(
        "host.gauge_ms",
        gauge.median_s() * 1e3,
        "ms",
        gauge.readings(),
    );
    run.info(
        "error_rate",
        run.error_rate(),
        "fraction",
        run.attempted as usize,
    );

    if !run.checks_passed() {
        for c in run.checks.iter().filter(|c| !c.passed) {
            eprintln!("check FAILED {}: {}", c.name, c.detail);
        }
        return Err("output check failed; this run's numbers are not reported".into());
    }
    let kind = if args.trace {
        Kind::Layer
    } else {
        Kind::EndToEnd
    };
    let metrics = declared.result_metrics(&mut run, kind)?;
    print!("{}", run.text());
    if args.trace {
        println!("span tree ({run_id}):");
        print!("{}", tracer.tree_text());
    }

    let mut command = vec!["perfbench".to_string()];
    command.extend(argv.iter().cloned());
    let record = Json::obj([
        ("workload", Json::str(args.workload.clone())),
        ("seed", Json::num(args.seed as f64)),
        ("seconds", Json::num(args.seconds)),
        ("trace", Json::Bool(args.trace)),
        ("provenance", provenance::collect(&root, &command)),
        ("run", run.to_json()),
    ]);
    let record_path = out_dir.join(format!("{run_id}.json"));
    std::fs::write(&record_path, record.to_string_pretty())
        .map_err(|e| format!("{}: {e}", record_path.display()))?;
    if args.trace {
        let spans_path = out_dir.join(format!("{run_id}-spans.json"));
        std::fs::write(&spans_path, tracer.to_json().to_string_pretty())
            .map_err(|e| format!("{}: {e}", spans_path.display()))?;
    }

    if let Json::Obj(pairs) = &metrics {
        let not_finite = |m: &Json| {
            !m.get("value")
                .and_then(Json::as_f64)
                .is_some_and(f64::is_finite)
        };
        if let Some((name, _)) = pairs.iter().find(|(_, m)| not_finite(m)) {
            return Err(format!("metric `{name}` has no finite value"));
        }
    }
    let result = Json::obj([
        ("correct", Json::Bool(true)),
        ("attempted", Json::num(run.attempted as f64)),
        ("failed", Json::num(run.failed as f64)),
        ("metrics", metrics),
    ]);
    println!("{}", result.to_string_compact());
    Ok(())
}
