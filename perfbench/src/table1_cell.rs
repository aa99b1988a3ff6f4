//! `table1_cell`: one Table I cell, offline, with no server.
//!
//! ResNet (Tiny) on synth-objects with UTD 3→5 at 0.5, under the
//! `Table1Config` defaults (120/40 per class, 8 epochs), driven through
//! `StagedEngine` over a fresh in-memory `ArtifactStore` (cold), then
//! rerun against the now-warm store. Training forward/backward and probe
//! fitting dominate the cold cell, so this is the bypass workload for
//! every serve change while nn and tensor training changes show up as
//! `work_s`; the warm rerun exercises the artifact read/decode path
//! instead of its write path and is the workload's `p50_us`. The host
//! gauge is sampled between cycles, and both are scaled by it (see
//! `crate::gauge`).
//!
//! The cell is the one `Table1Config` defines (its seed 7) on every run.
//! A cell's cost depends on its data (how many faulty cases its model
//! makes, how sparse its activations are), so a cell derived from the
//! workload seed would make the numbers vary with the data rather than
//! with the program.

use std::time::Instant;

use deepmorph::prelude::{
    ArtifactStore, DefectKind, ModelFamily, Scenario, StagedEngine, StoreStats, TrainConfig,
};
use deepmorph_bench::table1::{dataset_for, default_defects, Table1Config};
use deepmorph_models::build_model;
use deepmorph_serve::prelude::TelemetryConfig;
use deepmorph_telemetry::TelemetrySnapshot;
use deepmorph_tensor::init::stream_rng;

use crate::gauge::Gauge;
use crate::layers;
use crate::report::Run;
use crate::stats::{self, median};
use crate::trace::Tracer;
use crate::Ctx;

const FAMILY: ModelFamily = ModelFamily::ResNet;
/// Typical length of one cold cell plus its warm reruns on a 2-core
/// host. A run performs `--seconds / CYCLE_S` cycles (at least one), so
/// every run of a given length does the same work.
const CYCLE_S: f64 = 4.5;
/// Gauge readings between cycles.
const GAUGE_READINGS: usize = 3;
/// Warm reruns after each cold cell.
const WARM_RERUNS: usize = 200;

/// The cell's scenario: `table1::cell_scenario` at attempt 0.
fn scenario() -> Result<Scenario, String> {
    let config = Table1Config::default();
    let utd = default_defects()[1].clone();
    Scenario::builder(FAMILY, dataset_for(FAMILY))
        .seed(config.seed)
        .scale(config.scale)
        .train_per_class(config.train_per_class)
        .test_per_class(config.test_per_class)
        .train_config(TrainConfig {
            epochs: config.epochs_for(FAMILY),
            batch_size: 32,
            learning_rate: 0.05,
            lr_decay: 0.9,
            ..TrainConfig::default()
        })
        .inject(utd)
        .build()
        .map_err(|e| format!("cell scenario: {e}"))
}

/// One pass of the four stages.
struct Cell {
    report_json: String,
    dominant: Option<DefectKind>,
    /// trained, instrumented, footprints, report — seconds each.
    stages: [f64; 4],
    total_s: f64,
}

fn cell(
    engine: &StagedEngine,
    scenario: &Scenario,
    name: &str,
    tracer: &Tracer,
) -> Result<Cell, String> {
    let (result, total_s) = tracer.time(name, || -> Result<_, String> {
        let stage_err = |stage: &'static str| {
            move |e: deepmorph::prelude::DeepMorphError| format!("{stage}: {e}")
        };
        let (trained, t0) = tracer.time("core.stage.trained", || engine.trained(scenario));
        let trained = trained.map_err(stage_err("trained"))?;
        if trained.faulty.is_empty() {
            return Err("the trained model made no mistakes: no faulty cases to diagnose".into());
        }
        let (inst, t1) = tracer.time("core.stage.instrumented", || {
            engine.instrumented(scenario, &trained)
        });
        let inst = inst.map_err(stage_err("instrumented"))?;
        let (fps, t2) = tracer.time("core.stage.footprints", || {
            engine.footprints(scenario, &trained, &inst)
        });
        let fps = fps.map_err(stage_err("footprints"))?;
        let (report, t3) = tracer.time("core.stage.report", || {
            engine.report(scenario, &trained, &inst, &fps)
        });
        let report = report.map_err(stage_err("report"))?;
        Ok((report.to_json(), report.dominant(), [t0, t1, t2, t3]))
    });
    let (report_json, dominant, stages) = result?;
    Ok(Cell {
        report_json,
        dominant,
        stages,
        total_s,
    })
}

/// What one cold cell plus its warm reruns measured.
struct Cycle {
    traced: bool,
    setup_s: f64,
    injected_s: f64,
    cold: Cell,
    warm_s: Vec<f64>,
    cold_stats: StoreStats,
    warm_stats: StoreStats,
    telemetry: Option<TelemetrySnapshot>,
    engine: StagedEngine,
}

fn cycle(traced: bool, run: &mut Run, tracer: &Tracer) -> Result<(Cycle, Scenario), String> {
    let (prepared, setup_s) = tracer.time("setup", || -> Result<_, String> {
        let scenario = scenario()?;
        let (data, injected_s) = tracer.time("data.injected", || scenario.injected_data());
        data.map_err(|e| format!("injected data: {e}"))?;
        Ok((
            scenario,
            injected_s,
            StagedEngine::new(ArtifactStore::in_memory()),
        ))
    });
    let (scenario, injected_s, engine) = prepared?;
    let telemetry = traced.then(|| deepmorph_telemetry::install(TelemetryConfig::default()));
    let cold_started = Instant::now();
    let cold = cell(&engine, &scenario, "cell.cold", tracer)?;
    let cold_stats = engine.store().stats();
    let mut warm_s = Vec::with_capacity(WARM_RERUNS);
    let mut warm_stats = StoreStats::default();
    let mut differing = 0usize;
    for _ in 0..WARM_RERUNS {
        let before = engine.store().stats();
        let warm = cell(&engine, &scenario, "cell.warm", tracer)?;
        warm_stats = engine.store().stats().since(&before);
        differing += usize::from(warm.report_json != cold.report_json);
        warm_s.push(warm.total_s);
    }
    run.check(
        "warm_reports_equal_cold",
        differing == 0,
        format!("{WARM_RERUNS} warm reruns, {differing} reports differ bitwise from the cold one"),
    );
    let telemetry = telemetry.map(|t| {
        let snapshot = t.snapshot();
        deepmorph_telemetry::clear();
        snapshot
    });
    run.count(1 + WARM_RERUNS as u64, 0);
    run.notes.push(format!(
        "{} cell: cold {:.3} s ({}), warm median {:.1} ms ({} per rerun), wall {:.3} s",
        if traced { "traced" } else { "untraced" },
        cold.total_s,
        cold_stats,
        median(&warm_s) * 1e3,
        warm_stats,
        cold_started.elapsed().as_secs_f64()
    ));
    Ok((
        Cycle {
            traced,
            setup_s,
            injected_s,
            cold,
            warm_s,
            cold_stats,
            warm_stats,
            telemetry,
            engine,
        },
        scenario,
    ))
}

pub fn run(ctx: &Ctx, run: &mut Run, tracer: &Tracer, gauge: &mut Gauge) -> Result<(), String> {
    // A traced run adds a first, untraced cycle as the base of
    // `trace_overhead`.
    let count = (ctx.seconds / CYCLE_S).round().max(1.0) as usize + usize::from(ctx.trace);
    let mut cycles: Vec<Cycle> = Vec::with_capacity(count);
    let mut scenario = None;
    for index in 0..count {
        let traced = ctx.trace && index > 0;
        let (c, s) = tracer
            .time(&format!("cycle.{index}"), || cycle(traced, run, tracer))
            .0?;
        gauge.sample(GAUGE_READINGS);
        scenario = Some(s);
        cycles.push(c);
        if index == 0 && !ctx.trace {
            // Every later cycle repeats the same work, so the first one
            // sets the peak; later cycles only add allocator noise.
            run.e2e("peak_rss_mb", stats::peak_rss_mb(), "MiB", 1);
        }
    }
    let scenario = scenario.expect("at least one cycle");

    let first = &cycles[0].cold;
    let identical = cycles
        .iter()
        .all(|c| c.cold.report_json == first.report_json);
    run.check(
        "cold_reports_identical",
        identical,
        format!(
            "{} cold cells ({} traced) produce bitwise-identical report JSON",
            cycles.len(),
            cycles.iter().filter(|c| c.traced).count()
        ),
    );
    run.check(
        "dominant_defect_is_utd",
        first.dominant == Some(DefectKind::UnreliableTrainingData),
        format!("dominant defect {:?}", first.dominant),
    );

    let untraced: Vec<&Cycle> = cycles.iter().filter(|c| !c.traced).collect();
    let of =
        |cs: &[&Cycle], f: fn(&Cycle) -> f64| median(&cs.iter().map(|c| f(c)).collect::<Vec<_>>());
    // Every end-to-end time is scaled by the host gauge (see
    // `crate::gauge`); cell_s and cell_warm_s are as measured.
    let scale = gauge.scale();
    let setups: Vec<f64> = cycles.iter().map(|c| c.setup_s).collect();
    run.e2e_scaled("setup_s", median(&setups), "s", setups.len(), scale);
    let warm_us: Vec<f64> = untraced
        .iter()
        .flat_map(|c| c.warm_s.iter().map(|s| s * 1e6))
        .collect();
    run.e2e_scaled("p50_us", median(&warm_us), "us", warm_us.len(), scale);
    let cold_s = of(&untraced, |c| c.cold.total_s);
    run.e2e_scaled("work_s", cold_s, "s", untraced.len(), scale);
    run.info("cell_s", cold_s, "s", untraced.len());
    run.info("cell_warm_s", median(&warm_us) * 1e-6, "s", warm_us.len());

    if ctx.trace {
        let traced: Vec<&Cycle> = cycles.iter().filter(|c| c.traced).collect();
        let n = traced.len();
        for (i, stage) in ["trained", "instrumented", "footprints", "report"]
            .iter()
            .enumerate()
        {
            let values: Vec<f64> = traced.iter().map(|c| c.cold.stages[i]).collect();
            run.layer(&format!("core.stage.{stage}_s"), median(&values), "s", n);
        }
        run.layer(
            "core.stage.residual_s",
            of(&traced, |c| {
                c.cold.total_s - c.cold.stages.iter().sum::<f64>()
            }),
            "s",
            n,
        );
        let last = traced.last().expect("a traced run has traced cycles");
        run.layer(
            "core.artifact.hits",
            last.warm_stats.hits as f64,
            "count",
            1,
        );
        run.layer(
            "core.artifact.misses",
            last.warm_stats.misses as f64,
            "count",
            1,
        );
        run.layer(
            "core.artifact.writes",
            last.warm_stats.writes as f64,
            "count",
            1,
        );
        run.info(
            "core.artifact.cold_misses",
            last.cold_stats.misses as f64,
            "count",
            1,
        );
        run.info(
            "core.artifact.cold_writes",
            last.cold_stats.writes as f64,
            "count",
            1,
        );
        run.layer("data.injected_s", of(&traced, |c| c.injected_s), "s", n);
        let snapshot = last
            .telemetry
            .as_ref()
            .expect("traced cycle kept telemetry");
        let traced_wall = last.cold.total_s + last.warm_s.iter().sum::<f64>();
        layers::gemm_layers(run, snapshot, traced_wall);
        run.layer(
            "trace_overhead",
            of(&traced, |c| c.cold.total_s) / cold_s,
            "ratio",
            n,
        );

        // Layer calls on the cell's own model and data.
        let trained = last
            .engine
            .trained(&scenario)
            .map_err(|e| format!("warm trained stage: {e}"))?;
        let mut model = trained
            .instantiate()
            .map_err(|e| format!("instantiate the cell model: {e}"))?;
        let (train, test) = scenario
            .injected_data()
            .map_err(|e| format!("injected data: {e}"))?;
        let one = deepmorph_nn::train::gather_batch(test.images(), &[0])
            .map_err(|e| format!("gather: {e}"))?;
        let batch: Vec<usize> = (0..32).collect();
        let b32 = deepmorph_nn::train::gather_batch(test.images(), &batch)
            .map_err(|e| format!("gather: {e}"))?;
        let b1_us = tracer
            .time("nn.graph.forward_b1", || {
                layers::forward_us(&mut model.graph, &one, 200)
            })
            .0;
        run.layer("nn.graph.forward_b1_us", b1_us, "us", 200);
        let b32_us = tracer
            .time("nn.graph.forward_b32", || {
                layers::forward_us(&mut model.graph, &b32, 50)
            })
            .0;
        run.layer("nn.graph.forward_b32_us", b32_us, "us", 50);
        let mut fresh = build_model(
            &model.spec,
            &mut stream_rng(scenario.seed(), "perfbench-epoch"),
        )
        .map_err(|e| format!("build ResNet: {e}"))?;
        let config = TrainConfig {
            batch_size: 32,
            learning_rate: 0.05,
            lr_decay: 0.9,
            ..TrainConfig::default()
        };
        let split = tracer
            .time("nn.train.epoch", || {
                layers::epoch_replay(&mut fresh.graph, &train, &config)
            })
            .0;
        layers::train_layers(run, &split);
        tracer.time("tensor.gemm.peak", || layers::peak_gflops(run));

        run.unavailable_all(&layers::SERVE_LAYERS, "offline workload: no server");
        run.unavailable_all(&layers::REPAIR_LAYERS, "offline workload: no server");
        run.unavailable(
            "loadgen.late_p99_us",
            "offline workload: no request schedule",
        );
        run.unavailable_all(
            &["core.pipeline.prepare_s", "core.pipeline.diagnose_ms"],
            "the staged engine runs this path: see core.stage.instrumented/footprints/report",
        );
        run.unavailable(
            "core.stage.repaired_s",
            "a Table I cell diagnoses; it does not repair",
        );
    }
    Ok(())
}
