//! `serve_repair`: the `repair_fixture` deployment (LeNet on
//! synth-digits, ITD on classes 0–2 at 0.98) serving an open-loop
//! stream while it is diagnosed, repaired and hot-swapped.
//!
//! One connection carries single-row predicts at a fixed rate well below
//! capacity (one sender thread, one reader thread), each timed from when
//! it was due. While the stream runs, each cycle sends the labeled
//! held-out traffic, calls `Client::diagnose` twice (cold, then warm),
//! calls `Client::repair`, and keeps serving after the swap. Batches stay
//! at about one row and the LeNet forward is tiny, so predict latency is
//! event-loop and scheduling overhead; meanwhile probe training, data
//! regeneration, retraining and the registry swap compete with serving
//! for the cores. A batching gain on `serve_c32` should predict no change
//! here.
//!
//! Each cycle deploys afresh (fixture training included), so every
//! diagnose is cold and every repair retrains. The host gauge is
//! sampled between cycles, and `setup_s` and `work_s` are scaled by it
//! (see `crate::gauge`).

use std::path::PathBuf;
use std::time::{Duration, Instant};

use deepmorph::prelude::{
    recommend, ArtifactStore, DeepMorph, DeepMorphConfig, DefectKind, DefectReport, FaultyCases,
    StagedEngine,
};
use deepmorph_bench::repair_fixture::{self, MODEL};
use deepmorph_json::Json;
use deepmorph_models::{build_model, load_model};
use deepmorph_serve::prelude::{
    Client, RepairResponse, StatsSnapshot, TelemetryConfig, TelemetryReport,
};
use deepmorph_tensor::init::stream_rng;

use crate::gauge::Gauge;
use crate::layers;
use crate::loadgen::input_row;
use crate::open_loop::{OpenLoop, Timed};
use crate::report::Run;
use crate::stats::{self, median, quantile, supported_tail};
use crate::trace::Tracer;
use crate::Ctx;

const SHAPE: [usize; 3] = [1, 16, 16];
/// Offered predict rate; the served LeNet answers thousands per second.
const RATE_HZ: f64 = 200.0;
/// Serving before the labeled traffic, and after the swap.
const BASELINE_S: f64 = 0.5;
const POST_SWAP_S: f64 = 0.5;
/// Upper bound on one cycle's stream, for the schedule's preallocation.
const MAX_CYCLE_S: f64 = 120.0;
/// Typical length of one cycle on a 2-core host. A run performs
/// `--seconds / CYCLE_S` cycles (at least one), so every run of a given
/// length does the same work.
const CYCLE_S: f64 = 2.7;
/// Gauge readings between cycles.
const GAUGE_READINGS: usize = 3;
/// The diagnosis configuration `repair_fixture::serve` gives the server.
const MAX_FAULTY_CASES: usize = 200;

/// What one deploy → diagnose → repair → serve cycle measured.
struct Cycle {
    traced: bool,
    setup_s: f64,
    diagnose_s: f64,
    diagnose_warm_s: f64,
    repair_s: f64,
    repair: RepairResponse,
    probe_trainings: u64,
    /// Counter delta over the baseline phase (before labeled traffic).
    baseline: StatsSnapshot,
    telemetry: Option<TelemetryReport>,
    stream_s: f64,
    timed: Vec<Timed>,
    /// Phase boundaries, seconds after the stream's origin.
    phases: [(&'static str, f64); 4],
}

fn err(what: &str) -> impl Fn(deepmorph_serve::prelude::ServeError) -> String + '_ {
    move |e| format!("{what}: {e}")
}

fn dominant(report_json: &str) -> Result<Option<DefectKind>, String> {
    Ok(DefectReport::from_json(report_json)
        .map_err(|e| format!("diagnosis report: {e}"))?
        .dominant())
}

fn cycle(
    ctx: &Ctx,
    index: usize,
    traced: bool,
    run: &mut Run,
    tracer: &Tracer,
) -> Result<(Cycle, PathBuf), String> {
    let (deployed, setup_s) = tracer.time("setup", || -> Result<_, String> {
        let (dir, _accuracy) = tracer
            .time("fixture.deploy", || {
                repair_fixture::deploy(&format!("perfbench-{index}"))
            })
            .0;
        let server = tracer
            .time("fixture.serve", || repair_fixture::serve(&dir))
            .0;
        tracer
            .time("warmup", || -> Result<(), String> {
                let mut client = Client::connect(server.local_addr()).map_err(err("connect"))?;
                for i in 0..16 {
                    client
                        .predict(MODEL, &input_row(ctx.seed, u64::MAX - i, SHAPE))
                        .map_err(err("warm-up predict"))?;
                }
                Ok(())
            })
            .0?;
        Ok((dir, server))
    });
    let (dir, server) = deployed?;
    // Arm after set-up, so the traced numbers cover serving, diagnosis
    // and repair but not the fixture's own training.
    if traced {
        deepmorph_telemetry::install(TelemetryConfig::default());
    }

    let addr = server.local_addr();
    let seed = ctx.seed ^ (index as u64) << 32;
    let capacity = (MAX_CYCLE_S * RATE_HZ) as usize;
    let stream = OpenLoop::start(addr, MODEL, RATE_HZ, capacity, move |i| {
        input_row(seed, i, SHAPE)
    })
    .map_err(|e| format!("open-loop connect: {e}"))?;
    let at = |t: Instant| (t - stream.origin).as_secs_f64();
    let mut client = Client::connect(addr).map_err(err("connect"))?;

    let s0 = server.stats();
    tracer.time("phase.baseline", || {
        std::thread::sleep(Duration::from_secs_f64(BASELINE_S))
    });
    let s1 = server.stats();
    tracer.time("labeled_traffic", || {
        repair_fixture::send_labeled_traffic(&mut client)
    });
    let diagnose_start = Instant::now();
    let before = server.stats();
    let (cold, diagnose_s) = tracer.time("client.diagnose.cold", || client.diagnose(MODEL));
    let cold = cold.map_err(err("diagnose"))?;
    let (warm, diagnose_warm_s) = tracer.time("client.diagnose.warm", || client.diagnose(MODEL));
    let warm = warm.map_err(err("warm diagnose"))?;
    let after = server.stats();
    let repair_start = Instant::now();
    let (repair, repair_s) = tracer.time("client.repair", || client.repair(MODEL));
    let repair = repair.map_err(err("repair"))?;
    let post_start = Instant::now();
    tracer.time("phase.post_swap", || {
        std::thread::sleep(Duration::from_secs_f64(POST_SWAP_S))
    });
    let stream_end = Instant::now();
    let telemetry = if traced {
        let report = client.telemetry().map_err(err("telemetry"))?;
        deepmorph_telemetry::clear();
        Some(report)
    } else {
        None
    };
    run.count(4, 0); // labeled traffic, two diagnoses, one repair
    let phases = [
        ("baseline", 0.0),
        ("diagnose", at(diagnose_start)),
        ("repair", at(repair_start)),
        ("post_swap", at(post_start)),
    ];
    let stream_s = at(stream_end);
    let timed = tracer.time("stream.finish", || stream.finish()).0;
    tracer.time("server.shutdown", || server.shutdown());

    let probe_trainings = after.probe_trainings - before.probe_trainings;
    let cold_kind = dominant(&cold.report_json)?;
    run.check(
        "live_diagnosis_is_itd",
        cold_kind == Some(DefectKind::InsufficientTrainingData),
        format!("cycle {index}: dominant defect {cold_kind:?}"),
    );
    run.check(
        "warm_diagnosis_equals_cold",
        warm.report_json == cold.report_json,
        format!("cycle {index}: warm report is bitwise the cold report"),
    );
    run.check(
        "probe_trainings_rose_by_1",
        probe_trainings == 1,
        format!("cycle {index}: {probe_trainings} probe trainings across both diagnoses"),
    );
    run.check(
        "repair_swapped_and_improved",
        repair.swapped && repair.accuracy_after > repair.accuracy_before,
        format!(
            "cycle {index}: swapped={} held-out accuracy {:.4} -> {:.4}",
            repair.swapped, repair.accuracy_before, repair.accuracy_after
        ),
    );
    Ok((
        Cycle {
            traced,
            setup_s,
            diagnose_s,
            diagnose_warm_s,
            repair_s,
            repair,
            probe_trainings,
            baseline: layers::stats_delta(&s0, &s1),
            telemetry,
            stream_s,
            timed,
            phases,
        },
        dir,
    ))
}

/// Requests sent, succeeded and failed per phase of one cycle.
fn phase_accounting(run: &mut Run, index: usize, c: &Cycle) {
    let mut phases = Vec::new();
    for (i, &(name, start)) in c.phases.iter().enumerate() {
        let end = c.phases.get(i + 1).map_or(f64::INFINITY, |p| p.1);
        let inside: Vec<&Timed> = c
            .timed
            .iter()
            .filter(|t| t.due_s >= start && t.due_s < end)
            .collect();
        let ok: Vec<f64> = inside
            .iter()
            .map(|t| t.latency_us)
            .filter(|l| l.is_finite())
            .collect();
        let late: Vec<f64> = inside.iter().map(|t| t.late_us).collect();
        phases.push(Json::obj([
            ("phase", Json::str(name)),
            ("sent", Json::usize(inside.len())),
            ("succeeded", Json::usize(ok.len())),
            ("failed", Json::usize(inside.len() - ok.len())),
            ("p50_us", Json::num(median(&ok))),
            ("late_p99_us", Json::num(quantile(&late, 0.99))),
        ]));
        run.notes.push(format!(
            "cycle {index} {name:<9}: sent {:>5}, succeeded {:>5}, failed {}, p50 {:.0} us, \
             sender late p99 {:.0} us",
            inside.len(),
            ok.len(),
            inside.len() - ok.len(),
            median(&ok),
            quantile(&late, 0.99)
        ));
    }
    run.phases.push(Json::obj([
        ("cycle", Json::usize(index)),
        ("traced", Json::Bool(c.traced)),
        ("phases", Json::arr(phases)),
    ]));
}

/// Replays the pipeline calls behind diagnose and repair in-process, on
/// the deployed fixture, timing each layer on its own.
fn replay(dir: &std::path::Path, run: &mut Run, tracer: &Tracer) -> Result<(), String> {
    let scenario = repair_fixture::scenario();
    let (data, injected_s) = tracer.time("data.injected", || scenario.injected_data());
    let (train, test) = data.map_err(|e| format!("injected data: {e}"))?;
    run.layer("data.injected_s", injected_s, "s", 1);

    let path = dir.join(format!("{MODEL}.dmmd"));
    let load = || load_model(&path).map_err(|e| format!("load {}: {e}", path.display()));
    let mut served = load()?;
    let (faulty, _) = FaultyCases::collect_capped(&mut served, &test, MAX_FAULTY_CASES)
        .map_err(|e| format!("faulty cases: {e}"))?;
    let config = DeepMorphConfig {
        max_faulty_cases: MAX_FAULTY_CASES,
        ..DeepMorphConfig::default()
    };
    let model = load()?;
    let (session, prepare_s) = tracer.time("core.pipeline.prepare", || {
        DeepMorph::new(config).prepare(model, &train)
    });
    let mut session = session.map_err(|e| format!("prepare: {e}"))?;
    run.layer("core.pipeline.prepare_s", prepare_s, "s", 1);
    let (report, diagnose_s) = tracer.time("core.pipeline.diagnose", || {
        session.diagnose(&faulty, "replay")
    });
    let report = report.map_err(|e| format!("replayed diagnose: {e}"))?;
    run.layer("core.pipeline.diagnose_ms", diagnose_s * 1e3, "ms", 1);
    run.check(
        "replayed_diagnosis_is_itd",
        report.dominant() == Some(DefectKind::InsufficientTrainingData),
        format!(
            "in-process DeepMorph on the fixture: {:?}",
            report.dominant()
        ),
    );

    let plan = recommend(&report).ok_or("the replayed diagnosis yields no repair plan")?;
    let engine = StagedEngine::new(ArtifactStore::in_memory());
    let (repaired, repaired_s) = tracer.time("core.stage.repaired", || {
        engine.repaired(&scenario, "replay", &plan, session.instrumented_mut())
    });
    let repaired = repaired.map_err(|e| format!("replayed repair: {e}"))?;
    run.layer("core.stage.repaired_s", repaired_s, "s", 1);
    run.info(
        "core.stage.repaired_accuracy",
        f64::from(repaired.accuracy_after),
        "fraction",
        1,
    );

    let row = input_row(scenario.seed(), 0, SHAPE);
    let b1 = tracer
        .time("nn.graph.forward_b1", || {
            layers::forward_us(&mut served.graph, &row, 500)
        })
        .0;
    run.layer("nn.graph.forward_b1_us", b1, "us", 500);

    let mut fresh = build_model(
        &served.spec,
        &mut stream_rng(scenario.seed(), "perfbench-epoch"),
    )
    .map_err(|e| format!("build LeNet: {e}"))?;
    let split = tracer
        .time("nn.train.epoch", || {
            layers::epoch_replay(&mut fresh.graph, &train, &repair_fixture::train_config())
        })
        .0;
    layers::train_layers(run, &split);
    tracer.time("tensor.gemm.peak", || layers::peak_gflops(run));
    Ok(())
}

pub fn run(ctx: &Ctx, run: &mut Run, tracer: &Tracer, gauge: &mut Gauge) -> Result<(), String> {
    // A traced run adds a first, untraced cycle as the base of
    // `trace_overhead`.
    let count = (ctx.seconds / CYCLE_S).round().max(1.0) as usize + usize::from(ctx.trace);
    let mut cycles: Vec<Cycle> = Vec::with_capacity(count);
    let mut last_dir: Option<PathBuf> = None;
    for index in 0..count {
        let traced = ctx.trace && index > 0;
        let (c, dir) = tracer
            .time(&format!("cycle.{index}"), || {
                cycle(ctx, index, traced, run, tracer)
            })
            .0?;
        gauge.sample(GAUGE_READINGS);
        phase_accounting(run, index, &c);
        if index == 0 && !ctx.trace {
            // Every later cycle repeats the same work, so the first one
            // sets the peak; later cycles only add allocator noise.
            run.e2e("peak_rss_mb", stats::peak_rss_mb(), "MiB", 1);
        }
        let failed = c.timed.iter().filter(|t| !t.latency_us.is_finite()).count();
        run.count(c.timed.len() as u64, failed as u64);
        if let Some(old) = last_dir.replace(dir) {
            let _ = std::fs::remove_dir_all(old);
        }
        cycles.push(c);
    }

    // Set-up and work are scaled by the host gauge (see `crate::gauge`).
    // Predict latency is not: at 200/s it is the event loop's waiting,
    // which the host's load barely moves (fitted slope 0.2).
    let scale = gauge.scale();
    let setups: Vec<f64> = cycles.iter().map(|c| c.setup_s).collect();
    run.e2e_scaled("setup_s", median(&setups), "s", setups.len(), scale);
    let untraced: Vec<&Cycle> = cycles.iter().filter(|c| !c.traced).collect();
    let latencies: Vec<f64> = untraced
        .iter()
        .flat_map(|c| c.timed.iter().map(|t| t.latency_us))
        .collect();
    run.e2e("p50_us", median(&latencies), "us", latencies.len());
    let (pct, tail) = supported_tail(&latencies);
    run.info(&format!("p{pct}_us"), tail, "us", latencies.len());
    let work: Vec<f64> = untraced.iter().map(|c| c.diagnose_s + c.repair_s).collect();
    run.e2e_scaled("work_s", median(&work), "s", work.len(), scale);
    let of =
        |cs: &[&Cycle], f: fn(&Cycle) -> f64| median(&cs.iter().map(|c| f(c)).collect::<Vec<_>>());
    run.info(
        "diagnose_s",
        of(&untraced, |c| c.diagnose_s),
        "s",
        untraced.len(),
    );
    run.info(
        "repair_s",
        of(&untraced, |c| c.repair_s),
        "s",
        untraced.len(),
    );
    let late: Vec<f64> = untraced
        .iter()
        .flat_map(|c| c.timed.iter().map(|t| t.late_us))
        .collect();
    run.info(
        "loadgen.late_p99_us",
        quantile(&late, 0.99),
        "us",
        late.len(),
    );

    if ctx.trace {
        let traced: Vec<&Cycle> = cycles.iter().filter(|c| c.traced).collect();
        let n = traced.len();
        let last = traced.last().expect("a traced run has traced cycles");
        layers::batch_layers(run, &last.baseline);
        let report = last
            .telemetry
            .as_ref()
            .expect("traced cycle kept telemetry");
        layers::stage_layers(run, &report.snapshot);
        layers::gemm_layers(run, &report.snapshot, last.stream_s);
        run.layer(
            "serve.registry.swap_us",
            of(&traced, |c| c.repair.swap_micros as f64),
            "us",
            n,
        );
        run.layer(
            "serve.repair.probe_trainings",
            of(&traced, |c| c.probe_trainings as f64),
            "count",
            n,
        );
        run.layer(
            "serve.diagnose_warm_ms",
            of(&traced, |c| c.diagnose_warm_s * 1e3),
            "ms",
            n,
        );
        run.layer("serve.diagnose_s", of(&traced, |c| c.diagnose_s), "s", n);
        run.layer("serve.repair_s", of(&traced, |c| c.repair_s), "s", n);
        let late: Vec<f64> = traced
            .iter()
            .flat_map(|c| c.timed.iter().map(|t| t.late_us))
            .collect();
        run.layer(
            "loadgen.late_p99_us",
            quantile(&late, 0.99),
            "us",
            late.len(),
        );
        let traced_work = of(&traced, |c| c.diagnose_s + c.repair_s);
        run.layer("trace_overhead", traced_work / median(&work), "ratio", n);

        let dir = last_dir.as_deref().expect("the last cycle's deployment");
        tracer.time("replay", || replay(dir, run, tracer)).0?;
        run.unavailable(
            "nn.graph.forward_b32_us",
            "single-row open-loop traffic: batches stay at about one row",
        );
        run.unavailable_all(
            &layers::CELL_LAYERS,
            "no staged Table I cell here; the server's repair store is internal to it",
        );
    }
    if let Some(dir) = last_dir {
        let _ = std::fs::remove_dir_all(dir);
    }
    Ok(())
}
