//! `serve_c32`: a saturating closed loop against a paper-scale AlexNet.
//!
//! A `[1, 16, 16]`, 10-class AlexNet is built from the seed and
//! registered in memory; the server starts as a deployment starts it,
//! `ServerConfig::default()` on loopback port 0. Two connections, one
//! generator thread each, pipeline 16 single-row predicts apiece, so 32
//! are in flight. That saturates the micro-batcher (batches of ~30 rows)
//! and the dense-tail GEMMs dominate: batching, scheduling and kernel
//! changes show up here as `work_s` (seconds per 1000 predicts). The
//! load runs in half-second segments on fresh connections, with the
//! host gauge sampled between them; every end-to-end time is scaled by
//! the gauge (see `crate::gauge`).
//!
//! Every prediction is checked against an in-process
//! `Graph::forward_inference` of the same model, and the logits of every
//! 16th pool entry are compared bitwise.

use std::net::SocketAddr;
use std::time::{Duration, Instant};

use deepmorph_models::{build_model, ModelFamily, ModelHandle, ModelScale, ModelSpec};
use deepmorph_serve::prelude::{Client, ModelRegistry, Server, ServerConfig, TelemetryConfig};
use deepmorph_tensor::init::stream_rng;
use deepmorph_tensor::Tensor;

use crate::gauge::Gauge;
use crate::layers;
use crate::loadgen::{closed_loop, encode_predict, input_row, ClosedLoopResult};
use crate::report::Run;
use crate::stats::{self, median, supported_tail};
use crate::trace::Tracer;
use crate::Ctx;

const MODEL: &str = "alexnet-paper";
const SHAPE: [usize; 3] = [1, 16, 16];
const CLASSES: usize = 10;
const CONNECTIONS: usize = 2;
const WINDOW: usize = 16;
/// Distinct inputs, shared round-robin by the connections.
const POOL: usize = 1024;
/// Every this-many-th pool entry asks for logits, checked bitwise.
const LOGITS_EVERY: usize = 16;
/// Set-ups per run; `setup_s` is their median.
const SETUPS: usize = 3;
/// Load before the measured window (batch sizes settle, replicas and
/// buffers warm); not measured.
const RAMP_S: f64 = 1.0;
/// Length of one measured segment of load.
const SEGMENT_S: f64 = 0.5;

fn build(seed: u64) -> Result<ModelHandle, String> {
    let spec = ModelSpec::new(ModelFamily::AlexNet, ModelScale::Paper, SHAPE, CLASSES);
    build_model(&spec, &mut stream_rng(seed, "perfbench-serve-c32"))
        .map_err(|e| format!("build AlexNet: {e}"))
}

/// Stacks single rows into one `[n, c, h, w]` batch.
fn stack(rows: &[Tensor]) -> Tensor {
    let data: Vec<f32> = rows.iter().flat_map(|r| r.data().iter().copied()).collect();
    Tensor::from_vec(data, &[rows.len(), SHAPE[0], SHAPE[1], SHAPE[2]]).expect("batch shape")
}

/// Deploys the model: build, register, start, warm up.
fn setup(seed: u64, rows: &[Tensor], tracer: &Tracer) -> Result<Server, String> {
    let mut model = tracer.time("model.build", || build(seed)).0?;
    let mut registry = ModelRegistry::new();
    tracer
        .time("registry.register", || {
            registry.register(MODEL, &mut model, None)
        })
        .0
        .map_err(|e| format!("register: {e}"))?;
    let server = tracer
        .time("server.start", || {
            Server::start(registry, ServerConfig::default())
        })
        .0
        .map_err(|e| format!("server start: {e}"))?;
    tracer
        .time("warmup", || -> Result<(), String> {
            let mut client =
                Client::connect(server.local_addr()).map_err(|e| format!("connect: {e}"))?;
            for row in rows.iter().take(32) {
                client
                    .predict(MODEL, row)
                    .map_err(|e| format!("warm-up predict: {e}"))?;
            }
            Ok(())
        })
        .0?;
    Ok(server)
}

/// Drives every connection's closed loop for `seconds` on fresh
/// connections, one generator thread each.
fn segment(addr: SocketAddr, wires: &[Vec<Vec<u8>>], seconds: f64) -> Vec<ClosedLoopResult> {
    let origin = Instant::now();
    let until = origin + Duration::from_secs_f64(seconds);
    std::thread::scope(|scope| {
        let handles: Vec<_> = wires
            .iter()
            .map(|w| scope.spawn(move || closed_loop(addr, w, WINDOW, origin, until)))
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("load generator thread"))
            .collect()
    })
}

/// Latencies (failures as infinite) of one segment's completions, and
/// its throughput: successful completions between the first and the
/// last one, over the time between them.
fn summary(results: &[ClosedLoopResult]) -> (Vec<f64>, f64) {
    let inside: Vec<_> = results.iter().flat_map(|r| &r.completions).collect();
    let latencies = inside.iter().map(|c| c.latency_us).collect();
    let done: Vec<f64> = inside
        .iter()
        .filter(|c| c.latency_us.is_finite())
        .map(|c| c.done_s)
        .collect();
    let first = done.iter().copied().fold(f64::INFINITY, f64::min);
    let last = done.iter().copied().fold(f64::NEG_INFINITY, f64::max);
    let rps = if done.len() > 1 {
        (done.len() - 1) as f64 / (last - first)
    } else {
        0.0
    };
    (latencies, rps)
}

pub fn run(ctx: &Ctx, run: &mut Run, tracer: &Tracer, gauge: &mut Gauge) -> Result<(), String> {
    let rows: Vec<Tensor> = (0..POOL)
        .map(|i| input_row(ctx.seed, i as u64, SHAPE))
        .collect();

    // Reference outputs, outside every timed set-up.
    let (mut ref_model, ref_logits, ref_preds) = tracer
        .time("reference", || -> Result<_, String> {
            let mut model = build(ctx.seed)?;
            let mut logits: Vec<Vec<f32>> = Vec::with_capacity(POOL);
            let mut preds = Vec::with_capacity(POOL);
            for chunk in rows.chunks(32) {
                let out = model
                    .graph
                    .forward_inference(&stack(chunk))
                    .map_err(|e| format!("reference forward: {e}"))?;
                preds.extend(out.argmax_rows().map_err(|e| format!("argmax: {e}"))?);
                logits.extend(out.data().chunks(CLASSES).map(<[f32]>::to_vec));
            }
            Ok((model, logits, preds))
        })
        .0?;

    let mut setup_times = Vec::with_capacity(SETUPS);
    let mut server = None;
    for i in 0..SETUPS {
        let (srv, secs) = tracer.time("setup", || setup(ctx.seed, &rows, tracer));
        let srv = srv?;
        setup_times.push(secs);
        gauge.sample(1);
        if i + 1 < SETUPS {
            tracer.time("server.shutdown", || srv.shutdown());
        } else {
            server = Some(srv);
        }
    }
    let server = server.expect("at least one set-up");

    // Connection c sends pool entries c, c + 2, c + 4, ...
    let wires: Vec<Vec<Vec<u8>>> = (0..CONNECTIONS)
        .map(|c| {
            (0..POOL / CONNECTIONS)
                .map(|slot| {
                    let i = slot * CONNECTIONS + c;
                    encode_predict(
                        slot as u64 + 1,
                        MODEL,
                        &rows[i],
                        i.is_multiple_of(LOGITS_EVERY),
                    )
                })
                .collect()
        })
        .collect();

    // An unmeasured ramp, then segments of load with the gauge sampled
    // between them. A traced run measures tracing off for its first half
    // of the segments and on for the second; the ratio is the tracing
    // overhead.
    let addr = server.local_addr();
    let ramp = tracer.time("load.ramp", || segment(addr, &wires, RAMP_S)).0;
    let segments = ((ctx.seconds / SEGMENT_S).round() as usize).max(2);
    let untraced_n = if ctx.trace { segments / 2 } else { segments };
    let mut loads: Vec<Vec<ClosedLoopResult>> = Vec::with_capacity(segments);
    tracer.time("load.untraced", || {
        for _ in 0..untraced_n {
            loads.push(segment(addr, &wires, SEGMENT_S));
            gauge.sample(1);
        }
    });
    let mid_stats = ctx.trace.then(|| {
        let stats = server.stats();
        deepmorph_telemetry::install(TelemetryConfig::default());
        tracer.time("load.traced", || {
            for _ in untraced_n..segments {
                loads.push(segment(addr, &wires, SEGMENT_S));
            }
        });
        stats
    });

    // Output checks.
    let mut compared = 0usize;
    let mut differing = 0usize;
    let mut logit_rows = 0usize;
    let mut logit_diffs = 0usize;
    let mut failures = 0u64;
    let mut attempted = 0u64;
    for seg in std::iter::once(&ramp).chain(&loads) {
        for (c, r) in seg.iter().enumerate() {
            for done in &r.completions {
                if done.latency_us.is_finite() {
                    compared += 1;
                    differing +=
                        usize::from(done.prediction != ref_preds[done.index * CONNECTIONS + c]);
                    attempted += 1;
                }
            }
            for (slot, logits) in &r.logits {
                let want = &ref_logits[slot * CONNECTIONS + c];
                logit_rows += 1;
                let same = logits.data().len() == want.len()
                    && logits
                        .data()
                        .iter()
                        .zip(want)
                        .all(|(a, b)| a.to_bits() == b.to_bits());
                logit_diffs += usize::from(!same);
            }
            failures += r.failures;
            attempted += r.failures;
        }
    }
    run.check(
        "predictions_match_reference",
        compared > 0 && differing == 0,
        format!(
            "{compared} served predictions vs in-process forward_inference, {differing} differ"
        ),
    );
    run.check(
        "sampled_logits_bitwise",
        logit_rows > 0 && logit_diffs == 0,
        format!("{logit_rows} served logit rows vs reference, {logit_diffs} not bitwise equal"),
    );
    run.count(attempted, failures);

    // Every end-to-end time is scaled by the host gauge (see
    // `crate::gauge`); work_s is the median over segments.
    let untraced: Vec<(Vec<f64>, f64)> = loads[..untraced_n].iter().map(|s| summary(s)).collect();
    let works: Vec<f64> = untraced.iter().map(|(_, rps)| 1000.0 / rps).collect();
    let latencies: Vec<f64> = untraced
        .iter()
        .flat_map(|(l, _)| l.iter().copied())
        .collect();
    let rps = 1000.0 / median(&works);
    let scale = gauge.scale();
    run.e2e_scaled("setup_s", median(&setup_times), "s", SETUPS, scale);
    run.e2e_scaled("p50_us", median(&latencies), "us", latencies.len(), scale);
    run.e2e_scaled("work_s", median(&works), "s", latencies.len(), scale);
    run.info("throughput_rps", rps, "req/s", untraced_n);
    if !ctx.trace {
        run.e2e("peak_rss_mb", stats::peak_rss_mb(), "MiB", 1);
    }
    let (pct, tail) = supported_tail(&latencies);
    run.info(&format!("p{pct}_us"), tail, "us", latencies.len());

    if let Some(before) = mid_stats {
        let traced: Vec<(Vec<f64>, f64)> = loads[untraced_n..].iter().map(|s| summary(s)).collect();
        let traced_rps = median(&traced.iter().map(|(_, rps)| *rps).collect::<Vec<_>>());
        let after = server.stats();
        let report = Client::connect(addr)
            .and_then(|mut c| c.telemetry())
            .map_err(|e| format!("telemetry: {e}"))?;
        deepmorph_telemetry::clear();
        layers::batch_layers(run, &layers::stats_delta(&before, &after));
        layers::stage_layers(run, &report.snapshot);
        let traced_s = (segments - untraced_n) as f64 * SEGMENT_S;
        layers::gemm_layers(run, &report.snapshot, traced_s);
        run.layer("trace_overhead", rps / traced_rps, "ratio", traced.len());

        let b1 = tracer
            .time("nn.graph.forward_b1", || {
                layers::forward_us(&mut ref_model.graph, &rows[0], 200)
            })
            .0;
        run.layer("nn.graph.forward_b1_us", b1, "us", 200);
        let batch = stack(&rows[..32]);
        let b32 = tracer
            .time("nn.graph.forward_b32", || {
                layers::forward_us(&mut ref_model.graph, &batch, 50)
            })
            .0;
        run.layer("nn.graph.forward_b32_us", b32, "us", 50);
        run.info("nn.graph.forward_b32_per_row_us", b32 / 32.0, "us", 50);
        tracer.time("tensor.gemm.peak", || layers::peak_gflops(run));

        run.unavailable_all(
            &layers::REPAIR_LAYERS,
            "no diagnose or repair here (the model has no training-data sidecar)",
        );
        run.unavailable_all(
            &layers::OFFLINE_LAYERS,
            "serving only: no training, diagnosis pipeline or artifact store on this path",
        );
        run.unavailable(
            "loadgen.late_p99_us",
            "closed loop: a request is sent when a slot frees, so it is never late",
        );
    }
    tracer.time("server.shutdown", || server.shutdown());
    Ok(())
}
