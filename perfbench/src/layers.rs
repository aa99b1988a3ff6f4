//! Per-layer measurements shared by the workloads: serving counters and
//! stage histograms the program already exports, per-GEMM-shape kernel
//! timings, and the benchmark's own timed calls into `deepmorph-nn` and
//! `deepmorph-tensor`.

use std::time::Instant;

use deepmorph_data::Dataset;
use deepmorph_nn::prelude::{
    clip_gradients, Graph, Mode, Optimizer, Sgd, SoftmaxCrossEntropy, TrainConfig,
};
use deepmorph_nn::train::{gather_batch, OptimizerKind};
use deepmorph_serve::prelude::{Stage, StatsSnapshot, TelemetrySnapshot};
use deepmorph_tensor::backend::{self, Backend, ComputeCtx, GemmSpec};
use deepmorph_tensor::{workspace, Tensor};

use crate::report::Run;
use crate::stats::median;

/// Per-layer metrics of the serving path.
pub const SERVE_LAYERS: [&str; 9] = [
    "serve.batch.rows_per_batch",
    "serve.batch.coalesced_frac",
    "serve.batch.rejected",
    "serve.stage.queue_wait_p50_us",
    "serve.stage.coalesce_p50_us",
    "serve.stage.compute_p50_us",
    "serve.stage.assembly_p50_us",
    "serve.stage.flush_p50_us",
    "serve.event_loop.wakeups_per_request",
];

/// Per-layer metrics of live diagnosis and repair.
pub const REPAIR_LAYERS: [&str; 5] = [
    "serve.registry.swap_us",
    "serve.repair.probe_trainings",
    "serve.diagnose_warm_ms",
    "serve.diagnose_s",
    "serve.repair_s",
];

/// Per-layer metrics of a staged Table I cell and its artifact store.
pub const CELL_LAYERS: [&str; 8] = [
    "core.stage.trained_s",
    "core.stage.instrumented_s",
    "core.stage.footprints_s",
    "core.stage.report_s",
    "core.stage.residual_s",
    "core.artifact.hits",
    "core.artifact.misses",
    "core.artifact.writes",
];

/// Per-layer metrics of the offline path: data, pipeline, stages and
/// training.
pub const OFFLINE_LAYERS: [&str; 15] = [
    "data.injected_s",
    "core.pipeline.prepare_s",
    "core.pipeline.diagnose_ms",
    "core.stage.repaired_s",
    "core.stage.trained_s",
    "core.stage.instrumented_s",
    "core.stage.footprints_s",
    "core.stage.report_s",
    "core.stage.residual_s",
    "core.artifact.hits",
    "core.artifact.misses",
    "core.artifact.writes",
    "nn.train.forward_s",
    "nn.train.backward_s",
    "nn.train.optimizer_s",
];

/// Counter deltas `after - before` of the serving counters the
/// per-layer metrics read.
pub fn stats_delta(before: &StatsSnapshot, after: &StatsSnapshot) -> StatsSnapshot {
    StatsSnapshot {
        requests: after.requests - before.requests,
        rows: after.rows - before.rows,
        batches: after.batches - before.batches,
        coalesced_batches: after.coalesced_batches - before.coalesced_batches,
        errors: after.errors - before.errors,
        busy_rejections: after.busy_rejections - before.busy_rejections,
        probe_trainings: after.probe_trainings - before.probe_trainings,
        expired: after.expired - before.expired,
        loop_wakeups: after.loop_wakeups - before.loop_wakeups,
        ..StatsSnapshot::default()
    }
}

/// `serve.batch.*` and `serve.event_loop.*` from a counter delta.
pub fn batch_layers(run: &mut Run, d: &StatsSnapshot) {
    let batches = d.batches.max(1) as f64;
    let requests = d.requests.max(1) as f64;
    let n = d.batches as usize;
    run.layer(
        "serve.batch.rows_per_batch",
        d.rows as f64 / batches,
        "rows",
        n,
    );
    run.layer(
        "serve.batch.coalesced_frac",
        d.coalesced_batches as f64 / batches,
        "fraction",
        n,
    );
    run.layer(
        "serve.batch.rejected",
        (d.busy_rejections + d.expired) as f64,
        "count",
        d.requests as usize,
    );
    run.layer(
        "serve.event_loop.wakeups_per_request",
        d.loop_wakeups as f64 / requests,
        "ratio",
        d.requests as usize,
    );
}

/// `serve.stage.*_p50_us` from the telemetry stage histograms.
pub fn stage_layers(run: &mut Run, snapshot: &TelemetrySnapshot) {
    for stage in [
        Stage::QueueWait,
        Stage::Coalesce,
        Stage::Compute,
        Stage::Assembly,
        Stage::Flush,
    ] {
        let hist = &snapshot.stages[stage.index()];
        run.layer(
            &format!("serve.stage.{}_p50_us", stage.name()),
            hist.quantile(0.5) as f64,
            "us",
            hist.count() as usize,
        );
    }
}

/// Totals over the per-GEMM-shape timings: `(calls, seconds, flops)`.
/// Time is the bucket-midpoint estimate from each shape's log₂
/// histogram (within ~3%), summed over every thread that ran a GEMM.
pub fn gemm_totals(snapshot: &TelemetrySnapshot) -> (u64, f64, f64) {
    let mut calls = 0u64;
    let mut nanos = 0f64;
    let mut flops = 0f64;
    for kernel in &snapshot.kernels {
        let count = kernel.nanos.count();
        calls += count;
        flops += 2.0 * (kernel.m * kernel.k * kernel.n) as f64 * count as f64;
        for (index, &n) in kernel.nanos.buckets.iter().enumerate() {
            if n > 0 {
                let (lo, hi) = deepmorph_telemetry::bucket_bounds(index);
                nanos += (lo as f64 + hi as f64) / 2.0 * n as f64;
            }
        }
    }
    (calls, nanos * 1e-9, flops)
}

/// `tensor.gemm.*` from the kernel timings of a traced window of
/// `wall_s` seconds.
pub fn gemm_layers(run: &mut Run, snapshot: &TelemetrySnapshot, wall_s: f64) {
    let (calls, seconds, flops) = gemm_totals(snapshot);
    let shapes = snapshot.kernels.len();
    run.layer("tensor.gemm.calls", calls as f64, "count", shapes);
    run.layer(
        "tensor.gemm.share",
        seconds / wall_s.max(1e-9),
        "fraction",
        shapes,
    );
    run.layer(
        "tensor.gemm.gflops",
        if seconds > 0.0 {
            flops / seconds / 1e9
        } else {
            0.0
        },
        "GFLOP/s",
        calls as usize,
    );
    run.info("tensor.gemm.shapes", shapes as f64, "count", shapes);
}

/// `tensor.gemm.peak_gflops`: a serial square GEMM on the scalar
/// backend (and on the SIMD backend when this build and CPU have it),
/// median of several repetitions. Must run with telemetry disarmed, so
/// the probe does not land in the workload's kernel timings.
pub fn peak_gflops(run: &mut Run) {
    const N: usize = 256;
    const REPS: usize = 7;
    let a: Vec<f32> = (0..N * N)
        .map(|i| ((i * 7919) % 1000) as f32 * 1e-3)
        .collect();
    let b: Vec<f32> = (0..N * N)
        .map(|i| ((i * 104_729) % 1000) as f32 * 1e-3)
        .collect();
    let mut out = vec![0f32; N * N];
    let spec = GemmSpec::nn(N, N, N).parallel(false);
    let flops = 2.0 * (N * N * N) as f64;
    let mut measure = |kernel: &dyn Backend| {
        let rates: Vec<f64> = (0..REPS)
            .map(|_| {
                out.iter_mut().for_each(|v| *v = 0.0);
                let start = Instant::now();
                kernel.gemm(&spec, &a, &b, &mut out);
                flops / start.elapsed().as_secs_f64() / 1e9
            })
            .collect();
        median(&rates)
    };
    let scalar = measure(ComputeCtx::scalar().backend().as_ref());
    let simd = backend::simd_available().then(|| measure(ComputeCtx::auto().backend().as_ref()));
    run.layer(
        "tensor.gemm.peak_gflops",
        simd.unwrap_or(scalar).max(scalar),
        "GFLOP/s",
        REPS,
    );
    run.info("tensor.gemm.peak_scalar_gflops", scalar, "GFLOP/s", REPS);
    if let Some(simd) = simd {
        run.info("tensor.gemm.peak_simd_gflops", simd, "GFLOP/s", REPS);
    }
}

/// Median wall time of `Graph::forward_inference` on `x`, in µs.
pub fn forward_us(graph: &mut Graph, x: &Tensor, reps: usize) -> f64 {
    let times: Vec<f64> = (0..reps)
        .map(|_| {
            let start = Instant::now();
            let logits = graph.forward_inference(x).expect("forward");
            let us = start.elapsed().as_secs_f64() * 1e6;
            workspace::recycle_tensor(logits);
            us
        })
        .collect();
    median(&times)
}

/// Seconds spent in each part of one training epoch.
#[derive(Debug, Clone, Copy, Default)]
pub struct EpochSplit {
    /// Batch gather, `Graph::forward` in train mode and the loss.
    pub forward_s: f64,
    /// `zero_grad` plus `Graph::backward`.
    pub backward_s: f64,
    /// Gradient clipping plus the optimizer step.
    pub optimizer_s: f64,
    pub batches: usize,
}

/// Replays one epoch of `Trainer::fit`'s loop (same optimizer, batch
/// size and clipping as `config`, unshuffled) on `graph`, timing each
/// part separately.
pub fn epoch_replay(graph: &mut Graph, train: &Dataset, config: &TrainConfig) -> EpochSplit {
    let mut optimizer: Box<dyn Optimizer> = match config.optimizer {
        OptimizerKind::Sgd {
            momentum,
            weight_decay,
        } => Box::new(Sgd::with_momentum(
            config.learning_rate,
            momentum,
            weight_decay,
        )),
        OptimizerKind::Adam => Box::new(deepmorph_nn::prelude::Adam::new(config.learning_rate)),
    };
    let loss_fn = SoftmaxCrossEntropy::new();
    let order: Vec<usize> = (0..train.len()).collect();
    let mut split = EpochSplit::default();
    let mut labels = Vec::with_capacity(config.batch_size);
    for chunk in order.chunks(config.batch_size.max(1)) {
        let t0 = Instant::now();
        let bx = gather_batch(train.images(), chunk).expect("gather");
        labels.clear();
        labels.extend(chunk.iter().map(|&i| train.labels()[i]));
        let logits = graph.forward(&bx, Mode::Train).expect("forward");
        workspace::recycle_tensor(bx);
        let (_loss, grad) = loss_fn.compute(&logits, &labels).expect("loss");
        workspace::recycle_tensor(logits);
        let t1 = Instant::now();
        graph.zero_grad();
        graph.backward(&grad).expect("backward");
        workspace::recycle_tensor(grad);
        let t2 = Instant::now();
        if let Some(max_norm) = config.clip_grad_norm {
            clip_gradients(graph, max_norm);
        }
        optimizer.step(graph).expect("optimizer step");
        let t3 = Instant::now();
        split.forward_s += (t1 - t0).as_secs_f64();
        split.backward_s += (t2 - t1).as_secs_f64();
        split.optimizer_s += (t3 - t2).as_secs_f64();
        split.batches += 1;
    }
    graph.clear_caches();
    split
}

/// `nn.train.*` from an epoch replay.
pub fn train_layers(run: &mut Run, split: &EpochSplit) {
    run.layer("nn.train.forward_s", split.forward_s, "s", split.batches);
    run.layer("nn.train.backward_s", split.backward_s, "s", split.batches);
    run.layer(
        "nn.train.optimizer_s",
        split.optimizer_s,
        "s",
        split.batches,
    );
}
