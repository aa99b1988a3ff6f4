//! Substrate throughput benchmarks: the tensor/NN kernels every
//! experiment spends its time in.
//!
//! The `*_serial` vs `*_parallel` pairs compare the scalar reference GEMM
//! with fan-out pinned off against the default `ComputeCtx` dispatch
//! (threaded under the `parallel` feature); `scripts/record_baseline.sh`
//! captures their ratio into `BENCH_baseline.json`.

use criterion::{criterion_group, criterion_main, BatchSize, Criterion};
use deepmorph_data::{DataGenerator, SynthDigits};
use deepmorph_nn::prelude::*;
use deepmorph_tensor::backend::{self, GemmSpec};
use deepmorph_tensor::conv::{im2col, Conv2dGeometry};
use deepmorph_tensor::init::stream_rng;
use deepmorph_tensor::{workspace, Tensor};

/// Deterministic pseudo-random activations in `[-1, 1]` (never exactly
/// zero, so the zero-skip branch in the matmul kernels stays cold, as it
/// is for real activations).
fn synth_tensor(shape: &[usize], salt: u64) -> Tensor {
    let len: usize = shape.iter().product();
    let data: Vec<f32> = (0..len)
        .map(|i| {
            let h = (i as u64)
                .wrapping_mul(0x9E37_79B9_7F4A_7C15)
                .wrapping_add(salt);
            ((h >> 40) as f32 / (1u64 << 24) as f32).mul_add(2.0, -1.0) + 1e-4
        })
        .collect();
    Tensor::from_vec(data, shape).unwrap()
}

/// `spec`'s product on the scalar reference backend into a workspace
/// tensor, with the fan-out hint exactly as `spec` sets it.
fn scalar_product(spec: GemmSpec, a: &Tensor, b: &Tensor) -> Tensor {
    let mut out = workspace::tensor_zeroed(&[spec.m, spec.n]);
    backend::scalar().gemm(&spec, a.data(), b.data(), out.data_mut());
    out
}

fn bench_matmul_serial_vs_parallel(c: &mut Criterion) {
    let mut group = c.benchmark_group("tensor");
    let ctx = ComputeCtx::default();
    for &n in &[128usize, 256] {
        let a = synth_tensor(&[n, n], 1);
        let b = synth_tensor(&[n, n], 2);
        group.bench_function(format!("matmul_serial_{n}x{n}"), |bench| {
            bench.iter(|| scalar_product(GemmSpec::nn(n, n, n), &a, &b))
        });
        group.bench_function(format!("matmul_parallel_{n}x{n}"), |bench| {
            bench.iter(|| ctx.matmul(&a, &b).unwrap())
        });
    }
    group.finish();
}

fn bench_conv_batch64_serial_vs_parallel(c: &mut Criterion) {
    // The batch-64 convolution hot path: im2col lowering plus the
    // `patches @ W^T` GEMM of a LeNet-scale 8→16 channel 3x3 layer.
    let mut group = c.benchmark_group("conv_b64");
    let geo = Conv2dGeometry::new(8, 16, 16, 16, 3, 3, 1, 1).unwrap();
    let x = synth_tensor(&[64, 8, 16, 16], 3);
    let cols = im2col(&x, &geo).unwrap(); // [64*256, 72]
    let mut wrng = stream_rng(1, "bench-conv-w");
    let w = deepmorph_tensor::init::Init::HeNormal.materialize(
        &[16, geo.patch_len()],
        geo.patch_len(),
        16,
        &mut wrng,
    );
    let ctx = ComputeCtx::default();
    let (m, k) = (cols.shape()[0], cols.shape()[1]);
    group.bench_function("gemm_serial", |b| {
        b.iter(|| scalar_product(GemmSpec::nt(m, k, 16), &cols, &w))
    });
    group.bench_function("gemm_parallel", |b| {
        b.iter(|| ctx.matmul_nt(&cols, &w).unwrap())
    });
    group.bench_function("im2col", |b| b.iter(|| im2col(&x, &geo).unwrap()));
    let mut rng = stream_rng(2, "bench-conv-layer");
    let mut layer = Conv2d::new(8, 16, 16, 16, 3, 1, 1, &mut rng).unwrap();
    group.bench_function("layer_forward", |b| {
        b.iter(|| layer.forward(&[&x], Mode::Eval).unwrap())
    });
    group.bench_function("layer_forward_backward", |b| {
        b.iter_batched(
            || Tensor::ones(&[64, 16, 16, 16]),
            |grad| {
                let _ = layer.forward(&[&x], Mode::Train).unwrap();
                layer.backward(&grad).unwrap()
            },
            BatchSize::SmallInput,
        )
    });
    group.finish();
}

/// One conv training step with full workspace recycling — the per-batch
/// shape the graph executor drives.
fn conv_train_step(layer: &mut Conv2d, x: &Tensor, grad: &Tensor) {
    let y = layer.forward(&[x], Mode::Train).unwrap();
    workspace::recycle_tensor(y);
    let gx = layer.backward(grad).unwrap().into_first();
    workspace::recycle_tensor(gx);
}

/// Steady-state benches: the same hot loops as above, measured *warm* —
/// after the thread's workspace arena has absorbed every buffer the loop
/// needs, so iterations perform zero heap allocations
/// (`tests/alloc_regression.rs` pins that).
fn bench_steady_state(c: &mut Criterion) {
    let mut group = c.benchmark_group("steady");

    // Warm batch-64 conv forward+backward.
    let mut rng = stream_rng(11, "bench-steady-conv");
    let mut layer = Conv2d::new(8, 16, 16, 16, 3, 1, 1, &mut rng).unwrap();
    let x = synth_tensor(&[64, 8, 16, 16], 13);
    let grad = Tensor::ones(&[64, 16, 16, 16]);
    for _ in 0..3 {
        conv_train_step(&mut layer, &x, &grad);
    }
    group.bench_function("conv_b64_step_warm", |b| {
        b.iter(|| conv_train_step(&mut layer, &x, &grad))
    });

    // Warm probe-training epoch: the softmax-regression loop
    // `core::instrument::fit_probe` runs per probe point (1500 samples ×
    // 64 features × 10 classes, batch 128, fixed order).
    let (n, f, classes, batch) = (1500usize, 64usize, 10usize, 128usize);
    let feats = synth_tensor(&[n, f], 17);
    let labels: Vec<usize> = (0..n).map(|i| i % classes).collect();
    let order: Vec<usize> = (0..n).collect();
    let mut wrng = stream_rng(19, "bench-steady-probe");
    let mut weight = deepmorph_tensor::init::Init::XavierUniform.materialize(
        &[classes, f],
        f,
        classes,
        &mut wrng,
    );
    let mut bias = Tensor::zeros(&[classes]);
    let loss = SoftmaxCrossEntropy::new();
    let mut by: Vec<usize> = Vec::with_capacity(batch);
    let ctx = ComputeCtx::default();
    let mut probe_epoch = |weight: &mut Tensor, bias: &mut Tensor| {
        for chunk in order.chunks(batch) {
            let bx = deepmorph_nn::train::gather_batch(&feats, chunk).unwrap();
            by.clear();
            by.extend(chunk.iter().map(|&i| labels[i]));
            let mut logits = ctx.matmul_nt(&bx, weight).unwrap();
            logits.add_row_broadcast(bias).unwrap();
            let (_, g) = loss.compute(&logits, &by).unwrap();
            workspace::recycle_tensor(logits);
            let dw = ctx.matmul_tn(&g, &bx).unwrap();
            workspace::recycle_tensor(bx);
            weight.axpy(-0.3, &dw).unwrap();
            workspace::recycle_tensor(dw);
            let db = g.sum_axis0().unwrap();
            bias.axpy(-0.3, &db).unwrap();
            workspace::recycle_tensor(db);
            workspace::recycle_tensor(g);
        }
    };
    for _ in 0..2 {
        probe_epoch(&mut weight, &mut bias);
    }
    group.bench_function("probe_epoch_warm", |b| {
        b.iter(|| probe_epoch(&mut weight, &mut bias))
    });
    group.finish();
}

fn bench_matmul(c: &mut Criterion) {
    let mut group = c.benchmark_group("tensor");
    let ctx = ComputeCtx::default();
    for &n in &[32usize, 128] {
        let a =
            Tensor::from_vec((0..n * n).map(|i| (i % 13) as f32 - 6.0).collect(), &[n, n]).unwrap();
        let b = a.clone();
        group.bench_function(format!("matmul_{n}x{n}"), |bench| {
            bench.iter(|| ctx.matmul(&a, &b).unwrap())
        });
    }
    group.finish();
}

fn bench_im2col(c: &mut Criterion) {
    let geo = Conv2dGeometry::new(8, 16, 16, 16, 3, 3, 1, 1).unwrap();
    let x = Tensor::from_vec(
        (0..8 * 8 * 256).map(|i| (i % 7) as f32).collect(),
        &[8, 8, 16, 16],
    )
    .unwrap();
    c.bench_function("tensor/im2col_8x8x16x16_k3", |b| {
        b.iter(|| im2col(&x, &geo).unwrap())
    });
}

fn bench_conv_layer(c: &mut Criterion) {
    let mut group = c.benchmark_group("nn");
    let mut rng = stream_rng(1, "bench");
    let mut layer = Conv2d::new(8, 16, 16, 16, 3, 1, 1, &mut rng).unwrap();
    let x = Tensor::from_vec(
        (0..8 * 8 * 256)
            .map(|i| ((i % 11) as f32 - 5.0) * 0.1)
            .collect(),
        &[8, 8, 16, 16],
    )
    .unwrap();
    group.bench_function("conv2d_forward_8x8x16x16", |b| {
        b.iter(|| layer.forward(&[&x], Mode::Eval).unwrap())
    });
    group.bench_function("conv2d_forward_backward_8x8x16x16", |b| {
        b.iter_batched(
            || Tensor::ones(&[8, 16, 16, 16]),
            |grad| {
                let _ = layer.forward(&[&x], Mode::Train).unwrap();
                layer.backward(&grad).unwrap()
            },
            BatchSize::SmallInput,
        )
    });
    group.finish();
}

fn bench_batchnorm(c: &mut Criterion) {
    let mut bn = BatchNorm2d::new(16);
    let x = Tensor::from_vec(
        (0..8 * 16 * 64)
            .map(|i| ((i % 19) as f32 - 9.0) * 0.2)
            .collect(),
        &[8, 16, 8, 8],
    )
    .unwrap();
    c.bench_function("nn/batchnorm_train_8x16x8x8", |b| {
        b.iter(|| bn.forward(&[&x], Mode::Train).unwrap())
    });
}

fn bench_data_generation(c: &mut Criterion) {
    let gen = SynthDigits::new();
    c.bench_function("data/synth_digits_100_images", |b| {
        b.iter_batched(
            || stream_rng(7, "bench-data"),
            |mut rng| gen.generate(10, &mut rng),
            BatchSize::SmallInput,
        )
    });
}

fn bench_training_epoch(c: &mut Criterion) {
    let gen = SynthDigits::new();
    let mut rng = stream_rng(3, "bench-train");
    let data = gen.generate(10, &mut rng);
    c.bench_function("nn/lenet_one_epoch_100_samples", |b| {
        b.iter_batched(
            || {
                let spec = deepmorph_models::ModelSpec::new(
                    deepmorph_models::ModelFamily::LeNet,
                    deepmorph_models::ModelScale::Tiny,
                    [1, 16, 16],
                    10,
                );
                let mut mrng = stream_rng(4, "bench-model");
                deepmorph_models::build_model(&spec, &mut mrng).unwrap()
            },
            |mut model| {
                let mut trainer = Trainer::new(TrainConfig {
                    epochs: 1,
                    batch_size: 32,
                    ..TrainConfig::default()
                });
                let mut trng = stream_rng(5, "bench-train-loop");
                trainer
                    .fit(&mut model.graph, data.images(), data.labels(), &mut trng)
                    .unwrap()
            },
            BatchSize::SmallInput,
        )
    });
}

criterion_group! {
    name = benches;
    config = Criterion::default().sample_size(10);
    targets = bench_matmul, bench_matmul_serial_vs_parallel,
              bench_conv_batch64_serial_vs_parallel, bench_steady_state,
              bench_im2col, bench_conv_layer, bench_batchnorm,
              bench_data_generation, bench_training_epoch
}
criterion_main!(benches);
